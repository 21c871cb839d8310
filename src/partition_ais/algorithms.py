"""Solver loops with exact evaluation accounting.

Every runner charges each evaluation to a _Ledger, spends exactly its budget
unless a target stops it first, and is bit-for-bit deterministic in
(instance, parameters, seed). Mutation randomness comes in blocks from a
MutationStream, and hypermutation walk orders from walk_orders. One
evaluation in a runner's loop is local arithmetic on the parent's loads: an
offspring is scored by its load change against its parent, and its bits are
copied or flipped only once it is kept; an offspring with no flipped bit is
charged but not computed (Carvalho Pinto and Doerr, "Towards a More
Practice-Aware Runtime Analysis of Evolutionary Algorithms", 2018).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from .core import Assignment, ContractViolationError, Instance, is_local_optimum
from .operators import MutationStream, walk, walk_orders

Rng = np.random.Generator

# Evaluations a loop leaves pending at most before it charges them: bounds
# the ledger's list of makespans when a long run reaches no event.
_CHUNK = 256


@dataclass(frozen=True)
class StopCondition:
    """Evaluation budget plus optional absolute or ratio targets."""

    max_evaluations: int
    target_makespan: int | None = None
    target_ratio: Fraction | None = None

    def __post_init__(self) -> None:
        if self.max_evaluations < 1:
            raise ContractViolationError("max_evaluations must be at least 1")
        if self.target_ratio is not None and self.target_ratio < 1:
            raise ContractViolationError("target_ratio below 1 is unreachable")

    def resolve_targets(self, optimum: int | None) -> tuple[int | None, int | None]:
        """Absolute thresholds (target, ratio); ratio needs a known optimum."""
        ratio_target = None
        if self.target_ratio is not None:
            if optimum is None:
                raise ContractViolationError("target_ratio requires a known optimum")
            r = self.target_ratio
            ratio_target = (optimum * r.numerator) // r.denominator
        return self.target_makespan, ratio_target


@dataclass(frozen=True)
class TrialResult:
    """Per-run record; stagnation_log keeps (evaluation index, event) pairs."""

    seed: int
    evaluations_used: int
    best_makespan: int
    best_assignment: Assignment
    terminated_by: str
    reinit_count: int | None
    stagnation_log: tuple[tuple[int, str], ...]
    fitness_trace: tuple[int, ...] | None = None


class _Ledger:
    """One trial's account: its generator and random starts, the evaluation
    count, the trace, best-so-far, the event log, and the stop condition.

    A runner's loop appends the makespan of each evaluation to made; the
    ledger charges them before every start, improvement, logged event and
    result, and the loop itself after at most _CHUNK of them (a walk may
    end beyond).
    """

    def __init__(
        self, inst: Instance, stop: StopCondition, seed: int, optimum: int | None, record_trace: bool
    ) -> None:
        self.inst = inst
        self.seed = seed
        self.rng: Rng = np.random.Generator(np.random.PCG64(seed))
        self.budget = stop.max_evaluations
        self.target, self.ratio_target = stop.resolve_targets(optimum)
        self.trace: list[int] | None = [] if record_trace else None
        self.log: list[tuple[int, str]] = []
        self.made: list[int] = []  # makespans evaluated, not yet charged
        self.evals = 0
        self.best_f = inst.W + 1  # above every makespan
        self.best_x: Assignment | None = None
        self.reason: str | None = None

    @property
    def left(self) -> int:
        """Evaluations still to spend, pending ones counted; 0 once a target is met."""
        return 0 if self.reason is not None else self.budget - self.evals - len(self.made)

    def charge(self) -> None:
        """One evaluation per pending makespan, in order; empties made in place."""
        self.evals += len(self.made)
        if self.trace is not None:
            self.trace += self.made
        self.made.clear()

    def event(self, name: str) -> None:
        """Log name at the last evaluation, pending ones charged first."""
        self.charge()
        self.log.append((self.evals, name))

    def start(self, event: str | None = None) -> Assignment:
        """A uniformly random assignment: charged, passed to improved, returned.

        An event is logged at the start's own evaluation, before its arrival.
        """
        bits = self.rng.integers(0, 2, size=self.inst.n).tolist()
        load2 = sum(compress(self.inst.p, bits))
        x = Assignment(bits=bits, load1=self.inst.W - load2, load2=load2)
        self.made.append(x.makespan)
        if event is not None:
            self.event(event)
        self.improved(x, x.makespan)
        return x

    def improved(self, x: Assignment, f: int) -> None:
        """The search arrived at x, of makespan f: a start or a strict improvement.

        Logs a local-optimum arrival, and takes x as best-so-far if f beats it.
        The best is kept by reference, so a lineage that goes on changing x in
        place through equal-makespan moves exports its final state.
        """
        self.charge()
        if is_local_optimum(self.inst, x):
            self.log.append((self.evals, "local_optimum"))
        if f < self.best_f:
            self.best_f, self.best_x = f, x
            if self.target is not None and f <= self.target:
                self.reason = "target"
            elif self.ratio_target is not None and f <= self.ratio_target:
                self.reason = "ratio"

    def result(self, ageing: bool = False) -> TrialResult:
        self.charge()
        if self.best_x is None or self.best_f < (self.inst.W + 1) // 2:
            raise ContractViolationError("best makespan fell below W/2; accounting is broken")
        if self.evals > self.budget:
            raise ContractViolationError("evaluation budget was exceeded")
        return TrialResult(
            seed=int(self.seed),  # a plain int, also when seed carries its generator state
            evaluations_used=self.evals,
            best_makespan=self.best_f,
            best_assignment=self.best_x,
            terminated_by=self.reason or "budget",
            reinit_count=sum(e == "reinit" for _, e in self.log) if ageing else None,
            stagnation_log=tuple(self.log),
            fitness_trace=tuple(self.trace) if self.trace is not None else None,
        )


def _climb(
    led: _Ledger, x: Assignment, offspring: Iterator[Sequence[int]], seg_end: int
) -> None:
    """Mutate x in place, keeping offspring with f(y) <= f(x), until seg_end
    evaluations or a target. Each offspring is the bits it flips, scored by
    its load change against x."""
    p, W = led.inst.p, led.inst.W
    bits, load2 = x.bits, x.load2
    fx = x.makespan
    keep = led.made.append
    while led.evals < seg_end:
        for _, flips in zip(range(min(seg_end - led.evals, _CHUNK)), offspring):
            if not flips:  # the parent itself: charged, not computed
                keep(fx)
                continue
            l2 = load2
            for i in flips:
                l2 += -p[i] if bits[i] else p[i]
            l1 = W - l2
            fy = l1 if l1 > l2 else l2  # builtin max costs more than the rest
            keep(fy)
            if fy <= fx:
                for i in flips:
                    bits[i] ^= 1
                load2 = l2
                if fy < fx:
                    fx = fy
                    x.load1, x.load2 = l1, l2
                    led.improved(x, fx)
                    if led.reason is not None:
                        return
        led.charge()
    x.load1, x.load2 = W - load2, load2


def run_one_one_ea(
    inst: Instance,
    stop: StopCondition,
    seed: int,
    *,
    optimum: int | None = None,
    record_trace: bool = False,
) -> TrialResult:
    """Single parent, standard bit mutation, accept offspring iff not worse."""
    return run_with_restarts(
        "ea", inst, stop.max_evaluations, stop, seed,
        optimum=optimum, record_trace=record_trace,
    )


def run_rls(
    inst: Instance,
    stop: StopCondition,
    seed: int,
    *,
    optimum: int | None = None,
    record_trace: bool = False,
) -> TrialResult:
    """Single parent, one uniformly chosen bit flip, accept iff not worse."""
    return run_with_restarts(
        "rls", inst, stop.max_evaluations, stop, seed,
        optimum=optimum, record_trace=record_trace,
    )


def run_ia_hyp(
    inst: Instance,
    stop: StopCondition,
    seed: int,
    *,
    optimum: int | None = None,
    record_trace: bool = False,
) -> TrialResult:
    """Hypermutation walks with first-constructive stops; accept iff not worse.

    A walk that finds no strict improvement flips all n bits and therefore
    hands back the complement, which ties and is accepted. The walks run on
    x's bits in place; only a walk cut short by the budget can end worse, and
    it is undone.
    """
    led = _Ledger(inst, stop, seed, optimum, record_trace)
    x = led.start()
    p, W, n, bits = inst.p, inst.W, inst.n, x.bits
    fx, load2 = x.makespan, x.load2
    made, left = led.made, led.left
    if left:
        for order in walk_orders(n, led.rng):
            if left < n:
                order = order[:left]
            done, parent_load2 = len(made), load2
            load2 = walk(p, W, bits, load2, order, fx, made)
            left -= len(made) - done
            fy = made[-1]
            if fy < fx:
                fx = fy
                x.load1, x.load2 = W - load2, load2
                led.improved(x, fx)
                if led.reason is not None:
                    break
            elif fy > fx:
                for i in order:
                    bits[i] ^= 1
                load2 = parent_load2
            if not left:
                break
            if len(made) >= _CHUNK:
                led.charge()
    x.load1, x.load2 = W - load2, load2
    return led.result()


def run_mu_ea_ageing(
    inst: Instance,
    mu: int,
    tau: int,
    stop: StopCondition,
    seed: int,
    *,
    optimum: int | None = None,
    record_trace: bool = False,
) -> TrialResult:
    """Population of mu with ageing: stale individuals die at age tau.

    Generation order is fixed: ages increment first, then one offspring is
    bred and evaluated, then age removals. The offspring then joins unless it
    is too old or worse than a full population's worst; if the population
    holds mu + 1, one of its worst goes, chosen uniformly. Refills bring it
    back to mu with fresh random individuals. An offspring strictly better
    than its parent starts at age 0, otherwise it inherits the parent's age.
    When age removal empties the whole population, that is a
    reinitialization event.
    """
    if mu < 1:
        raise ContractViolationError("mu must be at least 1")
    if tau < 1:
        raise ContractViolationError("tau must be at least 1")
    led = _Ledger(inst, stop, seed, optimum, record_trace)
    p, W = inst.p, inst.W
    stream = MutationStream(led.rng, inst.n)
    blocks = stream.blocks
    # an individual is (fitness, birth generation, assignment), kept sorted by
    # fitness with each newcomer after its equals, so the worst are last and,
    # among equals, the latest to join; its age in generation g is g minus
    # its birth, so ages need no per-generation update
    population: list[tuple[int, int, Assignment]] = []
    fitness = itemgetter(0)
    gen = 0
    first_birth = 0  # no individual was born before this
    keep = led.made.append

    def refill() -> None:
        while len(population) < mu and led.left:
            x = led.start()
            insort(population, (x.makespan, gen, x), key=fitness)

    refill()
    left = led.left
    picks, offspring = stream.draws(mu), stream.sbm_offspring()
    # the population holds mu at the top of every generation
    while left:
        for _, pick, flips in zip(range(_CHUNK), picks, offspring):
            gen += 1
            fp, bp, xp = population[pick]
            bits, l2 = xp.bits, xp.load2
            for i in flips:
                l2 += -p[i] if bits[i] else p[i]
            l1 = W - l2
            fy = l1 if l1 > l2 else l2  # builtin max costs more than the rest
            keep(fy)
            left -= 1
            born = gen if fy < fp else bp
            if gen - first_birth >= tau:
                population[:] = [ind for ind in population if gen - ind[1] < tau]
                first_birth = min([ind[1] for ind in population], default=gen)
                if not population and gen - born >= tau:
                    led.event("reinit")
            # a child that beats best-so-far is below every individual and of
            # age 0, so it always joins
            if gen - born < tau and (len(population) < mu or fy <= population[-1][0]):
                y = Assignment(bits[:], l1, l2) if flips else xp  # never changed in place
                for i in flips:
                    y.bits[i] ^= 1
                insort(population, (fy, born, y), key=fitness)
                if fy < led.best_f:
                    led.improved(y, fy)
                    if led.reason is not None:
                        left = 0
                        break
                if len(population) > mu:
                    lo = bisect_left(population, population[-1][0], key=fitness)
                    ties = mu + 1 - lo
                    j = lo + (blocks.get(ties) or stream.block(ties)).pop() if ties > 1 else lo
                    population.pop(j)
            if len(population) < mu:
                refill()
                left = led.left
            if not left:
                break
        led.charge()
    return led.result(ageing=True)


def run_with_restarts(
    algo: str,
    inst: Instance,
    restart_length: int,
    stop: StopCondition,
    seed: int,
    *,
    optimum: int | None = None,
    record_trace: bool = False,
) -> TrialResult:
    """Independent segments of restart_length evaluations on one seed stream.

    Each segment starts from a fresh random solution (its evaluation counts
    toward the segment); the best solution over all segments is returned.
    With restart_length equal to the whole budget this is the base algorithm,
    which is how run_one_one_ea and run_rls run.
    """
    if algo not in ("ea", "rls"):
        raise ContractViolationError("restart wrapper supports algo 'ea' or 'rls'")
    if restart_length < 1:
        raise ContractViolationError("restart_length must be at least 1")
    led = _Ledger(inst, stop, seed, optimum, record_trace)
    stream = MutationStream(led.rng, inst.n)
    offspring = stream.sbm_offspring() if algo == "ea" else stream.one_flips()
    while led.left:
        seg_end = min(led.budget, led.evals + restart_length)
        x = led.start("restart" if led.evals else None)
        if led.reason is None:
            _climb(led, x, offspring, seg_end)
    return led.result()


def restart_length_for_ratio(n: int, eps: Fraction | tuple[int, int]) -> int:
    """Restart schedule ceil(e * n * ln(4/eps)) for approximation-target runs;
    it is at least 1 evaluation, which needs n >= 1 and eps < 4."""
    if isinstance(eps, tuple) and eps[1] == 0:
        raise ContractViolationError("eps must be a rational q/r with r != 0")
    f = Fraction(*eps) if isinstance(eps, tuple) else Fraction(eps)
    if f <= 0:
        raise ContractViolationError("eps must be positive")
    length = math.ceil(math.e * n * math.log(4 / float(f)))
    if length < 1:
        raise ContractViolationError(
            f"restart schedule of {length} evaluations; it needs n >= 1 and eps < 4"
        )
    return length
