"""Solver loops with exact evaluation accounting.

Every runner charges one evaluation per sampled solution to a _Ledger, which
checks the stop condition after every single evaluation, and is bit-for-bit
deterministic in (instance, parameters, seed). Mutation randomness comes in
blocks from a MutationStream. An offspring is scored by its load change
against its parent, and its bits are copied or flipped only once it is kept;
an offspring with no flipped bit is charged but not computed (Carvalho Pinto
and Doerr, "Towards a More Practice-Aware Runtime Analysis of Evolutionary
Algorithms", 2018).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Callable

import numpy as np

from .core import (
    Assignment,
    ContractViolationError,
    Instance,
    flip_in_place,
    is_local_optimum,
    makespan_after,
)
from .operators import MutationStream, flipped, hypermutate_fcm

Rng = np.random.Generator
_fitness = itemgetter(0)


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
    count, the trace, best-so-far, the event log, and the stop condition."""

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
        self.evals = 0
        self.best_f = inst.W + 1  # above every makespan
        self.best_x: Assignment | None = None
        self.reason: str | None = None

    @property
    def running(self) -> bool:
        return self.reason is None and self.evals < self.budget

    def charge(self, *makespans: int) -> None:
        """One evaluation per makespan given, in order."""
        self.evals += len(makespans)
        if self.trace is not None:
            self.trace.extend(makespans)

    def start(self) -> Assignment:
        """A uniformly random assignment: charged, passed to improved, returned."""
        bits = self.rng.integers(0, 2, size=self.inst.n).tolist()
        load2 = sum(compress(self.inst.p, bits))
        x = Assignment(bits=bits, load1=self.inst.W - load2, load2=load2)
        self.charge(x.makespan)
        self.improved(x, x.makespan)
        return x

    def improved(self, x: Assignment, f: int) -> None:
        """The search arrived at x, of makespan f: a start or a strict improvement.

        Logs a local-optimum arrival, and takes x as best-so-far if f beats it.
        The best is kept by reference, so a lineage that goes on changing x in
        place through equal-makespan moves exports its final state.
        """
        if is_local_optimum(self.inst, x):
            self.log.append((self.evals, "local_optimum"))
        if f < self.best_f:
            self.best_f, self.best_x = f, x
            if self.target is not None and f <= self.target:
                self.reason = "target"
            elif self.ratio_target is not None and f <= self.ratio_target:
                self.reason = "ratio"

    def result(self, ageing: bool = False) -> TrialResult:
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
    led: _Ledger, x: Assignment, draw: Callable[[], list[int]], seg_end: int
) -> None:
    """Mutate x in place, keeping offspring with f(y) <= f(x), until seg_end
    evaluations or a target."""
    inst = led.inst
    fx = x.makespan
    while led.evals < seg_end:
        flips = draw()
        if not flips:
            led.charge(fx)
            continue
        fy = makespan_after(inst, x, flips)
        led.charge(fy)
        if fy <= fx:
            for i in flips:
                flip_in_place(inst, x, i)
            if fy < fx:
                fx = fy
                led.improved(x, fx)
                if led.reason is not None:
                    return


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
    hands back the complement, which ties and is accepted.
    """
    led = _Ledger(inst, stop, seed, optimum, record_trace)
    rng = led.rng
    x = led.start()
    fx = x.makespan
    while led.running:
        y, walk = hypermutate_fcm(inst, x, rng, max_evals=led.budget - led.evals)
        led.charge(*walk.fitness_after)
        fy = walk.fitness_after[-1]
        if fy <= fx:
            # x takes y's state but keeps its identity, which the ledger's best holds
            x.bits, x.load1, x.load2 = y.bits, y.load1, y.load2
            if fy < fx:
                fx = fy
                led.improved(x, fx)
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
    bred and evaluated, then age removals, then truncation of one worst if
    oversized, then refills to mu with fresh random individuals. An offspring
    strictly better than its parent starts at age 0, otherwise it inherits
    the parent's age. When age removal empties the whole population, that is
    a reinitialization event.
    """
    if mu < 1:
        raise ContractViolationError("mu must be at least 1")
    if tau < 1:
        raise ContractViolationError("tau must be at least 1")
    led = _Ledger(inst, stop, seed, optimum, record_trace)
    stream = MutationStream(led.rng, inst.n)
    # an individual is (fitness, birth generation, assignment), kept sorted by
    # fitness so the worst are last; its age in generation g is g minus its
    # birth, so ages need no per-generation update
    population: list[tuple[int, int, Assignment]] = []
    gen = 0
    first_birth = 0  # no individual was born before this

    def refill() -> None:
        while len(population) < mu and led.running:
            x = led.start()
            insort(population, (x.makespan, gen, x), key=_fitness)

    refill()
    while led.running:
        gen += 1
        fp, bp, xp = population[stream.below(len(population))]
        flips = stream.sbm_flips()
        fy = makespan_after(inst, xp, flips)
        led.charge(fy)
        y = xp  # the child shares its parent's assignment until it is kept
        if fy < led.best_f:
            y = flipped(inst, xp, flips)
            led.improved(y, fy)
            if led.reason is not None:
                break
        born = gen if fy < fp else bp
        lives = gen - born < tau
        if gen - first_birth >= tau:
            population[:] = [ind for ind in population if gen - ind[1] < tau]
            first_birth = min([ind[1] for ind in population], default=gen)
            if not population and not lives:
                led.log.append((led.evals, "reinit"))
        if lives and len(population) == mu:
            # one of the mu + 1 goes: uniform among the worst, the child last
            worst = population[-1][0] if population[-1][0] > fy else fy
            lo = bisect_left(population, worst, key=_fitness)
            ties = len(population) - lo + (fy == worst)
            j = lo + stream.below(ties) if ties > 1 else lo
            if j == len(population):
                lives = False
            else:
                population.pop(j)
        if lives:
            if y is xp and flips:
                y = flipped(inst, xp, flips)
            insort(population, (fy, born, y), key=_fitness)
        if len(population) < mu:
            refill()
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
    draw = stream.sbm_flips if algo == "ea" else stream.one_flip
    while led.running:
        if led.evals > 0:
            led.log.append((led.evals + 1, "restart"))
        seg_end = min(led.budget, led.evals + restart_length)
        x = led.start()
        if led.reason is None:
            _climb(led, x, draw, seg_end)
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
