"""Runner loops: stopping, accounting, ageing, restarts."""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from partition_ais import (
    Assignment,
    ContractViolationError,
    GStarParams,
    Instance,
    StopCondition,
    algorithms,
    dp_optimal_makespan,
    enumerate_local_optima,
    gen_g_star,
    gen_uniform,
    restart_length_for_ratio,
    run_ia_hyp,
    run_mu_ea_ageing,
    run_one_one_ea,
    run_rls,
    run_with_restarts,
)

TINY = Instance(p=(1, 1))
G8 = gen_g_star(GStarParams(n=8, s=2, eps=(1, 4)))


def test_stop_condition_validation():
    with pytest.raises(ContractViolationError):
        StopCondition(0)
    with pytest.raises(ContractViolationError):
        StopCondition(10, target_ratio=Fraction(1, 2))


def test_resolve_targets_floors_the_ratio_threshold():
    stop = StopCondition(100, target_ratio=Fraction(3, 2))
    assert stop.resolve_targets(72) == (None, 108)
    assert StopCondition(100, target_ratio=Fraction(7, 6)).resolve_targets(72) == (None, 84)
    assert StopCondition(100, target_ratio=Fraction(1)).resolve_targets(72) == (None, 72)
    with pytest.raises(ContractViolationError):
        stop.resolve_targets(None)


def test_all_runners_find_the_two_job_optimum_quickly():
    stop = StopCondition(100, target_makespan=1)
    for seed in range(100):
        for run in (run_rls, run_one_one_ea, run_ia_hyp):
            r = run(TINY, stop, seed)
            assert r.best_makespan == 1
            assert r.terminated_by == "target"
            assert r.evaluations_used <= 100
        r = run_mu_ea_ageing(TINY, 3, 10, stop, seed)
        assert r.best_makespan == 1 and r.terminated_by == "target"


def test_budget_is_spent_exactly_without_targets():
    stop = StopCondition(57)
    for seed in (0, 1, 2):
        assert run_rls(G8, stop, seed).evaluations_used == 57
        assert run_one_one_ea(G8, stop, seed).evaluations_used == 57
        assert run_ia_hyp(G8, stop, seed).evaluations_used == 57
        assert run_mu_ea_ageing(G8, 4, 9, stop, seed).evaluations_used == 57
        assert run_with_restarts("rls", G8, 10, stop, seed).evaluations_used == 57


def test_ratio_target_reports_its_own_reason():
    stop = StopCondition(10000, target_ratio=Fraction(3, 2))
    r = run_rls(G8, stop, seed=1, optimum=72)
    assert r.terminated_by == "ratio"
    assert r.best_makespan <= (72 * 3) // 2


def test_trace_matches_evaluations_and_bins_sum():
    lowest = enumerate_local_optima(G8).distinct_makespans[0]
    for seed in range(10):
        r = run_rls(G8, StopCondition(500), seed, record_trace=True)
        assert r.fitness_trace is not None
        assert len(r.fitness_trace) == r.evaluations_used
        assert min(r.fitness_trace) >= lowest


def test_hypermutation_runner_trace_covers_walk_interiors():
    for seed in range(10):
        r = run_ia_hyp(G8, StopCondition(300), seed, record_trace=True)
        assert r.fitness_trace is not None
        assert len(r.fitness_trace) == r.evaluations_used


def test_stagnation_log_marks_locally_optimal_arrivals():
    levels = set(enumerate_local_optima(G8).distinct_makespans)
    seen_trap = False
    for seed in range(30):
        r = run_rls(G8, StopCondition(2000), seed, record_trace=True)
        arrivals = [e for e in r.stagnation_log if e[1] == "local_optimum"]
        assert arrivals, "every run settles in some locally optimal makespan"
        for idx, _ in arrivals:
            assert 1 <= idx <= r.evaluations_used
            assert r.fitness_trace[idx - 1] in levels
        if r.best_makespan == 78:
            seen_trap = True
    assert seen_trap, "with 30 seeds some run gets stuck at the suboptimal level"


def test_ageing_wipes_a_stagnant_population():
    # at the optimum no strict improvement exists, ages only grow, and the
    # whole population dies together every few generations
    for seed in range(20):
        r = run_mu_ea_ageing(TINY, 2, 3, StopCondition(50), seed)
        assert r.reinit_count is not None and r.reinit_count >= 1
        reinit_events = [e for e in r.stagnation_log if e[1] == "reinit"]
        assert len(reinit_events) == r.reinit_count
        assert r.best_makespan == 1


def test_ageing_logs_every_start():
    # with one job every assignment is locally optimal, so each of the three
    # starts and each of the three refills after the wipe-out is logged
    r = run_mu_ea_ageing(Instance(p=(5,)), 3, 4, StopCondition(12), 1)
    assert r.stagnation_log == (
        (1, "local_optimum"), (2, "local_optimum"), (3, "local_optimum"),
        (7, "reinit"),
        (8, "local_optimum"), (9, "local_optimum"), (10, "local_optimum"),
    )


def test_ageing_parameter_validation():
    with pytest.raises(ContractViolationError):
        run_mu_ea_ageing(TINY, 0, 5, StopCondition(10), 0)
    with pytest.raises(ContractViolationError):
        run_mu_ea_ageing(TINY, 2, 0, StopCondition(10), 0)


def test_single_segment_restart_is_the_base_algorithm():
    stop = StopCondition(400)
    for seed in (3, 11, 19):
        base = run_one_one_ea(G8, stop, seed, record_trace=True)
        wrapped = run_with_restarts("ea", G8, 400, stop, seed, record_trace=True)
        assert wrapped == base
        base = run_rls(G8, stop, seed, record_trace=True)
        wrapped = run_with_restarts("rls", G8, 400, stop, seed, record_trace=True)
        assert wrapped == base


def test_restart_segments_are_logged():
    r = run_with_restarts("rls", G8, 10, StopCondition(100), seed=2)
    restarts = [e for e in r.stagnation_log if e[1] == "restart"]
    assert [idx for idx, _ in restarts] == [11, 21, 31, 41, 51, 61, 71, 81, 91]


def test_ledger_charges_pending_makespans_before_every_event():
    # makespans 5 (both jobs on one machine) and 3 (the optimum)
    led = algorithms._Ledger(Instance(p=(3, 2)), StopCondition(10, target_makespan=3), 0, None, True)
    led.made += [5, 3]
    assert (led.evals, led.trace, led.left) == (0, [], 8)
    led.event("reinit")
    assert (led.evals, led.trace, led.log) == (2, [5, 3], [(2, "reinit")])
    led.made += [3, 5]
    led.improved(Assignment([1, 1], 0, 5), 5)
    assert (led.evals, led.trace, led.left) == (4, [5, 3, 3, 5], 6)
    led.made.append(3)
    led.improved(Assignment([0, 1], 3, 2), 3)  # locally optimal, meets the target
    assert led.log[-1] == (5, "local_optimum") and led.reason == "target"
    led.made.append(5)
    assert led.left == 0
    r = led.result()
    assert r.evaluations_used == 6 and r.fitness_trace == (5, 3, 3, 5, 3, 5)
    # with one job every start is locally optimal: its restart comes first,
    # at the start's own evaluation
    led = algorithms._Ledger(Instance(p=(5,)), StopCondition(10), 0, None, True)
    led.made += [5, 5]
    led.start("restart")
    assert led.log == [(3, "restart"), (3, "local_optimum")]
    assert (led.evals, led.trace, led.left) == (3, [5, 5, 5], 7)


def test_restart_wrapper_validation():
    with pytest.raises(ContractViolationError):
        run_with_restarts("iahyp", G8, 10, StopCondition(100), 0)
    with pytest.raises(ContractViolationError):
        run_with_restarts("ea", G8, 0, StopCondition(100), 0)


def test_restart_length_for_ratio_values():
    assert restart_length_for_ratio(50, Fraction(1, 2)) == 283
    assert restart_length_for_ratio(50, (1, 2)) == 283
    assert restart_length_for_ratio(100, (1, 2)) == 566
    assert restart_length_for_ratio(1, Fraction(399, 100)) == 1
    with pytest.raises(ContractViolationError):
        restart_length_for_ratio(50, Fraction(0, 1))
    # the schedule would be 0 at eps = 4, negative above it, 0 at n = 0
    for n, eps in ((50, (4, 1)), (50, Fraction(5)), (0, (1, 2))):
        with pytest.raises(ContractViolationError, match="needs n >= 1 and eps < 4"):
            restart_length_for_ratio(n, eps)
    for eps in ((1, 0), (0, 0)):
        with pytest.raises(ContractViolationError, match="r != 0"):
            restart_length_for_ratio(50, eps)


def test_runners_are_deterministic_in_the_seed():
    stop = StopCondition(300)
    runs = [
        lambda s: run_rls(G8, stop, s, record_trace=True),
        lambda s: run_one_one_ea(G8, stop, s, record_trace=True),
        lambda s: run_ia_hyp(G8, stop, s, record_trace=True),
        lambda s: run_mu_ea_ageing(G8, 3, 7, stop, s, record_trace=True),
        lambda s: run_with_restarts("ea", G8, 20, stop, s, record_trace=True),
    ]
    for run in runs:
        assert run(123) == run(123)


def test_results_never_exceed_budget_with_targets():
    stop = StopCondition(5000, target_makespan=72)
    for seed in range(20):
        for run in (run_rls, run_one_one_ea, run_ia_hyp):
            r = run(G8, stop, seed)
            assert r.evaluations_used <= 5000
            if r.terminated_by == "target":
                assert r.best_makespan <= 72
            else:
                assert r.best_makespan > 72


class _Handouts(list):
    """A block of draws that records each value as it is popped, that is,
    handed out."""

    def __init__(self, values, record):
        super().__init__(values)
        self.record = record

    def pop(self):
        value = super().pop()
        self.record.append(value)
        return value


class _RecordingStream(algorithms.MutationStream):
    """The runners' mutation stream, keeping every draw it hands out: each
    offspring as its iterator yields it, and each draw below k as a runner
    or the stream pops it from its block."""

    def __init__(self, rng, n):
        super().__init__(rng, n)
        self.offspring: list[list[int]] = []
        self.below_draws: dict[int, list[int]] = defaultdict(list)

    def _draw_block(self, k):
        return _Handouts(super()._draw_block(k), self.below_draws[k])

    def sbm_offspring(self):
        for flips in super().sbm_offspring():
            self.offspring.append(list(flips))
            yield flips

    def one_flips(self):
        for flips in super().one_flips():
            self.offspring.append(list(flips))
            yield flips


@pytest.fixture
def streams(monkeypatch):
    """Every stream a runner makes while the test runs, in creation order."""
    made: list[_RecordingStream] = []

    def make(rng, n):
        made.append(_RecordingStream(rng, n))
        return made[-1]

    monkeypatch.setattr(algorithms, "MutationStream", make)
    return made


def _chi2_pvalue(observed, expected) -> float:
    """Chi-square goodness of fit, tail cells pooled until each expects >= 5."""
    observed, expected = list(observed), list(expected)
    while expected[-1] < 5:
        tail_observed, tail_expected = observed.pop(), expected.pop()
        observed[-1] += tail_observed
        expected[-1] += tail_expected
    assert min(expected) >= 5, "too few samples for a chi-square test"
    return float(stats.chisquare(observed, expected).pvalue)


G32 = gen_g_star(GStarParams(n=32, s=2, eps=(1, 4)))


def test_ea_flip_counts_are_binomial_with_the_zero_flip_share(streams):
    budget = 20_000
    run_one_one_ea(G32, StopCondition(budget), seed=41)
    offspring = streams[0].offspring
    assert len(offspring) == budget - 1  # every evaluation after the random start
    n = G32.n
    counts = np.bincount([len(f) for f in offspring], minlength=n + 1)
    expected = stats.binom.pmf(np.arange(n + 1), n, 1 / n) * len(offspring)
    # cell 0 holds the offspring that are charged but not computed: (1 - 1/n)^n
    assert _chi2_pvalue(counts, expected) >= 1e-3


@pytest.mark.parametrize("algo", ["ea", "rls"])
def test_flip_positions_are_uniform_and_distinct(streams, algo):
    run_with_restarts(algo, G32, 242, StopCondition(20_000), seed=43)
    offspring = streams[0].offspring
    assert all(len(set(f)) == len(f) for f in offspring)
    n = G32.n
    positions = np.bincount([i for f in offspring for i in f], minlength=n)
    assert len(positions) == n
    assert _chi2_pvalue(positions, [positions.sum() / n] * n) >= 1e-3
    if algo == "ea":
        # two flips form a uniform pair: the subset is uniform, not just its bits
        pairs = defaultdict(int)
        for f in offspring:
            if len(f) == 2:
                pairs[tuple(sorted(f))] += 1
        cells = list(combinations(range(n), 2))
        total = sum(pairs.values())
        assert _chi2_pvalue([pairs[c] for c in cells], [total / len(cells)] * len(cells)) >= 1e-3


def test_ageing_parent_picks_and_tie_breaks_are_uniform(streams):
    mu = 5
    run_mu_ea_ageing(G32, mu, math.ceil(32 ** 1.5), StopCondition(30_000), seed=47)
    draws = streams[0].below_draws
    # parent picks draw below mu; tie-breaks below 2..mu+1 (the child among the
    # tied worst); larger bounds are the subset draws of standard bit mutation
    assert mu in draws and any(2 <= k <= mu + 1 and k != mu for k in draws)
    tested = 0
    for k, values in draws.items():
        if len(values) >= 5 * k:
            counts = np.bincount(values, minlength=k)
            assert len(counts) == k
            assert _chi2_pvalue(counts, [len(values) / k] * k) >= 1e-3, k
            tested += k <= mu + 1
    assert tested >= 3


def _runners(rng):
    mu = int(rng.integers(1, 5))
    tau = int(rng.integers(2, 30))
    length = int(rng.integers(3, 40))
    return {
        "ea": lambda *a, **kw: run_one_one_ea(*a, **kw),
        "rls": lambda *a, **kw: run_rls(*a, **kw),
        "iahyp": lambda *a, **kw: run_ia_hyp(*a, **kw),
        "ageing": lambda *a, **kw: run_mu_ea_ageing(a[0], mu, tau, *a[1:], **kw),
        "ea-restart": lambda *a, **kw: run_with_restarts("ea", a[0], length, *a[1:], **kw),
        "rls-restart": lambda *a, **kw: run_with_restarts("rls", a[0], length, *a[1:], **kw),
    }


def test_seeded_invariants_hold_for_all_runners_on_random_instances():
    rng = np.random.default_rng(20240911)
    for _ in range(60):
        n = int(rng.integers(2, 14))
        inst = gen_uniform(n, int(rng.integers(1, 60)), seed=int(rng.integers(1 << 32)))
        budget = int(rng.integers(1, 400))
        targeted = rng.random() < 0.5
        target = dp_optimal_makespan(inst) + int(rng.integers(0, 3)) if targeted else None
        stop = StopCondition(budget, target_makespan=target)
        floor = max((inst.W + 1) // 2, inst.p[0])
        for name, run in _runners(rng).items():
            r = run(inst, stop, int(rng.integers(1 << 32)), record_trace=True)
            x = r.best_assignment
            assert x.load2 == sum(t for t, b in zip(inst.p, x.bits) if b), name
            assert x.load1 == inst.W - x.load2, name
            assert r.best_makespan == Assignment.from_bits(inst, x.bits).makespan, name
            assert r.best_makespan >= floor, name
            if target is None:
                assert r.evaluations_used == budget, name
            else:
                assert r.evaluations_used <= budget, name
                assert (r.terminated_by == "target") == (r.best_makespan <= target), name
            assert len(r.fitness_trace) == r.evaluations_used, name
            assert min(r.fitness_trace) == r.best_makespan, name
            assert all(1 <= at <= r.evaluations_used for at, _ in r.stagnation_log), name


_PIN_INSTANCES = (G32, gen_uniform(20, 1000, 3))

# First 16 hex digits of the SHA-256 of repr() of a runner's TrialResults, with
# record_trace=True, over the grid of _pinned_results: any change to a draw, a
# trace, an event index or a final assignment moves them.
_PINNED_RESULTS = {
    "rls": "b929fb0e08131a9c",
    "ea": "574e61714429b2bd",
    "iahyp": "37b722a05abc906a",
    "ageing mu=1 tau=4": "44285c5e688c70b6",
    "ageing mu=3 tau=7": "d3c1159bb1abd64e",
    "ageing mu=5 tau=182": "4db796a0466c8f9c",
    "ageing mu=4 tau=1": "65cb88878be729d3",
    "ageing mu=8 tau=3": "7fa1eeaeb9c4fe99",
    "ea-restart 1": "45cdf9b33bc8c859",
    "ea-restart 7": "8bd9c32795fa596f",
    "ea-restart 242": "c59f6775dc0a2731",
    "rls-restart 1": "45cdf9b33bc8c859",
    "rls-restart 7": "c986b5039eaae46f",
    "rls-restart 242": "b5f56ddfe27adfae",
}


def _pinned_runners():
    yield "rls", run_rls
    yield "ea", run_one_one_ea
    yield "iahyp", run_ia_hyp
    for mu, tau in ((1, 4), (3, 7), (5, 182), (4, 1), (8, 3)):
        yield f"ageing mu={mu} tau={tau}", (
            lambda inst, stop, seed, mu=mu, tau=tau, **kw:
            run_mu_ea_ageing(inst, mu, tau, stop, seed, **kw))
    for algo in ("ea", "rls"):
        for length in (1, 7, 242):
            yield f"{algo}-restart {length}", (
                lambda inst, stop, seed, algo=algo, length=length, **kw:
                run_with_restarts(algo, inst, length, stop, seed, **kw))


def _pinned_results(run) -> tuple:
    """One runner on both instances, three stops (two budgets with no target,
    the optimum with a budget of 10^5) and seeds 0-3. The budget-5000 iahyp
    trials walk more often than one block of flip orders holds, and budgets
    257 and 5000 cut walks short."""
    results = []
    for inst in _PIN_INSTANCES:
        optimum = dp_optimal_makespan(inst)
        for stop in (
            StopCondition(257), StopCondition(5000),
            StopCondition(10**5, target_makespan=optimum),
        ):
            results += [run(inst, stop, seed, record_trace=True) for seed in range(4)]
    return tuple(results)


@pytest.mark.parametrize("name", _PINNED_RESULTS)
def test_runner_results_are_pinned(name):
    run = dict(_pinned_runners())[name]
    digest = hashlib.sha256(repr(_pinned_results(run)).encode()).hexdigest()[:16]
    assert digest == _PINNED_RESULTS[name]
