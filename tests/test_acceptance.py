"""Acceptance gate: one test per shipped criterion, each printing one
measured line with its stated tolerance.

Where a criterion gates a rate, the expected value is derived exactly and not
taken from a measurement: criterion 6 compares trapped counts with the
absorption probability of an exact Markov chain of the single-parent
searchers (see the README, "How criterion 6 is gated").
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
from scipy import stats

from partition_ais import (
    ExperimentConfig,
    GStarParams,
    StopCondition,
    derive_seed,
    dp_optimal_makespan,
    export_report,
    g_star_local_optima,
    gen_g_star,
    gen_uniform,
    run_experiment,
    run_ia_hyp,
    run_mu_ea_ageing,
    run_one_one_ea,
    run_rls,
    run_with_restarts,
)
from partition_ais.checks import check_oracles, check_properties, check_trajectories

_PROPERTY_CACHE: dict[str, object] = {}


def _properties():
    if not _PROPERTY_CACHE:
        t0 = time.perf_counter()
        results = check_properties()
        _PROPERTY_CACHE["results"] = {r.name: r for r in results}
        _PROPERTY_CACHE["seconds"] = time.perf_counter() - t0
    return _PROPERTY_CACHE["results"], _PROPERTY_CACHE["seconds"]


def _line(number: int, ok: bool, text: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")


def test_criterion_1_oracle_equivalence():
    """dp equals exhaustive search on 200 random instances; zero tolerance."""
    t0 = time.perf_counter()
    results = check_oracles()
    seconds = time.perf_counter() - t0
    by_name = {r.name: r for r in results}
    core = by_name["dp_equals_brute_200"]
    ok = all(r.passed for r in results) and seconds < 10
    _line(1, ok, f"{core.measured} over 200 instances in {seconds:.1f}s (limit 10s)")
    assert core.passed, core.measured
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert seconds < 10


def test_criterion_2_generator_identities():
    """Exact weight identities on 20 parameter settings; zero tolerance."""
    results, _ = _properties()
    r = results["gstar_identities_20"]
    _line(2, r.passed, r.measured)
    assert r.passed, r.measured


def test_criterion_3_structural_properties():
    """Enumerated levels {120, 130} and the distinct-count threshold bound."""
    results, seconds = _properties()
    levels = results["local_optima_n12"]
    bound = results["count_above_bound"]
    ok = levels.passed and bound.passed and seconds < 60
    _line(3, ok, f"levels {levels.measured}, {bound.measured}, {seconds:.1f}s (limit 60s)")
    assert levels.passed, levels.measured
    assert bound.passed, bound.measured
    assert seconds < 60


def test_criterion_4_trajectory_statistics():
    """Uniformity at significance 1e-3, halfway mean within 1%, crossing >= 95%."""
    t0 = time.perf_counter()
    results = check_trajectories()
    seconds = time.perf_counter() - t0
    ok = all(r.passed for r in results) and seconds < 120
    measured = "; ".join(f"{r.name} {r.measured}" for r in results)
    _line(4, ok, f"{measured}; {seconds:.1f}s (limit 120s)")
    for r in results:
        assert r.passed, f"{r.name}: {r.measured} vs {r.bound}"
    assert seconds < 120


def test_criterion_5_hypermutation_efficiency():
    """100% success, median evaluations <= 200 n^2, growth factor <= 5."""
    t0 = time.perf_counter()
    medians = {}
    rates = {}
    for n in (16, 32, 64):
        inst = gen_g_star(GStarParams(n=n, s=2, eps=(1, 4)))
        optimum = dp_optimal_makespan(inst)
        report = run_experiment(ExperimentConfig(
            instance=inst,
            algorithm="iahyp",
            trials=50,
            master_seed=20240905 + n,
            stop=StopCondition(10**7, target_makespan=optimum),
            optimum_source="provided",
            optimum=optimum,
        ))
        medians[n] = report.summary["evaluations_median"]
        rates[n] = report.summary["success_rate"]
    seconds = time.perf_counter() - t0
    growth = (medians[32] / medians[16], medians[64] / medians[32])
    ok = (
        all(rate == 1.0 for rate in rates.values())
        and all(medians[n] <= 200 * n * n for n in medians)
        and all(g <= 5 for g in growth)
        and seconds < 300
    )
    _line(5, ok, (
        f"success {rates}, medians {medians} (caps 51200/204800/819200), "
        f"growth {growth[0]:.2f}, {growth[1]:.2f} (cap 5), {seconds:.1f}s (limit 300s)"
    ))
    assert all(rate == 1.0 for rate in rates.values()), rates
    for n, med in medians.items():
        assert med <= 200 * n * n, (n, med)
    assert growth[0] <= 5 and growth[1] <= 5, growth
    assert seconds < 300


def _after_sbm(ones: int, size: int, q: float) -> np.ndarray:
    """Law of the number of ones among `size` bits after each flips w.p. q."""
    kept = stats.binom.pmf(np.arange(ones + 1), ones, 1 - q)
    gained = stats.binom.pmf(np.arange(size - ones + 1), size - ones, q)
    return np.convolve(kept, gained)


def _trap_probability(p: tuple[int, ...], W: int, algorithm: str) -> float:
    """Exact chance that `ea` or `rls` on a two-valued instance is absorbed
    at a locally optimal makespan above the smallest one.

    Equal jobs are interchangeable, so (heavy jobs, light jobs) on machine 1
    is a Markov chain. The start is uniform; `ea` flips each bit with
    probability 1/n (the law of `sbm`'s Bin(n, 1/n) flips over a uniform
    k-subset), `rls` flips one uniform bit, and an offspring is kept iff its
    makespan is not worse. States no single flip improves absorb: the smallest
    makespan ends a run at its target, and leaving a higher one takes many
    simultaneous flips (at least 14 on gstar n=32). No runner is called, so
    this is an oracle independent of the code under test.
    """
    heavy, light = p[0], p[-1]
    s = p.count(heavy)
    m = len(p) - s
    assert p.count(light) == m, "instance is not two-valued"
    q = 1.0 / (s + m)
    h, a = np.meshgrid(np.arange(s + 1), np.arange(m + 1), indexing="ij")
    load1 = h * heavy + a * light
    f = np.maximum(load1, W - load1)
    disc = np.abs(2 * load1 - W)
    # the fuller machine's smallest job is light unless it holds no light job
    fuller_light = np.where(2 * load1 > W, a, m - a)
    local = (disc == 0) | (np.where(fuller_light > 0, light, heavy) >= disc)
    P = np.zeros(f.shape * 2)
    for (i, j), fx in np.ndenumerate(f):
        if algorithm == "ea":
            move = np.outer(_after_sbm(i, s, q), _after_sbm(j, m, q))
        else:
            move = np.zeros(f.shape)
            for di, dj, count in ((-1, 0, i), (1, 0, s - i), (0, -1, j), (0, 1, m - j)):
                if count:
                    move[i + di, j + dj] = count * q
        move[f > fx] = 0.0
        move[i, j] += 1.0 - move.sum()
        P[i, j] = move
    P = P.reshape(f.size, f.size)
    f, local = f.ravel(), local.ravel()
    trap = local & (f > f.min())
    free = ~local
    absorbed = trap.astype(float)
    absorbed[free] = np.linalg.solve(
        np.eye(free.sum()) - P[np.ix_(free, free)], P[np.ix_(free, trap)].sum(axis=1)
    )
    start = np.outer(
        stats.binom.pmf(np.arange(s + 1), s, 0.5), stats.binom.pmf(np.arange(m + 1), m, 0.5)
    )
    return float(start.ravel() @ absorbed)


def _binomial_region(trials: int, p: float) -> tuple[int, int]:
    """Counts a two-sided exact binomial test at significance 1e-3 accepts."""
    accepted = [k for k in range(trials + 1) if stats.binomtest(k, trials, p).pvalue >= 1e-3]
    return accepted[0], accepted[-1]


def test_criterion_6_single_parent_trapping():
    """RLS and the (1+1) EA are trapped at their exact rate, and stay trapped.

    Witt (STACS 2005) shows that both reach the 4/3 trap of P*_eps with
    constant probability. The constant is the absorption probability of the
    exact chain in _trap_probability; 1000 trials of each searcher must match
    it under a two-sided exact binomial test at significance 1e-3. The same
    seeds then get 10^6 evaluations: no trial that arrived at a local optimum
    may go on to the optimum, and the trapped trials must be the same ones.
    """
    t0 = time.perf_counter()
    inst = gen_g_star(GStarParams(n=32, s=2, eps=(1, 4)))
    optimum = dp_optimal_makespan(inst)
    levels = g_star_local_optima(inst)
    assert (optimum, levels) == (360, (360, 390))
    trap = levels[-1]

    def batch(algorithm: str, trials: int, budget: int):
        return run_experiment(ExperimentConfig(
            instance=inst,
            algorithm=algorithm,
            trials=trials,
            master_seed=20240906,
            stop=StopCondition(budget, target_makespan=optimum),
            optimum_source="provided",
            optimum=optimum,
        )).results

    rate_trials = 1000
    rate = {algo: batch(algo, rate_trials, 20_000) for algo in ("ea", "rls")}
    exact = {algo: _trap_probability(inst.p, inst.W, algo) for algo in rate}
    regions = {algo: _binomial_region(rate_trials, exact[algo]) for algo in rate}
    counts = {algo: sum(r.best_makespan == trap for r in rate[algo]) for algo in rate}
    ends = {r.best_makespan for results in rate.values() for r in results}

    long_run = batch("ea", 100, 10**6)
    escaped = [
        r.seed for r in long_run
        if r.best_makespan == optimum
        and any(
            kind == "local_optimum" and at < r.evaluations_used
            for at, kind in r.stagnation_log
        )
    ]
    trapped_long = {r.seed for r in long_run if r.best_makespan == trap}
    trapped_rate = {r.seed for r in rate["ea"][:100] if r.best_makespan == trap}
    seconds = time.perf_counter() - t0
    in_region = all(lo <= counts[a] <= hi for a, (lo, hi) in regions.items())
    ok = (
        ends <= {optimum, trap} and in_region and not escaped
        and trapped_long == trapped_rate and seconds < 180
    )
    _line(6, ok, (
        f"trapped at {trap} in {rate_trials} trials: "
        + ", ".join(
            f"{a} {counts[a]} (exact p={exact[a]:.4f}, accept {lo}..{hi})"
            for a, (lo, hi) in regions.items()
        )
        + f"; 10^6 budget: {len(trapped_long)}/100 trapped, same trials "
        f"{trapped_long == trapped_rate}, {len(escaped)} escaped to {optimum}, "
        f"{seconds:.1f}s (limit 180s)"
    ))
    assert ends <= {optimum, trap}, ends
    for algo, (lo, hi) in regions.items():
        assert lo <= counts[algo] <= hi, (algo, counts[algo], exact[algo], (lo, hi))
    assert not escaped, escaped
    assert trapped_long == trapped_rate
    assert seconds < 180


def test_criterion_7_ageing_escape():
    """Success rate >= 90% within the stated budget, with reinit events logged."""
    n = 32
    tau = math.ceil(n ** 1.5)
    budget = 200 * (n * n + tau)
    inst = gen_g_star(GStarParams(n=n, s=2, eps=(1, 4)))
    optimum = dp_optimal_makespan(inst)
    t0 = time.perf_counter()
    report = run_experiment(ExperimentConfig(
        instance=inst,
        algorithm="ageing",
        trials=50,
        master_seed=20240907,
        stop=StopCondition(budget),
        mu=5,
        tau=tau,
        optimum_source="provided",
        optimum=optimum,
    ))
    seconds = time.perf_counter() - t0
    success = sum(r.best_makespan == optimum for r in report.results) / 50
    reinit_total = report.summary["reinit_total"]
    ok = success >= 0.90 and reinit_total >= 1 and seconds < 300
    _line(7, ok, (
        f"success {success:.2f} (>= 0.90) with mu=5 tau={tau} budget={budget}, "
        f"reinit events {reinit_total} (>= 1), {seconds:.1f}s (limit 300s)"
    ))
    assert success >= 0.90, success
    assert reinit_total >= 1
    assert seconds < 300


def test_criterion_8_approximation_targets():
    """Ratio 3/2 reached by both algorithms on 30 random midsize instances."""
    n = 50
    tau = math.ceil(n ** 1.5)
    ia_budget = 2 * n**3 * 2**4 + 2 * n**3
    assert ia_budget == 4_250_000
    # nominal ageing budget ~ n^5 2^(2/eps) overflows any practical run; cap at 1e7
    age_budget = 10**7
    ratio = Fraction(3, 2)
    t0 = time.perf_counter()
    ia_hits = 0
    age_hits = 0
    for i in range(30):
        inst = gen_uniform(n, 10**4, seed=derive_seed(20240908, i))
        optimum = dp_optimal_makespan(inst)
        r = run_ia_hyp(
            inst, StopCondition(ia_budget, target_ratio=ratio),
            seed=derive_seed(20240918, i), optimum=optimum,
        )
        ia_hits += r.terminated_by == "ratio"
        r = run_mu_ea_ageing(
            inst, 1, tau, StopCondition(age_budget, target_ratio=ratio),
            seed=derive_seed(20240928, i), optimum=optimum,
        )
        age_hits += r.terminated_by == "ratio"
    seconds = time.perf_counter() - t0
    ok = ia_hits == 30 and age_hits >= 27 and seconds < 600
    _line(8, ok, (
        f"hypermutation {ia_hits}/30 (need 30), ageing {age_hits}/30 (need >= 27), "
        f"{seconds:.1f}s (limit 600s)"
    ))
    assert ia_hits == 30
    assert age_hits >= 27
    assert seconds < 600


def test_criterion_9_determinism_and_accounting(tmp_path):
    """Byte-identical exports on repeat, and exact evaluation accounting."""
    inst = gen_g_star(GStarParams(n=8, s=2, eps=(1, 4)))
    blobs = []
    for name in ("a.csv", "b.csv"):
        report = run_experiment(ExperimentConfig(
            instance=inst,
            algorithm="ea",
            trials=20,
            master_seed=20240909,
            stop=StopCondition(3000, target_makespan=72),
            optimum_source="dp",
        ))
        path = tmp_path / name
        export_report(report, "csv", str(path))
        blobs.append(path.read_bytes())
    identical = blobs[0] == blobs[1]

    rng = np.random.default_rng(20240910)
    mismatches = 0
    runs = 1000
    for i in range(runs):
        size = int(rng.integers(2, 10))
        mini = gen_uniform(size, 50, seed=int(rng.integers(1 << 32)))
        budget = int(rng.integers(5, 200))
        target = dp_optimal_makespan(mini) if rng.random() < 0.3 else None
        stop = StopCondition(budget, target_makespan=target)
        seed = int(rng.integers(1 << 32))
        kind = i % 5
        if kind == 0:
            r = run_rls(mini, stop, seed, record_trace=True)
        elif kind == 1:
            r = run_one_one_ea(mini, stop, seed, record_trace=True)
        elif kind == 2:
            r = run_ia_hyp(mini, stop, seed, record_trace=True)
        elif kind == 3:
            mu = int(rng.integers(1, 5))
            tau = int(rng.integers(2, 20))
            r = run_mu_ea_ageing(mini, mu, tau, stop, seed, record_trace=True)
        else:
            length = int(rng.integers(3, 30))
            r = run_with_restarts("rls", mini, length, stop, seed, record_trace=True)
        if len(r.fitness_trace) != r.evaluations_used:
            mismatches += 1
    ok = identical and mismatches == 0
    _line(9, ok, (
        f"export bytes identical={identical}, accounting mismatches "
        f"{mismatches}/{runs} (tolerance 0)"
    ))
    assert identical
    assert mismatches == 0
