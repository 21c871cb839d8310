"""Batch execution, aggregation, export determinism."""

from __future__ import annotations

import concurrent.futures
import csv
import json
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from partition_ais import (
    CapacityError,
    ContractViolationError,
    ExperimentConfig,
    GStarParams,
    Instance,
    StopCondition,
    derive_seed,
    dp_optimal_makespan,
    enumerate_local_optima,
    export_report,
    export_sweep,
    gen_g_star,
    gen_uniform,
    is_local_optimum,
    read_instance,
    report_rows,
    run_experiment,
    run_ia_hyp,
    run_mu_ea_ageing,
    run_rls,
    run_with_restarts,
)
from partition_ais import harness
from partition_ais.harness import CSV_COLUMNS

G8 = gen_g_star(GStarParams(n=8, s=2, eps=(1, 4)))


def _config(**overrides) -> ExperimentConfig:
    base = dict(
        instance=G8,
        algorithm="rls",
        trials=4,
        master_seed=77,
        stop=StopCondition(2000, target_makespan=72),
        optimum_source="dp",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_derive_seed_is_deterministic_and_spread():
    seeds = [derive_seed(5, i) for i in range(50)]
    assert seeds == [derive_seed(5, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert derive_seed(5, 0) != derive_seed(6, 0)
    with pytest.raises(ContractViolationError):
        derive_seed(-1, 0)


@pytest.mark.parametrize("master", [
    0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, 2**96 + 7, 10**30,
])
def test_batched_seeds_and_generator_states_are_exact(master):
    # (4000, 8300) spans three seed blocks; the last range crosses 2**32,
    # where an index becomes two entropy words
    for start, stop in ((0, 1), (0, 37), (1000, 1257), (4000, 8300), (2**32 - 3, 2**32 + 3)):
        seeds = list(harness._trial_seeds(master, start, stop))
        assert seeds == [derive_seed(master, i) for i in range(start, stop)]
        for seed in seeds:
            assert np.random.PCG64(seed).state == np.random.PCG64(int(seed)).state


@pytest.mark.parametrize("n_words, dtype", [
    (4, np.uint64), (1, np.uint64), (2, np.uint64), (5, np.uint64),
    (1, np.uint32), (4, np.uint32), (8, np.uint32), (4, np.dtype(np.uint64)),
])
def test_trial_seed_generates_the_state_of_its_seed_sequence(n_words, dtype):
    for seed in harness._trial_seeds(2**64 + 5, 0, 9):
        expected = np.random.SeedSequence(int(seed)).generate_state(n_words, dtype)
        state = seed.generate_state(n_words, dtype)
        assert state.dtype == expected.dtype
        assert state.tolist() == expected.tolist()


@pytest.mark.parametrize("algorithm, extra", [
    ("iahyp", {}),
    ("ageing", {"mu": 3, "tau": 20}),
    ("ea-restart", {"restart_length": 10}),
    ("rls-restart", {"restart_length": 10}),
])
def test_every_trial_is_reproduced_by_its_runner(algorithm, extra):
    config = _config(algorithm=algorithm, trials=37, **extra)
    report = run_experiment(config)
    for i, r in enumerate(report.results):
        assert r.seed == derive_seed(77, i)
        if algorithm == "iahyp":
            direct = run_ia_hyp(G8, config.stop, r.seed, optimum=72)
        elif algorithm == "ageing":
            direct = run_mu_ea_ageing(G8, 3, 20, config.stop, r.seed, optimum=72)
        else:
            base = algorithm.split("-")[0]
            direct = run_with_restarts(base, G8, 10, config.stop, r.seed, optimum=72)
        assert direct == r


@pytest.mark.usefixtures("pool_from_the_first_trial")
@pytest.mark.parametrize("workers", [1, 2])
def test_results_carry_plain_int_seeds(monkeypatch, workers):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    report = run_experiment(_config(algorithm="iahyp", trials=5, workers=workers))
    assert all(type(r.seed) is int for r in report.results)


def test_negative_master_seed_is_rejected_before_any_pool(monkeypatch):
    def no_pool(max_workers):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ContractViolationError, match="seeds and indices must be non-negative"):
        run_experiment(_config(master_seed=-1, workers=3))


def test_single_trial_batch_reproduces_the_runner():
    report = run_experiment(_config(trials=1))
    direct = run_rls(G8, StopCondition(2000, target_makespan=72),
                     derive_seed(77, 0), optimum=72)
    assert report.results == (direct,)
    assert report.optimum == 72


def test_repeat_runs_write_identical_csv_bytes(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        report = run_experiment(_config())
        path = tmp_path / name
        export_report(report, "csv", str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.usefixtures("pool_from_the_first_trial")
def test_parallel_workers_do_not_change_results():
    serial = run_experiment(_config(trials=6, workers=1))
    parallel = run_experiment(_config(trials=6, workers=3))
    assert serial.results == parallel.results
    assert serial.summary == parallel.summary


def _results_and_bytes(config: ExperimentConfig, tmp_path) -> tuple:
    report = run_experiment(config)
    blobs = []
    for fmt in ("csv", "json"):
        path = tmp_path / f"w{config.workers}.{fmt}"
        export_report(report, fmt, str(path))
        blobs.append(path.read_bytes())
    return report.results, report.summary, blobs


@pytest.mark.usefixtures("pool_from_the_first_trial")
@pytest.mark.parametrize("algorithm, extra", [
    ("iahyp", {}),
    ("ageing", {"mu": 3, "tau": 20}),
])
def test_worker_count_does_not_change_results_or_bytes(monkeypatch, tmp_path, algorithm, extra):
    # 37 is prime, so no split into trial ranges is even; the CPU count is
    # raised so that three workers run on a smaller host too.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    serial = _results_and_bytes(
        _config(algorithm=algorithm, trials=37, workers=1, **extra), tmp_path
    )
    for workers in (2, 3):
        parallel = _results_and_bytes(
            _config(algorithm=algorithm, trials=37, workers=workers, **extra), tmp_path
        )
        assert parallel == serial


@pytest.mark.usefixtures("pool_from_the_first_trial")
def test_fewer_trials_than_workers(monkeypatch, tmp_path):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    serial = _results_and_bytes(_config(trials=2, workers=1), tmp_path)
    assert _results_and_bytes(_config(trials=2, workers=3), tmp_path) == serial


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, the chunk size
    and the (start, stop) trial range of each task, and starts no process."""

    calls: list[tuple[int, int, list[tuple[int, int]]]] = []

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        tasks = list(zip(*iterables))  # config, start, stop
        self.calls.append((self.max_workers, chunksize, [t[1:] for t in tasks]))
        return (fn(*t) for t in tasks)


@pytest.mark.usefixtures("pool_from_the_first_trial")
def test_worker_processes_are_capped_in_the_harness(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "calls", [])
    assert harness.pool_size(1000, 37) == 3
    assert harness.pool_size(2, 37) == 2
    assert harness.pool_size(1000, 2) == 2
    assert harness.pool_size(1, 37) == 1

    report = run_experiment(_config(trials=37, workers=1000))
    assert report.results == run_experiment(_config(trials=37)).results
    # three workers, each handed about four contiguous ranges of trials,
    # one task per range
    ranges = [(a, min(a + 4, 37)) for a in range(0, 37, 4)]
    assert _RecordingPool.calls == [(3, 1, ranges)]
    run_experiment(_config(trials=2, workers=1000))
    assert _RecordingPool.calls == [(3, 1, ranges), (2, 1, [(0, 1), (1, 2)])]

    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert harness.pool_size(1000, 37) == 1


def test_a_batch_under_the_budget_starts_no_pool(monkeypatch):
    def no_pool(max_workers):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    # a clock that stands still: the budget never passes, however slow the host
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    serial = run_experiment(_config(algorithm="iahyp", trials=37, workers=1))
    two = run_experiment(_config(algorithm="iahyp", trials=37, workers=2))
    assert two.results == serial.results
    assert two.summary == serial.summary


@pytest.mark.parametrize("k", [0, 1, 9, 35, 36])
def test_the_pool_gets_the_trials_left_once_the_budget_has_passed(monkeypatch, k):
    # each trial advances a stand-in clock by a second, so the budget of
    # k - 1/2 seconds has passed once trials 0..k-1 have run
    now = [0.0]
    execute_trial = harness._execute_trial

    def one_second_trial(config, seed):
        now[0] += 1
        return execute_trial(config, seed)

    serial = run_experiment(_config(trials=37))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "_execute_trial", one_second_trial)
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(harness, "_IN_PROCESS_S", k - 0.5)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "calls", [])
    report = run_experiment(_config(trials=37, workers=2))
    assert report.results == serial.results
    assert report.summary == serial.summary
    # two workers, each handed about four contiguous ranges of trials k..36;
    # the one trial left after 36 runs in process
    step = -(-(37 - k) // 8)
    ranges = [(a, min(a + step, 37)) for a in range(k, 37, step)]
    assert _RecordingPool.calls == ([(2, 1, ranges)] if k < 36 else [])


@pytest.mark.parametrize("trials, ranges", [
    (2, [(0, 1), (1, 2)]),
    (8, [(i, i + 1) for i in range(8)]),
    (9, None),
])
def test_a_few_trials_per_worker_go_to_the_pool_from_the_first(monkeypatch, trials, ranges):
    # up to four trials per worker, each its own range, start no in-process
    # phase: on a clock that stands still, a larger batch starts no pool
    serial = run_experiment(_config(trials=trials))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "calls", [])
    report = run_experiment(_config(trials=trials, workers=2))
    assert report.results == serial.results
    assert report.summary == serial.summary
    assert _RecordingPool.calls == ([(2, 1, ranges)] if ranges else [])


def test_csv_round_trip(tmp_path):
    report = run_experiment(_config())
    path = tmp_path / "r.csv"
    export_report(report, "csv", str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    assert len(rows) == 4
    for i, (row, res) in enumerate(zip(rows, report.results)):
        assert int(row["trial"]) == i
        assert int(row["seed"]) == res.seed
        assert int(row["evaluations"]) == res.evaluations_used
        assert int(row["best_makespan"]) == res.best_makespan
        assert int(row["optimum"]) == 72
        assert row["terminated_by"] == res.terminated_by
        assert row["mu"] == "" and row["tau"] == "" and row["reinit_count"] == ""
        assert float(row["ratio"]) == res.best_makespan / 72


def test_json_round_trip(tmp_path):
    report = run_experiment(_config(algorithm="ageing", tau=20, mu=3))
    path = tmp_path / "r.json"
    export_report(report, "json", str(path))
    payload = json.loads(path.read_text())
    assert len(payload["trials"]) == 4
    first = payload["trials"][0]
    assert first["mu"] == 3 and first["tau"] == 20
    assert first["reinit_count"] == report.results[0].reinit_count
    assert payload["summary"]["trials"] == 4


def test_ratio_and_optimum_cells_empty_without_optimum(tmp_path):
    config = _config(
        instance=gen_uniform(10, 50, seed=4),
        stop=StopCondition(200),
        optimum_source="none",
    )
    report = run_experiment(config)
    assert report.optimum is None
    assert report.summary["ratio_mean"] is None
    path = tmp_path / "r.csv"
    export_report(report, "csv", str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["ratio"] == "" and row["optimum"] == "" for row in rows)


def test_json_exports_are_the_bytes_of_json_dumps_with_indent_2(tmp_path):
    """Both exports write their JSON row by row, and the bytes are those of
    json.dumps(payload, indent=2) plus a line break: with null cells, a family
    that is not ASCII, an empty sweep and a sweep of several sizes."""
    source = tmp_path / "inst.txt"
    source.write_text(
        "partition v1\nn=6\nmeta=f\u00e4hre-\u2202\n41\n41\n12\n10\n9\n5\n", encoding="utf-8"
    )
    # no optimum: null optimum, ratio, mu, tau and reinit_count cells, and
    # null summary values
    foreign = run_experiment(_config(
        instance=read_instance(str(source)), stop=StopCondition(50), optimum_source="none",
    ))
    ageing = run_experiment(_config(algorithm="ageing", mu=3, tau=20))
    sizes = [
        run_experiment(_config(
            instance=gen_g_star(GStarParams(n=n, s=2, eps=(1, 4))), stop=StopCondition(300),
        ))
        for n in (8, 12)
    ]
    path = tmp_path / "out.json"

    def dumped(payload) -> bytes:
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")

    for report in (foreign, ageing, *sizes):
        export_report(report, "json", str(path))
        assert path.read_bytes() == dumped(
            {"trials": report_rows(report), "summary": report.summary}
        )
    for reports in ([], [foreign], [ageing, *sizes]):
        export_sweep(reports, "json", str(path))
        assert path.read_bytes() == dumped({"sweeps": [
            {"n": r.config.instance.n, "optimum": r.optimum,
             "trials": report_rows(r), "summary": r.summary}
            for r in reports
        ]})
    export_report(foreign, "json", str(path))
    text = path.read_text(encoding="utf-8")
    assert '"family": "f\\u00e4hre-\\u2202",' in text
    assert '"optimum": null,' in text and '"ratio_mean": null,' in text


def test_export_memory_does_not_grow_with_the_trial_count(tmp_path):
    """Exports write one row at a time: a report of 20,000 rows, the results
    of one batch repeated, takes under 2 MB above the live report in either
    format. A list of all rows alone takes about 10 MB, and the whole JSON
    text about 53 MB."""
    batch = run_experiment(_config(algorithm="ageing", mu=3, tau=20, stop=StopCondition(300)))
    report = replace(batch, results=batch.results * 5000)
    for fmt, row_mark in (("csv", ",ageing,"), ("json", '"trial": ')):
        path = tmp_path / f"rows.{fmt}"
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            export_report(report, fmt, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - live < 2_000_000, (fmt, peak - live)
        assert path.read_text().count(row_mark) == 20_000


def test_success_rate_semantics():
    with_target = run_experiment(_config(trials=10))
    hits = sum(r.terminated_by == "target" for r in with_target.results)
    assert with_target.summary["success_rate"] == hits / 10

    budget_only = run_experiment(_config(trials=10, stop=StopCondition(2000)))
    hits = sum(r.best_makespan == 72 for r in budget_only.results)
    assert budget_only.summary["success_rate"] == hits / 10


def test_stuck_rate_enumerated_and_analytic_paths():
    report = run_experiment(_config(trials=20, stop=StopCondition(3000)))
    stuck = sum(r.best_makespan == 78 for r in report.results)
    assert report.summary["stuck_rate"] == stuck / 20

    g32 = gen_g_star(GStarParams(n=32, s=2, eps=(1, 4)))
    big = run_experiment(_config(
        instance=g32, trials=10, stop=StopCondition(20000),
    ))
    stuck = sum(r.best_makespan == 390 for r in big.results)
    assert big.summary["stuck_rate"] == stuck / 10


def _stuck(report) -> int:
    """Trials that ended on a local optimum above the batch's optimum."""
    inst = report.config.instance
    return sum(
        r.best_makespan > report.optimum and is_local_optimum(inst, r.best_assignment)
        for r in report.results
    )


def test_stuck_rate_needs_an_optimum():
    """Beyond the DP and enumeration (W >= 2^62) a provided optimum gives a
    stuck rate from each trial's final state, here at the trap level 78 times
    the scale; without an optimum there is none."""
    scale = 10**18
    config = _config(
        instance=gen_g_star(GStarParams(n=8, s=2, eps=(1, 4), scale=scale)),
        trials=20,
        stop=StopCondition(3000),
        optimum_source="provided",
        optimum=72 * scale,
    )
    report = run_experiment(config)
    stuck = _stuck(report)
    assert 0 < stuck < 20
    assert stuck == sum(r.best_makespan == 78 * scale for r in report.results)
    assert report.summary["stuck_rate"] == stuck / 20
    unknown = run_experiment(replace(config, optimum_source="none"))
    assert unknown.results == report.results
    assert unknown.summary["stuck_rate"] is None


def test_stuck_rate_from_final_states_of_a_large_foreign_instance(monkeypatch):
    dp_calls = []

    def counted_dp(inst):
        dp_calls.append(inst)
        return dp_optimal_makespan(inst)

    monkeypatch.setattr(harness, "dp_optimal_makespan", counted_dp)
    config = _config(
        instance=gen_uniform(30, 50, seed=9),
        trials=3,
        stop=StopCondition(500),
        optimum_source="dp",
    )
    report = run_experiment(config)
    assert report.summary["stuck_rate"] == _stuck(report) / 3
    # the optimum is resolved once; the report keeps the caller's config
    assert dp_calls == [config.instance]
    assert report.config is config
    assert report.optimum == dp_optimal_makespan(config.instance)


def test_stuck_rate_leaves_out_trials_cut_short_mid_climb():
    """At budget 20 many ea trials end on a makespan that is a local-optimum
    level of the instance while their assignment is not a local optimum.
    Counted by level, 30 of the 100 trials would be stuck; counted by their
    final states, 14 are."""
    report = run_experiment(_config(
        instance=gen_uniform(8, 10, 1), algorithm="ea", trials=100, master_seed=0,
        stop=StopCondition(20),
    ))
    assert report.optimum == 26
    levels = set(enumerate_local_optima(report.config.instance).distinct_makespans)
    assert sum(r.best_makespan in levels and r.best_makespan > 26 for r in report.results) == 30
    assert _stuck(report) == 14
    assert report.summary["stuck_rate"] == 0.14


def test_config_validation(tmp_path):
    with pytest.raises(ContractViolationError):
        run_experiment(_config(trials=0))
    with pytest.raises(ContractViolationError):
        run_experiment(_config(algorithm="simulated-annealing"))
    with pytest.raises(ContractViolationError):
        run_experiment(_config(algorithm="ageing"))
    with pytest.raises(ContractViolationError):
        run_experiment(_config(algorithm="ea-restart"))
    with pytest.raises(ContractViolationError):
        run_experiment(_config(optimum_source="provided", optimum=None))
    with pytest.raises(ContractViolationError, match="unknown optimum source 'brute'"):
        run_experiment(_config(optimum_source="brute"))
    with pytest.raises(ContractViolationError):
        run_experiment(_config(instance=None))
    # a ratio target with no optimum fails here, not in the first trial
    with pytest.raises(ContractViolationError, match="target_ratio requires a known optimum"):
        _config(stop=StopCondition(100, target_ratio=Fraction(5, 4)), optimum_source="none")
    with pytest.raises(ContractViolationError, match="tau must be at least 1"):
        _config(algorithm="ageing", tau=0)
    # counts and seeds must be integers; none is rounded
    for bad, message in (
        (dict(trials=2.5), "trials must be an integer (--trials)"),
        (dict(master_seed=1.5), "master_seed must be an integer (--seed)"),
        (dict(workers=1.5), "workers must be an integer (--threads)"),
        (dict(algorithm="ageing", mu=1.5, tau=3), "mu must be an integer (--mu)"),
        (dict(algorithm="ageing", tau=1.5), "tau must be an integer (--tau)"),
        (dict(algorithm="ea-restart", restart_length=1.5),
         "restart_length must be an integer (--restart-len)"),
    ):
        with pytest.raises(ContractViolationError, match=re.escape(message)):
            _config(**bad)
    # an optimum below max(p[0], ceil(W/2)) is one no split reaches
    floor = max(G8.p[0], (G8.W + 1) // 2)
    for optimum in (0, floor - 1):
        with pytest.raises(ContractViolationError, match="no split reaches it"):
            _config(optimum_source="provided", optimum=optimum)
    assert _config(optimum_source="provided", optimum=floor).optimum == floor
    # an unknown export format fails before the file is opened
    kept = tmp_path / "kept.xml"
    kept.write_bytes(b"earlier bytes\n")
    with pytest.raises(ContractViolationError, match="unknown export format 'xml'"):
        export_report(run_experiment(_config(trials=1)), "xml", str(kept))
    assert kept.read_bytes() == b"earlier bytes\n"


def test_oracle_capacity_surfaces_before_any_trial():
    huge = Instance(p=(1 << 61, 1 << 61))
    with pytest.raises(CapacityError):
        run_experiment(_config(instance=huge, stop=StopCondition(100)))
