#!/usr/bin/env python3
"""Benchmark of the partition_ais package, run from the root of a checkout.

    python3 perfbench/run.py --workload long-trials --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1              # all three workloads in turn
    python3 perfbench/run.py --seed 1 --trace 1    # every per-layer metric, once

Workloads (see BASELINE.md for why each was chosen):
  long-trials   six runners through run_experiment on gstar n=32, whole budget spent
  short-trials  `partition-ais run` in process: 2000 iahyp trials that stop at the optimum
  exact         the oracles near their capacity guards plus the three verify suites

With --trace 0 a run repeats its workload's fixed amount of work for --seconds
and reports end-to-end medians. With --trace 1 it does a fixed amount of work
and reports per-layer metrics: spans recorded around calls into each module
(tracing.py) at workers=1, warmed-up call loops for the nanosecond-scale core
and operator functions, and the tracing overhead on the chosen workload (on
all three without --workload).
Every output is checked; an operation that raises or fails a check counts in
`failed`.

The package is imported from ./src, as a user would; nothing under src/ is
touched. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from importlib import metadata
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("long-trials", "short-trials", "exact")
perf = time.perf_counter

# Workload constants, fixed by the benchmark's definition.
GSTAR = dict(n=32, s=2, eps=(1, 4))  # W = 720
RUNNERS = ("rls", "ea", "iahyp", "ageing", "ea-restart", "rls-restart")
AGEING_MU = 5
AGEING_TAU = math.ceil(32 ** 1.5)  # 182
ENUM_SIZES = (20, 22, 24)  # brute force and enumeration, at their n <= 24 guard
ENUM_MAX_P = 1000
GSTAR_SIZES = (32, 64, 128)
# The exact tasks that answer a batch's reference optimum: the oracles on the
# DP-size and gstar instances (brute force and enumeration sizes are counted
# as evaluations instead).
ANSWER_KINDS = ("dp", "dpa", "dp-lpt", "gstar", "gstar-lpt")
SUITES = ("oracles", "properties", "trajectories")
DP_CELL_GUARD = 10**9  # the DP oracle refuses n*W above this


@dataclass(frozen=True)
class Sizes:
    long_trials: int = 4  # trials per runner and repetition
    long_budget: int = 5000  # evaluations per trial, all of them spent
    short_trials: int = 2000
    short_budget: int = 100_000
    dp_sizes: tuple[int, ...] = (50, 100, 200)
    dp_cells: int = 900_000_000  # expected n*W of a DP instance
    setup_samples: int = 15  # fresh interpreters timed per run, spread over it
    loop_seconds: float = 0.02  # length of one timed call loop
    walks: int = 4096  # hypermutation walks timed
    sbm_samples: int = 100_000  # sbm offspring inspected for noop_frac


FULL = Sizes()
TINY = Sizes(
    long_trials=2, long_budget=300, short_trials=50, dp_sizes=(20, 30, 40),
    dp_cells=1_000_000, setup_samples=2, loop_seconds=0.002, walks=256, sbm_samples=2000,
)


@dataclass
class Tally:
    """Operations attempted and failed, and the work they did."""

    attempted: int = 0
    failed: int = 0
    evals: int = 0
    trials: int = 0

    def add(self, other: Tally) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.evals += other.evals
        self.trials += other.trials

    def check(self, ok: bool, ops: int = 1) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops


def holds(check) -> bool:
    """A check that raises fails, like one that returns False."""
    try:
        return bool(check())
    except Exception:
        return False


def call(fn, *args):
    """An operation's result, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def import_package():
    if not (SRC / "partition_ais" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import partition_ais

    if Path(partition_ais.__file__).resolve().parent != (SRC / "partition_ais").resolve():
        sys.exit(f"perfbench: imported partition_ais from {partition_ais.__file__}, not {SRC}")
    return partition_ais


def recomputed(inst, x) -> int:
    from partition_ais.core import Assignment

    return Assignment.from_bits(inst, x.bits).makespan


class Workload:
    """A workload's fixed amount of work (rep), and the checks on its outputs."""

    def final_checks(self, outputs) -> Tally:
        """Checks made once per run, outside the timed repetitions."""
        return Tally()

    def rate_seconds(self, wall: float, outputs) -> tuple[float, float]:
        """The seconds that the evaluation and the trial counts are divided by."""
        return wall, wall


class LongTrials(Workload):
    """All six runners at workers=1 with a fixed budget and no target."""

    name = "long-trials"
    warm_up = True

    def __init__(self, sizes: Sizes, seed: int, scratch: Path) -> None:
        from partition_ais import algorithms, harness, instances

        self.inst = instances.gen_g_star(instances.GStarParams(**GSTAR))
        restart = algorithms.restart_length_for_ratio(GSTAR["n"], GSTAR["eps"])
        self.budget = sizes.long_budget
        stop = algorithms.StopCondition(sizes.long_budget)
        self.configs = [
            harness.ExperimentConfig(
                instance=self.inst, algorithm=algo, trials=sizes.long_trials,
                master_seed=seed, stop=stop,
                mu=AGEING_MU if algo == "ageing" else 1,
                tau=AGEING_TAU if algo == "ageing" else None,
                restart_length=restart if algo.endswith("-restart") else None,
            )
            for algo in RUNNERS
        ]

    def reference(self) -> None:
        from partition_ais import oracles

        self.optimum = oracles.dp_optimal_makespan(self.inst)

    def rep(self, workers: int = 1):
        from partition_ais import harness

        configs = [replace(c, workers=workers) for c in self.configs]
        t0 = perf()
        reports = [call(harness.run_experiment, c) for c in configs]
        return perf() - t0, reports

    def verify(self, reports) -> Tally:
        t = Tally()
        for config, report in zip(self.configs, reports):
            if isinstance(report, Exception):
                t.check(False, config.trials)
                continue
            t.check(len(report.results) == config.trials)
            for r in report.results:
                t.check(holds(lambda: (
                    r.evaluations_used == self.budget
                    and r.best_makespan >= self.optimum
                    and recomputed(self.inst, r.best_assignment) == r.best_makespan
                )))
                t.evals += r.evaluations_used
                t.trials += 1
        return t

    def trace(self, tracer: Tracer) -> None:
        from partition_ais import harness

        tracer.wrap(harness, "run_experiment", "harness.run_experiment")
        wrap_runners(tracer)

    def layer_metrics(self, tracer: Tracer) -> dict:
        out = {}
        for algo in RUNNERS:
            name = f"algorithms.{algo}"
            evals = sum(tracer.counts(name))
            out[f"{name}.us_per_eval"] = (sum(tracer.durations(name)) / evals * 1e6, "us")
        return out


def wrap_runners(tracer: Tracer) -> None:
    """Spans around the runner and oracle calls that run_experiment makes."""
    from partition_ais import harness

    evals = lambda r: r.evaluations_used  # noqa: E731
    for attr, algo in (
        ("run_rls", "rls"), ("run_one_one_ea", "ea"), ("run_ia_hyp", "iahyp"),
        ("run_mu_ea_ageing", "ageing"),
    ):
        tracer.wrap(harness, attr, f"algorithms.{algo}", evals)
    tracer.wrap(harness, "run_with_restarts", lambda a: f"algorithms.{a[0]}-restart", evals)
    for attr in (
        "dp_optimal_makespan", "brute_force_optimum", "enumerate_local_optima",
        "g_star_local_optima",
    ):
        tracer.wrap(harness, attr, f"oracles.{attr}")


class ShortTrials(Workload):
    """`partition-ais run` in process: many iahyp trials that stop at the DP optimum."""

    name = "short-trials"
    warm_up = True

    def __init__(self, sizes: Sizes, seed: int, scratch: Path) -> None:
        from partition_ais import cli  # noqa: F401  (the import is part of set-up)

        self.trials = sizes.short_trials
        self.budget = sizes.short_budget
        self.seed = seed
        self.paths = {fmt: scratch / f"short.{fmt}" for fmt in ("csv", "json")}

    def argv(self, fmt: str, threads: int | None, path: Path) -> list[str]:
        n, s, (q, r) = GSTAR["n"], GSTAR["s"], GSTAR["eps"]
        argv = [
            "run", "--family", "gstar", "--n", str(n), "--s", str(s), "--eps", f"{q}/{r}",
            "--algo", "iahyp", "--trials", str(self.trials), "--seed", str(self.seed),
            "--budget", str(self.budget), "--format", fmt, "--out", str(path),
        ]
        # Without --threads the CLI's default, os.cpu_count(), applies.
        return argv if threads is None else argv + ["--threads", str(threads)]

    def reference(self) -> None:
        from partition_ais import instances, oracles

        self.inst = instances.gen_g_star(instances.GStarParams(**GSTAR))
        self.optimum = oracles.dp_optimal_makespan(self.inst)

    def rep(self, workers: int | None = None):
        from partition_ais import cli

        argvs = [self.argv(fmt, workers, path) for fmt, path in self.paths.items()]
        for path in self.paths.values():
            path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf()
            codes = [call(cli.main, argv) for argv in argvs]
            wall = perf() - t0
        files = [call(path.read_bytes) for path in self.paths.values()]
        return wall, (codes, files)

    def rows(self, outputs) -> tuple[list[dict], list[dict]]:
        csv_bytes, json_bytes = outputs[1]
        csv_rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
        json_rows = json.loads(json_bytes)["trials"]
        return csv_rows, json_rows

    def verify(self, outputs) -> Tally:
        t = Tally()
        codes, files = outputs
        if any(c != 0 for c in codes) or any(isinstance(f, Exception) for f in files):
            t.check(False, 2 * self.trials)
            return t
        try:
            csv_rows, json_rows = self.rows(outputs)
        except (ValueError, KeyError, TypeError):
            t.check(False, 2 * self.trials)
            return t
        for rows in (csv_rows, json_rows):
            if len(rows) != self.trials:
                t.check(False, self.trials)
                continue
            for row in rows:
                t.check(holds(lambda: (
                    int(row["optimum"]) == self.optimum
                    and int(row["best_makespan"]) >= self.optimum
                    and 1 <= int(row["evaluations"]) <= self.budget
                )))
                t.evals += int(row["evaluations"])
                t.trials += 1
        t.check(holds(lambda: [
            (int(r["seed"]), int(r["evaluations"]), int(r["best_makespan"])) for r in csv_rows
        ] == [(r["seed"], r["evaluations"], r["best_makespan"]) for r in json_rows]))
        return t

    def final_checks(self, outputs) -> Tally:
        """Outside the timed reps: the exported bytes do not depend on the worker
        count, equal the library's export of the same batch, and every trial's
        best makespan matches its assignment."""
        from partition_ais import algorithms, cli, harness

        t = Tally()
        csv_bytes = outputs[1][0]
        one = self.paths["csv"].with_name("short-w1.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            code = call(cli.main, self.argv("csv", 1, one))
        t.check(code == 0 and holds(lambda: one.read_bytes() == csv_bytes))
        config = harness.ExperimentConfig(
            instance=self.inst, algorithm="iahyp", trials=self.trials, master_seed=self.seed,
            stop=algorithms.StopCondition(self.budget, target_makespan=self.optimum),
            optimum_source="provided", optimum=self.optimum,
        )
        report = call(harness.run_experiment, config)
        if isinstance(report, Exception):
            t.check(False, self.trials + 1)
            return t
        for r in report.results:
            t.check(holds(lambda: recomputed(self.inst, r.best_assignment) == r.best_makespan))
        lib = self.paths["csv"].with_name("short-lib.csv")
        t.check(holds(lambda: (
            harness.export_report(report, "csv", str(lib)) is None
            and lib.read_bytes() == csv_bytes
        )))
        return t

    def trace(self, tracer: Tracer) -> None:
        from partition_ais import cli

        tracer.wrap(cli, "main", "cli.main")
        tracer.wrap(cli, "run_experiment", "harness.run_experiment")
        tracer.wrap(cli, "export_report", lambda a: f"harness.export_report.{a[1]}")
        tracer.wrap(cli, "dp_optimal_makespan", "oracles.dp_optimal_makespan")
        wrap_runners(tracer)

    def layer_metrics(self, tracer: Tracer) -> dict:
        trial_s = tracer.durations("algorithms.iahyp")
        return {
            "algorithms.iahyp.trial_us": (statistics.fmean(trial_s) * 1e6, "us"),
            "algorithms.evals_per_trial.p50": (
                statistics.median(tracer.counts("algorithms.iahyp")), "count"),
            "harness.run_experiment.self_s": (
                statistics.median(tracer.self_times("harness.run_experiment")), "s"),
            "harness.export_report.csv_s": (tracer.median("harness.export_report.csv"), "s"),
            "harness.export_report.json_s": (tracer.median("harness.export_report.json"), "s"),
            "cli.main.self_s": (statistics.median(tracer.self_times("cli.main")), "s"),
        }


def near_guard_uniform(n: int, cells: int, seed: int):
    """A uniform instance with n*W close to `cells` and under the DP guard.

    Draws are repeated on derived seeds until one fits, so the instance is a
    function of (n, cells, seed).
    """
    from partition_ais import instances

    max_p = 2 * cells // (n * n) - 1
    for attempt in range(1000):
        inst = instances.gen_uniform(n, max_p, seed * 1_000_003 + n * 1009 + attempt)
        if n * inst.W <= DP_CELL_GUARD:
            return inst
    raise RuntimeError(f"no uniform n={n} instance under the DP guard")


class Exact(Workload):
    """The exact oracles near their capacity guards, then the verify suites.

    Its evaluations are the assignments that brute force and enumeration
    evaluate, 2^(n-1) per call, counted over the seconds spent in those calls.
    Its trials are the calls that answer a batch's reference optimum (DP, LPT
    and closed form on the DP-size and gstar instances), counted over the
    seconds spent in them.
    """

    name = "exact"
    warm_up = False  # one repetition is most of a run and amortises first calls

    def __init__(self, sizes: Sizes, seed: int, scratch: Path) -> None:
        from partition_ais import checks, instances, oracles

        self.dp_insts = {n: near_guard_uniform(n, sizes.dp_cells, seed) for n in sizes.dp_sizes}
        self.enum_insts = {
            n: instances.gen_uniform(n, ENUM_MAX_P, seed * 1_000_003 + n) for n in ENUM_SIZES
        }
        self.gstar_insts = {
            n: instances.gen_g_star(instances.GStarParams(n, GSTAR["s"], GSTAR["eps"]))
            for n in GSTAR_SIZES
        }
        self.tasks = []
        for n, inst in self.dp_insts.items():
            self.tasks += [
                (("dp", n), oracles, "dp_optimal_makespan", inst),
                (("dpa", n), oracles, "dp_optimal_assignment", inst),
                (("dp-lpt", n), oracles, "lpt", inst),
            ]
        for n, inst in self.enum_insts.items():
            self.tasks += [
                (("brute", n), oracles, "brute_force_optimum", inst),
                (("enum", n), oracles, "enumerate_local_optima", inst),
                (("enum-lpt", n), oracles, "lpt", inst),
            ]
        for n, inst in self.gstar_insts.items():
            self.tasks += [
                (("gstar", n), oracles, "g_star_local_optima", inst),
                (("gstar-lpt", n), oracles, "lpt", inst),
            ]
        self.tasks += [(("suite", s), checks, "run_suite", s) for s in SUITES]

    def reference(self) -> None:
        """DP optima of the small instances: the answers brute force,
        enumeration and the closed form are held to."""
        from partition_ais import oracles

        self.optimum = {
            n: oracles.dp_optimal_makespan(inst)
            for n, inst in {**self.enum_insts, **self.gstar_insts}.items()
        }

    def rep(self, workers: int = 1):
        out, seconds = {}, {}
        t0 = perf()
        for key, module, attr, arg in self.tasks:
            t1 = perf()
            out[key] = call(getattr(module, attr), arg)
            seconds[key] = perf() - t1
        return perf() - t0, (out, seconds)

    def rate_seconds(self, wall: float, outputs) -> tuple[float, float]:
        seconds = outputs[1]
        enum_s = sum(s for (kind, _), s in seconds.items() if kind in ("brute", "enum"))
        answer_s = sum(s for (kind, _), s in seconds.items() if kind in ANSWER_KINDS)
        return enum_s, answer_s

    def verify(self, outputs) -> Tally:
        out = outputs[0]
        t = Tally()
        for n, inst in self.dp_insts.items():
            dp = out["dp", n]
            t.check(isinstance(dp, int))
            t.check(holds(lambda: (
                out["dpa", n][0] == dp
                and recomputed(inst, out["dpa", n][1]) == dp
                and out["dpa", n][1].makespan == dp
            )))
            t.check(holds(lambda: recomputed(inst, out["dp-lpt", n]) >= dp))
        for n, inst in self.enum_insts.items():
            opt = self.optimum[n]
            t.check(holds(lambda: (
                out["brute", n][0] == opt and recomputed(inst, out["brute", n][1]) == opt
            )))
            t.check(holds(lambda: out["enum", n].distinct_makespans[0] == opt))
            t.check(holds(lambda: recomputed(inst, out["enum-lpt", n]) >= opt))
            t.evals += 2 * 2 ** (n - 1)
        for n, inst in self.gstar_insts.items():
            t.check(holds(lambda: out["gstar", n][0] == self.optimum[n]))
            t.check(holds(lambda: recomputed(inst, out["gstar-lpt", n]) >= self.optimum[n]))
        for s in SUITES:
            t.check(holds(lambda: out["suite", s] and all(r.passed for r in out["suite", s])))
        t.trials += sum(kind in ANSWER_KINDS for kind, _ in out)
        return t

    def trace(self, tracer: Tracer) -> None:
        from partition_ais import checks, oracles

        for attr in ("dp_optimal_makespan", "dp_optimal_assignment", "g_star_local_optima", "lpt"):
            tracer.wrap(oracles, attr, f"oracles.{attr}")
        for attr in ("brute_force_optimum", "enumerate_local_optima"):
            tracer.wrap(oracles, attr, lambda a, attr=attr: f"oracles.{attr}.s.n{a[0].n}")
        tracer.wrap(checks, "run_suite", lambda a: f"checks.run_suite.s.{a[0]}")

    def layer_metrics(self, tracer: Tracer) -> dict:
        out = {}
        for attr in ("dp_optimal_makespan", "dp_optimal_assignment"):
            out[f"oracles.{attr}.s"] = (sum(tracer.durations(f"oracles.{attr}")), "s")
        enum_s = 0.0
        for n in ENUM_SIZES:
            for attr in ("brute_force_optimum", "enumerate_local_optima"):
                name = f"oracles.{attr}.s.n{n}"
                out[name] = (sum(tracer.durations(name)), "s")
            enum_s += out[f"oracles.enumerate_local_optima.s.n{n}"][0]
        out["oracles.enumerate_local_optima.assignments_per_s"] = (
            sum(2 ** (n - 1) for n in ENUM_SIZES) / enum_s, "1/s")
        for attr in ("g_star_local_optima", "lpt"):
            out[f"oracles.{attr}.us"] = (
                statistics.fmean(tracer.durations(f"oracles.{attr}")) * 1e6, "us")
        for s in SUITES:
            name = f"checks.run_suite.s.{s}"
            out[name] = (tracer.median(name), "s")
        return out


WORKLOAD_TYPES = {w.name: w for w in (LongTrials, ShortTrials, Exact)}


def per_call(body, seconds: float) -> float:
    """Seconds per call of body(k), which makes k calls: warmed up, sized to
    about `seconds` a loop, median of five loops."""
    k = 16
    while True:
        t0 = perf()
        body(k)
        if perf() - t0 >= seconds:
            break
        k *= 2
    times = []
    for _ in range(5):
        t0 = perf()
        body(k)
        times.append((perf() - t0) / k)
    return statistics.median(times)


def call_loops(sizes: Sizes, seed: int, scratch: Path) -> dict:
    """Per-call cost of functions too fast to wrap in spans, on gstar n=32.

    Each figure includes the timing loop's own overhead of a few tens of ns.
    """
    import numpy as np
    from partition_ais import core, harness, instances, operators

    gen = instances.GStarParams(**GSTAR)
    inst = instances.gen_g_star(gen)
    n = inst.n
    rng = np.random.default_rng(seed)
    xs = [core.Assignment.from_bits(inst, rng.integers(0, 2, n).tolist()) for _ in range(64)]
    flips = rng.integers(0, n, 1024).tolist()
    inst_file = scratch / "gstar32.txt"
    instances.write_instance(inst, str(inst_file))
    zeros = [0] * 50

    def loop(fn, args_list):
        def body(k):
            for i in range(k):
                fn(*args_list[i & 63])
        return body

    def flip_body(k):
        x = xs[0].copy()
        for i in range(k):
            core.flip_in_place(inst, x, flips[i & 1023])

    same = [(inst, x) for x in xs]
    with_rng = [(inst, x, rng) for x in xs]
    t = sizes.loop_seconds
    out = {
        "core.flip_in_place.ns": per_call(flip_body, t) * 1e9,
        "core.is_local_optimum.ns": per_call(loop(core.is_local_optimum, same), t) * 1e9,
        "core.makespan.ns": per_call(loop(core.makespan, same), t) * 1e9,
        "core.assignment_copy.ns": per_call(
            loop(core.Assignment.copy, [(x,) for x in xs]), t) * 1e9,
        "operators.sbm.ns": per_call(loop(operators.sbm, with_rng), t) * 1e9,
        "operators.one_bit_flip.ns": per_call(loop(operators.one_bit_flip, with_rng), t) * 1e9,
        "operators.trajectory.us": per_call(
            loop(operators.hypermutation_full_trajectory, [(50, zeros, rng)] * 64), t) * 1e6,
        "instances.gen_g_star.us": per_call(loop(instances.gen_g_star, [(gen,)] * 64), t) * 1e6,
        "instances.gen_uniform.us": per_call(
            loop(instances.gen_uniform, [(50, 10**6, seed + i) for i in range(64)]), t) * 1e6,
        "instances.read_instance.us": per_call(
            loop(instances.read_instance, [(str(inst_file),)] * 64), t) * 1e6,
        "harness.derive_seed.us": per_call(
            loop(harness.derive_seed, [(seed, i) for i in range(64)]), t) * 1e6,
    }
    # A hypermutation walk stops at its first improvement: time per executed flip.
    t0 = perf()
    flips_done = sum(
        operators.hypermutate_fcm(inst, xs[i & 63], rng)[1].stopped_at
        for i in range(sizes.walks)
    )
    out["operators.hypermutate_fcm.ns_per_step"] = (perf() - t0) / flips_done * 1e9
    # Share of sbm offspring with no flipped bit: charged, but equal to the parent.
    k = sizes.sbm_samples
    noop = sum(operators.sbm(inst, xs[i & 63], rng).bits == xs[i & 63].bits for i in range(k))
    out["operators.sbm.noop_frac"] = noop / k
    units = {".ns": "ns", ".ns_per_step": "ns", ".us": "us", ".noop_frac": "fraction"}
    return {
        name: (value, next(u for suffix, u in units.items() if name.endswith(suffix)))
        for name, value in out.items()
    }


class SetupProbe:
    """Times a workload's set-up in fresh interpreters, without their start-up.

    A helper process starts the interpreters and reaps them itself. The kernel
    counts a child's peak memory into this process's RUSAGE_CHILDREN only once
    the child is reaped, and the helper is reaped when the probe is closed, so
    peak_rss_mb read before that excludes the probes.

    The interpreters run with one OpenBLAS thread unless the caller sets
    OPENBLAS_NUM_THREADS: starting numpy's BLAS thread pool at import takes
    0 to 80 ms on a shared 2-vCPU host, depending on other tenants, against
    about 130 ms for the rest of the long-trials set-up. The package makes no multithreaded BLAS
    call, and the timed work is unaffected, since pool workers are forked.
    """

    def __init__(self, workload: str, seed: int, tiny: bool) -> None:
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
                     "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        env = {"OPENBLAS_NUM_THREADS": "1", **os.environ}
        self.helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-helper"],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.helper.stdin.write(json.dumps(self.argv) + "\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise RuntimeError("set-up probe failed")
        return float(line)

    def __enter__(self) -> SetupProbe:
        return self

    def __exit__(self, *exc: object) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=150)
        finally:
            self.helper.kill()
            self.helper.wait()
            self.helper.stdout.close()


def probe_helper() -> int:
    """The helper behind SetupProbe: runs each argv read from stdin and prints
    the last word of its output."""
    for line in sys.stdin:
        done = subprocess.run(json.loads(line), cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return 1
        print(done.stdout.split()[-1], flush=True)
    return 0


def probe(workload: str, seed: int, sizes: Sizes) -> None:
    """Run inside a fresh interpreter: time the import and the workload's inputs."""
    t0 = perf()
    import_package()
    WORKLOAD_TYPES[workload](sizes, seed, OUT / f"probe-{os.getpid()}")
    print(repr(perf() - t0))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child
    (pool workers); pages a forked child shares with this process count twice."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(loadavg: tuple[float, float, float]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(loadavg),
        "commit": git_commit(),
    }


def end_to_end(args, sizes: Sizes, scratch: Path, tally: Tally) -> dict:
    """Medians over repetitions of the workload for --seconds. The set-up probes
    run between repetitions, spread over the run, so that both see the same
    host; one more probe first warms the file cache and is not counted."""
    w = WORKLOAD_TYPES[args.workload](sizes, args.seed, scratch)
    w.reference()
    with SetupProbe(args.workload, args.seed, args.tiny) as setup_probe:
        setup_probe()
        walls, evals_rate, trials_rate, setups = [], [], [], []
        first = None
        if w.warm_up:
            _, first = w.rep()
            tally.add(w.verify(first))
        start, probing = perf(), 0.0
        while not walls or perf() - start - probing < args.seconds:
            wall, outputs = w.rep()
            if first is None:
                first = outputs
            t = w.verify(outputs)
            tally.add(t)
            walls.append(wall)
            evals_s, trials_s = w.rate_seconds(wall, outputs)
            evals_rate.append(t.evals / evals_s)
            trials_rate.append(t.trials / trials_s)
            share = min(1.0, (perf() - start - probing) / args.seconds)
            t0 = perf()
            while len(setups) < sizes.setup_samples * share:
                setups.append(setup_probe())
            probing += perf() - t0
        while len(setups) < sizes.setup_samples:
            setups.append(setup_probe())
        tally.add(w.final_checks(first))
        rss = peak_rss_mb()
    print(f"{args.workload}: {len(walls)} repetitions of the workload's fixed work, "
          f"{len(setups)} set-up probes")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "evals_per_s": (statistics.median(evals_rate), "1/s"),
        "trials_per_s": (statistics.median(trials_rate), "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def speedup_2w(w, tally: Tally) -> float:
    """Wall time at workers=1 over wall time at workers=2, median of two pairs."""
    workers = min(2, os.cpu_count() or 1)
    one, two = [], []
    for _ in range(2):
        for k, walls in ((1, one), (workers, two)):
            wall, outputs = w.rep(k)
            tally.add(w.verify(outputs))
            walls.append(wall)
    return statistics.median(one) / statistics.median(two)


def traced(args, sizes: Sizes, scratch: Path, tally: Tally, env: dict) -> dict:
    """Every per-layer metric. Each workload is traced once at workers=1. The
    chosen workload (each of them without --workload) is also timed untraced,
    and trace.overhead_s is the traced minus the untraced wall time, summed."""
    loads = {name: cls(sizes, args.seed, scratch) for name, cls in WORKLOAD_TYPES.items()}
    metrics, overhead = {}, 0.0
    for name, w in loads.items():
        w.reference()
        chosen = args.workload in (name, "all")
        reps = 3 if chosen and name != "exact" else 1
        plain, walls = [], []
        for _ in range(reps if chosen else 0):
            wall, outputs = w.rep(1)
            tally.add(w.verify(outputs))
            plain.append(wall)
        for _ in range(reps):
            with Tracer() as tracer:
                w.trace(tracer)
                wall, outputs = w.rep(1)
            tally.add(w.verify(outputs))
            walls.append(wall)
        tracer.dump(OUT / f"trace-{name}-seed{args.seed}.json",
                    {"workload": name, "seed": args.seed, "environment": env})
        metrics.update(w.layer_metrics(tracer))
        if chosen:
            overhead += statistics.median(walls) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    for name in ("long-trials", "short-trials"):
        metrics[f"harness.speedup_2w.{name}"] = (speedup_2w(loads[name], tally), "ratio")
    metrics.update(call_loops(sizes, args.seed, scratch))
    # Set-up of short-trials is the import of the package and its CLI.
    with SetupProbe("short-trials", args.seed, args.tiny) as setup_probe:
        setup_probe()
        metrics["cli.import_s"] = (statistics.median(setup_probe() for _ in range(3)), "s")
    return metrics


def run_all(args) -> int:
    """Each workload untraced in its own process, so memory peaks stay apart;
    metric names are prefixed with the workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's self-test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-helper", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sizes = TINY if args.tiny else FULL
    if args.probe_helper:
        return probe_helper()
    if args.probe:
        probe(args.workload, args.seed, sizes)
        return 0
    if args.workload == "all" and not args.trace:
        return run_all(args)

    import_package()
    env = environment(loadavg)
    print("env: " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    tally = Tally()
    try:
        if args.trace:
            metrics = traced(args, sizes, scratch, tally, env)
        else:
            metrics = end_to_end(args, sizes, scratch, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{args.workload}: failed_frac = {tally.failed / max(tally.attempted, 1)!r} "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}: {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
