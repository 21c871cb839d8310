"""Batch experiment execution, aggregation, and deterministic export.

Each trial draws its own generator stream derived from (master seed, trial
index), so a batch's results do not depend on execution order or worker
count, and identical master seeds reproduce identical report bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Sequence

import numpy as np

from .algorithms import (
    StopCondition,
    TrialResult,
    run_ia_hyp,
    run_mu_ea_ageing,
    run_one_one_ea,
    run_rls,
    run_with_restarts,
)
from .core import ContractViolationError, Instance
from .instances import GStarParams, gen_g_star
from .oracles import (
    CapacityError,
    # not called here: perfbench/run.py traces the oracles in this namespace
    brute_force_optimum,  # noqa: F401
    dp_optimal_makespan,
    enumerate_local_optima,
    g_star_local_optima,
)

ALGORITHMS = ("iahyp", "ageing", "ea", "rls", "ea-restart", "rls-restart")

CSV_COLUMNS = (
    "trial", "seed", "n", "family", "algorithm", "mu", "tau", "evaluations",
    "best_makespan", "optimum", "ratio", "terminated_by", "reinit_count",
)


def derive_seed(master_seed: int, index: int) -> int:
    """Seed of an independent per-trial stream for (master seed, index)."""
    if master_seed < 0 or index < 0:
        raise ContractViolationError("seeds and indices must be non-negative")
    ss = np.random.SeedSequence([master_seed, index])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch: an instance, an algorithm with parameters, and a stop rule."""

    instance: Instance | None
    algorithm: str
    trials: int
    master_seed: int
    stop: StopCondition
    mu: int = 1
    tau: int | None = None
    restart_length: int | None = None
    optimum_source: str = "none"
    optimum: int | None = None
    workers: int = 1


@dataclass(frozen=True)
class AggregateReport:
    """Per-trial rows plus a summary recomputable from them."""

    config: ExperimentConfig
    optimum: int | None
    results: tuple[TrialResult, ...]
    summary: dict[str, float | int | None]


def _validate(config: ExperimentConfig) -> None:
    if config.instance is None:
        raise ContractViolationError("experiment needs an instance")
    if config.trials < 1:
        raise ContractViolationError("trials must be at least 1")
    if config.algorithm not in ALGORITHMS:
        raise ContractViolationError(f"unknown algorithm {config.algorithm!r}")
    if config.algorithm == "ageing" and config.tau is None:
        raise ContractViolationError("ageing needs tau")
    if config.algorithm.endswith("-restart") and config.restart_length is None:
        raise ContractViolationError("restart algorithms need restart_length")
    if config.optimum_source not in ("dp", "provided", "none"):
        raise ContractViolationError(f"unknown optimum source {config.optimum_source!r}")
    if config.optimum_source == "provided" and config.optimum is None:
        raise ContractViolationError("optimum_source 'provided' needs an optimum value")
    if config.workers < 1:
        raise ContractViolationError("workers must be at least 1")


def _resolve_optimum(config: ExperimentConfig) -> int | None:
    inst = config.instance
    assert inst is not None
    if config.optimum_source == "dp":
        return dp_optimal_makespan(inst)
    if config.optimum_source == "provided":
        return config.optimum
    return None


def _execute_trial(config: ExperimentConfig, optimum: int | None, index: int) -> TrialResult:
    inst = config.instance
    assert inst is not None
    seed = derive_seed(config.master_seed, index)
    stop = config.stop
    algo = config.algorithm
    if algo == "iahyp":
        return run_ia_hyp(inst, stop, seed, optimum=optimum)
    if algo == "ageing":
        assert config.tau is not None
        return run_mu_ea_ageing(inst, config.mu, config.tau, stop, seed, optimum=optimum)
    if algo == "ea":
        return run_one_one_ea(inst, stop, seed, optimum=optimum)
    if algo == "rls":
        return run_rls(inst, stop, seed, optimum=optimum)
    assert config.restart_length is not None
    base = algo.split("-", 1)[0]
    return run_with_restarts(
        base, inst, config.restart_length, stop, seed, optimum=optimum
    )


def _known_local_optima(inst: Instance) -> tuple[int, ...] | None:
    if inst.n <= 24:
        try:
            return enumerate_local_optima(inst).distinct_makespans
        except CapacityError:
            return None
    if inst.meta.family == "gstar" and inst.meta.s is not None:
        return g_star_local_optima(inst)
    return None


def _summarize(
    config: ExperimentConfig,
    optimum: int | None,
    results: Sequence[TrialResult],
) -> dict[str, float | int | None]:
    inst = config.instance
    assert inst is not None
    evals = [r.evaluations_used for r in results]
    k = len(results)
    summary: dict[str, float | int | None] = {
        "trials": k,
        "evaluations_mean": statistics.fmean(evals),
        "evaluations_median": statistics.median(evals),
        "evaluations_min": min(evals),
        "evaluations_max": max(evals),
    }
    if k >= 2:
        qs = statistics.quantiles(evals, n=10, method="inclusive")
        summary["evaluations_q10"] = qs[0]
        summary["evaluations_q90"] = qs[8]
    else:
        summary["evaluations_q10"] = evals[0]
        summary["evaluations_q90"] = evals[0]
    stop = config.stop
    if stop.target_makespan is not None or stop.target_ratio is not None:
        summary["success_rate"] = (
            sum(r.terminated_by != "budget" for r in results) / k
        )
    elif optimum is not None:
        summary["success_rate"] = (
            sum(r.best_makespan == optimum for r in results) / k
        )
    else:
        summary["success_rate"] = None
    if optimum:
        ratios = [r.best_makespan / optimum for r in results]
        summary["ratio_mean"] = statistics.fmean(ratios)
        summary["ratio_median"] = statistics.median(ratios)
    else:
        summary["ratio_mean"] = None
        summary["ratio_median"] = None
    known = _known_local_optima(inst)
    if known:
        reference = optimum if optimum is not None else known[0]
        levels = set(known)
        summary["stuck_rate"] = (
            sum(r.best_makespan in levels and r.best_makespan > reference for r in results) / k
        )
    else:
        summary["stuck_rate"] = None
    summary["reinit_total"] = sum(r.reinit_count or 0 for r in results)
    summary["trials_with_reinit"] = sum(bool(r.reinit_count) for r in results)
    return summary


def pool_size(workers: int, trials: int) -> int:
    """Worker processes for a batch: the request, capped by the trial and the CPU count."""
    return max(1, min(workers, trials, os.cpu_count() or 1))


# Contiguous trial ranges per worker; more than one evens out uneven trials.
_CHUNKS_PER_WORKER = 4


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Execute all trials; the optimum is resolved once, before any trial runs."""
    _validate(config)
    optimum = _resolve_optimum(config)
    workers = pool_size(config.workers, config.trials)
    if workers > 1:
        # One task per range of trials, not per trial: the config and the
        # instance are pickled once per range, and results keep trial order.
        chunksize = math.ceil(config.trials / (_CHUNKS_PER_WORKER * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = tuple(pool.map(
                _execute_trial, repeat(config), repeat(optimum), range(config.trials),
                chunksize=chunksize,
            ))
    else:
        results = tuple(
            _execute_trial(config, optimum, i) for i in range(config.trials)
        )
    return AggregateReport(
        config=config,
        optimum=optimum,
        results=results,
        summary=_summarize(config, optimum, results),
    )


def scaling_sweep(
    params: GStarParams, n_list: Sequence[int], template: ExperimentConfig
) -> list[AggregateReport]:
    """One experiment per n; per-n master seeds derive from the shared seed."""
    reports = []
    for n in n_list:
        inst = gen_g_star(replace(params, n=n))
        config = replace(
            template,
            instance=inst,
            master_seed=derive_seed(template.master_seed, n),
        )
        reports.append(run_experiment(config))
    return reports


def report_rows(report: AggregateReport) -> list[dict[str, object]]:
    """Per-trial rows in export column order; None marks an empty cell."""
    config = report.config
    inst = config.instance
    assert inst is not None
    ageing = config.algorithm == "ageing"
    rows: list[dict[str, object]] = []
    for i, r in enumerate(report.results):
        rows.append({
            "trial": i,
            "seed": r.seed,
            "n": inst.n,
            "family": inst.meta.family,
            "algorithm": config.algorithm,
            "mu": config.mu if ageing else None,
            "tau": config.tau if ageing else None,
            "evaluations": r.evaluations_used,
            "best_makespan": r.best_makespan,
            "optimum": report.optimum,
            "ratio": (r.best_makespan / report.optimum) if report.optimum else None,
            "terminated_by": r.terminated_by,
            "reinit_count": r.reinit_count,
        })
    return rows


def _write_csv(rows: list[dict[str, object]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                ["" if row[c] is None else row[c] for c in CSV_COLUMNS]
            )


def export_report(report: AggregateReport, format: str, path: str) -> None:
    """Write one report; identical reports produce identical bytes."""
    rows = report_rows(report)
    if format == "csv":
        _write_csv(rows, path)
    elif format == "json":
        payload = {"trials": rows, "summary": report.summary}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(payload, indent=2))
            fh.write("\n")
    else:
        raise ContractViolationError(f"unknown export format {format!r}")
