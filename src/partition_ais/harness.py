"""Batch experiment execution, aggregation, and deterministic export.

Each trial draws its own generator stream derived from (master seed, trial
index), so a batch's results do not depend on execution order or worker
count, and identical master seeds reproduce identical report bytes. The
seeds of a range of trials, and their generators' seed words, are hashed in
one vectorised pass that computes exactly what numpy's SeedSequence does.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, pool size 4)
# on uint32 arrays with one column per trial. Only array arithmetic is used:
# it wraps silently, where numpy scalar arithmetic warns.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init times mult**j mod 2**32 for j = 0..count, as a uint32 column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


_A = _hash_consts(_INIT_A, _MULT_A, 4 * _POOL)
_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
_CYCLE = np.arange(2 * _POOL) % _POOL  # the pool word behind each output word
# Pool mixing, source s into every other word d: the (rows, old, new
# multiplier) of each source's three hash calls, numbered 4 + 3s + rank(d).
_MIX_STEPS = tuple(
    (np.array([d for d in range(_POOL) if d != s]),
     _A[4 + 3 * s:7 + 3 * s], _A[5 + 3 * s:8 + 3 * s])
    for s in range(_POOL)
)


def _hashmix(v: np.ndarray, old: np.ndarray, new: np.ndarray) -> np.ndarray:
    v = (v ^ old) * new
    v ^= v >> 16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    r ^= r >> 16
    return r


def _pool(entropy: list[np.ndarray], k: int) -> np.ndarray:
    """SeedSequence(entropy).pool for k trials; each entropy row has k or 1 entries."""
    pool = np.zeros((_POOL, k), dtype=np.uint32)
    for row, words in zip(pool, entropy):
        row[:] = words
    pool = _hashmix(pool, _A[:_POOL], _A[1:_POOL + 1])
    for s, (rows, old, new) in enumerate(_MIX_STEPS):
        pool[rows] = _mix(pool[rows], _hashmix(pool[s], old, new))
    if len(entropy) > _POOL:
        # a long master seed: each extra word is mixed into all four
        a = _hash_consts(_INIT_A, _MULT_A, 4 * len(entropy))
        for j, words in enumerate(entropy[_POOL:], start=_POOL):
            pool = _mix(pool, _hashmix(words, a[4 * j:4 * j + 4], a[4 * j + 1:4 * j + 5]))
    return pool


def _state_words(pool: np.ndarray, count: int) -> np.ndarray:
    """SeedSequence.generate_state(count, uint32), one column per trial."""
    return _hashmix(pool[_CYCLE[:count]], _B[:count], _B[1:count + 1])


def _as_uint64(words: np.ndarray) -> np.ndarray:
    """Little-endian pairs of uint32 rows as uint64 rows, as generate_state
    returns them for dtype uint64."""
    words = words.astype(np.uint64)
    return words[0::2] | words[1::2] << np.uint64(32)


class _TrialSeed(int):
    """A trial seed that carries the PCG64 seed words SeedSequence(seed)
    generates, so that PCG64(seed) takes them instead of hashing again."""

    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and dtype is np.uint64:
            return self.words
        return np.random.SeedSequence(int(self)).generate_state(n_words, dtype)


ISeedSequence.register(_TrialSeed)

# Trials hashed per pass: bounds the arrays of a long in-process range.
_SEED_BLOCK = 4096


def _trial_seeds(master_seed: int, start: int, stop: int) -> Iterator[_TrialSeed]:
    """derive_seed(master_seed, i) for i in range(start, stop), each with its
    generator's seed words."""
    master_seed = int(master_seed)
    # its entropy words as SeedSequence reads them: little-endian, 0 is [0]
    master = [
        np.array([master_seed >> b & _MASK32], dtype=np.uint32)
        for b in range(0, master_seed.bit_length() or 1, 32)
    ]
    while start < stop:
        end = min(stop, start + _SEED_BLOCK)
        if start < 1 << 32 < end:
            end = 1 << 32  # indices from 2**32 on are two entropy words
        index = np.arange(start, end, dtype=np.uint64)
        entropy = master + [(index & np.uint64(_MASK32)).astype(np.uint32)]
        if start >> 32:
            entropy.append((index >> np.uint64(32)).astype(np.uint32))
        k = end - start
        seed_words = _state_words(_pool(entropy, k), 2)
        # SeedSequence(seed) reads the seed's words (lo, hi); a zero hi word
        # hashes as the zero padding of a one-word seed does
        # one contiguous row per trial: PCG64 reads the row's memory
        words = _as_uint64(_state_words(_pool(list(seed_words), k), 8)).T.copy()
        for value, w in zip(_as_uint64(seed_words)[0].tolist(), words):
            seed = _TrialSeed(value)
            seed.words = w
            yield seed
        start = end


def check_batch_parameters(
    algorithm: str, mu: int, tau: int | None, restart_length: int | None, trials: int,
    workers: int, master_seed: int,
) -> None:
    """The rules for a batch's algorithm, its parameters, trials, workers and
    seed; each message names the ExperimentConfig field and the CLI flag."""
    if algorithm not in ALGORITHMS:
        raise ContractViolationError(f"unknown algorithm {algorithm!r}")
    if (algorithm == "ageing") != (tau is not None):
        raise ContractViolationError("ageing needs tau (--tau), and only ageing takes it")
    if mu != 1 and algorithm != "ageing":
        raise ContractViolationError("mu (--mu) other than 1 only applies to ageing")
    if algorithm.endswith("-restart") != (restart_length is not None):
        raise ContractViolationError(
            "restart algorithms need restart_length (--restart-len), and only they take it"
        )
    for name, value, flag in (
        ("mu", mu, "--mu"), ("tau", tau, "--tau"),
        ("restart_length", restart_length, "--restart-len"),
        ("trials", trials, "--trials"), ("workers", workers, "--threads"),
    ):
        if value is not None and value < 1:
            raise ContractViolationError(f"{name} must be at least 1 ({flag})")
    if master_seed < 0:
        raise ContractViolationError(
            "seeds and indices must be non-negative (master_seed, --seed)"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch: an instance, an algorithm with parameters, and a stop rule.
    Building one that breaks a rule of the batch fails."""

    instance: Instance
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

    def __post_init__(self) -> None:
        if self.instance is None:
            raise ContractViolationError("experiment needs an instance")
        check_batch_parameters(
            self.algorithm, self.mu, self.tau, self.restart_length,
            self.trials, self.workers, self.master_seed,
        )
        if self.optimum_source not in ("dp", "provided", "none"):
            raise ContractViolationError(f"unknown optimum source {self.optimum_source!r}")
        if self.optimum_source == "provided" and self.optimum is None:
            raise ContractViolationError("optimum_source 'provided' needs an optimum value")


@dataclass(frozen=True)
class AggregateReport:
    """Per-trial rows plus a summary recomputable from them."""

    config: ExperimentConfig
    optimum: int | None
    results: tuple[TrialResult, ...]
    summary: dict[str, float | int | None]


def _resolve_optimum(config: ExperimentConfig) -> int | None:
    if config.optimum_source == "dp":
        return dp_optimal_makespan(config.instance)
    if config.optimum_source == "provided":
        return config.optimum
    return None


def _execute_trial(config: ExperimentConfig, optimum: int | None, seed: int) -> TrialResult:
    inst = config.instance
    stop = config.stop
    algo = config.algorithm
    # Built per call from the module's globals: perfbench traces the runners
    # by wrapping them in this namespace.
    plain = {"iahyp": run_ia_hyp, "ea": run_one_one_ea, "rls": run_rls}
    if algo in plain:
        return plain[algo](inst, stop, seed, optimum=optimum)
    if algo == "ageing":
        return run_mu_ea_ageing(inst, config.mu, config.tau, stop, seed, optimum=optimum)
    base = algo.split("-", 1)[0]
    return run_with_restarts(
        base, inst, config.restart_length, stop, seed, optimum=optimum
    )


def _known_local_optima(inst: Instance) -> tuple[int, ...] | None:
    """Local-optimum makespans by enumeration, else by the gstar closed form."""
    try:
        return enumerate_local_optima(inst).distinct_makespans
    except CapacityError:
        pass
    try:
        return g_star_local_optima(inst)
    except ContractViolationError:
        return None


def _summarize(
    config: ExperimentConfig,
    optimum: int | None,
    results: Sequence[TrialResult],
) -> dict[str, float | int | None]:
    inst = config.instance
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
    return min(workers, trials, os.cpu_count() or 1)


def _execute_range(
    config: ExperimentConfig, optimum: int | None, start: int, stop: int
) -> list[TrialResult]:
    """Trials start..stop-1, seeded in one pass."""
    return [
        _execute_trial(config, optimum, seed)
        for seed in _trial_seeds(config.master_seed, start, stop)
    ]


# Contiguous trial ranges per worker; more than one evens out uneven trials.
_CHUNKS_PER_WORKER = 4


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Execute all trials; the optimum is resolved once, before any trial runs."""
    optimum = _resolve_optimum(config)
    workers = pool_size(config.workers, config.trials)
    if workers > 1:
        # One task per range of trials, not per trial: the config and the
        # instance are pickled once per range, each worker seeds its own
        # ranges, and results keep trial order.
        step = math.ceil(config.trials / (_CHUNKS_PER_WORKER * workers))
        starts = range(0, config.trials, step)
        stops = [min(a + step, config.trials) for a in starts]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = tuple(chain.from_iterable(pool.map(
                _execute_range, repeat(config), repeat(optimum), starts, stops,
            )))
    else:
        results = tuple(_execute_range(config, optimum, 0, config.trials))
    return AggregateReport(
        config=config,
        optimum=optimum,
        results=results,
        summary=_summarize(config, optimum, results),
    )


def report_rows(report: AggregateReport) -> list[dict[str, object]]:
    """Per-trial rows in export column order; None marks an empty cell."""
    config = report.config
    inst = config.instance
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


def _write(rows: list[dict[str, object]], payload: object, format: str, path: str) -> None:
    """The rows as CSV, or the payload as JSON; equal input gives equal bytes."""
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow(
                    ["" if row[c] is None else row[c] for c in CSV_COLUMNS]
                )
    elif format == "json":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(payload, indent=2))
            fh.write("\n")
    else:
        raise ContractViolationError(f"unknown export format {format!r}")


def export_report(report: AggregateReport, format: str, path: str) -> None:
    """Write one report; identical reports produce identical bytes."""
    rows = report_rows(report)
    _write(rows, {"trials": rows, "summary": report.summary}, format, path)


def export_sweep(reports: Sequence[AggregateReport], format: str, path: str) -> None:
    """Write one report per size: their CSV rows in turn, or a JSON entry each."""
    sweeps = [
        {"n": rep.config.instance.n, "optimum": rep.optimum,
         "trials": report_rows(rep), "summary": rep.summary}
        for rep in reports
    ]
    rows = [row for entry in sweeps for row in entry["trials"]]
    _write(rows, {"sweeps": sweeps}, format, path)
