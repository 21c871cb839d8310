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
import time
from dataclasses import dataclass, replace
from itertools import chain, cycle, islice, repeat, takewhile
from numbers import Integral
from typing import Callable, Iterable, Iterator, Sequence, TextIO

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
from .core import ContractViolationError, Instance, is_local_optimum
from .oracles import (
    # not called here: perfbench/run.py traces these oracles in this namespace
    brute_force_optimum,  # noqa: F401
    dp_optimal_makespan,
    enumerate_local_optima,  # noqa: F401
    g_star_local_optima,  # noqa: F401
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


# numpy's SeedSequence (numpy/random/bit_generator.pyx), translated loop for
# loop onto uint32 arrays that hold one entry per trial, or one for all. Only
# array arithmetic is used: it wraps silently, where scalar arithmetic warns.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """numpy's hashmix with its own hash constant, which each call advances."""
    hash_const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        value ^= value >> 16
        return value

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    r ^= r >> 16
    return r


def _state_words(entropy: list[np.ndarray], count: int) -> np.ndarray:
    """SeedSequence(entropy).generate_state(count, uint32), one column per trial."""
    # mix_entropy, into a pool of numpy's default size 4
    hashmix = _hashmix(_INIT_A, _MULT_A)
    mixer = [hashmix(entropy[i] if i < len(entropy) else np.zeros(1, np.uint32)) for i in range(4)]
    for i_src in range(len(mixer)):
        for i_dst in range(len(mixer)):
            if i_src != i_dst:
                mixer[i_dst] = _mix(mixer[i_dst], hashmix(mixer[i_src]))
    for i_src in range(len(mixer), len(entropy)):
        for i_dst in range(len(mixer)):
            mixer[i_dst] = _mix(mixer[i_dst], hashmix(entropy[i_src]))
    hashmix = _hashmix(_INIT_B, _MULT_B)  # generate_state
    return np.array([hashmix(word) for word in islice(cycle(mixer), count)])


def _as_uint64(words: np.ndarray) -> np.ndarray:
    """uint32 rows, little-endian in pairs, as generate_state's uint64 rows."""
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
        # blocks end at multiples of 4096: none crosses 2**32 (two-word indices)
        end = min(stop, (start // _SEED_BLOCK + 1) * _SEED_BLOCK)
        index = np.arange(start, end, dtype=np.uint64)
        entropy = master + [(index & np.uint64(_MASK32)).astype(np.uint32)]
        if start >> 32:
            entropy.append((index >> np.uint64(32)).astype(np.uint32))
        seed_words = _state_words(entropy, 2)
        # SeedSequence(seed) reads the seed's words (lo, hi); a zero hi word
        # hashes as the zero padding of a one-word seed does
        # one contiguous row per trial: PCG64 reads the row's memory
        words = _as_uint64(_state_words(list(seed_words), 8)).T.copy()
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
    counts = (
        ("mu", mu, "--mu"), ("tau", tau, "--tau"),
        ("restart_length", restart_length, "--restart-len"),
        ("trials", trials, "--trials"), ("workers", workers, "--threads"),
    )
    for name, value, flag in counts + (("master_seed", master_seed, "--seed"),):
        if value is not None and not isinstance(value, Integral):
            raise ContractViolationError(f"{name} must be an integer ({flag})")
    for name, value, flag in counts:
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
        if self.optimum_source == "provided":
            if self.optimum is None:
                raise ContractViolationError("optimum_source 'provided' needs an optimum value")
            floor = max(self.instance.p[0], (self.instance.W + 1) // 2)
            if self.optimum < floor:
                raise ContractViolationError(
                    f"optimum {self.optimum} is below max(p[0], ceil(W/2)) = {floor}; "
                    "no split reaches it"
                )
        if self.stop.target_ratio is not None and self.optimum_source == "none":
            raise ContractViolationError("target_ratio requires a known optimum")


@dataclass(frozen=True)
class AggregateReport:
    """Per-trial rows plus a summary recomputable from them."""

    config: ExperimentConfig
    optimum: int | None
    results: tuple[TrialResult, ...]
    summary: dict[str, float | int | None]


def _execute_trial(config: ExperimentConfig, seed: int) -> TrialResult:
    inst, stop, algo, optimum = config.instance, config.stop, config.algorithm, config.optimum
    # Built per call from the module's globals: perfbench traces the runners
    # by wrapping them in this namespace.
    plain = {"iahyp": run_ia_hyp, "ea": run_one_one_ea, "rls": run_rls}
    if algo in plain:
        return plain[algo](inst, stop, seed, optimum=optimum)
    if algo == "ageing":
        return run_mu_ea_ageing(inst, config.mu, config.tau, stop, seed, optimum=optimum)
    base = algo.split("-", 1)[0]
    return run_with_restarts(base, inst, config.restart_length, stop, seed, optimum=optimum)


def _summarize(
    config: ExperimentConfig, results: Sequence[TrialResult]
) -> dict[str, float | int | None]:
    optimum = config.optimum
    evals = [r.evaluations_used for r in results]
    k = len(results)
    # every decile of a single trial is its own count
    qs = statistics.quantiles(evals, n=10, method="inclusive") if k >= 2 else evals * 9
    summary: dict[str, float | int | None] = {
        "trials": k,
        "evaluations_mean": statistics.fmean(evals),
        "evaluations_median": statistics.median(evals),
        "evaluations_min": min(evals),
        "evaluations_max": max(evals),
        "evaluations_q10": qs[0],
        "evaluations_q90": qs[8],
    }
    stop = config.stop
    if stop.target_makespan is not None or stop.target_ratio is not None:
        summary["success_rate"] = sum(r.terminated_by != "budget" for r in results) / k
    elif optimum is not None:
        summary["success_rate"] = sum(r.best_makespan == optimum for r in results) / k
    else:
        summary["success_rate"] = None
    ratios = [r.best_makespan / optimum for r in results] if optimum else []
    summary["ratio_mean"] = statistics.fmean(ratios) if ratios else None
    summary["ratio_median"] = statistics.median(ratios) if ratios else None
    # stuck: the trial ended on a local optimum above the optimum
    summary["stuck_rate"] = None if optimum is None else sum(
        r.best_makespan > optimum and is_local_optimum(config.instance, r.best_assignment)
        for r in results
    ) / k
    summary["reinit_total"] = sum(r.reinit_count or 0 for r in results)
    summary["trials_with_reinit"] = sum(bool(r.reinit_count) for r in results)
    return summary


def pool_size(workers: int, trials: int) -> int:
    """Worker processes for a batch: the request, capped by the trial and the CPU count."""
    return min(workers, trials, os.cpu_count() or 1)


def _execute_range(config: ExperimentConfig, start: int, stop: int) -> list[TrialResult]:
    """Trials start..stop-1, seeded in one pass."""
    return [_execute_trial(config, seed) for seed in _trial_seeds(config.master_seed, start, stop)]


# Contiguous trial ranges per worker; more than one evens out uneven trials.
_CHUNKS_PER_WORKER = 4

# Seconds of trials a batch of more than _CHUNKS_PER_WORKER trials per worker
# runs in the calling process before it starts a pool for the rest. Measured
# on a shared 2-vCPU host (Python 3.11, numpy 2.4): a fresh two-process pool
# costs 8-17 ms to start and stop, pickling 2000 iahyp results and their tasks
# costs 15-32 ms, and the second vCPU is often taken by other tenants (two
# trial loops side by side each got about half a CPU in 3 of 4 tries). Under a
# quarter second of work a pool cannot save more than it costs. The clock is
# read between trials, so a longer batch loses at most the budget plus the
# trial in flight, times (1 - 1/workers), and at two workers that trial is at
# most a ninth of the batch. A batch of fewer trials, each a range of its
# own, goes to the pool from its first trial: there one trial run first in
# process could double the batch's time (two long trials at two workers).
_IN_PROCESS_S = 0.25


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Execute all trials. A "dp" optimum is resolved once, before any trial, into
    the copy of the config that the trials and the summary read.

    With one worker, trials run in order in this process. With more, a batch
    of at most _CHUNKS_PER_WORKER trials per worker goes to a pool; a larger
    one runs in this process until _IN_PROCESS_S seconds have passed, and a
    pool runs the trials left if more than one is left."""
    resolved = config
    if config.optimum_source == "dp":
        optimum = dp_optimal_makespan(config.instance)
        resolved = replace(config, optimum_source="provided", optimum=optimum)
    elif config.optimum_source == "none":  # an optimum given with "none" is not used
        resolved = replace(config, optimum=None)
    seeds: Iterator[_TrialSeed] = _trial_seeds(config.master_seed, 0, config.trials)
    workers = pool_size(config.workers, config.trials)
    if workers > 1:
        clock = time.perf_counter
        few = config.trials <= _CHUNKS_PER_WORKER * workers
        deadline = clock() + (0 if few else _IN_PROCESS_S)
        seeds = takewhile(lambda _: clock() < deadline, seeds)
    results = [_execute_trial(resolved, seed) for seed in seeds]
    rest = range(len(results), config.trials)
    workers = pool_size(config.workers, len(rest))
    if workers == 1:  # the one trial left is not worth a pool
        results += _execute_range(resolved, rest.start, rest.stop)
    elif rest:
        # One task per range of trials, not per trial: the config and the
        # instance are pickled once per range, each worker seeds its own
        # ranges, and results keep trial order.
        starts = rest[::math.ceil(len(rest) / (_CHUNKS_PER_WORKER * workers))]
        stops = [*starts[1:], config.trials]
        # imported here: it loads multiprocessing, socket and logging
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results.extend(chain.from_iterable(pool.map(
                _execute_range, repeat(resolved), starts, stops,
            )))
    return AggregateReport(
        config=config,
        optimum=resolved.optimum,
        results=tuple(results),
        summary=_summarize(resolved, results),
    )


def _rows(report: AggregateReport) -> Iterator[dict[str, object]]:
    """Per-trial rows in export column order, one at a time; None marks an
    empty cell."""
    config, optimum = report.config, report.optimum
    n, family = config.instance.n, config.instance.meta.family
    algorithm, tau = config.algorithm, config.tau
    mu = config.mu if algorithm == "ageing" else None
    for i, r in enumerate(report.results):
        yield {
            "trial": i,
            "seed": r.seed,
            "n": n,
            "family": family,
            "algorithm": algorithm,
            "mu": mu,
            "tau": tau,
            "evaluations": r.evaluations_used,
            "best_makespan": r.best_makespan,
            "optimum": optimum,
            "ratio": (r.best_makespan / optimum) if optimum else None,
            "terminated_by": r.terminated_by,
            "reinit_count": r.reinit_count,
        }


def report_rows(report: AggregateReport) -> list[dict[str, object]]:
    """Per-trial rows in export column order; None marks an empty cell."""
    return list(_rows(report))


class _JsonWriter:
    """Writes the text of json.dumps(payload, indent=2) for an export piece by
    piece, holding no list of rows and no whole-file string. json.dumps takes
    CPython's C encoder only without an indent; here each flat dict, a row or
    a summary, is one call of it, with the line break and indent in its item
    separator. Rows are encoded whole: a writer that checks the type of every
    value is only 1.4 times as fast as json.dumps."""

    def __init__(self, fh: TextIO) -> None:
        self.write = fh.write
        self._flat: dict[int, Callable[[dict[str, object]], str]] = {}

    def flat(self, level: int) -> Callable[[dict[str, object]], str]:
        """The text of a non-empty dict of scalars whose braces sit `level`
        indents deep; one encoder per level."""
        if level not in self._flat:
            pad = "\n" + "  " * (level + 1)
            encode = json.JSONEncoder(separators=("," + pad, ": ")).encode
            start, end = "{" + pad, pad[:-2] + "}"
            self._flat[level] = lambda d: start + encode(d)[1:-1] + end
        return self._flat[level]

    def array(self, texts: Iterable[str], level: int) -> None:
        """An array of item texts, its brackets `level` indents deep."""
        pad = "\n" + "  " * (level + 1)
        sep = "[" + pad
        for text in texts:
            self.write(sep + text)
            sep = "," + pad
        self.write("[]" if sep[0] == "[" else pad[:-2] + "]")

    def report(self, report: AggregateReport, level: int, head: dict[str, object]) -> None:
        """The object {**head, "trials": rows, "summary": summary}, `level` deep."""
        pad = "\n" + "  " * (level + 1)
        head_text = "".join(f"{pad}{json.dumps(k)}: {json.dumps(v)}," for k, v in head.items())
        self.write("{" + head_text + pad + '"trials": ')
        self.array(map(self.flat(level + 2), _rows(report)), level + 1)
        summary = self.flat(level + 1)(report.summary)
        self.write("," + pad + '"summary": ' + summary + pad[:-2] + "}")

    def sweep(self, reports: Sequence[AggregateReport]) -> None:
        """The object {"sweeps": [{"n", "optimum", "trials", "summary"}, ...]}."""
        self.write('{\n  "sweeps": ' + ("" if reports else "[]"))
        for i, rep in enumerate(reports):
            self.write(",\n    " if i else "[\n    ")
            self.report(rep, 2, {"n": rep.config.instance.n, "optimum": rep.optimum})
        self.write("\n  ]\n}" if reports else "\n}")


def _write(
    reports: Sequence[AggregateReport], format: str, path: str,
    write_json: Callable[[_JsonWriter], None],
) -> None:
    """The reports' rows as CSV, one row at a time, or the JSON that
    write_json writes; equal input gives equal bytes. An unknown format fails
    before the file is opened."""
    if format not in ("csv", "json"):
        raise ContractViolationError(f"unknown export format {format!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for report in reports:
                writer.writerows(
                    ["" if row[c] is None else row[c] for c in CSV_COLUMNS]
                    for row in _rows(report)
                )
        else:
            write_json(_JsonWriter(fh))
            fh.write("\n")


def export_report(report: AggregateReport, format: str, path: str) -> None:
    """Write one report; identical reports produce identical bytes. The JSON
    is json.dumps({"trials": rows, "summary": summary}, indent=2)."""
    _write([report], format, path, lambda out: out.report(report, 0, {}))


def export_sweep(reports: Sequence[AggregateReport], format: str, path: str) -> None:
    """Write one report per size: their CSV rows in turn, or a JSON entry each."""
    _write(reports, format, path, lambda out: out.sweep(reports))
