"""Exact and classical reference algorithms used as ground truth.

The subset-sum reachability solver and the exhaustive scanner are independent
routes to the optimal makespan; tests hold them against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

import numpy as np

from .core import Assignment, ContractViolationError, Instance

_DP_CELL_LIMIT = 1_000_000_000
_ENUM_N_LIMIT = 24
_INT64_LIMIT = 1 << 62


class CapacityError(RuntimeError):
    """The instance is too large for this oracle's stated resource budget."""


@dataclass(frozen=True)
class LocalOptimaSummary:
    """Distinct makespans over all single-flip local optima, ascending."""

    distinct_makespans: tuple[int, ...]

    def count_above(self, threshold: int | Fraction) -> int:
        """How many distinct locally optimal makespans lie strictly above threshold."""
        return sum(1 for v in self.distinct_makespans if v > threshold)


def _dp_guard(inst: Instance) -> None:
    cells = inst.n * inst.W
    if cells > _DP_CELL_LIMIT:
        raise CapacityError(
            f"dp table would need {cells} cells; the limit is {_DP_CELL_LIMIT}"
        )


def dp_optimal_makespan(inst: Instance) -> int:
    """Exact optimum by subset-sum reachability over loads 0..W/2.

    One bitset row; bit j says some subset reaches load j. The best half-load
    is the highest reachable bit. The pass stops at the first job after which
    bit W/2 is set: that split is perfect and no later job can improve it, so
    random instances with n well above log2(p_max) read only a prefix of p.
    """
    _dp_guard(inst)
    half = inst.W // 2
    mask = (1 << (half + 1)) - 1
    reach = 1
    for t in inst.p:
        reach = (reach | (reach << t)) & mask
        if reach.bit_length() > half:
            break
    return inst.W - (reach.bit_length() - 1)


def dp_optimal_assignment(inst: Instance) -> tuple[int, Assignment]:
    """Optimum plus a witness assignment, backtracking from checkpoint rows.

    The forward pass keeps every k-th row, k = isqrt(n) (the checkpointing of
    reverse-mode differentiation), so about 2*sqrt(n) rows are ever held. The
    walk back recomputes one segment at a time from its checkpoint, over the
    bits [load - sum(jobs[:-1]), load] of the segment's jobs, shifted down to
    bit 0. Row i tests a bit at or above load - sum(p[i+1:end]) and adds
    p[start:i] to the checkpoint, so it reads checkpoint bits from
    load - sum(jobs) + p[i] up; jobs are non-increasing, so p[i] >= jobs[-1]
    and those bits lie in the window. The walk tests the same bits as one over
    all n+1 rows, and finds the same witness.

    The forward pass stops, as dp_optimal_makespan's does, at the first job
    after which bit W/2 is set; the walk then starts at that job. Every later
    row holds bit W/2 as well, so the walk over all rows leaves every later
    job on machine 1, and so does this one.
    """
    _dp_guard(inst)
    p, n = inst.p, inst.n
    k = isqrt(n)
    half = inst.W // 2
    mask = (1 << (half + 1)) - 1
    reach, checkpoints, used = 1, [], n
    for i, t in enumerate(p):
        if i % k == 0:
            checkpoints.append(reach)
        reach = (reach | (reach << t)) & mask
        if reach.bit_length() > half:
            used = i + 1
            break
    load = reach.bit_length() - 1
    best = inst.W - load
    bits = [0] * n
    for start in reversed(range(0, used, k)):
        jobs = p[start:min(start + k, used)]
        lo = max(0, load - sum(jobs[:-1]))
        window = (1 << (load - lo + 1)) - 1
        rows = [(checkpoints.pop() >> lo) & window]
        for t in jobs[:-1]:
            rows.append((rows[-1] | (rows[-1] << t)) & window)
        for i in reversed(range(start, start + len(jobs))):
            if (rows.pop() >> (load - lo)) & 1:
                continue
            bits[i] = 1
            load -= p[i]
    # machine 2 holds the jobs the walk took, whose loads sum to W - best
    return best, Assignment(bits=bits, load1=best, load2=inst.W - best)


def _table(jobs: Sequence[int], first1: int, big: int) -> tuple[np.ndarray, ...]:
    """Twice machine 2's load and each machine's smallest job (big if none)
    for every placement of jobs, bit j being jobs[j]; machine 1 starts with
    first1. Jobs are non-increasing, so machine 2's smallest is the job of the
    highest set bit, machine 1's that of the highest clear bit (index reversed)."""
    twice = np.zeros(1 << len(jobs), dtype=np.int64)
    for j, t in enumerate(jobs):
        np.add(twice[:1 << j], 2 * t, out=twice[1 << j:2 << j])
    sizes = [1] + [1 << j for j in range(len(jobs))]
    min1 = np.repeat(np.array([first1, *jobs], dtype=np.int64), sizes)[::-1]
    return twice, min1, np.repeat(np.array([big, *jobs], dtype=np.int64), sizes)


def _halves(inst: Instance, split: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The 2^(n-1) assignments with job 0 on machine 1 (bit j of an index is
    job j+1) as index = row * entries + entry. Entries place the low half, the
    first split jobs of p[1:]: load2 - load1 with no high job on machine 2,
    and each machine's smallest low job. Rows place the rest of p, the high
    half: twice machine 2's load and each machine's smallest high job. A
    machine with no job of a half gets big = W + 1 as its smallest.

    The callers keep split >= (n-1)/2, so there are no more rows than entries.
    Twice a load is at most 2W, and every load2 - load1 or window bound a scan
    forms lies within +-2W, which int64 holds under the W < 2^62 guard.
    """
    if inst.n > _ENUM_N_LIMIT:
        raise CapacityError(f"exhaustive scan is limited to n <= {_ENUM_N_LIMIT}")
    if inst.W >= _INT64_LIMIT:
        raise CapacityError("exhaustive scan needs W below 2^62")
    W, big = inst.W, inst.W + 1
    low = inst.p[1:1 + split]
    diff, min1, min2 = _table(low, inst.p[0], big)
    diff -= W
    return (diff, min1, min2), _table(inst.p[1 + split:], big, big)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending, by a sort: on many distinct int64
    values this is far faster than numpy 2's hash-table np.unique."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def brute_force_optimum(inst: Instance) -> tuple[int, Assignment]:
    """Exhaustive meet in the middle, bit 0 fixed by machine symmetry; the
    witness is the first minimum in index order.

    The low half's values of load2 - load1, sorted once with the first entry
    that gives each, are searched for -high of every row at once; the nearer
    of the two neighbours of -high is the row's best, and a tie goes to the
    lower entry. The first row with the least |load2 - load1| gives the witness.
    """
    (diff, _, _), (high, _, _) = _halves(inst, inst.n // 2)
    values, first = np.unique(diff, return_index=True)
    pos = np.searchsorted(values, -high)
    near = np.stack([np.maximum(pos - 1, 0), np.minimum(pos, len(values) - 1)])
    disc = np.abs(values[near] + high)
    row = int(np.argmin(disc.min(axis=0)))
    best = int(disc[:, row].min())
    k = row * len(diff) + int(first[near[:, row]][disc[:, row] == best].min())
    bits = [0] + [(k >> j) & 1 for j in range(inst.n - 1)]
    return (inst.W + best) // 2, Assignment.from_bits(inst, bits)


def lpt(inst: Instance) -> Assignment:
    """Greedy longest-processing-time assignment; ties go to machine 1."""
    bits = []
    load1 = load2 = 0
    for t in inst.p:
        if load1 <= load2:
            bits.append(0)
            load1 += t
        else:
            bits.append(1)
            load2 += t
    return Assignment(bits=bits, load1=load1, load2=load2)


def enumerate_local_optima(inst: Instance) -> LocalOptimaSummary:
    """Every symmetry-reduced assignment, tested for single-flip optimality.

    A solution is locally optimal iff the fuller machine's smallest job is at
    least the discrepancy. With d = load2 - load1 that is min2 >= d and
    min1 >= -d: jobs are positive, so the emptier machine always passes.

    Rows 0 and -1 leave a machine without high jobs and are tested entry by
    entry. Every other row puts a high job, the smallest kind, on each
    machine, so its local optima are the entries whose low-half load2 - load1
    lies in [-high1 - high, high2 - high]: two searches of the sorted values.
    """
    (diff, min1, min2), (high, high1, high2) = _halves(inst, (inst.n + 4) // 2)
    found = []
    for r in {0, len(high) - 1}:
        d = diff + high[r]
        found.append(d[(np.minimum(min2, high2[r]) >= d) & (np.minimum(min1, high1[r]) >= -d)])
    values, mid = _distinct(diff), high[1:-1]
    lo = np.searchsorted(values, -high1[1:-1] - mid).tolist()
    hi = np.searchsorted(values, high2[1:-1] - mid, side="right").tolist()
    found += [values[a:b] + h for a, b, h in zip(lo, hi, mid.tolist())]
    levels = _distinct(np.abs(np.concatenate(found))).tolist()
    return LocalOptimaSummary(tuple((inst.W + d) // 2 for d in levels))


def g_star_local_optima(inst: Instance) -> tuple[int, ...]:
    """Locally optimal makespans of a two-valued gstar instance, analytically.

    With h heavy jobs and a light jobs on one machine, only balance-adjacent
    light counts and the all-or-none boundaries can be stable, so a constant
    number of candidate configurations per h covers every local optimum.
    """
    meta = inst.meta
    if meta.family != "gstar" or meta.s is None:
        raise ContractViolationError("analytic local optima need a gstar-tagged instance")
    s, n, W = meta.s, inst.n, inst.W
    heavy, light = inst.p[0], inst.p[-1]
    m = n - s
    if inst.p != (heavy,) * s + (light,) * m:
        raise ContractViolationError("instance is not two-valued as its tag claims")
    found: set[int] = set()
    for h in range(s + 1):
        balance_num = (s - 2 * h) * heavy + m * light
        a0 = balance_num // (2 * light)
        for a in {0, m, a0, a0 + 1}:
            if a < 0 or a > m:
                continue
            load1 = h * heavy + a * light
            load2 = W - load1
            disc = abs(load1 - load2)
            if disc == 0:
                found.add(load1)
                continue
            fuller_heavy = h if load1 > load2 else s - h
            fuller_light = a if load1 > load2 else m - a
            if fuller_light > 0:
                min_p = light
            elif fuller_heavy > 0:
                min_p = heavy
            else:
                continue
            if min_p >= disc:
                found.add(max(load1, load2))
    return tuple(sorted(found))

