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
_SHIFTS = tuple(map(np.uint64, range(64)))  # uint64 counts: no int64 operand


class CapacityError(RuntimeError):
    """The instance is too large for this oracle's stated resource budget."""


@dataclass(frozen=True)
class LocalOptimaSummary:
    """Distinct makespans over all single-flip local optima, ascending."""

    distinct_makespans: tuple[int, ...]

    def count_above(self, threshold: int | Fraction) -> int:
        """How many distinct locally optimal makespans lie strictly above threshold."""
        return sum(1 for v in self.distinct_makespans if v > threshold)


def _or_shifted(row: np.ndarray, t: int, tmp: np.ndarray) -> None:
    """row |= row << t on uint64 words, in place; bits shifted past the last
    word are dropped. tmp is scratch of shape (2, >= len(row))."""
    q, r = divmod(t, 64)
    m = len(row) - q
    if m <= 0:
        return
    src, dst = row[:m], row[q:]
    if r == 0:
        np.copyto(tmp[0, :m], src)
        dst |= tmp[0, :m]
        return
    low, carry = tmp[0, :m], tmp[1, :m - 1]
    np.left_shift(src, _SHIFTS[r], out=low)
    np.right_shift(src[:-1], _SHIFTS[64 - r], out=carry)
    dst |= low
    dst[1:] |= carry


def _forward(inst: Instance, k: int) -> tuple[np.ndarray, int, list[np.ndarray]]:
    """Subset-sum reachability over loads 0..W/2: the last row as uint64 words
    (bit j of word w says some subset reaches load 64*w + j), the number of
    jobs read, and the live words of the row before every k-th job. Each job
    updates the row in place, on the words up to the sum of the jobs read so
    far; the words above it are still zero. Bits above W/2 in the top word
    are never read as loads, and shifts only move them further up.

    The pass stops at the first job after which bit W/2 is set: that split is
    perfect and no later job can improve it, so random instances with n well
    above log2(p_max) read only a prefix of p.
    """
    cells = inst.n * inst.W
    if cells > _DP_CELL_LIMIT:
        raise CapacityError(
            f"dp table would need {cells} cells; the limit is {_DP_CELL_LIMIT}"
        )
    half_word, half_bit = divmod(inst.W // 2, 64)
    words = half_word + 1
    row = np.zeros(words, dtype=np.uint64)
    row[0] = 1
    tmp = np.empty((2, words), dtype=np.uint64)
    total, top, checkpoints = 0, 1, []
    for i, t in enumerate(inst.p):
        if i % k == 0:
            checkpoints.append(row[:top].copy())
        total += t
        top = min(total // 64 + 1, words)
        _or_shifted(row[:top], t, tmp)
        if int(row[half_word]) >> half_bit & 1:
            return row, i + 1, checkpoints
    return row, inst.n, checkpoints


def _best_load(row: np.ndarray, half: int) -> int:
    """The highest reachable load at most half, read from the word row."""
    w, b = divmod(half, 64)
    word = int(row[w]) & ((2 << b) - 1)
    if not word:
        # bit 0 is always set, so a lower word is nonzero
        w -= 1 + int(np.argmax(row[:w][::-1] != 0))
        word = int(row[w])
    return 64 * w + word.bit_length() - 1


def dp_optimal_makespan(inst: Instance) -> int:
    """Exact optimum by subset-sum reachability: the best half-load is the
    highest reachable bit at most W/2 of the forward pass's last row."""
    row, _, _ = _forward(inst, inst.n)
    return inst.W - _best_load(row, inst.W // 2)


def dp_optimal_assignment(inst: Instance) -> tuple[int, Assignment]:
    """Optimum plus a witness assignment, backtracking from checkpoint rows.

    The forward pass keeps every k-th row, k = isqrt(n) (the checkpointing of
    reverse-mode differentiation), so about 2*sqrt(n) rows are ever held. The
    walk back recomputes one segment at a time from its checkpoint, on the
    words that hold the bits [lo, load], lo = load - sum(jobs[:-1]): the
    window starts at bit base, lo rounded down to a multiple of 64, and the
    bits below base are dropped. Row i tests a bit at or above
    load - sum(p[i+1:end]) and adds p[start:i] to the checkpoint, so it reads
    checkpoint bits from load - sum(jobs) + p[i] up; jobs are non-increasing,
    so p[i] >= jobs[-1] and those bits lie at or above lo >= base. Every
    tested bit therefore reads only checkpoint bits the window holds, and is
    the bit of the full row. The walk tests the same bits as one over all n+1
    rows, and finds the same witness.

    The forward pass stops at the first job after which bit W/2 is set, and
    the walk starts there: every later row holds bit W/2 as well, so the walk
    over all rows leaves every later job on machine 1, as this one does.
    """
    p, n = inst.p, inst.n
    k = isqrt(n)
    row, used, checkpoints = _forward(inst, k)
    load = _best_load(row, inst.W // 2)
    best = inst.W - load
    bits = [0] * n
    for start in reversed(range(0, used, k)):
        jobs = p[start:min(start + k, used)]
        base = max(0, load - sum(jobs[:-1])) // 64
        window = np.zeros(load // 64 + 1 - base, dtype=np.uint64)
        live = checkpoints.pop()[base:base + len(window)]
        window[:len(live)] = live
        tmp = np.empty((2, len(window)), dtype=np.uint64)
        rows = [window]
        for t in jobs[:-1]:
            rows.append(rows[-1].copy())
            _or_shifted(rows[-1], t, tmp)
        for i in reversed(range(start, start + len(jobs))):
            if int(rows.pop()[load // 64 - base]) >> (load & 63) & 1:
                continue
            bits[i] = 1
            load -= p[i]
    # machine 2 holds the jobs the walk took, whose loads sum to W - best
    return best, Assignment(bits=bits, load1=best, load2=inst.W - best)


def _twice_loads(jobs: Sequence[int]) -> np.ndarray:
    """Twice machine 2's load for every placement of jobs, bit j being jobs[j]."""
    twice = np.zeros(1 << len(jobs), dtype=np.int64)
    for j, t in enumerate(jobs):
        np.add(twice[:1 << j], 2 * t, out=twice[1 << j:2 << j])
    return twice


def _smallest(jobs: Sequence[int], first1: int, big: int) -> tuple[np.ndarray, np.ndarray]:
    """Each machine's smallest job (big if none) for every placement of jobs,
    bit j being jobs[j]; machine 1 starts with first1. Jobs are
    non-increasing, so machine 2's smallest is the job of the highest set bit,
    machine 1's that of the highest clear bit (index reversed)."""
    sizes = [1] + [1 << j for j in range(len(jobs))]
    min1 = np.repeat(np.array([first1, *jobs], dtype=np.int64), sizes)[::-1]
    return min1, np.repeat(np.array([big, *jobs], dtype=np.int64), sizes)


def _halves(inst: Instance, split: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^(n-1) assignments with job 0 on machine 1 (bit j of an index is
    job j+1) as index = row * entries + entry. Entries place the low half, the
    first split jobs of p[1:], and hold load2 - load1 with no high job on
    machine 2. Rows place the rest of p, the high half, and hold twice
    machine 2's load.

    The callers keep split >= (n-1)/2, so there are no more rows than entries.
    Twice a load is at most 2W, and every load2 - load1 or window bound a scan
    forms lies within +-2W, which int64 holds under the W < 2^62 guard.
    """
    if inst.n > _ENUM_N_LIMIT:
        raise CapacityError(f"exhaustive scan is limited to n <= {_ENUM_N_LIMIT}")
    if inst.W >= _INT64_LIMIT:
        raise CapacityError("exhaustive scan needs W below 2^62")
    return _twice_loads(inst.p[1:1 + split]) - inst.W, _twice_loads(inst.p[1 + split:])


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending, by a sort: on many distinct int64
    values this is far faster than numpy 2's hash-table unique."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def brute_force_optimum(inst: Instance) -> tuple[int, Assignment]:
    """Exhaustive meet in the middle, bit 0 fixed by machine symmetry; the
    witness is the first minimum in index order.

    The distinct low-half values of load2 - load1 are searched for -high of
    every row at once; the nearer of the two neighbours of -high is the row's
    least |load2 - load1|. The first row with the least of these is scanned
    again for its first entry with that discrepancy.
    """
    diff, high = _halves(inst, inst.n // 2)
    values = _distinct(diff)
    pos = np.searchsorted(values, -high)
    near = values[np.stack([np.maximum(pos - 1, 0), np.minimum(pos, len(values) - 1)])]
    row = int(np.argmin(np.abs(near + high).min(axis=0)))
    disc = np.abs(diff + high[row])
    entry = int(np.argmin(disc))
    k = row * len(diff) + entry
    bits = [0] + [(k >> j) & 1 for j in range(inst.n - 1)]
    return (inst.W + int(disc[entry])) // 2, Assignment.from_bits(inst, bits)


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
    A machine with no job of a half gets big = W + 1 as its smallest.
    """
    split, big = (inst.n + 4) // 2, inst.W + 1
    diff, high = _halves(inst, split)
    min1, min2 = _smallest(inst.p[1:1 + split], inst.p[0], big)
    high1, high2 = _smallest(inst.p[1 + split:], big, big)
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
        a0 = ((s - 2 * h) * heavy + m * light) // (2 * light)
        for a in {0, m, a0, a0 + 1}:
            if a < 0 or a > m:
                continue
            load1 = h * heavy + a * light
            # a machine above W/2 holds a job; one at W/2 passes either test
            fuller_light = a if 2 * load1 > W else m - a
            min_p = light if fuller_light > 0 else heavy
            if min_p >= abs(W - 2 * load1):
                found.add(max(load1, W - load1))
    return tuple(sorted(found))

