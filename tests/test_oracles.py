"""Reference solvers and structural enumeration."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from functools import reduce
from math import isqrt

import numpy as np
import pytest

from partition_ais import (
    Assignment,
    CapacityError,
    ContractViolationError,
    GStarParams,
    Instance,
    InstanceMeta,
    brute_force_optimum,
    dp_optimal_assignment,
    dp_optimal_makespan,
    enumerate_local_optima,
    g_star_local_optima,
    gen_g_star,
    gen_uniform,
    is_local_optimum,
    lpt,
    oracles,
    run_ia_hyp,
    StopCondition,
)


def test_dp_fixed_examples():
    assert dp_optimal_makespan(Instance(p=(3, 2, 2, 1, 1, 1))) == 5
    assert dp_optimal_makespan(Instance(p=(5,))) == 5
    assert dp_optimal_makespan(gen_g_star(GStarParams(8, 2, (1, 4)))) == 72


def test_dp_equals_brute_force_on_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        inst = gen_uniform(n, 80, int(rng.integers(0, 1 << 32)))
        value, witness = brute_force_optimum(inst)
        assert dp_optimal_makespan(inst) == value
        assert witness.makespan == value


def test_dp_assignment_witness_is_optimal():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        inst = gen_uniform(n, 60, int(rng.integers(0, 1 << 32)))
        value, witness = dp_optimal_assignment(inst)
        assert value == dp_optimal_makespan(inst)
        rebuilt = Assignment.from_bits(inst, witness.bits)
        assert rebuilt.makespan == value
        assert (witness.load1, witness.load2) == (rebuilt.load1, rebuilt.load2)


# Boundary cases of the stop at the first perfect split (|d| = W mod 2):
# perfect after the first job at even and odd W, perfect only after the last
# job (odd W only: at even W the complement of a perfect half has the same
# load and leaves the last job out), no perfect split at all, and first
# perfect splits late in the symmetry-reduced index order.
_STOP_CASES = [(9, 8, 1), (9, 9, 1), (6, 3, 2, 1), (9, 7, 1), (5, 3, 1),
               (7, 7, 7), (8, 8, 8, 1), (5, 4, 3, 3, 3), (9, 8, 7, 6, 5, 4, 3)]


class _Reads(tuple):
    """Jobs that record the highest index read, by iteration or indexing."""

    def __new__(cls, p):
        jobs = super().__new__(cls, p)
        jobs.top = -1
        return jobs

    def __iter__(self):
        for i, t in enumerate(tuple.__iter__(self)):
            self.top = max(self.top, i)
            yield t

    def __getitem__(self, key):
        read = range(len(self))[key]
        if isinstance(read, int):
            self.top = max(self.top, read)
        elif read:
            self.top = max(self.top, max(read))
        return tuple.__getitem__(self, key)


def _stop_index(p):
    """The first job after which some subset of the jobs so far reaches W // 2."""
    half, sums = sum(p) // 2, {0}
    for i, t in enumerate(p):
        sums |= {s + t for s in sums}
        if half in sums:
            return i
    return None


@pytest.mark.parametrize("oracle", [dp_optimal_makespan, dp_optimal_assignment])
def test_dp_forward_passes_read_no_job_past_the_first_perfect_split(oracle):
    rng = np.random.default_rng(13)
    insts = [Instance(p=p) for p in _STOP_CASES]
    insts += [gen_uniform(n, 50, int(rng.integers(0, 1 << 32))) for n in (20, 30, 40)]
    for inst in insts:
        stop = _stop_index(inst.p)
        expected = oracle(inst)
        object.__setattr__(inst, "p", _Reads(inst.p))
        assert oracle(inst) == expected
        assert inst.p.top == (inst.n - 1 if stop is None else stop)
    # a random instance well above log2(p_max) jobs splits perfectly early
    assert stop < inst.n // 2


def _stored_rows_assignment(inst):
    """The witness from all n+1 stored rows, as dp_optimal_assignment found
    it before it kept only checkpoint rows."""
    half = inst.W // 2
    mask = (1 << (half + 1)) - 1
    rows = [1]
    for t in inst.p:
        rows.append((rows[-1] | (rows[-1] << t)) & mask)
    load = rows[-1].bit_length() - 1
    best = inst.W - load
    bits = [0] * inst.n
    for i in range(inst.n - 1, -1, -1):
        if (rows[i] >> load) & 1:
            continue
        bits[i] = 1
        load -= inst.p[i]
    return best, Assignment.from_bits(inst, bits)


def test_dp_assignment_witness_matches_stored_rows_backtrack():
    # the printed witness bits of `solve --method dp --assignment` must not
    # change: one segment per job (n = 2, 3), segment ends at and around
    # perfect squares, random sizes, many ties (small p_max), equal jobs, and
    # the stop cases
    rng = np.random.default_rng(11)
    insts = [Instance(p=(5,)), Instance(p=(1,) * 16), Instance(p=(7,) * 50)]
    insts += [Instance(p=p) for p in _STOP_CASES]
    sizes = [2, 3, 15, 16, 17, 49, 50] + rng.integers(2, 61, size=20).tolist()
    for n in sizes:
        for max_p in (1, 2, 3, 10, 1000, 10**5):
            insts.append(gen_uniform(n, max_p, int(rng.integers(0, 1 << 32))))
    for inst in insts:
        value, witness = dp_optimal_assignment(inst)
        ref_value, ref_witness = _stored_rows_assignment(inst)
        assert value == ref_value
        assert witness.bits == ref_witness.bits


@pytest.mark.parametrize("n,max_p", [(50, 80_000), (200, 20_000)])
def test_dp_assignment_memory_stays_near_sqrt_n_rows(n, max_p):
    inst = gen_uniform(n, max_p, 7)
    row_bytes = (inst.W // 2 + 1) / 8
    tracemalloc.start()
    try:
        dp_optimal_assignment(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (2 * isqrt(n) + 4) * row_bytes


def test_capacity_guards():
    with pytest.raises(CapacityError):
        brute_force_optimum(Instance(p=(1,) * 25))
    with pytest.raises(CapacityError):
        enumerate_local_optima(Instance(p=(1,) * 25))
    huge = Instance(p=(1 << 61, 1 << 61))
    with pytest.raises(CapacityError):
        dp_optimal_makespan(huge)
    with pytest.raises(CapacityError):
        brute_force_optimum(huge)


def test_lpt_examples_and_tie_break():
    assert lpt(Instance(p=(3, 3, 2, 2, 2))).makespan == 7
    assert lpt(Instance(p=(1, 1, 1, 1))).makespan == 2
    # equal loads send the next job to machine 1
    assert lpt(Instance(p=(2, 2))).bits == [0, 1]


def test_lpt_never_beats_the_optimum():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 14))
        inst = gen_uniform(n, 90, int(rng.integers(0, 1 << 32)))
        assert lpt(inst).makespan >= dp_optimal_makespan(inst)


def test_enumerate_fixed_examples():
    assert enumerate_local_optima(Instance(p=(1, 1))).distinct_makespans == (1,)
    got = enumerate_local_optima(gen_g_star(GStarParams(12, 2, (1, 4))))
    assert got.distinct_makespans == (120, 130)


def test_enumerate_matches_naive_definition_scan():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(2, 11))
        inst = gen_uniform(n, 40, int(rng.integers(0, 1 << 32)))
        naive = set()
        for k in range(1 << n):
            bits = [(k >> j) & 1 for j in range(n)]
            x = Assignment.from_bits(inst, bits)
            if is_local_optimum(inst, x):
                naive.add(x.makespan)
        assert enumerate_local_optima(inst).distinct_makespans == tuple(sorted(naive))


def _naive_scan(inst):
    """Local-optimum makespans, the optimum and its first index k over the
    2^(n-1) assignments with job 0 on machine 1 (bit j of k is job j+1)."""
    levels, best, first = set(), None, None
    for k in range(1 << (inst.n - 1)):
        x = Assignment.from_bits(inst, [0] + [(k >> j) & 1 for j in range(inst.n - 1)])
        if is_local_optimum(inst, x):
            levels.add(x.makespan)
        if best is None or x.makespan < best:
            best, first = x.makespan, k
    return tuple(sorted(levels)), best, first


@pytest.mark.parametrize("split", [2, 3])
def test_scans_match_naive_scan_across_many_chunks(split):
    # a low half of split jobs makes every n > split + 1 span many rows, each
    # a chunk of 2^split entries; row * entries + entry must give every
    # assignment's load2 - load1 and each machine's smallest job in index order
    rng = np.random.default_rng(40 + split)
    insts = [Instance(p=(4,)), Instance(p=(3, 2)), Instance(p=(1,) * 11), Instance(p=(7,) * 8)]
    insts += [Instance(p=p) for p in _STOP_CASES]
    for n in (split + 1, split + 2, 7, 9, 11):
        for max_p in (1, 2, 3, 10, 1000):
            insts.append(gen_uniform(n, max_p, int(rng.integers(0, 1 << 32))))
    for inst in insts:
        (diff, min1, min2), (high, high1, high2) = oracles._halves(inst, split)
        d = (high[:, None] + diff).ravel()
        m1 = np.minimum(high1[:, None], min1).ravel()
        m2 = np.minimum(high2[:, None], min2).ravel()
        local = np.abs(d[(m2 >= d) & (m1 >= -d)])
        first = int(np.argmin(np.abs(d)))
        levels = tuple(sorted({(inst.W + x) // 2 for x in local.tolist()}))
        assert (levels, (inst.W + abs(int(d[first]))) // 2, first) == _naive_scan(inst)


def test_scans_match_naive_scan_on_every_row_kind():
    # n = 1..13 gives a single row (all jobs in the low half), rows 0 and -1
    # alone, and middle rows between them, for both scans' splits
    rng = np.random.default_rng(41)
    insts = [Instance(p=(4,)), Instance(p=(1,) * 11), Instance(p=(7,) * 8)]
    insts += [Instance(p=p) for p in _STOP_CASES]
    # a level whose only local optima lie on a middle row's window bound:
    # load2 - load1 = -(machine 1's smallest job), and = machine 2's
    insts += [Instance(p=(32, 28, 28, 27, 26, 17, 9, 7, 5)),
              Instance(p=(13, 12, 12, 12, 7, 7, 7, 7, 5, 4, 2, 1, 1))]
    for n in range(2, 14):
        for max_p in (1, 2, 3, 10, 1000):
            insts.append(gen_uniform(n, max_p, int(rng.integers(0, 1 << 32))))
    for inst in insts:
        levels, best, first = _naive_scan(inst)
        assert enumerate_local_optima(inst).distinct_makespans == levels
        value, witness = brute_force_optimum(inst)
        assert value == best
        assert witness.bits == [0] + [(first >> j) & 1 for j in range(inst.n - 1)]


def _reference_scan(inst):
    """What _naive_scan returns, from a bit matrix of all 2^(n-1)
    assignments: every load2 - load1 and each machine's smallest job."""
    big = inst.W + 1
    k = np.arange(1 << (inst.n - 1), dtype="<u4")
    on2 = np.zeros((k.size, inst.n), dtype=bool)
    bits = np.unpackbits(k.view(np.uint8).reshape(-1, 4), axis=1, bitorder="little")
    on2[:, 1:] = bits[:, :inst.n - 1]
    cols = list(zip(on2.T, inst.p))
    d = 2 * sum(np.where(c, t, 0) for c, t in cols) - inst.W
    min1 = reduce(np.minimum, (np.where(c, big, t) for c, t in cols))
    min2 = reduce(np.minimum, (np.where(c, t, big) for c, t in cols))
    local = np.abs(d[(min2 >= d) & (min1 >= -d)])
    first = int(np.argmin(np.abs(d)))
    levels = tuple(sorted({(inst.W + x) // 2 for x in local.tolist()}))
    return levels, (inst.W + abs(int(d[first]))) // 2, first


@pytest.mark.parametrize("family", ["p_max=1", "p_max=10^6", "gstar"])
def test_scans_match_a_bit_matrix_reference_up_to_n20(family):
    # p_max = 1 ties every split with many others, so the witness must be
    # the first minimum in index order
    for n in range(14, 21, 2 if family == "gstar" else 1):
        if family == "gstar":
            inst = gen_g_star(GStarParams(n, 2, (1, 4)))
        else:
            inst = gen_uniform(n, 1 if family == "p_max=1" else 10**6, n)
        levels, best, first = _reference_scan(inst)
        assert enumerate_local_optima(inst).distinct_makespans == levels
        value, witness = brute_force_optimum(inst)
        assert value == best
        assert witness.bits == [0] + [(first >> j) & 1 for j in range(inst.n - 1)]


def test_scans_keep_int64_headroom_near_the_w_guard():
    # W > 2^63 / 3: a sum of three loads would wrap int64, so every value the
    # scans form must stay within +-2W
    rng = np.random.default_rng(58)
    times = [(1 << 58) + int(t) for t in rng.integers(0, 1 << 40, size=12)]
    inst = Instance(p=tuple(sorted(times, reverse=True)))
    assert 3 * inst.W > 1 << 63 and inst.W < 1 << 62
    levels, best, first = _naive_scan(inst)
    assert enumerate_local_optima(inst).distinct_makespans == levels
    value, witness = brute_force_optimum(inst)
    assert value == best
    assert witness.bits == [0] + [(first >> j) & 1 for j in range(inst.n - 1)]


def test_minimum_local_level_is_the_optimum():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        inst = gen_uniform(n, 50, int(rng.integers(0, 1 << 32)))
        summary = enumerate_local_optima(inst)
        assert summary.distinct_makespans[0] == dp_optimal_makespan(inst)


def test_count_above_thresholds():
    summary = enumerate_local_optima(gen_g_star(GStarParams(12, 2, (1, 4))))
    assert summary.count_above(150) == 0
    assert summary.count_above(Fraction(5, 4) * 120) == 0
    assert summary.count_above(120) == 1
    assert summary.count_above(119) == 2
    assert summary.count_above(Fraction(259, 2)) == 1


def test_analytic_local_optima_match_enumeration():
    for n, s, eps in [(8, 2, (1, 4)), (12, 2, (1, 4)), (16, 2, (1, 4)), (16, 4, (1, 8))]:
        inst = gen_g_star(GStarParams(n=n, s=s, eps=eps))
        assert g_star_local_optima(inst) == enumerate_local_optima(inst).distinct_makespans


def test_analytic_routine_rejects_foreign_instances():
    with pytest.raises(ContractViolationError):
        g_star_local_optima(Instance(p=(5, 4, 3)))
    tagged = Instance(
        p=(5, 4, 3), meta=InstanceMeta(family="gstar", s=2, eps=(1, 4))
    )
    with pytest.raises(ContractViolationError):
        g_star_local_optima(tagged)


def test_hypermutation_interior_time_is_short():
    # evaluations spent strictly between locally optimal levels stay far
    # below 20 n^2 per run on the hard family
    inst = gen_g_star(GStarParams(16, 2, (1, 4)))
    levels = enumerate_local_optima(inst).distinct_makespans
    optimum = levels[0]
    total_interior = 0
    runs = 100
    for seed in range(runs):
        r = run_ia_hyp(
            inst, StopCondition(200 * 16 * 16, target_makespan=optimum), seed,
            record_trace=True,
        )
        assert len(r.fitness_trace) == r.evaluations_used
        assert min(r.fitness_trace) >= optimum
        total_interior += sum(f not in levels for f in r.fitness_trace)
    assert total_interior / runs <= 20 * 16 * 16
