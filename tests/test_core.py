"""Exact-arithmetic core: instances, assignments, flips, local-optimality."""

from __future__ import annotations

import numpy as np
import pytest

from partition_ais import (
    Assignment,
    ContractViolationError,
    GStarParams,
    Instance,
    InstanceMeta,
    dp_optimal_makespan,
    flip_in_place,
    g_star_local_optima,
    gen_g_star,
    is_local_optimum,
    makespan,
)


def test_instance_basic_properties():
    inst = Instance(p=(5, 3, 2))
    assert inst.n == 3
    assert inst.W == 10
    assert inst.meta == InstanceMeta()


def test_single_job_instance_is_allowed():
    inst = Instance(p=(5,))
    assert inst.n == 1 and inst.W == 5


def test_instance_rejects_empty():
    with pytest.raises(ContractViolationError):
        Instance(p=())


def test_instance_rejects_nonpositive_times():
    with pytest.raises(ContractViolationError):
        Instance(p=(3, 0))
    with pytest.raises(ContractViolationError):
        Instance(p=(3, -1))


def test_instance_rejects_unsorted():
    with pytest.raises(ContractViolationError):
        Instance(p=(2, 3))


def test_instance_rejects_overflowing_total():
    with pytest.raises(ContractViolationError):
        Instance(p=(1 << 128, 1))


def test_instance_keeps_its_times_as_plain_ints_in_a_tuple():
    big = Instance(p=(np.int64(2**62),) * 2)
    assert big.W == 2**63 and {type(t) for t in big.p} == {int}
    from_array = Instance(p=tuple(np.array([5, 3, 2])))
    assert from_array == Instance(p=(5, 3, 2)) and dp_optimal_makespan(from_array) == 5
    listed = Instance(p=[3, 2, 1])
    assert listed.p == (3, 2, 1) and hash(listed) == hash(Instance(p=(3, 2, 1)))
    gstar = gen_g_star(GStarParams(8, 2, (1, 4)))
    tagged = Instance(p=list(gstar.p), meta=gstar.meta)
    assert g_star_local_optima(tagged) == g_star_local_optima(gstar)
    for p in ((2.5, 1), ("3", "2"), 3):
        with pytest.raises(ContractViolationError):
            Instance(p=p)


def test_from_bits_computes_loads():
    inst = Instance(p=(5, 3, 2))
    x = Assignment.from_bits(inst, [0, 1, 1])
    assert (x.load1, x.load2) == (5, 5)
    assert x.makespan == 5


def test_from_bits_rejects_wrong_length_and_values():
    inst = Instance(p=(5, 3, 2))
    with pytest.raises(ContractViolationError):
        Assignment.from_bits(inst, [0, 1])
    with pytest.raises(ContractViolationError):
        Assignment.from_bits(inst, [0, 1, 2])


def test_copy_is_independent():
    inst = Instance(p=(5, 3, 2))
    x = Assignment.from_bits(inst, [0, 1, 1])
    y = x.copy()
    flip_in_place(inst, y, 0)
    assert x.bits == [0, 1, 1]
    assert y.bits == [1, 1, 1]


def test_makespan_is_the_fuller_machines_load():
    inst = Instance(p=(5, 3, 2))
    x = Assignment.from_bits(inst, [0, 0, 1])
    assert makespan(inst, x) == 8


def test_makespan_rejects_length_mismatch():
    inst = Instance(p=(5, 3, 2))
    stray = Assignment(bits=[0, 1], load1=5, load2=3)
    with pytest.raises(ContractViolationError):
        makespan(inst, stray)


def test_flip_in_place_updates_loads_exactly():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        p = tuple(sorted(rng.integers(1, 50, size=n).tolist(), reverse=True))
        inst = Instance(p=p)
        x = Assignment.from_bits(inst, rng.integers(0, 2, size=n).tolist())
        i = int(rng.integers(0, n))
        flip_in_place(inst, x, i)
        fresh = Assignment.from_bits(inst, x.bits)
        assert (x.load1, x.load2) == (fresh.load1, fresh.load2)


def test_flip_index_out_of_range():
    inst = Instance(p=(5, 3))
    x = Assignment.from_bits(inst, [0, 0])
    with pytest.raises(ContractViolationError):
        flip_in_place(inst, x, 2)


def _is_local_optimum_naive(inst: Instance, x: Assignment) -> bool:
    f = x.makespan
    for i in range(inst.n):
        y = x.copy()
        flip_in_place(inst, y, i)
        if y.makespan < f:
            return False
    return True


def test_is_local_optimum_matches_naive_flip_scan():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        p = tuple(sorted(rng.integers(1, 30, size=n).tolist(), reverse=True))
        inst = Instance(p=p)
        x = Assignment.from_bits(inst, rng.integers(0, 2, size=n).tolist())
        assert is_local_optimum(inst, x) == _is_local_optimum_naive(inst, x)


def test_balanced_assignment_is_locally_optimal():
    inst = Instance(p=(5, 3, 2))
    assert is_local_optimum(inst, Assignment.from_bits(inst, [0, 1, 1]))
