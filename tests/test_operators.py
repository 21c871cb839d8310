"""Mutation operators: hypermutation walks, standard bit mutation, single flips."""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest

from partition_ais import (
    Assignment,
    GStarParams,
    Instance,
    flip_orders,
    gen_g_star,
    hypermutate_fcm,
    hypermutation_full_trajectory,
    one_bit_flip,
    operators,
    sbm,
)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def test_hypermutate_trace_is_consistent_with_replay():
    rng = _rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        p = tuple(sorted(rng.integers(1, 40, size=n).tolist(), reverse=True))
        inst = Instance(p=p)
        x = Assignment.from_bits(inst, rng.integers(0, 2, size=n).tolist())
        fx = x.makespan
        y, trace = hypermutate_fcm(inst, x, rng)
        assert trace.stopped_at == len(trace.fitness_after)
        assert len(trace.flip_order) == n
        assert sorted(trace.flip_order) == list(range(n))
        # replay the executed prefix of the walk
        z = x.copy()
        for step in range(trace.stopped_at):
            z.bits[trace.flip_order[step]] ^= 1
            fz = Assignment.from_bits(inst, z.bits).makespan
            assert fz == trace.fitness_after[step]
        assert z.bits == y.bits
        # first-constructive stopping: improvement ends the walk, and only then
        if trace.stopped_at < n:
            assert trace.fitness_after[-1] < fx
            assert all(f >= fx for f in trace.fitness_after[:-1])
        else:
            assert all(f >= fx for f in trace.fitness_after[:-1])


def test_hypermutate_without_improvement_returns_complement():
    inst = Instance(p=(1, 1))
    x = Assignment.from_bits(inst, [0, 1])
    y, trace = hypermutate_fcm(inst, x, _rng(0))
    assert trace.stopped_at == 2
    assert y.bits == [1 - b for b in x.bits]
    assert y.makespan == x.makespan


def test_hypermutate_charges_one_evaluation_per_flip():
    inst = gen_g_star(GStarParams(n=8, s=2, eps=(1, 4)))
    rng = _rng(5)
    for _ in range(50):
        x = Assignment.from_bits(inst, rng.integers(0, 2, size=8).tolist())
        y, trace = hypermutate_fcm(inst, x, rng)
        # a walk flips distinct bits, so y differs from x once per executed flip
        executed = sum(a != b for a, b in zip(x.bits, y.bits))
        assert trace.stopped_at == len(trace.fitness_after) == executed


def test_hypermutate_respects_eval_cap():
    inst = gen_g_star(GStarParams(n=8, s=2, eps=(1, 4)))
    rng = _rng(9)
    x = Assignment.from_bits(inst, [0] * 8)
    _, trace = hypermutate_fcm(inst, x, rng, max_evals=3)
    assert trace.stopped_at <= 3


def test_full_trajectory_walks_one_flip_at_a_time():
    rng = _rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        start = rng.integers(0, 2, size=n).tolist()
        steps = hypermutation_full_trajectory(n, start, rng)
        assert len(steps) == n
        prev = tuple(start)
        for i, state in enumerate(steps):
            assert sum(a != b for a, b in zip(prev, state)) == 1
            assert sum(a != b for a, b in zip(start, state)) == i + 1
            prev = state
        assert steps[-1] == tuple(1 - b for b in start)


@pytest.mark.parametrize("n", [1, 2, 8, 50])
def test_flip_orders_draw_as_successive_walks(n):
    """Row i of one batch is the flip order of the i-th of as many walks, and
    the generator is left in the same state. The trajectories suite's bytes
    rest on this, so a numpy whose permuted() draws otherwise fails here."""
    start = _rng(n).integers(0, 2, size=n).tolist()
    batch_rng, walk_rng = _rng(29), _rng(29)
    orders = flip_orders(n, batch_rng, 7)
    assert orders.shape == (7, n)
    for row in orders.tolist():
        prev, flipped = start, []
        for state in hypermutation_full_trajectory(n, start, walk_rng):
            flipped += [i for i in range(n) if state[i] != prev[i]]
            prev = state
        assert row == flipped
    state = batch_rng.bit_generator.state
    assert walk_rng.bit_generator.state == state

    split_rng = _rng(29)
    parts = [flip_orders(n, split_rng, k) for k in (1, 2, 0, 4)]
    assert np.array_equal(np.concatenate(parts), orders)
    assert split_rng.bit_generator.state == state


@pytest.mark.parametrize("n", [1, 32, 4096])
def test_walk_orders_draw_as_successive_permutations(monkeypatch, n):
    """Blocks of 4, 8, 16, ... walks up to the entry cap, then capped blocks:
    together they are the orders of as many rng.permutation(n) calls, and the
    generator is left where those calls leave it."""
    shapes = []

    def recorded(n, rng, walks):
        block = flip_orders(n, rng, walks)
        shapes.append(block.shape)
        return block

    monkeypatch.setattr(operators, "flip_orders", recorded)
    most = max(1, operators.ORDER_ENTRIES // n)
    sizes = [4]
    while sizes[-1] < most:
        sizes.append(2 * sizes[-1])
    sizes = [min(w, most) for w in sizes] + [most, most]
    walks = sum(sizes)
    block_rng, walk_rng = _rng(43), _rng(43)
    orders = list(islice(operators.walk_orders(n, block_rng), walks))
    assert shapes == [(w, n) for w in sizes]
    assert all(w * n <= operators.ORDER_ENTRIES for w in sizes)
    assert orders == [walk_rng.permutation(n).tolist() for _ in range(walks)]
    assert block_rng.bit_generator.state == walk_rng.bit_generator.state


def test_sbm_flip_count_distribution():
    inst = gen_g_star(GStarParams(n=16, s=2, eps=(1, 4)))
    rng = _rng(29)
    x = Assignment.from_bits(inst, [0] * 16)
    draws = 20000
    counts = np.zeros(17, dtype=np.int64)
    for _ in range(draws):
        y = sbm(inst, x, rng)
        counts[sum(a != b for a, b in zip(x.bits, y.bits))] += 1
    # binomial(16, 1/16): mean 1, and both tails present
    mean = float((np.arange(17) * counts).sum()) / draws
    assert abs(mean - 1.0) < 0.05
    assert counts[0] > 0 and counts[1] > counts[0] / 2 and counts[3] > 0


def test_sbm_keeps_loads_consistent():
    rng = _rng(31)
    for _ in range(300):
        n = int(rng.integers(2, 14))
        p = tuple(sorted(rng.integers(1, 60, size=n).tolist(), reverse=True))
        inst = Instance(p=p)
        x = Assignment.from_bits(inst, rng.integers(0, 2, size=n).tolist())
        y = sbm(inst, x, rng)
        fresh = Assignment.from_bits(inst, y.bits)
        assert (y.load1, y.load2) == (fresh.load1, fresh.load2)


def test_sbm_leaves_parent_untouched():
    inst = Instance(p=(4, 3, 2, 1))
    x = Assignment.from_bits(inst, [0, 1, 0, 1])
    rng = _rng(37)
    for _ in range(50):
        sbm(inst, x, rng)
    assert x.bits == [0, 1, 0, 1]


def test_one_bit_flip_changes_exactly_one_bit():
    inst = Instance(p=(9, 7, 4, 2, 1))
    x = Assignment.from_bits(inst, [0, 0, 1, 0, 1])
    rng = _rng(41)
    seen = set()
    for _ in range(200):
        y = one_bit_flip(inst, x, rng)
        diff = [i for i in range(5) if y.bits[i] != x.bits[i]]
        assert len(diff) == 1
        seen.add(diff[0])
        fresh = Assignment.from_bits(inst, y.bits)
        assert (y.load1, y.load2) == (fresh.load1, fresh.load2)
    assert seen == {0, 1, 2, 3, 4}


def test_operators_are_deterministic_per_seed():
    inst = gen_g_star(GStarParams(n=12, s=2, eps=(1, 4)))
    x = Assignment.from_bits(inst, [0, 1] * 6)
    a1 = sbm(inst, x, _rng(5)).bits
    a2 = sbm(inst, x, _rng(5)).bits
    b1 = hypermutate_fcm(inst, x, _rng(6))[1].flip_order
    b2 = hypermutate_fcm(inst, x, _rng(6))[1].flip_order
    assert a1 == a2
    assert b1 == b2
