"""Mutation primitives and the block-drawn mutation stream of the runners.

The hypermutation walks a uniformly random permutation of all bit positions,
evaluating after every flip and stopping at the first strict improvement.
A trace of each walk is returned so its per-step distribution can be tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    Assignment,
    ContractViolationError,
    Instance,
    flip_in_place,
)

Rng = np.random.Generator


@dataclass(frozen=True)
class HypermutationTrace:
    """One walk: planned flip order, fitness after each executed flip."""

    flip_order: tuple[int, ...]
    fitness_after: tuple[int, ...]

    @property
    def stopped_at(self) -> int:
        """The number of executed flips; n when the walk ran to completion."""
        return len(self.fitness_after)


def hypermutate_fcm(
    inst: Instance,
    x: Assignment,
    rng: Rng,
    max_evals: int | None = None,
) -> tuple[Assignment, HypermutationTrace]:
    """Flip all bits of a copy of x in random order, stopping on improvement.

    Every executed flip is evaluated; trace.stopped_at counts them. The walk ends
    at the first flip that is strictly better than x (a constructive mutation),
    when max_evals flips have been spent, or after all n flips, in which case
    the result is the complement of x. Accepting or rejecting the returned
    offspring is the caller's job.
    """
    n = inst.n
    order = rng.permutation(n).tolist()
    y = x.copy()
    fitness_after: list[int] = []
    steps = order if max_evals is None or max_evals >= n else order[:max(max_evals, 0)]
    y.load2 = walk(inst.p, inst.W, y.bits, y.load2, steps, x.makespan, fitness_after)
    y.load1 = inst.W - y.load2
    return y, HypermutationTrace(tuple(order), tuple(fitness_after))


def walk(
    p: tuple[int, ...], W: int, bits: list[int], load2: int, order: list[int], fx: int,
    made: list[int],
) -> int:
    """One first-constructive walk on bits in place: flip the bits of order in
    turn, appending each makespan to made, until one is below fx. Returns the
    new load of machine 2; the caller keeps the loads of the assignment."""
    for i in order:
        if bits[i]:
            bits[i] = 0
            load2 -= p[i]
        else:
            bits[i] = 1
            load2 += p[i]
        load1 = W - load2
        f = load1 if load1 > load2 else load2  # builtin max costs more than the rest
        made.append(f)
        if f < fx:
            break
    return load2


def hypermutation_full_trajectory(
    n: int, x: Sequence[int], rng: Rng
) -> list[tuple[int, ...]]:
    """The n intermediate bitstrings of one random flip permutation.

    Diagnostic mode: no fitness, no early stop, no evaluation charges. The
    string at position i is uniformly distributed among strings at Hamming
    distance i+1 from x.
    """
    if len(x) != n:
        raise ContractViolationError(f"bitstring length {len(x)} does not match n={n}")
    order = rng.permutation(n).tolist()
    y = list(x)
    out = []
    for i in order:
        y[i] ^= 1
        out.append(tuple(y))
    return out


def flip_orders(n: int, rng: Rng, walks: int) -> np.ndarray:
    """The flip orders of `walks` successive walks on n bits, one per row.

    One batched draw that consumes the generator exactly as `walks` successive
    rng.permutation(n) calls do, so row i is the order of the i-th of that
    many hypermutation_full_trajectory walks.
    """
    # permuted in place: a broadcast view would cost as much again as the draw
    block = np.arange(n)[None].repeat(walks, 0)
    return rng.permuted(block, axis=1, out=block)


# Entries of one block of walk_orders, which bounds a block to about 0.2 MB
# up to n = 2^12; beyond that a block is one walk.
ORDER_ENTRIES = 1 << 12


def walk_orders(n: int, rng: Rng) -> Iterator[list[int]]:
    """The flip orders of endless successive walks on n bits.

    They equal successive rng.permutation(n) calls. They come in blocks of
    flip_orders: the first holds 4 walks and each next one twice as many, up
    to ORDER_ENTRIES entries. So a short trial draws little ahead of its
    walks, and a long one draws few blocks.
    """
    walks, most = 4, max(1, ORDER_ENTRIES // n)
    while True:
        yield from flip_orders(n, rng, min(walks, most)).tolist()
        walks *= 2


def flipped(inst: Instance, x: Assignment, flips: list[int]) -> Assignment:
    """A copy of x with the bits in flips toggled."""
    y = x.copy()
    for i in flips:
        flip_in_place(inst, y, i)
    return y


def sbm(inst: Instance, x: Assignment, rng: Rng) -> Assignment:
    """Standard bit mutation: each bit flips independently with probability 1/n.

    A Bin(n, 1/n) flip count, then a uniform subset of that size: the same
    distribution as per-bit coin flips.
    """
    n = inst.n
    k = int(rng.binomial(n, 1.0 / n))
    return flipped(inst, x, rng.choice(n, k, replace=False).tolist() if k else [])


def one_bit_flip(inst: Instance, x: Assignment, rng: Rng) -> Assignment:
    """Flip exactly one uniformly chosen bit."""
    return flipped(inst, x, [int(rng.integers(0, inst.n))])


BLOCK = 256


class MutationStream:
    """Block-drawn randomness of one search trial.

    Uniform integers below each bound k, and flip counts of standard bit
    mutation, come from their own blocks of BLOCK draws. A block is drawn from
    the trial's generator when first needed and again whenever it runs out;
    none is sized by a budget, so the draws of a trial do not depend on its
    length. `blocks[k]` holds the draws below k not yet handed out, the next
    one last, so a draw below k is the next pop of `block(k)`: a runner's
    loop pops them itself, refilling an empty block with `block(k)`, and
    `draws`, `one_flips` and `sbm_offspring` hand them out in the same order.
    """

    def __init__(self, rng: Rng, n: int) -> None:
        self.rng = rng
        self.n = n
        self.blocks: dict[int, list[int]] = {}

    def _draw_block(self, k: int) -> list[int]:
        """BLOCK fresh draws below k; a subclass can record the draws as they
        are popped by returning a list type of its own."""
        return self.rng.integers(0, k, size=BLOCK).tolist()

    def block(self, k: int) -> list[int]:
        """The draws below k not yet handed out; a fresh block once it is empty."""
        block = self.blocks.get(k)
        if not block:
            block = self.blocks[k] = self._draw_block(k)
        return block

    def draws(self, k: int) -> Iterator[int]:
        """Endless uniform integers in [0, k): successive pops of block(k)."""
        while True:
            block = self.block(k)
            while block:
                yield block.pop()

    def one_flips(self) -> Iterator[tuple[int]]:
        """The bit flipped by each of endless one-bit mutations."""
        return zip(self.draws(self.n))

    def sbm_offspring(self) -> Iterator[tuple[int, ...] | list[int]]:
        """The bits flipped by each of endless standard bit mutations, each
        bit w.p. 1/n: a Bin(n, 1/n) count k, then Floyd's uniform k-subset of
        range(n). One iterator per stream: it keeps its own block of counts.
        """
        n, blocks, block = self.n, self.blocks, self.block
        while True:
            for k in reversed(self.rng.binomial(n, 1.0 / n, size=BLOCK).tolist()):
                # Floyd's loop, unrolled for the common counts
                if not k:
                    yield ()
                elif k == 1:
                    yield ((blocks.get(n) or block(n)).pop(),)
                elif k == 2:
                    t = (blocks.get(n - 1) or block(n - 1)).pop()
                    u = (blocks.get(n) or block(n)).pop()
                    yield (t, n - 1 if u == t else u)
                else:
                    chosen: list[int] = []
                    for j in range(n - k, n):
                        t = (blocks.get(j + 1) or block(j + 1)).pop()
                        chosen.append(j if t in chosen else t)
                    yield chosen
