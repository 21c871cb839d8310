"""Mutation primitives and the block-drawn mutation stream of the runners.

The hypermutation walks a uniformly random permutation of all bit positions,
evaluating after every flip and stopping at the first strict improvement.
A trace of each walk is returned so its per-step distribution can be tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    fx = max(x.load1, x.load2)
    order = rng.permutation(n).tolist()
    y = x.copy()
    fitness_after: list[int] = []
    budget = n if max_evals is None else min(n, max_evals)
    for step in range(budget):
        flip_in_place(inst, y, order[step])
        fy = max(y.load1, y.load2)
        fitness_after.append(fy)
        if fy < fx:
            break
    return y, HypermutationTrace(tuple(order), tuple(fitness_after))


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
    return rng.permuted(np.broadcast_to(np.arange(n), (walks, n)), axis=1)


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

    Flip counts of standard bit mutation, and uniform integers below each bound
    k, come from their own blocks of BLOCK draws. A block is drawn from the
    trial's generator when first needed and again whenever it runs out; none is
    sized by a budget, so the draws of a trial do not depend on its length.
    """

    def __init__(self, rng: Rng, n: int) -> None:
        self.rng = rng
        self.n = n
        self._counts: list[int] = []
        self._below: dict[int, list[int]] = {}

    def below(self, k: int) -> int:
        """A uniform integer in [0, k)."""
        block = self._below.get(k)
        if not block:
            block = self._below[k] = self.rng.integers(0, k, size=BLOCK).tolist()
        return block.pop()

    def one_flip(self) -> list[int]:
        """The bit flipped by a one-bit mutation."""
        return [self.below(self.n)]

    def sbm_flips(self) -> list[int]:
        """The bits flipped by one standard bit mutation, each w.p. 1/n.

        A Bin(n, 1/n) count k, then Floyd's uniform k-subset of range(n).
        """
        counts = self._counts
        if not counts:
            counts = self._counts = self.rng.binomial(self.n, 1.0 / self.n, size=BLOCK).tolist()
        k = counts.pop()
        if k < 2:  # Floyd's loop below, unrolled for the common counts
            return [self.below(self.n)] if k else []
        n = self.n
        chosen: list[int] = []
        for j in range(n - k, n):
            t = self.below(j + 1)
            chosen.append(j if t in chosen else t)
        return chosen
