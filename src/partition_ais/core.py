"""Exact integer representation of partition instances and two-machine assignments.

All arithmetic is plain Python integers, so fitness comparisons and tie
semantics are exact at any magnitude the generators allow.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

_W_LIMIT = 1 << 128


class ContractViolationError(ValueError):
    """An operation was invoked outside its documented domain."""


@dataclass(frozen=True)
class InstanceMeta:
    """Provenance tag: generator family and its parameters, if any."""

    family: str = "custom"
    s: int | None = None
    eps: tuple[int, int] | None = None
    scale: int = 1
    resorted: bool = False


@dataclass(frozen=True)
class Instance:
    """Positive processing times sorted non-increasing.

    Each time is stored as a plain int (numpy integers are converted, any
    other number is rejected) and p as a tuple. W is the exact total load;
    construction fails loudly if it does not fit in 128 bits, so downstream
    accumulators never overflow silently. n and W are plain attributes set
    once, since the runner loops read them per evaluation.
    """

    p: tuple[int, ...]
    meta: InstanceMeta = field(default_factory=InstanceMeta)
    n: int = field(init=False, repr=False, compare=False)
    W: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "p", tuple(map(operator.index, self.p)))
        except TypeError:
            raise ContractViolationError("processing times must be positive integers") from None
        if len(self.p) < 1:
            raise ContractViolationError("instance must have at least one job")
        if any(t < 1 for t in self.p):
            raise ContractViolationError("processing times must be positive integers")
        if any(a < b for a, b in zip(self.p, self.p[1:])):
            raise ContractViolationError("processing times must be sorted non-increasing")
        if sum(self.p) >= _W_LIMIT:
            raise ContractViolationError("total load does not fit in 128 bits")
        object.__setattr__(self, "n", len(self.p))
        object.__setattr__(self, "W", sum(self.p))


@dataclass
class Assignment:
    """Length-n bit sequence (0 = machine 1, 1 = machine 2) with cached loads."""

    bits: list[int]
    load1: int
    load2: int

    @classmethod
    def from_bits(cls, inst: Instance, bits: list[int]) -> Assignment:
        if len(bits) != inst.n:
            raise ContractViolationError(
                f"assignment length {len(bits)} does not match n={inst.n}"
            )
        if any(b not in (0, 1) for b in bits):
            raise ContractViolationError("assignment bits must be 0 or 1")
        load2 = sum(t for t, b in zip(inst.p, bits) if b)
        return cls(bits=list(bits), load1=inst.W - load2, load2=load2)

    def copy(self) -> Assignment:
        return Assignment(bits=list(self.bits), load1=self.load1, load2=self.load2)

    @property
    def makespan(self) -> int:
        return max(self.load1, self.load2)


def makespan(inst: Instance, x: Assignment) -> int:
    """Processing time of the later-finishing machine."""
    if len(x.bits) != inst.n:
        raise ContractViolationError(
            f"assignment length {len(x.bits)} does not match n={inst.n}"
        )
    return max(x.load1, x.load2)


def flip_in_place(inst: Instance, x: Assignment, i: int) -> Assignment:
    """Toggle bit i, updating cached loads in O(1). Returns x."""
    if not 0 <= i < inst.n:
        raise ContractViolationError(f"flip index {i} out of range for n={inst.n}")
    t = inst.p[i]
    if x.bits[i]:
        x.bits[i] = 0
        x.load2 -= t
        x.load1 += t
    else:
        x.bits[i] = 1
        x.load1 -= t
        x.load2 += t
    return x


def is_local_optimum(inst: Instance, x: Assignment) -> bool:
    """True iff no single flip strictly decreases the makespan.

    Moving job i off the fuller machine helps exactly when p_i is smaller
    than the discrepancy, so only the fuller machine's smallest job matters.
    """
    if len(x.bits) != inst.n:
        raise ContractViolationError(
            f"assignment length {len(x.bits)} does not match n={inst.n}"
        )
    disc = x.load1 - x.load2
    if disc == 0:
        return True
    fuller = 0 if disc > 0 else 1
    disc = abs(disc)
    # p is sorted non-increasing: scan from the tail for the fuller machine's
    # smallest job.
    for i in range(inst.n - 1, -1, -1):
        if x.bits[i] == fuller:
            return inst.p[i] >= disc
    return True
