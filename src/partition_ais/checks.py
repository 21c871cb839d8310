"""Verification suites: oracle agreement, generator identities, trajectory laws.

Each suite returns structured pass/fail results with the measured value and
the bound it was held to, so the command line and the test suite share one
implementation and one set of default seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .core import ContractViolationError, Instance
from .instances import GStarParams, gen_g_star, gen_uniform
from .operators import flip_orders
from .oracles import (
    brute_force_optimum,
    dp_optimal_makespan,
    enumerate_local_optima,
    g_star_local_optima,
    lpt,
)

ORACLE_SEED = 20240901
TRAJECTORY_SEED = 20240902

# Each suite's default seed; the properties suite is exact and takes none.
DEFAULT_SEEDS = {"oracles": ORACLE_SEED, "properties": None, "trajectories": TRAJECTORY_SEED}
SUITES = tuple(DEFAULT_SEEDS)

# scipy.stats.chi2.ppf(1 - 1e-3, 69): the chi-square bound at significance
# 1e-3 for the C(8,4) = 70 cells of the uniformity check.
_UNIFORMITY_CHI2_BOUND = 111.05506556267146


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    bound: str


def _verdict(name: str, failures: list[str], clean: str, label: str, bound: str) -> CheckResult:
    """Passes iff nothing failed; measured is `clean`, or `label: ` and the failures."""
    measured = f"{label}: {', '.join(failures)}" if failures else clean
    return CheckResult(name, not failures, measured, bound)


# Twenty generator settings spanning s in {2,4,6,8}, several eps and scales.
IDENTITY_SETTINGS = (
    (8, 2, (1, 4), 1), (8, 2, (1, 8), 1), (12, 2, (1, 4), 1), (16, 2, (1, 4), 1),
    (16, 2, (1, 8), 3), (20, 2, (1, 4), 1), (24, 2, (1, 6), 1), (32, 2, (1, 4), 1),
    (48, 2, (1, 5), 1), (64, 2, (1, 4), 1), (100, 2, (1, 4), 1), (128, 2, (2, 7), 1),
    (16, 4, (1, 8), 1), (24, 4, (1, 8), 1), (32, 4, (1, 8), 5), (48, 4, (1, 16), 1),
    (64, 6, (1, 12), 1), (96, 6, (1, 16), 1), (64, 8, (1, 16), 1), (128, 8, (1, 20), 1),
)

# Small settings whose full local-optimum structure is enumerable quickly.
ENUMERABLE_SETTINGS = (
    (8, 2, (1, 4)), (10, 2, (1, 4)), (12, 2, (1, 4)), (14, 2, (1, 4)),
    (16, 2, (1, 4)), (18, 2, (1, 4)), (20, 2, (1, 4)),
    (16, 4, (1, 8)), (20, 4, (1, 8)),
)


def check_oracles(seed: int = ORACLE_SEED) -> list[CheckResult]:
    """Exact solver cross-checks on a random corpus plus fixed instances."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    bad_witnesses = 0
    lpt_violations = 0
    for _ in range(200):
        n = int(rng.integers(4, 17))
        inst = gen_uniform(n, 100, int(rng.integers(0, 1 << 63)))
        dp = dp_optimal_makespan(inst)
        value, witness = brute_force_optimum(inst)
        if dp != value:
            mismatches += 1
        if witness.makespan != value:
            bad_witnesses += 1
        if lpt(inst).makespan < dp:
            lpt_violations += 1
    fixed = {
        "dp [3,2,2,1,1,1]": (dp_optimal_makespan(Instance(p=(3, 2, 2, 1, 1, 1))), 5),
        "dp gstar n=8": (dp_optimal_makespan(gen_g_star(GStarParams(8, 2, (1, 4)))), 72),
        "dp [5]": (dp_optimal_makespan(Instance(p=(5,))), 5),
        "lpt [3,3,2,2,2]": (lpt(Instance(p=(3, 3, 2, 2, 2))).makespan, 7),
        "lpt [1,1,1,1]": (lpt(Instance(p=(1, 1, 1, 1))).makespan, 2),
    }
    wrong = [k for k, (got, want) in fixed.items() if got != want]
    return [
        CheckResult(
            "dp_equals_brute_200",
            mismatches == 0 and bad_witnesses == 0,
            f"mismatches={mismatches} bad_witnesses={bad_witnesses}",
            "0",
        ),
        CheckResult(
            "lpt_never_below_optimum", lpt_violations == 0,
            f"violations={lpt_violations}", "0",
        ),
        _verdict("fixed_examples", wrong, "all as expected", "wrong", "exact"),
    ]


def _expected_weights(n: int, s: int, eps: tuple[int, int]) -> tuple[Fraction, Fraction]:
    e = Fraction(*eps)
    heavy = Fraction(1, 2 * s - 1) - e / (2 * s)
    light = Fraction(s - 1, n - s) * (Fraction(1, 2 * s - 1) + e / (2 * (s - 1)))
    return heavy, light


def check_properties() -> list[CheckResult]:
    """Generator weight identities and local-optimum structure, all exact."""
    results = []

    identity_failures = []
    for n, s, eps, scale in IDENTITY_SETTINGS:
        inst = gen_g_star(GStarParams(n=n, s=s, eps=eps, scale=scale))
        heavy, light = _expected_weights(n, s, eps)
        denom = lcm(heavy.denominator, light.denominator)
        two_valued = inst.p == (inst.p[0],) * s + (inst.p[-1],) * (n - s)
        ok = (
            two_valued
            and Fraction(inst.p[0], inst.W) == heavy
            and Fraction(inst.p[-1], inst.W) == light
            and inst.W == denom * scale
            and sum(inst.p) == inst.W
        )
        if not ok:
            identity_failures.append(f"n={n},s={s}")
    results.append(
        _verdict("gstar_identities_20", identity_failures, "all 20 exact", "failed", "exact")
    )

    got = enumerate_local_optima(gen_g_star(GStarParams(12, 2, (1, 4)))).distinct_makespans
    results.append(CheckResult(
        "local_optima_n12", got == (120, 130), f"{{{', '.join(map(str, got))}}}",
        "{120, 130}",
    ))

    bound_failures = []
    analytic_failures = []
    count_failures = []
    for n, s, eps in ENUMERABLE_SETTINGS:
        inst = gen_g_star(GStarParams(n=n, s=s, eps=eps))
        summary = enumerate_local_optima(inst)
        optimum = dp_optimal_makespan(inst)
        threshold = (1 + Fraction(*eps)) * optimum
        bound = 2.0 ** (2 / float(Fraction(*eps)))
        if summary.count_above(threshold) > bound:
            bound_failures.append(f"n={n},s={s}")
        if g_star_local_optima(inst) != summary.distinct_makespans:
            analytic_failures.append(f"n={n},s={s}")
        if len(summary.distinct_makespans) > s + 1:
            count_failures.append(f"n={n},s={s}")
    return results + [
        _verdict("count_above_bound", bound_failures, "all below 2^(2/eps)", "exceeded",
                 "2^(2/eps)"),
        _verdict("analytic_matches_enumeration", analytic_failures, "all equal", "differ",
                 "exact"),
        _verdict("distinct_count_small", count_failures, "all within s+1", "too many", "s+1"),
    ]


# Flip-order entries per chunk: holds the suite's memory to a few MB.
_CHUNK_ENTRIES = 100_000


def _flip_order_chunks(n: int, rng: np.random.Generator, walks: int):
    """The flip orders of `walks` successive walks, in chunks of bounded size."""
    rows = max(1, _CHUNK_ENTRIES // n)
    for done in range(0, walks, rows):
        yield flip_orders(n, rng, min(rows, walks - done))


def check_trajectories(seed: int = TRAJECTORY_SEED) -> list[CheckResult]:
    """Distributional laws of the mutation walk, measured on its flip orders.

    Each walk is one row of operators.flip_orders, which draws as one
    permutation per walk does, so the laws hold for the operators' walks.
    """
    rng = np.random.default_rng(seed)
    results = []

    # Uniformity: from 0^8, the state after 4 flips must be uniform over all
    # C(8,4)=70 strings of weight 4. Its bitmask is the xor of the first four
    # flipped bits.
    samples = 100_000
    observed = np.zeros(256, dtype=np.int64)
    for orders in _flip_order_chunks(8, rng, samples):
        masks = np.bitwise_xor.reduce(1 << orders[:, :4], axis=1)
        observed += np.bincount(masks, minlength=256)
    cells = [m for m in range(256) if bin(m).count("1") == 4]
    counts = observed[cells]
    expected = samples / len(cells)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    stray = int(observed.sum() - counts.sum())
    results.append(CheckResult(
        "uniformity_chi2", chi2 <= _UNIFORMITY_CHI2_BOUND and stray == 0,
        f"chi2={chi2:.2f} off_weight_samples={stray}", f"chi2 <= {_UNIFORMITY_CHI2_BOUND:.2f}",
    ))

    # Halfway weighted sum: from 0^n the mean weighted sum after n/2 flips
    # must be half the total weight. The column sums of the halfway states
    # count how often each bit is among the first n/2 flipped.
    n = 50
    weights = rng.integers(1, 10_001, size=n)
    half = float(weights.sum()) / 2
    ones = np.zeros(n, dtype=np.int64)
    for orders in _flip_order_chunks(n, rng, samples):
        ones += np.bincount(orders[:, : n // 2].ravel(), minlength=n)
    # integer sums below 2^53, so the mean is exact as with a float running sum
    mean = int(weights @ ones) / samples
    results.append(CheckResult(
        "halfway_weighted_mean", abs(mean - half) <= 0.01 * half,
        f"mean={mean:.1f} target={half:.1f} rel_err={abs(mean - half) / half:.4f}",
        "within 1%",
    ))

    # Level crossing: from 750 ones out of 1000 (bits 0..749 set), nearly all
    # walks pass through exactly 500 ones inside the middle step window.
    n = 1000
    walks = 10_000
    hits = 0
    for orders in _flip_order_chunks(n, rng, walks):
        steps = np.where(orders < 750, np.int16(-1), np.int16(1))
        ones_path = 750 + np.cumsum(steps, axis=1, dtype=np.int16)
        hits += int((ones_path[:, 374:625] == 500).any(axis=1).sum())
    rate = hits / walks
    results.append(CheckResult(
        "crossing_window", rate >= 0.95,
        f"rate={rate:.4f}", ">= 0.95 in steps [375, 625]",
    ))
    return results


def suite_seed(suite: str, seed: int | None) -> int | None:
    """The seed the suite runs on: its default, or the given non-negative seed
    for a suite that takes one."""
    if suite not in DEFAULT_SEEDS:
        raise ContractViolationError(f"unknown suite {suite!r}; choose one of {', '.join(SUITES)}")
    if seed is None:
        return DEFAULT_SEEDS[suite]
    if DEFAULT_SEEDS[suite] is None:
        raise ContractViolationError(f"suite {suite!r} takes no seed")
    if seed < 0:
        raise ContractViolationError("seeds must be non-negative")
    return seed


def run_suite(suite: str, seed: int | None = None) -> list[CheckResult]:
    seed = suite_seed(suite, seed)
    if suite == "properties":
        return check_properties()
    check = check_oracles if suite == "oracles" else check_trajectories
    return check(seed)
