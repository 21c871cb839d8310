"""Instance generators and the text file format.

The gstar family is a two-value family: s heavy jobs and n-s light jobs whose
exact rational weights are cleared to integers through a common denominator,
so the generated instance carries the family's arithmetic identities exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import _W_LIMIT, ContractViolationError, Instance, InstanceMeta


class ParameterError(ValueError):
    """Generator parameters violate the family's constraints."""


class InstanceFormatError(ValueError):
    """An instance file failed to parse; the message names the offending line."""


@dataclass(frozen=True)
class GStarParams:
    """Parameters of the gstar family.

    eps is an exact rational pair (q, r); it is never touched as a float, so
    the produced integers are identical on every platform.
    """

    n: int
    s: int
    eps: tuple[int, int]
    scale: int = 1

    def __post_init__(self) -> None:
        q, r = self.eps
        if self.n % 2 != 0:
            raise ParameterError("n must be an even number of jobs")
        if self.s % 2 != 0 or self.s < 2:
            raise ParameterError("s must be an even number of heavy jobs, at least 2")
        if self.s >= self.n:
            raise ParameterError(
                "s must be smaller than n: the family needs light jobs for its "
                "total to normalize"
            )
        if r < 1 or q < 1:
            raise ParameterError("eps must be a positive rational q/r")
        if Fraction(q, r) >= Fraction(1, 2 * self.s - 1):
            raise ParameterError(f"eps must lie strictly below 1/{2 * self.s - 1}")
        if self.scale < 1:
            raise ParameterError("scale must be a positive integer")

    @property
    def eps_fraction(self) -> Fraction:
        return Fraction(*self.eps)


def _g_star_weights(params: GStarParams) -> tuple[Fraction, Fraction]:
    s, eps = params.s, params.eps_fraction
    heavy = Fraction(1, 2 * s - 1) - eps / (2 * s)
    light = Fraction(s - 1, params.n - s) * (Fraction(1, 2 * s - 1) + eps / (2 * (s - 1)))
    return heavy, light


def gen_g_star(params: GStarParams) -> Instance:
    """Integer gstar instance: rational weights times the common denominator.

    The total load equals denominator * scale exactly, mirroring the family's
    unit normalization.
    """
    heavy, light = _g_star_weights(params)
    if heavy <= light:
        raise ParameterError(
            "heavy weight does not exceed light weight for these parameters; "
            "increase n or decrease s"
        )
    denom = math.lcm(heavy.denominator, light.denominator)
    total = denom * params.scale
    if total >= _W_LIMIT:
        raise ParameterError("scaled total load does not fit in 128 bits")
    ph = int(heavy * denom) * params.scale
    pl = int(light * denom) * params.scale
    p = (ph,) * params.s + (pl,) * (params.n - params.s)
    if params.s * ph + (params.n - params.s) * pl != total:
        raise ContractViolationError("generator normalization identity failed")
    q, r = params.eps
    g = math.gcd(q, r)
    meta = InstanceMeta(
        family="gstar", s=params.s, eps=(q // g, r // g), scale=params.scale
    )
    return Instance(p=p, meta=meta)


def gen_uniform(n: int, max_p: int, seed: int) -> Instance:
    """n processing times drawn uniformly from [1, max_p], sorted non-increasing."""
    if n < 2:
        raise ParameterError("uniform instances need n >= 2")
    if max_p < 1:
        raise ParameterError("max_p must be at least 1")
    if max_p >= 1 << 63:
        raise ParameterError("max_p must be below 2^63")
    if seed < 0:
        raise ParameterError("the uniform instance seed must be non-negative")
    rng = np.random.Generator(np.random.PCG64(seed))
    times = sorted(rng.integers(1, max_p + 1, size=n).tolist(), reverse=True)
    return Instance(p=tuple(times), meta=InstanceMeta(family="uniform"))


def write_instance(inst: Instance, path: str) -> None:
    """Text format: header, n, optional meta line, one decimal time per line."""
    lines = ["partition v1", f"n={inst.n}"]
    m = inst.meta
    if m.family == "gstar" and m.s is not None and m.eps is not None:
        lines.append(f"meta=gstar;s={m.s};eps={m.eps[0]}/{m.eps[1]};scale={m.scale}")
    elif m.family != "custom":
        lines.append(f"meta={m.family}")
    lines.extend(str(t) for t in inst.p)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _digits(text: str) -> int:
    """A decimal integer of ASCII digits only; int() alone would also take
    signs, underscores, spaces and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError
    return int(text)


def _parse_meta(text: str, lineno: int) -> InstanceMeta:
    parts = text.split(";")
    family = parts[0]
    if not family:
        raise InstanceFormatError(f"line {lineno}: empty family in meta")
    s = None
    eps = None
    scale = 1
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise InstanceFormatError(f"line {lineno}: malformed meta segment {part!r}")
        try:
            if key == "s":
                s = _digits(value)
            elif key == "eps":
                q_text, sep2, r_text = value.partition("/")
                if not sep2:
                    raise ValueError
                eps = (_digits(q_text), _digits(r_text))
            elif key == "scale":
                scale = _digits(value)
            else:
                raise InstanceFormatError(f"line {lineno}: unknown meta key {key!r}")
        except ValueError:
            raise InstanceFormatError(
                f"line {lineno}: malformed meta value {part!r}"
            ) from None
    return InstanceMeta(family=family, s=s, eps=eps, scale=scale)


def _text_lines(data: bytes) -> list[str]:
    """UTF-8 text split at LF, CRLF or CR, as reading in text mode splits it."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_instance(path: str) -> Instance:
    """Parse an instance file; unsorted times are accepted, sorted, and flagged."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = _text_lines(data)
    except UnicodeDecodeError as exc:
        lineno = len(_text_lines(data[:exc.start]))
        raise InstanceFormatError(f"line {lineno}: not UTF-8 text") from None
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "partition v1":
        raise InstanceFormatError("line 1: expected header 'partition v1'")
    if len(lines) < 2 or not lines[1].startswith("n="):
        raise InstanceFormatError("line 2: expected 'n=<count>'")
    try:
        n = _digits(lines[1][2:])
    except ValueError:
        raise InstanceFormatError(f"line 2: malformed job count {lines[1][2:]!r}") from None
    if n < 1:
        raise InstanceFormatError("line 2: job count must be at least 1")
    body = 2
    meta = InstanceMeta()
    if len(lines) > 2 and lines[2].startswith("meta="):
        meta = _parse_meta(lines[2][5:], lineno=3)
        body = 3
        if meta.family == "gstar" and meta.s is not None and meta.eps is not None:
            try:
                GStarParams(n=n, s=meta.s, eps=meta.eps, scale=meta.scale)
            except ParameterError as exc:
                raise InstanceFormatError(f"line 3: {exc}") from None
    found = len(lines) - body
    if found != n:
        lineno = body + min(found, n) + 1
        raise InstanceFormatError(
            f"line {lineno}: expected {n} processing times, found {found}"
        )
    times = []
    for offset, text in enumerate(lines[body:]):
        lineno = body + offset + 1
        try:
            t = _digits(text)
        except ValueError:
            raise InstanceFormatError(
                f"line {lineno}: malformed processing time {text!r}"
            ) from None
        if t < 1:
            raise InstanceFormatError(f"line {lineno}: processing time must be positive")
        times.append(t)
    ordered = sorted(times, reverse=True)
    if ordered != times:
        meta = InstanceMeta(
            family=meta.family, s=meta.s, eps=meta.eps, scale=meta.scale, resorted=True
        )
    return Instance(p=tuple(ordered), meta=meta)
