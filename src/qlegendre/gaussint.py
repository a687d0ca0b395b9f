"""Exact Gaussian-integer arithmetic and the a+bi text grammar."""
from __future__ import annotations

import re


class GaussInt:
    """Immutable Gaussian integer a+bi with exact integer parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0) -> None:
        if not isinstance(re, int) or not isinstance(im, int):
            raise TypeError("GaussInt parts must be int")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussInt is immutable")

    def __reduce__(self):
        return GaussInt, (self.re, self.im)

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def is_unit(self) -> bool:
        return self.norm() == 1

    def is_rational(self) -> bool:
        return self.im == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussInt):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self) -> str:
        return f"GaussInt({self.re}, {self.im})"

    def __str__(self) -> str:
        return format_gauss(self)


ZERO = GaussInt(0, 0)
ONE = GaussInt(1, 0)
I = GaussInt(0, 1)
MINUS_ONE = GaussInt(-1, 0)
MINUS_I = GaussInt(0, -1)

# Canonical symbol order (ascending powers of i); every deterministic
# enumeration in the package follows it.
UNITS = (ONE, I, MINUS_ONE, MINUS_I)

_UNIT_INDEX = {ONE: 0, I: 1, MINUS_ONE: 2, MINUS_I: 3}


def unit_index(z: GaussInt) -> int:
    """Position of a unit in the canonical order 1, i, -1, -i."""
    try:
        return _UNIT_INDEX[z]
    except KeyError:
        raise ValueError(f"not a unit: {z}") from None


def gauss_sum(values) -> GaussInt:
    re = 0
    im = 0
    for z in values:
        re += z.re
        im += z.im
    return GaussInt(re, im)


def walk_reachable(x, y, steps: int, targets):
    """Whether `steps` unit moves can carry (x, y) onto a (tx, ty) target:
    one lies within Manhattan distance `steps`, with matching parity.

    The one prune of every walk: the role walks of both searches, the
    threefold-seed prune, and compression's alphabet and splittings.  For
    ints it returns a bool; for numpy arrays x and y, a boolean array."""
    ok = False
    for tx, ty in targets:
        d = abs(x - tx) + abs(y - ty)
        ok = ok | ((d <= steps) & ((d - steps) % 2 == 0))
    return ok


# Token grammar: "a", "bi" or "a+bi" with optional signs; a bare or signed
# "i" means coefficient 1.  Whitespace is not part of a token.
_GAUSS_RE = re.compile(r"^(?P<re>[+-]?\d+(?![0-9i]))?(?P<im>[+-]?\d*i)?$")


def parse_gauss(text: str) -> GaussInt:
    """Parse one Gaussian-integer token such as '0', '-2', 'i', '1-2i'."""
    token = text.strip()
    m = _GAUSS_RE.match(token)
    if m is None or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"malformed Gaussian integer: {text!r}")
    re_part = int(m.group("re")) if m.group("re") else 0
    im_part = 0
    if m.group("im"):
        digits = m.group("im")[:-1]
        if digits in ("", "+"):
            im_part = 1
        elif digits == "-":
            im_part = -1
        else:
            im_part = int(digits)
    return GaussInt(re_part, im_part)


def format_gauss(z: GaussInt) -> str:
    """Emit the canonical token; parse_gauss(format_gauss(z)) == z."""
    if z.im == 0:
        return str(z.re)
    if z.im == 1:
        im = "i"
    elif z.im == -1:
        im = "-i"
    else:
        im = f"{z.im}i"
    if z.re == 0:
        return im
    sign = "+" if z.im > 0 else ""
    return f"{z.re}{sign}{im}"
