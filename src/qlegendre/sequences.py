"""Periodic sequences over Z[i] and their correlation/spectral operations.

For a length-l sequence A = [a_0, ..., a_{l-1}] read cyclically:

    paf(A, s)  = sum_j a_j * conj(a_{j+s})          (exact, Gaussian integer)
    dft(A, s)  = sum_j a_j * xi^(j*s),  xi = exp(2*pi*i/l)   (float)
    psd(A, s)  = |dft(A, s)|^2

Two lags admit exact evaluation because the root of unity collapses to a
power of i: s = l/2 (alternating sum, l even) and s = l/4 (i-weighted sum,
l divisible by 4).  psd uses the exact route at those lags and floats
elsewhere; verification never depends on the float route.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from .gaussint import UNITS, GaussInt, gauss_sum, parse_gauss, format_gauss, unit_index


class QSeq:
    """Immutable periodic sequence whose entries are the units 1, i, -1, -i."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[GaussInt]) -> None:
        tup = tuple(entries)
        if not tup:
            raise ValueError("QSeq needs at least one entry")
        for z in tup:
            if not isinstance(z, GaussInt) or not z.is_unit():
                raise ValueError(f"QSeq entry must be a unit of Z[i], got {z!r}")
        object.__setattr__(self, "_entries", tup)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QSeq is immutable")

    def __reduce__(self):
        return QSeq, (self._entries,)

    @property
    def entries(self) -> tuple[GaussInt, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, j: int) -> GaussInt:
        # periodic: index j+l is index j
        return self._entries[j % len(self._entries)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeq):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"QSeq({format_qseq(self)})"

    def conj(self) -> "QSeq":
        return QSeq(z.conj() for z in self._entries)

    def __neg__(self) -> "QSeq":
        return QSeq(-z for z in self._entries)

    def scaled(self, c: GaussInt) -> "QSeq":
        """Elementwise product with a unit."""
        return QSeq(c * z for z in self._entries)

    def rotated(self, k: int) -> "QSeq":
        """Cyclic left shift by k: entry j of the result is entry j+k."""
        l = len(self._entries)
        k %= l
        return QSeq(self._entries[k:] + self._entries[:k])


Entries = Union[QSeq, Sequence[GaussInt]]


def _entries(a: Entries) -> tuple[GaussInt, ...]:
    if isinstance(a, QSeq):
        return a.entries
    got = getattr(a, "entries", a)
    return tuple(got)


def parse_qseq(text: str) -> QSeq:
    """Parse a bracketed token list such as '[1,-1,i,-i]'."""
    return QSeq(parse_gauss_seq(text))


def parse_gauss_seq(text: str) -> list[GaussInt]:
    """Parse '[t0,t1,...]' with arbitrary Gaussian-integer tokens."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"sequence literal must be bracketed: {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        raise ValueError("empty sequence literal")
    return [parse_gauss(tok) for tok in inner.split(",")]


def format_qseq(a: Entries) -> str:
    """Emit '[t0,t1,...]'; round-trips through parse_qseq/parse_gauss_seq."""
    return "[" + ",".join(format_gauss(z) for z in _entries(a)) + "]"


def row_sum(a: Entries) -> GaussInt:
    """Sum of the entries (the sequence's contribution to matrix row sums)."""
    return gauss_sum(_entries(a))


def paf(a: Entries, s: int) -> GaussInt:
    """Periodic autocorrelation at lag s, exact."""
    ent = _entries(a)
    l = len(ent)
    if not 0 <= s < l:
        raise ValueError(f"lag must satisfy 0 <= s < {l}, got {s}")
    re = 0
    im = 0
    for j in range(l):
        x = ent[j]
        y = ent[(j + s) % l]
        # x * conj(y), inlined
        re += x.re * y.re + x.im * y.im
        im += x.im * y.re - x.re * y.im
    return GaussInt(re, im)


def unit_rows(seqs: Union[np.ndarray, Iterable[Entries]]) -> np.ndarray:
    """(N, l) int8 exponent rows of unit sequences: entry i^e is stored
    as e.  An array passes through unchanged."""
    if isinstance(seqs, np.ndarray):
        return seqs
    return np.array([[unit_index(z) for z in seq] for seq in seqs], dtype=np.int8)


# i^d for d = 0..3: the real and the imaginary part tables
_UNIT_PARTS = np.array([[z.re for z in UNITS], [z.im for z in UNITS]], dtype=np.int8)


@lru_cache(maxsize=None)
def _lag_index(l: int) -> np.ndarray:
    # row s-1 holds the positions j+s mod l, j = 0..l-1, for lags 1..l//2
    return (np.arange(1, l // 2 + 1)[:, None] + np.arange(l)) % l


def paf_rows(rows: np.ndarray) -> np.ndarray:
    """Exact PAF of exponent rows at lags 1..l//2, as an (N, l//2, 2)
    int64 array of (re, im): each term is i^d, d = (e_j - e_{j+s}) & 3,
    so re counts d = 0 minus d = 2 and im counts d = 1 minus d = 3."""
    d = (rows[:, None, :] - rows[:, _lag_index(rows.shape[1])]) & 3
    return np.stack([t[d].sum(axis=-1, dtype=np.int64) for t in _UNIT_PARTS], axis=-1)


@lru_cache(maxsize=None)
def roots_of_unity(l: int) -> tuple[complex, ...]:
    """Table of exp(2*pi*i*j/l) for j = 0..l-1."""
    if l < 1:
        raise ValueError(f"length must be positive, got {l}")
    return tuple(cmath.exp(2j * cmath.pi * j / l) for j in range(l))


def dft(a: Entries, s: int) -> complex:
    """Float discrete Fourier value sum_j a_j xi^(j s)."""
    ent = _entries(a)
    l = len(ent)
    if not 0 <= s < l:
        raise ValueError(f"lag must satisfy 0 <= s < {l}, got {s}")
    roots = roots_of_unity(l)
    return sum(complex(z) * roots[(j * s) % l] for j, z in enumerate(ent))


def exact_lags(l: int) -> tuple[int, ...]:
    """Lags where dft_exact applies: l/2 for even l, plus l/4 when 4 | l."""
    lags = []
    if l % 4 == 0:
        lags.append(l // 4)
    if l % 2 == 0:
        lags.append(l // 2)
    return tuple(lags)


def dft_exact(a: Entries, s: int) -> GaussInt:
    """Exact DFT value at the half lag (sum of (-1)^j a_j) or the quarter
    lag (sum of i^j a_j); any other lag is rejected.

    The one home of these weighted sums: psd, the threefold-seed accept
    test in evensearch and seeds.mod4_filter all call it.
    """
    ent = _entries(a)
    l = len(ent)
    if l == 0 or s not in exact_lags(l):
        raise ValueError(f"unsupported exact lag {s} for length {l}")
    step = 4 * s // l  # xi^(j s) = i^(step j), and UNITS[k] = i^k
    return gauss_sum(z * UNITS[step * j % 4] for j, z in enumerate(ent))


def psd(a: Entries, s: int) -> Union[int, float]:
    """Power spectral density |dft(a, s)|^2.

    Exact integer at the half/quarter lags, float elsewhere.
    """
    ent = _entries(a)
    l = len(ent)
    if not 1 <= s < l:
        raise ValueError(f"psd lag must satisfy 1 <= s < {l}, got {s}")
    if s in exact_lags(l):
        return dft_exact(ent, s).norm()
    return abs(dft(ent, s)) ** 2


@dataclass(frozen=True)
class PSDProfile:
    """PSD values at lags 1..l-1 with a per-lag exactness marker."""

    length: int
    values: tuple[Union[int, float], ...]
    exact: tuple[bool, ...]

    def value(self, s: int) -> Union[int, float]:
        return self.values[s - 1]


def psd_profile(a: Entries) -> PSDProfile:
    ent = _entries(a)
    l = len(ent)
    exact = exact_lags(l)
    return PSDProfile(
        length=l,
        values=tuple(psd(ent, s) for s in range(1, l)),
        exact=tuple(s in exact for s in range(1, l)),
    )
