"""Exact square matrices over Z[i], stored as int64 part-matrices.

Entries stay well inside int64 for everything this package builds (unit
entries, Gram values bounded by the order), and every product asserts a
magnitude bound first, so arithmetic can never wrap silently.  Products skip
part products with an all-zero factor; writers format each distinct entry once.
"""
from __future__ import annotations

import json
from typing import Iterable, Iterator, Sequence

import numpy as np

from .gaussint import GaussInt, parse_gauss, format_gauss

_LIMIT = 2**62


class GaussMatrix:
    """Immutable n x n matrix with Gaussian-integer entries."""

    __slots__ = ("re", "im")

    def __init__(self, re: np.ndarray, im: np.ndarray) -> None:
        re = np.asarray(re, dtype=np.int64)
        im = np.asarray(im, dtype=np.int64)
        if re.ndim != 2 or re.shape[0] != re.shape[1] or re.shape != im.shape:
            raise ValueError(f"GaussMatrix must be square, got {re.shape} / {im.shape}")
        re.setflags(write=False)
        im.setflags(write=False)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[GaussInt]]) -> "GaussMatrix":
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("GaussMatrix rows must all have length n")
        re = np.array([[z.re for z in row] for row in rows], dtype=np.int64).reshape(n, n)
        im = np.array([[z.im for z in row] for row in rows], dtype=np.int64).reshape(n, n)
        return cls(re, im)

    @classmethod
    def identity(cls, n: int) -> "GaussMatrix":
        return cls(np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64))

    @property
    def n(self) -> int:
        return self.re.shape[0]

    def entry(self, r: int, c: int) -> GaussInt:
        return GaussInt(int(self.re[r, c]), int(self.im[r, c]))

    def max_abs(self) -> int:
        return int(max(np.abs(self.re).max(), np.abs(self.im).max())) if self.n else 0

    def conj(self) -> "GaussMatrix":
        return GaussMatrix(self.re, -self.im)

    def transpose(self) -> "GaussMatrix":
        return GaussMatrix(self.re.T, self.im.T)

    def conj_transpose(self) -> "GaussMatrix":
        return GaussMatrix(self.re.T, -self.im.T)

    def __neg__(self) -> "GaussMatrix":
        return GaussMatrix(-self.re, -self.im)

    def __add__(self, other: "GaussMatrix") -> "GaussMatrix":
        return GaussMatrix(self.re + other.re, self.im + other.im)

    def __matmul__(self, other: "GaussMatrix") -> "GaussMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch in matrix product")
        # |dot| <= n * maxA * maxB per part, two parts per product term
        bound = 2 * self.n * max(self.max_abs(), 1) * max(other.max_abs(), 1)
        if bound >= _LIMIT:
            raise OverflowError("matrix product would exceed the exact int64 range")
        re = _part(self.re, other.re) - _part(self.im, other.im)
        im = _part(self.re, other.im) + _part(self.im, other.re)
        return GaussMatrix(re, im)

    def scaled(self, z: GaussInt) -> "GaussMatrix":
        bound = 2 * max(self.max_abs(), 1) * max(abs(z.re), abs(z.im), 1)
        if bound >= _LIMIT:
            raise OverflowError("scalar product would exceed the exact int64 range")
        return GaussMatrix(
            z.re * self.re - z.im * self.im,
            z.re * self.im + z.im * self.re,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and bool(np.array_equal(self.re, other.re))
            and bool(np.array_equal(self.im, other.im))
        )

    def is_scalar_identity(self, z: GaussInt) -> bool:
        """Whether the matrix equals z times the identity."""
        n = self.n
        re_ok = np.array_equal(self.re, z.re * np.eye(n, dtype=np.int64))
        im_ok = np.array_equal(self.im, z.im * np.eye(n, dtype=np.int64))
        return bool(re_ok and im_ok)

    def __repr__(self) -> str:
        return f"GaussMatrix(n={self.n})"


def _part(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for square parts of one order; no product when a factor is all zero."""
    return x @ y if x.any() and y.any() else np.zeros_like(x)


def circulant_from_entries(entries: Iterable[GaussInt]) -> GaussMatrix:
    ent = tuple(entries)
    l = len(ent)
    re = np.fromiter((z.re for z in ent), dtype=np.int64, count=l)
    im = np.fromiter((z.im for z in ent), dtype=np.int64, count=l)
    rows = np.arange(l).reshape(-1, 1)
    cols = np.arange(l).reshape(1, -1)
    idx = (cols - rows) % l
    return GaussMatrix(re[idx], im[idx])


def _token_rows(m: GaussMatrix) -> Iterator[list[str]]:
    """Rows of format_gauss tokens, formatting each distinct entry once.

    Entries are keyed by their ranks among the distinct values of each part
    (the np.unique inverses, found by searchsorted, which allocates less than
    return_inverse): ir * w + ii < n**4 never overflows, whatever the entries.
    """
    ur, ui = np.unique(m.re), np.unique(m.im)
    w = len(ui)
    key = np.searchsorted(ur, m.re) * w + np.searchsorted(ui, m.im)
    keys = np.unique(key)
    table = [format_gauss(GaussInt(int(ur[k // w]), int(ui[k % w]))) for k in keys]
    table = np.array(table, dtype=object)
    return (table[row].tolist() for row in np.searchsorted(keys, key))


def format_matrix_text(m: GaussMatrix) -> str:
    """One row per line, entries space-separated in the a+bi grammar."""
    return "\n".join(" ".join(row) for row in _token_rows(m)) + "\n"


def parse_matrix_text(text: str) -> GaussMatrix:
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([parse_gauss(tok) for tok in line.split()])
    if not rows:
        raise ValueError("empty matrix text")
    return GaussMatrix.from_rows(rows)


def matrix_to_json(m: GaussMatrix, kind: str) -> str:
    return json.dumps(
        {
            "order": m.n,
            "kind": kind,
            "rows": list(_token_rows(m)),
        },
        indent=2,
        sort_keys=True,
    )


def matrix_from_json(text: str) -> tuple[GaussMatrix, str]:
    doc = json.loads(text)
    rows = [[parse_gauss(tok) for tok in row] for row in doc["rows"]]
    m = GaussMatrix.from_rows(rows)
    if m.n != doc["order"]:
        raise ValueError("order field disagrees with row count")
    return m, doc.get("kind", "")
