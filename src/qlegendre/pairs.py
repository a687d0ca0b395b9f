"""Legendre pairs: exact verification, balance data and normal form.

Two length-l sequences over {1, i, -1, -i} form a Legendre pair when

    paf(A, s) + paf(B, s) = -2   for s = 1..l-1.

Because paf(X, l-s) = conj(paf(X, s)), checking lags 1..floor(l/2) covers
all of them.  The row sums (alpha, beta) always satisfy
|alpha|^2 + |beta|^2 = 2: for odd l both are units, for even l one is 0
and the other has norm 2.  normalize() moves every pair to the canonical
balance form — alpha = beta = 1 for odd l, (alpha, beta) = (0, 1+i) for
even l — using only pair-preserving moves (swap, elementwise unit
multiplication, negation of one member, simultaneous conjugation).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .gaussint import GaussInt, format_gauss
from .sequences import QSeq, format_qseq, parse_qseq, paf_rows, row_sum, unit_rows


def lag_sum_ok(re, im):
    """The pass rule for a lag's PAF sum re + im*i: it must equal -2.
    Elementwise on arrays; the batch test and `qlegendre verify`'s per-lag
    marks share it."""
    return (re == -2) & (im == 0)


def _lag_sum_rows(a_rows, b_rows) -> np.ndarray:
    # paf(A, s) + paf(B, s) for s = 1..l//2 per row pair, after the length checks
    a_rows, b_rows = unit_rows(a_rows), unit_rows(b_rows)
    l = a_rows.shape[1]
    if b_rows.shape[1] != l:
        raise ValueError(f"length mismatch: {l} vs {b_rows.shape[1]}")
    if len(a_rows) != len(b_rows):
        raise ValueError(f"row count mismatch: {len(a_rows)} vs {len(b_rows)}")
    if l < 2:
        raise ValueError("Legendre pairs need length >= 2")
    return paf_rows(a_rows) + paf_rows(b_rows)


def first_failing_lags(a_rows, b_rows) -> np.ndarray:
    """Batch pair test over matching rows of two exponent arrays or QSeq
    lists: per row, the first lag whose PAF sum is not -2, or 0 for a
    Legendre pair."""
    sums = _lag_sum_rows(a_rows, b_rows)
    ok = lag_sum_ok(sums[..., 0], sums[..., 1])
    return np.where(ok.all(axis=1), 0, ok.argmin(axis=1) + 1)


def lag_sums(a: QSeq, b: QSeq) -> list[GaussInt]:
    """paf(A, s) + paf(B, s) for s = 1..floor(l/2)."""
    return [GaussInt(re, im) for re, im in _lag_sum_rows((a,), (b,))[0].tolist()]


def first_failing_lag(
    a: QSeq, b: QSeq, sums: Optional[Iterable[GaussInt]] = None
) -> Optional[int]:
    """First lag whose PAF sum is not -2 (None for a Legendre pair): the
    one-row case of first_failing_lags.  `qlegendre verify` passes `sums`,
    the lag_sums(a, b) it already holds."""
    if sums is None:
        return int(first_failing_lags((a,), (b,))[0]) or None
    return next((s for s, t in enumerate(sums, 1) if not lag_sum_ok(t.re, t.im)), None)


def is_legendre_pair(a: QSeq, b: QSeq) -> bool:
    """Exact pair test over lags 1..floor(l/2)."""
    return first_failing_lag(a, b) is None


def balance_check(a: QSeq, b: QSeq) -> tuple[GaussInt, GaussInt]:
    """Row sums (alpha, beta); for a verified pair, also asserts the
    norm identity |alpha|^2 + |beta|^2 = 2 and its parity-specific form."""
    alpha = row_sum(a)
    beta = row_sum(b)
    if is_legendre_pair(a, b):
        if alpha.norm() + beta.norm() != 2:
            raise AssertionError("balance identity violated by a verified pair")
        if len(a) % 2 == 1:
            if not (alpha.is_unit() and beta.is_unit()):
                raise AssertionError("odd-length pair with non-unit row sum")
        else:
            if not (
                (alpha.norm() == 0 and beta.norm() == 2)
                or (alpha.norm() == 2 and beta.norm() == 0)
            ):
                raise AssertionError("even-length pair without a zero row sum")
    return alpha, beta


def normalize(a: QSeq, b: QSeq) -> tuple[QSeq, QSeq]:
    """Canonical balance form of a verified pair.

    Odd length: multiply each member by the conjugate of its row sum,
    giving alpha = beta = 1.  Even length: swap so beta carries norm 2,
    negate B if Re(beta) < 0, conjugate both if beta = 1-i, giving
    (alpha, beta) = (0, 1+i).  Idempotent.
    """
    if not is_legendre_pair(a, b):
        raise ValueError("input is not a Legendre pair; nothing to build")
    alpha = row_sum(a)
    beta = row_sum(b)
    if len(a) % 2 == 1:
        if not (alpha.is_unit() and beta.is_unit()):
            raise AssertionError("odd-length pair with non-unit row sum")
        return a.scaled(alpha.conj()), b.scaled(beta.conj())
    if beta.norm() == 0:
        a, b = b, a
        beta = alpha
    if beta.norm() != 2:
        raise AssertionError("even-length pair without a norm-2 row sum")
    if beta.re < 0:
        b = -b
        beta = -beta
    if beta.im < 0:
        a = a.conj()
        b = b.conj()
    return a, b


@dataclass(frozen=True)
class LegendrePair:
    """A pair together with its balance data and verification flag."""

    a: QSeq
    b: QSeq
    alpha: GaussInt
    beta: GaussInt
    verified: bool

    @classmethod
    def check(cls, a: QSeq, b: QSeq) -> "LegendrePair":
        return cls(a, b, row_sum(a), row_sum(b), is_legendre_pair(a, b))

    @property
    def length(self) -> int:
        return len(self.a)


def pair_to_json(p: LegendrePair) -> str:
    return json.dumps(
        {
            "length": p.length,
            "A": format_qseq(p.a),
            "B": format_qseq(p.b),
            "alpha": format_gauss(p.alpha),
            "beta": format_gauss(p.beta),
            "verified": p.verified,
        },
        indent=2,
        sort_keys=True,
    )


def pair_from_json(text: str) -> LegendrePair:
    doc = json.loads(text)
    a = parse_qseq(doc["A"])
    b = parse_qseq(doc["B"])
    if len(a) != doc["length"] or len(b) != doc["length"]:
        raise ValueError("length field disagrees with the sequences")
    p = LegendrePair.check(a, b)
    if format_gauss(p.alpha) != doc["alpha"] or format_gauss(p.beta) != doc["beta"]:
        raise ValueError("row-sum fields disagree with the sequences")
    if p.verified != doc["verified"]:
        raise ValueError("verified flag disagrees with recomputation")
    return p


def canonical_key(a: QSeq, b: QSeq) -> tuple[str, str]:
    """Deduplication key: the lexicographically least (A, B) text over
    swaps, independent rotations of each member and simultaneous
    conjugation.  A reporting convention only; never used in verification.

    The rotations are independent, so the least text pair of a (swap,
    conjugation) variant is the pair of its members' least rotations.
    """
    ra, rb, ca, cb = (
        min(format_qseq(seq.rotated(r)) for r in range(len(seq)))
        for seq in (a, b, a.conj(), b.conj())
    )
    return min((ra, rb), (rb, ra), (ca, cb), (cb, ca))
