"""Seed pairs of odd prime length p and their 2-decompressions.

The seed pair is

    A_p = [0, 2*(1|p), 2*(2|p), ..., 2*((p-1)|p)],   B_p = [1+i, 0, ..., 0]

(Legendre symbols (j|p)), both read as ratio-2 compressions of length-2p
sequences.  A_p has exactly four decompressions, all with identical PAF
profiles; decompressions B of B_p are searched under the antisymmetry
b_{j+p} = b_{p-j} = -b_j together with b_0 = 1, b_p = i, which leaves the
half-vector [b_1, ..., b_{(p-1)/2}] free and the search space at
4^((p-1)/2).

A half-vector yields a Legendre pair exactly when

    PSD(B, 2s-1) = 4p-2,  s = 1..(p+1)/2,  with
    DFT(B, 2s-1) = 1-i + 4 * sum_j b_j cos((2s-1) j pi / p).

At the lag p itself the cosine degenerates to (-1)^j, so that single
condition is exact Gaussian-integer arithmetic: DFT(B, p) = a+ib must
satisfy a^2 + b^2 = 4p-2 with a = 1 and -b = 1 mod 4 (mod4_filter).  The
search walks the half-vector positions depth-first over an explicit stack
of blocks of candidates (numpy arrays).  Popping a block expands all four
children of every row in one broadcast; the survivors are pushed in small
chunks, lowest paths on top, so leaves are reached in lexicographic order.
The broadcast computes the same float sums as a walk one node at a time,
so the set of pruned nodes is unchanged.  The two sound bounds are:

  * the exact lag-p walk must stay within Manhattan range of a valid
    (a, b) target with matching parity;
  * at every float lag, | |partial DFT| - sqrt(4p-2) | can still change
    by at most the total remaining cosine weight.

Survivors of the float screen are confirmed exactly before being
reported; the reported set is therefore independent of the screening
tolerance anywhere in [1e-9, 1e-4].
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .gaussint import GaussInt, ONE, I, UNITS, format_gauss
from .numtheory import (
    is_sum_of_two_squares,
    legendre_symbol,
    require_odd_prime,
    two_square_reps,
)
from .sequences import QSeq, dft, dft_exact, format_qseq, paf, psd, row_sum
from .compression import CompressedSeq
from .pairs import is_legendre_pair

TWO = GaussInt(2, 0)
ONE_PLUS_I = GaussInt(1, 1)


@dataclass(frozen=True)
class SeedPair:
    """The compressed pair (A_p, B_p) for an odd prime p."""

    p: int
    a: CompressedSeq
    b: CompressedSeq


@dataclass(frozen=True)
class HalfVector:
    """Free half [b_1..b_{(p-1)/2}] of a restricted B decompression."""

    p: int
    symbols: tuple[GaussInt, ...]

    def expand(self) -> QSeq:
        return build_seed_b(self.p, self.symbols)

    def text(self) -> str:
        return format_qseq(self.symbols)


def seed_pair(p: int) -> SeedPair:
    require_odd_prime(p)
    a = CompressedSeq(
        [GaussInt(0, 0)] + [GaussInt(2 * legendre_symbol(j, p), 0) for j in range(1, p)],
        ratio=2,
    )
    b = CompressedSeq([ONE_PLUS_I] + [GaussInt(0, 0)] * (p - 1), ratio=2)
    return SeedPair(p, a, b)


def decompress_seed_a(p: int, a0: GaussInt = ONE) -> QSeq:
    """The 2-decompression of A_p selected by the free unit a0:
    a_p = -a0 and a_j = a_{j+p} = (j|p) elsewhere."""
    require_odd_prime(p)
    if not a0.is_unit():
        raise ValueError(f"a0 must be a unit, got {a0}")
    entries: list[GaussInt] = [GaussInt(0, 0)] * (2 * p)
    entries[0] = a0
    entries[p] = -a0
    for j in range(1, p):
        sym = GaussInt(legendre_symbol(j, p), 0)
        entries[j] = sym
        entries[j + p] = sym
    return QSeq(entries)


def seed_feasible(p: int) -> bool:
    """Whether 4p-2 is a sum of two squares; a failing p admits no
    Legendre pair through this seed."""
    require_odd_prime(p)
    return is_sum_of_two_squares(4 * p - 2)


def build_seed_b(p: int, half: Sequence[GaussInt]) -> QSeq:
    """Expand a half-vector to the full length-2p sequence B under
    b_0 = 1, b_p = i and b_{j+p} = b_{p-j} = -b_j."""
    require_odd_prime(p)
    half = tuple(half)
    if len(half) != (p - 1) // 2:
        raise ValueError(
            f"half-vector for p={p} needs {(p - 1) // 2} entries, got {len(half)}"
        )
    for z in half:
        if not isinstance(z, GaussInt) or not z.is_unit():
            raise ValueError(f"half-vector entries must be units, got {z!r}")
    b: list[Optional[GaussInt]] = [None] * (2 * p)
    b[0] = ONE
    b[p] = I
    for j in range(1, (p - 1) // 2 + 1):
        b[j] = half[j - 1]
        b[p - j] = -half[j - 1]
    for j in range(1, p):
        b[j + p] = -b[j]
    return QSeq(b)


def mod4_filter(p: int, half: Sequence[GaussInt]) -> bool:
    """Exact lag-p test: DFT(B, p) = 1-i + 4*sum_j (-1)^j b_j = a+ib must
    satisfy a^2+b^2 = 4p-2 with a = 1 mod 4 and b = -1 mod 4."""
    d = dft_exact(build_seed_b(p, half), p)
    return d.re % 4 == 1 and d.im % 4 == 3 and d.norm() == 4 * p - 2


# --- vectorized half-vector search -----------------------------------------

_UNIT_COMPLEX = np.array([1 + 0j, 1j, -1 + 0j, -1j])
_UNIT_X = np.array([1, 0, -1, 0])
_UNIT_Y = np.array([0, 1, 0, -1])
# rows per stacked block; it bounds the live arrays, and so peak memory
_CHUNK = 1 << 8


class _SearchTables:
    """Per-prime constant data for the block search."""

    def __init__(self, p: int, tol: float) -> None:
        h = (p - 1) // 2
        self.p = p
        self.h = h
        self.tol = tol
        lags = np.arange(1, p - 1, 2, dtype=np.float64)  # odd lags below p
        jj = np.arange(1, h + 1, dtype=np.float64)
        self.weights = 4.0 * np.cos(np.pi * np.outer(lags, jj) / p)
        absw = np.abs(self.weights)
        rem = np.zeros((absw.shape[0], h + 1))
        rem[:, :h] = absw[:, ::-1].cumsum(axis=1)[:, ::-1]
        self.remaining = rem
        self.psd_target = 4 * p - 2
        self.radius = math.sqrt(self.psd_target)
        self.margin = tol / (2.0 * self.radius) + 1e-9
        # exact targets for the alternating walk sum_j (-1)^j b_j
        self.targets = [
            ((a - 1) // 4, (b + 1) // 4)
            for a, b in two_square_reps(self.psd_target)
            if a % 4 == 1 and b % 4 == 3
        ]

    def alternating_ok(self, ax: np.ndarray, ay: np.ndarray, rem: int) -> np.ndarray:
        """gaussint.walk_reachable over arrays of walk positions."""
        ok = np.zeros(ax.shape, dtype=bool)
        for tx, ty in self.targets:
            d = np.abs(ax - tx) + np.abs(ay - ty)
            ok |= (d <= rem) & ((d - rem) % 2 == 0)
        return ok

    def root(self) -> tuple[np.ndarray, ...]:
        """The depth-0 block: the empty prefix, DFT sums 1-i."""
        z = np.full((1, self.weights.shape[0]), 1.0 - 1.0j, dtype=np.complex128)
        zero = np.zeros(1, dtype=np.int64)
        return z, zero, zero, zero

    def children(self, block: tuple[np.ndarray, ...], t: int) -> tuple[np.ndarray, ...]:
        """The pruned children of a depth-t block, rows in path order."""
        z, ax, ay, path = block
        j = t + 1
        sign = -1 if j % 2 == 1 else 1
        rem = self.h - j
        z2 = (z[:, None, :] + _UNIT_COMPLEX[None, :, None] * self.weights[:, t]).reshape(
            -1, z.shape[1]
        )
        ax2 = (ax[:, None] + sign * _UNIT_X).ravel()
        ay2 = (ay[:, None] + sign * _UNIT_Y).ravel()
        path2 = (path[:, None] + (np.arange(4) << (2 * rem))).ravel()
        keep = self.alternating_ok(ax2, ay2, rem)
        band = self.remaining[:, j] + self.margin
        keep &= (np.abs(np.abs(z2) - self.radius) <= band).all(axis=1)
        return z2[keep], ax2[keep], ay2[keep], path2[keep]

    def leaves_ok(self, block: tuple[np.ndarray, ...]) -> np.ndarray:
        z, ax, ay, _ = block
        ok = np.abs(np.abs(z) ** 2 - self.psd_target).max(axis=1) <= self.tol
        ok &= self.alternating_ok(ax, ay, 0)
        return ok


class _FoundEnough(Exception):
    pass


class _Collector:
    """Confirms float survivors exactly and accumulates half-vectors."""

    def __init__(self, p: int, h: int, first_only: bool) -> None:
        self.p = p
        self.h = h
        self.first_only = first_only
        self.a_ref = decompress_seed_a(p, ONE)
        self.found: list[tuple[int, ...]] = []

    def take(self, path_ids: np.ndarray) -> None:
        for pid in path_ids:
            idxs = _decode_path(int(pid), self.h)
            half = tuple(UNITS[i] for i in idxs)
            if is_legendre_pair(self.a_ref, build_seed_b(self.p, half)):
                self.found.append(idxs)
                if self.first_only:
                    raise _FoundEnough


def _decode_path(pid: int, h: int) -> tuple[int, ...]:
    out = []
    for j in range(h):
        out.append((pid >> (2 * (h - 1 - j))) & 3)
    return tuple(out)


def _push(stack: list, block: tuple[np.ndarray, ...], t: int) -> None:
    """Stack a depth-t block in chunks, its lowest paths on top."""
    for lo in reversed(range(0, len(block[3]), _CHUNK)):
        stack.append((tuple(a[lo : lo + _CHUNK] for a in block), t))


def _search_block(
    tab: _SearchTables, first_only: bool, block: tuple[np.ndarray, ...], depth: int
) -> list[tuple[int, ...]]:
    """Confirmed leaves below a block of depth-`depth` rows, depth first.
    Popping a block expands all its rows at once; as the lowest paths are
    popped first, leaves are reached in lexicographic order."""
    sink = _Collector(tab.p, tab.h, first_only)
    stack: list = []
    _push(stack, block, depth)
    try:
        while stack:
            block, t = stack.pop()
            if t == tab.h:
                sink.take(block[3][tab.leaves_ok(block)])
            else:
                _push(stack, tab.children(block, t), t + 1)
    except _FoundEnough:
        pass
    return sink.found


def seed_search(
    p: int,
    *,
    first_only: bool = False,
    tol: float = 1e-6,
    prefix_depth: Optional[int] = None,
    workers: int = 1,
) -> list[HalfVector]:
    """All half-vectors whose expansion forms a Legendre pair with the
    decompressed A, in lexicographic symbol order (1 < i < -1 < -i).

    first_only stops at the lexicographically first confirmed vector.
    tol is the float screening tolerance; the confirmed output does not
    depend on it.  The tree is expanded breadth-first to prefix_depth;
    that pruned frontier is cut into one contiguous slice per worker
    process and the slices' results are merged in slice order.
    """
    require_odd_prime(p)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not seed_feasible(p):
        return []
    h = (p - 1) // 2
    if prefix_depth is None:
        prefix_depth = 0 if workers == 1 else min(h, 3)
    if not 0 <= prefix_depth <= h:
        raise ValueError(f"prefix depth must be in 0..{h}, got {prefix_depth}")

    tab = _SearchTables(p, tol)
    frontier = tab.root()
    for t in range(prefix_depth):
        frontier = tab.children(frontier, t)
    if workers == 1:
        found = _search_block(tab, first_only, frontier, prefix_depth)
    else:
        n = len(frontier[3])
        cuts = [n * k // workers for k in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _search_block,
                    tab,
                    first_only,
                    tuple(a[lo:hi] for a in frontier),
                    prefix_depth,
                )
                for lo, hi in zip(cuts, cuts[1:])
                if lo < hi
            ]
            found = [idxs for fut in futures for idxs in fut.result()]
    if first_only:
        found = found[:1]
    return [HalfVector(p, tuple(UNITS[i] for i in idxs)) for idxs in found]


# --- structured identity report ---------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    max_err: float = 0.0
    detail: str = ""


def _float_check(name: str, errs: Iterable[float], tol: float) -> IdentityCheck:
    worst = max(errs, default=0.0)
    return IdentityCheck(name, worst <= tol, worst)


def seed_identity_report(
    p: int,
    half: Optional[Sequence[GaussInt]] = None,
    tol: float = 1e-6,
) -> list[IdentityCheck]:
    """Pass/fail table for the seed-pair identities at an odd prime p.

    Covers the compressed pair, every decompression of A_p, one
    decompression of B_p (from `half` when given, else all-ones), and —
    when the built B actually completes a Legendre pair — the pair-level
    spectral identities.
    """
    require_odd_prime(p)
    sp = seed_pair(p)
    checks: list[IdentityCheck] = []
    sqrtp = math.sqrt(p)

    # compressed level
    checks.append(
        IdentityCheck("paf(A_p,0) == 4(p-1)", paf(sp.a, 0) == GaussInt(4 * (p - 1), 0))
    )
    checks.append(IdentityCheck("paf(B_p,0) == 2", paf(sp.b, 0) == TWO))
    checks.append(
        IdentityCheck(
            "paf(A_p,s) == -4",
            all(paf(sp.a, s) == GaussInt(-4, 0) for s in range(1, p)),
        )
    )
    checks.append(
        IdentityCheck(
            "paf(B_p,s) == 0",
            all(paf(sp.b, s) == GaussInt(0, 0) for s in range(1, p)),
        )
    )
    errs = []
    for s in range(1, p):
        want = 2 * legendre_symbol(s, p) * sqrtp
        got = dft(sp.a, s)
        expect = complex(want, 0) if p % 4 == 1 else complex(0, want)
        errs.append(abs(got - expect))
    checks.append(
        _float_check("dft(A_p,s) == 2(s|p)sqrt(p) [i-fold for p=3 mod 4]", errs, tol)
    )
    checks.append(
        _float_check(
            "dft(B_p,s) == 1+i",
            [abs(dft(sp.b, s) - complex(1, 1)) for s in range(1, p)],
            tol,
        )
    )
    checks.append(
        _float_check(
            "psd(A_p,s) == 4p", [abs(psd(sp.a, s) - 4 * p) for s in range(1, p)], tol
        )
    )
    checks.append(
        _float_check(
            "psd(B_p,s) == 2", [abs(psd(sp.b, s) - 2) for s in range(1, p)], tol
        )
    )

    # decompressions of A_p, all four unit choices
    for a0 in UNITS:
        a = decompress_seed_a(p, a0)
        tag = f"a0={format_gauss(a0)}"
        checks.append(
            IdentityCheck(f"paf(A,0) == 2p [{tag}]", paf(a, 0) == GaussInt(2 * p, 0))
        )
        checks.append(
            IdentityCheck(
                f"paf(A,p) == 2p-4 [{tag}]", paf(a, p) == GaussInt(2 * p - 4, 0)
            )
        )
        checks.append(
            IdentityCheck(
                f"paf(A,s) == -2 off multiples of p [{tag}]",
                all(
                    paf(a, s) == GaussInt(-2, 0)
                    for s in range(1, 2 * p)
                    if s != p
                ),
            )
        )
        errs = [abs(dft(a, 2 * s) - dft(sp.a, s)) for s in range(1, p)]
        checks.append(_float_check(f"dft(A,2s) == dft(A_p,s) [{tag}]", errs, tol))
        checks.append(
            _float_check(
                f"psd(A,2s) == 4p [{tag}]",
                [abs(psd(a, 2 * s) - 4 * p) for s in range(1, p)],
                tol,
            )
        )
        checks.append(
            _float_check(
                f"dft(A,2s-1) == 2*a0 [{tag}]",
                [
                    abs(dft(a, 2 * s - 1) - 2 * complex(a0))
                    for s in range(1, p + 1)
                ],
                tol,
            )
        )
        checks.append(
            IdentityCheck(
                f"dft_exact(A,p) == 2*a0 [{tag}]",
                dft_exact(a, p) == GaussInt(2 * a0.re, 2 * a0.im),
            )
        )
        checks.append(
            _float_check(
                f"psd(A,2s-1) == 4 [{tag}]",
                [abs(psd(a, 2 * s - 1) - 4) for s in range(1, p + 1)],
                tol,
            )
        )

    # one decompression of B_p
    if half is None:
        half = tuple(ONE for _ in range((p - 1) // 2))
    b = build_seed_b(p, half)
    checks.append(
        IdentityCheck(
            "b_{j+p} == -b_j and b_0 + b_p == 1+i",
            row_sum(b) == ONE_PLUS_I
            and all(b[j + p] == -b[j] for j in range(1, p)),
        )
    )
    checks.append(IdentityCheck("paf(B,0) == 2p", paf(b, 0) == GaussInt(2 * p, 0)))
    checks.append(
        IdentityCheck("paf(B,p) == -2p+2", paf(b, p) == GaussInt(-2 * p + 2, 0))
    )
    checks.append(
        _float_check(
            "dft(B,2s) == 1+i",
            [abs(dft(b, 2 * s) - complex(1, 1)) for s in range(1, p)],
            tol,
        )
    )
    checks.append(
        _float_check(
            "psd(B,2s) == 2", [abs(psd(b, 2 * s) - 2) for s in range(1, p)], tol
        )
    )

    # pair-level identities, only meaningful for a genuine pair
    a1 = decompress_seed_a(p, ONE)
    if is_legendre_pair(a1, b):
        checks.append(
            IdentityCheck(
                "paf(B,s) == 0 off multiples of p",
                all(paf(b, s) == GaussInt(0, 0) for s in range(1, 2 * p) if s != p),
            )
        )
        checks.append(
            _float_check(
                "psd(B,2s-1) == 4p-2",
                [
                    abs(psd(b, 2 * s - 1) - (4 * p - 2))
                    for s in range(1, (p + 1) // 2 + 1)
                ],
                tol,
            )
        )
        d = dft_exact(b, p)
        checks.append(
            IdentityCheck(
                "dft_exact(B,p) = a+ib, a^2+b^2 == 4p-2, a,b odd",
                d.norm() == 4 * p - 2 and d.re % 2 == 1 and d.im % 2 == 1,
                detail=format_gauss(d),
            )
        )
        checks.append(
            IdentityCheck("mod4_filter accepts the half-vector", mod4_filter(p, half))
        )
    else:
        checks.append(
            IdentityCheck(
                "pair-level identities skipped (built B is not a Legendre partner)",
                True,
                detail=format_qseq(b),
            )
        )
    return checks
