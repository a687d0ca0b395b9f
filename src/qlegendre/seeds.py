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
satisfy a^2 + b^2 = 4p-2 with a = 1 and -b = 1 mod 4 (mod4_filter).

This module hosts the walk-and-prune engine of both searches
(walk_blocks, search_tree); the even search's role walks run on it too.
The seed tree (_SearchTables) walks the half-vector positions.  Its
block broadcast computes the same float sums as a walk one node at a
time, so the set of pruned nodes is unchanged.  The two sound bounds are:

  * the exact lag-p walk must stay within Manhattan range of a valid
    (a, b) target with matching parity (gaussint.walk_reachable);
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

from .gaussint import GaussInt, ONE, I, UNITS, format_gauss, walk_reachable
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
    """The seed search's tree: per-prime constant data and the block steps."""

    def __init__(self, p: int, tol: float, first_only: bool) -> None:
        h = (p - 1) // 2
        self.p = p
        self.depth = h
        self.tol = tol
        self.first_only = first_only
        self.a_ref = decompress_seed_a(p, ONE)
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
        rem = self.depth - j
        z2 = (z[:, None, :] + _UNIT_COMPLEX[None, :, None] * self.weights[:, t]).reshape(
            -1, z.shape[1]
        )
        ax2 = (ax[:, None] + sign * _UNIT_X).ravel()
        ay2 = (ay[:, None] + sign * _UNIT_Y).ravel()
        path2 = (path[:, None] + (np.arange(4) << (2 * rem))).ravel()
        keep = walk_reachable(ax2, ay2, rem, self.targets)
        band = self.remaining[:, j] + self.margin
        keep &= (np.abs(np.abs(z2) - self.radius) <= band).all(axis=1)
        return z2[keep], ax2[keep], ay2[keep], path2[keep]

    def leaves(self, block: tuple[np.ndarray, ...]) -> list[tuple[int, ...]]:
        """The float survivors of a leaf block that an exact pair test
        confirms, as symbol-index tuples in path order."""
        z, ax, ay, path = block
        ok = np.abs(np.abs(z) ** 2 - self.psd_target).max(axis=1) <= self.tol
        ok &= walk_reachable(ax, ay, 0, self.targets)
        found = []
        for pid in path[ok].tolist():
            idxs = _decode_path(pid, self.depth)
            if is_legendre_pair(self.a_ref, build_seed_b(self.p, [UNITS[i] for i in idxs])):
                found.append(idxs)
                if self.first_only:
                    break
        return found


def _decode_path(pid: int, h: int) -> tuple[int, ...]:
    return tuple((pid >> (2 * (h - 1 - j))) & 3 for j in range(h))


# --- the walk-and-prune engine ----------------------------------------------


def _push(stack: list, block: tuple[np.ndarray, ...], t: int) -> None:
    """Stack a depth-t block in chunks, its lowest paths on top."""
    for lo in reversed(range(0, len(block[0]), _CHUNK)):
        stack.append((tuple(a[lo : lo + _CHUNK] for a in block), t))


def walk_blocks(tree, block: tuple[np.ndarray, ...], depth: int) -> list:
    """The tree's leaf results below a block of depth-`depth` rows, one
    entry per leaf block, in path order.

    The tree gives `depth` (the leaf depth), `children(block, t)` (the
    pruned children of a depth-t block, rows in path order),
    `leaves(block)` and `first_only` (stop after the first non-empty leaf
    result).  Popping a block expands all its rows at once; as the lowest
    paths are popped first, leaves are reached in path order.
    """
    found: list = []
    stack: list = []
    _push(stack, block, depth)
    while stack:
        block, t = stack.pop()
        if t < tree.depth:
            _push(stack, tree.children(block, t), t + 1)
            continue
        found.append(tree.leaves(block))
        if tree.first_only and len(found[-1]):
            break
    return found


def search_tree(tree, workers: int) -> list:
    """walk_blocks over the whole tree.  With workers > 1 the tree is
    expanded breadth-first to depth min(depth, 3); that pruned frontier is
    cut into one contiguous slice per worker process and the slices'
    results are merged in slice order, so the output equals the serial
    walk's (with first_only, each slice's first hit is kept)."""
    depth = 0 if workers == 1 else min(tree.depth, 3)
    frontier = tree.root()
    for t in range(depth):
        frontier = tree.children(frontier, t)
    if workers == 1:
        return walk_blocks(tree, frontier, depth)
    n = len(frontier[0])
    cuts = [n * k // workers for k in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(walk_blocks, tree, tuple(a[lo:hi] for a in frontier), depth)
            for lo, hi in zip(cuts, cuts[1:])
            if lo < hi
        ]
        return [part for fut in futures for part in fut.result()]


def seed_search(
    p: int,
    *,
    first_only: bool = False,
    tol: float = 1e-6,
    workers: int = 1,
) -> list[HalfVector]:
    """All half-vectors whose expansion forms a Legendre pair with the
    decompressed A, in lexicographic symbol order (1 < i < -1 < -i).

    first_only stops at the lexicographically first confirmed vector.
    tol is the float screening tolerance; the confirmed output does not
    depend on it.  workers splits the tree as search_tree does.
    """
    require_odd_prime(p)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not seed_feasible(p):
        return []
    parts = search_tree(_SearchTables(p, tol, first_only), workers)
    found = [idxs for part in parts for idxs in part]
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
