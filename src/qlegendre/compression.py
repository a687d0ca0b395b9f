"""Compression of periodic sequences and exhaustive decompression.

The l/k-compression of a length-l sequence (k | l, m = l/k) collects each
residue class mod k:

    c_j = sum_{n=0}^{m-1} a_{k*n + j},   j = 0..k-1.

Each c_j is a sum of m units, so it lies in the alphabet
{a+bi : |a|+|b| <= m, a+b = m mod 2}, which has (m+1)^2 members.
Decompression enumerates, entry by entry, every ordered m-tuple of units
with the required sum; the DFS exposes a pruning hook on partial
assignments, so callers can cut whole subtrees.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

from .gaussint import GaussInt, UNITS, format_gauss, gauss_sum, walk_reachable
from .sequences import QSeq, format_qseq, parse_gauss_seq

_ORIGIN = ((0, 0),)


class CompressedSeq:
    """Immutable compressed sequence: entries plus the ratio m = l/k."""

    __slots__ = ("_entries", "_ratio")

    def __init__(self, entries, ratio: int) -> None:
        tup = tuple(entries)
        if not tup:
            raise ValueError("CompressedSeq needs at least one entry")
        if ratio < 1:
            raise ValueError(f"compression ratio must be >= 1, got {ratio}")
        for z in tup:
            if not isinstance(z, GaussInt):
                raise ValueError(f"entry must be a GaussInt, got {z!r}")
            if not entry_in_alphabet(z, ratio):
                raise ValueError(
                    f"entry {format_gauss(z)} is not a sum of {ratio} units"
                )
        object.__setattr__(self, "_entries", tup)
        object.__setattr__(self, "_ratio", ratio)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CompressedSeq is immutable")

    @property
    def entries(self) -> tuple[GaussInt, ...]:
        return self._entries

    @property
    def ratio(self) -> int:
        return self._ratio

    @property
    def original_length(self) -> int:
        return len(self._entries) * self._ratio

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, j: int) -> GaussInt:
        return self._entries[j % len(self._entries)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompressedSeq):
            return NotImplemented
        return self._entries == other._entries and self._ratio == other._ratio

    def __hash__(self) -> int:
        return hash((self._entries, self._ratio))

    def __repr__(self) -> str:
        return f"CompressedSeq({format_compressed(self)}, ratio={self._ratio})"


def entry_in_alphabet(z: GaussInt, m: int) -> bool:
    return walk_reachable(z.re, z.im, m, _ORIGIN)


def compressed_alphabet(m: int) -> tuple[GaussInt, ...]:
    """All sums of m units, in (re, im) lexicographic order; (m+1)^2 values."""
    if m < 1:
        raise ValueError(f"ratio must be >= 1, got {m}")
    return tuple(
        GaussInt(a, b)
        for a in range(-m, m + 1)
        for b in range(-m, m + 1)
        if walk_reachable(a, b, m, _ORIGIN)
    )


def compress(a: QSeq | Sequence[GaussInt], k: int) -> CompressedSeq:
    """l/k-compression; k must divide the length."""
    ent = a.entries if isinstance(a, QSeq) else tuple(a)
    l = len(ent)
    if k < 1 or l % k != 0:
        raise ValueError(f"k must divide the length: k={k}, l={l}")
    return CompressedSeq([gauss_sum(ent[j::k]) for j in range(k)], l // k)


def interleave(splits: Sequence[Sequence[GaussInt]]) -> QSeq:
    """The sequence whose residue class j mod k is splits[j], k = len(splits):
    the inverse of the ent[j::k] layout of compress.  decompress and the
    CLI's `decompress --sample` both build their members with it."""
    return QSeq(u for group in zip(*splits) for u in group)


@lru_cache(maxsize=None)
def _splittings(re: int, im: int, m: int) -> tuple[tuple[GaussInt, ...], ...]:
    # prune: the remaining m units cover at most Manhattan distance m,
    # stepping parity by one each time (m = 0 leaves only the origin)
    if not walk_reachable(re, im, m, _ORIGIN):
        return ()
    if m == 0:
        return ((),)
    return tuple(
        (u,) + tail for u in UNITS for tail in _splittings(re - u.re, im - u.im, m - 1)
    )


def entry_splittings(c: GaussInt, m: int) -> tuple[tuple[GaussInt, ...], ...]:
    """All ordered m-tuples of units summing to c, in canonical symbol
    order (first coordinate varies slowest)."""
    if not entry_in_alphabet(c, m):
        raise ValueError(f"{format_gauss(c)} is outside the ratio-{m} alphabet")
    return _splittings(c.re, c.im, m)


PrefixHook = Callable[[tuple[tuple[GaussInt, ...], ...]], bool]


def decompress(
    c: CompressedSeq,
    predicate: Optional[Callable[[QSeq], bool]] = None,
    prune: Optional[PrefixHook] = None,
) -> Iterator[QSeq]:
    """Every QSeq whose compression equals c, in DFS order.

    predicate filters finished sequences; prune sees the tuple of
    entry-splittings fixed so far (entries 0..t) and returning False
    abandons that whole subtree.  The stream supports early termination
    simply by not being consumed further.
    """
    k = len(c)
    m = c.ratio
    choice_lists = [entry_splittings(z, m) for z in c.entries]
    chosen: list[tuple[GaussInt, ...]] = []

    def walk(j: int) -> Iterator[QSeq]:
        if j == k:
            seq = interleave(chosen)
            if predicate is None or predicate(seq):
                yield seq
            return
        for split in choice_lists[j]:
            chosen.append(split)
            if prune is None or prune(tuple(chosen)):
                yield from walk(j + 1)
            chosen.pop()

    return walk(0)


def decompression_count(c: CompressedSeq) -> int:
    """Size of the unpruned decompression space."""
    total = 1
    for z in c.entries:
        total *= len(entry_splittings(z, c.ratio))
    return total


def parse_compressed(text: str, ratio: int) -> CompressedSeq:
    """Parse '[c0,c1,...]' of Gaussian-integer tokens at a given ratio."""
    return CompressedSeq(parse_gauss_seq(text), ratio)


def format_compressed(c: CompressedSeq) -> str:
    return format_qseq(c.entries)
