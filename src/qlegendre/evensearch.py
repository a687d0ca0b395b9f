"""Direct search for even-length pairs in canonical balance form.

Pipeline: the eligibility table fixes the exact values the half-lag PSDs
can take; per-role candidate enumeration walks the 4^l entry tree
depth-first on the seed search's block engine (seeds.search_tree), a
block of rows at a time, pruning on three exact integer walks (row sum,
alternating sum, i-weighted quarter sum where 4 | l) through
gaussint.walk_reachable.  Walk w adds i^(e + shift_w * j) for entry i^e
at position j, with shift 0, 2 and 1 for the three walks.  A role's
candidates form one (N, l) int8 array of exponent rows (entry i^e stored
as e); a hash join on their exact sequences.paf_rows half-profiles pairs
the roles, probing with -2 - paf(B, s).  Each table entry's emitted pairs
are re-verified from their rows in one pairs.first_failing_lags call,
and a QSeq is built only for output, once per candidate.  No float
enters this module.

A threefold seed (a3_seed) replaces the A walk by the decompressions of
seed_a3, pruned by the same walks and accepted on the exact row sum and
dft_exact values.  With workers > 1 each role's tree is split as the
seed search's is: expanded breadth-first to depth 3, that frontier cut
into one contiguous slice per worker process, and the slices' rows
concatenated in order, so the output equals the serial run.

Symmetry reductions are explicit plan flags, default off, so that
exhaustiveness claims stay honest: rotation keeps only rotation-minimal
A members (any rotation of A preserves the pair property), conjugation
keeps one of {(A, B), (conj A, i conj B)} — the i rescaling restores
B's canonical row sum 1+i after conjugation.  Both compare exponent rank
keys (_rank), which order like format_qseq texts.  With reductions off
the output is the complete set of canonical-form pairs in deterministic
order.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .gaussint import GaussInt, UNITS, ZERO, gauss_sum, walk_reachable
from .numtheory import two_square_reps
from .sequences import QSeq, dft_exact, paf_rows, row_sum, unit_rows
from .pairs import LegendrePair, first_failing_lags
from .psdfilters import eligible_half_psd_pairs, seed_a3
from .compression import decompress
from .seeds import search_tree


class InfeasibleLengthError(ValueError):
    """No eligible half-lag PSD pair exists: a pair is provably absent."""


@dataclass(frozen=True)
class SearchPlan:
    """A fully-determined search: two runs with equal plans and worker
    counts emit identical ordered output."""

    length: int
    half_pair: Optional[tuple[int, int]] = None  # None: run the whole table
    quarter_pair: Optional[tuple[int, int]] = None
    reduce_rotation: bool = False
    reduce_conjugation: bool = False
    first_only: bool = False
    workers: int = 1
    a3_seed: Optional[tuple[int, int]] = None


_ROW_TARGET = {"A": (0, 0), "B": (1, 1)}
_UNIT_XY = np.array([(z.re, z.im) for z in UNITS])


def enumerate_role_candidates(
    l: int,
    role: str,
    half_norm: int,
    quarter_norms: Optional[Sequence[int]] = None,
    *,
    rotation_minimal: bool = False,
) -> Iterator[QSeq]:
    """All length-l unit sequences for one role, in DFS order over the
    canonical symbol order.

    Constraints: row sum 0 for role A and 1+i for role B; alternating sum
    of norm half_norm; when quarter_norms is given (4 | l), the i-weighted
    sum must land on one of those norms.
    """
    tree = _RoleTree(l, role, half_norm, quarter_norms, rotation_minimal)
    return map(_qseq, _role_rows(tree, 1).tolist())


def _qseq(exps: Iterable[int]) -> QSeq:
    return QSeq(UNITS[e] for e in exps)


class _RoleTree:
    """One role's walk tree for seeds.walk_blocks.  A block is (walk
    positions (N, W, 2) int64, exponent prefixes (N, t) int8).

    Walk w adds i^(e + shift_w * j) for exponent e at position j: shift 0
    is the row sum, 2 the alternating sum and 1 the quarter sum.  A child
    is kept while every walk can still reach one of its exact targets, so
    a leaf has hit them all and needs no re-check.
    """

    first_only = False

    def __init__(
        self,
        l: int,
        role: str,
        half_norm: int,
        quarter_norms: Optional[Sequence[int]],
        rotation_minimal: bool,
    ) -> None:
        if l < 2 or l % 2 != 0:
            raise ValueError(f"even length required, got {l}")
        if role not in _ROW_TARGET:
            raise ValueError(f"role must be 'A' or 'B', got {role!r}")
        self.depth = l
        self.rotation_minimal = rotation_minimal
        self.targets = [(_ROW_TARGET[role],), tuple(two_square_reps(half_norm))]
        shifts = [0, 2]
        if quarter_norms is not None:
            if l % 4 != 0:
                raise ValueError("quarter constraints need 4 | l")
            self.targets.append(tuple(
                itertools.chain.from_iterable(two_square_reps(q) for q in set(quarter_norms))
            ))
            shifts.append(1)
        # moves[j, e, w]: the step of walk w for exponent e at position j
        k = np.arange(4)[:, None] + np.outer(np.arange(l), shifts)[:, None, :]
        self.moves = _UNIT_XY[k % 4]

    def root(self) -> tuple[np.ndarray, np.ndarray]:
        walks = len(self.targets)
        return np.zeros((1, walks, 2), dtype=np.int64), np.zeros((1, 0), dtype=np.int8)

    def children(self, block, t: int) -> tuple[np.ndarray, np.ndarray]:
        pos, rows = block
        pos2 = (pos[:, None] + self.moves[t]).reshape(-1, *pos.shape[1:])
        keep = np.ones(len(pos2), dtype=bool)
        for w, targets in enumerate(self.targets):
            keep &= walk_reachable(pos2[:, w, 0], pos2[:, w, 1], self.depth - t - 1, targets)
        kept = np.flatnonzero(keep)
        return pos2[kept], np.column_stack((rows[kept >> 2], (kept & 3).astype(np.int8)))

    def leaves(self, block) -> np.ndarray:
        rows = block[1]
        return rows[_rotation_minimal(rows)] if self.rotation_minimal else rows


def _role_rows(tree: _RoleTree, workers: int) -> np.ndarray:
    """A role tree's leaves as one (N, l) int8 array, in path order."""
    empty = np.zeros((0, tree.depth), dtype=np.int8)
    return np.concatenate([empty, *search_tree(tree, workers)])


def _rank(exps: Iterable[int]) -> tuple[int, ...]:
    # format_qseq orders tokens -1 < -i < 1 < i, so exponents 0, 1, 2, 3
    # rank 2, 3, 0, 1; comparing rank tuples compares the texts
    return tuple((e + 2) & 3 for e in exps)


_RANKS = np.array(_rank(range(4)), dtype=np.int8)


def _rotation_minimal(rows: np.ndarray) -> np.ndarray:
    """Per exponent row: whether no rotation has a smaller rank key."""
    key = _RANKS[rows]
    ok = np.ones(len(key), dtype=bool)
    for k in range(1, key.shape[1]):
        diff = np.roll(key, -k, axis=1) - key
        first = diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)]
        ok &= first >= 0
    return ok


def _a3_candidates(
    l: int,
    seed: tuple[int, int],
    half_norm: int,
    quarter_norms: Optional[Sequence[int]],
    rotation_minimal: bool,
) -> np.ndarray:
    """A-role candidate rows drawn from decompressions of an l/3 seed."""
    a, b = seed
    comp = seed_a3(l, a, b)
    m = comp.ratio
    alt_targets = tuple(two_square_reps(half_norm))

    def prune(partial: tuple[tuple[GaussInt, ...], ...]) -> bool:
        # entry j holds positions j, j+3, ..., j+3(m-1); position j+3n
        # has the alternating sign (-1)^(j+n)
        row = gauss_sum(u for split in partial for u in split)
        alt = gauss_sum(
            u if (j + n) % 2 == 0 else -u
            for j, split in enumerate(partial)
            for n, u in enumerate(split)
        )
        rem = m * (3 - len(partial))
        return walk_reachable(row.re, row.im, rem, ((0, 0),)) and walk_reachable(
            alt.re, alt.im, rem, alt_targets
        )

    quarter_set = frozenset(quarter_norms) if quarter_norms is not None else None

    def accept(seq: QSeq) -> bool:
        if row_sum(seq) != ZERO or dft_exact(seq, l // 2).norm() != half_norm:
            return False
        return quarter_set is None or dft_exact(seq, l // 4).norm() in quarter_set

    rows = unit_rows(list(decompress(comp, predicate=accept, prune=prune))).reshape(-1, l)
    return rows[_rotation_minimal(rows)] if rotation_minimal else rows


def _collect_candidates(
    plan: SearchPlan,
    role: str,
    half_norm: int,
    quarter_norms: Optional[tuple[int, ...]],
) -> np.ndarray:
    rotation_minimal = plan.reduce_rotation and role == "A"
    if role == "A" and plan.a3_seed is not None:
        return _a3_candidates(
            plan.length, plan.a3_seed, half_norm, quarter_norms, rotation_minimal
        )
    tree = _RoleTree(plan.length, role, half_norm, quarter_norms, rotation_minimal)
    return _role_rows(tree, plan.workers)


def paf_join(
    a_cands: Sequence, b_cands: Sequence, chunk: int = 1 << 20
) -> list[tuple[int, int]]:
    """Index pairs (i, j) with paf(A_i, s) + paf(B_j, s) = -2 on every
    lag 1..l/2 — output order identical to the quadratic double loop.

    Candidates are exponent rows or QSeq lists.  The B side is hashed in
    chunks of at most `chunk` entries, bounding the table size regardless
    of candidate counts.
    """
    a_rows, b_rows = unit_rows(a_cands), unit_rows(b_cands)
    if len(a_rows) == 0 or len(b_rows) == 0:
        return []
    a_keys = [key.tobytes() for key in paf_rows(a_rows)]
    probes = np.array([-2, 0]) - paf_rows(b_rows)
    matches: list[tuple[int, int]] = []
    for lo in range(0, len(b_rows), chunk):
        table: dict[bytes, list[int]] = {}
        for j, probe in enumerate(probes[lo:lo + chunk], start=lo):
            table.setdefault(probe.tobytes(), []).append(j)
        for i, key in enumerate(a_keys):
            hit = table.get(key)
            if hit:
                matches.extend((i, j) for j in hit)
    matches.sort()
    return matches


def _conjugate_not_smaller(plan: SearchPlan, a_row, b_row) -> bool:
    # the canonical-space conjugation partner: conjugating both roles
    # flips B's row sum to 1-i, so B is rescaled by i to restore 1+i;
    # conjugation negates exponents and scaling by i adds 1
    a, b = a_row.tolist(), b_row.tolist()
    ca, cb = _rank(-e for e in a), _rank(1 - e for e in b)
    if plan.reduce_rotation:
        ca = min(ca[k:] + ca[:k] for k in range(len(ca)))
    return (_rank(a), _rank(b)) <= (ca, cb)


def search_even(plan: SearchPlan) -> Iterator[LegendrePair]:
    """Stream the canonical-form pairs the plan describes.

    Raises InfeasibleLengthError when the eligibility table already rules
    every pair out, which is distinct from an exhausted search.
    """
    l = plan.length
    if plan.workers < 1:
        raise ValueError(f"workers must be >= 1, got {plan.workers}")
    table = eligible_half_psd_pairs(l).pairs
    if not table:
        raise InfeasibleLengthError(f"no eligible half-lag PSD pair at length {l}")

    def eligible(pair: tuple[int, int], what: str) -> tuple[int, int]:
        if pair not in table:
            raise ValueError(
                f"requested {what} pair {pair} is not eligible at length {l}; "
                f"table: {list(table)}"
            )
        return pair

    targets = table if plan.half_pair is None else (eligible(plan.half_pair, "half-lag"),)
    quarter_a: Optional[tuple[int, ...]] = None
    quarter_b: Optional[tuple[int, ...]] = None
    if l % 4 == 0:
        if plan.quarter_pair is not None:
            qa, qb = eligible(plan.quarter_pair, "quarter-lag")
            quarter_a, quarter_b = (qa,), (qb,)
        else:
            quarter_a = tuple(sorted({x for x, _ in table}))
            quarter_b = tuple(sorted({y for _, y in table}))
    elif plan.quarter_pair is not None:
        raise ValueError(f"quarter-lag constraint needs 4 | l, got l={l}")

    for x, y in targets:
        a_rows = _collect_candidates(plan, "A", x, quarter_a)
        if len(a_rows) == 0:
            continue
        b_rows = _collect_candidates(plan, "B", y, quarter_b)
        matches = paf_join(a_rows, b_rows)
        if plan.reduce_conjugation:
            keep = functools.partial(_conjugate_not_smaller, plan)
            matches = [(i, j) for i, j in matches if keep(a_rows[i], b_rows[j])]
        if plan.first_only:
            matches = matches[:1]
        if not matches:
            continue
        ii, jj = np.array(matches).T
        failing = first_failing_lags(a_rows[ii], b_rows[jj]).tolist()
        # one QSeq and row sum per candidate, shared by all its pairs
        a_out = {i: _output(a_rows[i]) for i in set(ii.tolist())}
        b_out = {j: _output(b_rows[j]) for j in set(jj.tolist())}
        for (i, j), lag in zip(matches, failing):
            if lag:
                raise AssertionError("paf_join emitted a non-pair")
            (a, alpha), (b, beta) = a_out[i], b_out[j]
            yield LegendrePair(a, b, alpha, beta, verified=not lag)
            if plan.first_only:
                return


def _output(row: np.ndarray) -> tuple[QSeq, GaussInt]:
    seq = _qseq(row.tolist())
    return seq, row_sum(seq)
