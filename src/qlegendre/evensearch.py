"""Direct search for even-length pairs in canonical balance form.

Pipeline: the eligibility table fixes the exact values the half-lag PSDs
can take; per-role candidate enumeration walks the 4^l entry tree
depth-first, pruning on three exact integer walks (row sum, alternating
sum, i-weighted quarter sum where 4 | l) through gaussint.walk_reachable.
A role's candidates form one (N, l) int8 array of exponent rows (entry
i^e stored as e); a hash join on their exact sequences.paf_rows
half-profiles pairs the roles, probing with -2 - paf(B, s).  Each table
entry's emitted pairs are re-verified from their rows in one
pairs.first_failing_lags call, and a QSeq is built only for output, once
per candidate.  No float enters this module.

A threefold seed (a3_seed) replaces the A walk by the decompressions of
seed_a3, pruned by the same walks and accepted on the exact row sum and
dft_exact values.  With workers > 1 each role's tree is split by its
leading symbol over a process pool; the workers' exponent arrays are
concatenated in symbol order, so the output equals the serial run.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .gaussint import GaussInt, UNITS, ZERO, gauss_sum, unit_index, walk_reachable
from .numtheory import two_square_reps
from .sequences import QSeq, dft_exact, paf_rows, row_sum, unit_rows
from .pairs import LegendrePair, first_failing_lags
from .psdfilters import eligible_half_psd_pairs, seed_a3
from .compression import decompress


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


def enumerate_role_candidates(*args, **kwargs) -> Iterator[QSeq]:
    """The sequences of _role_exponents, as QSeqs."""
    return map(_qseq, _role_exponents(*args, **kwargs))


def _qseq(exps: Iterable[int]) -> QSeq:
    return QSeq(UNITS[e] for e in exps)


def _role_exponents(
    l: int,
    role: str,
    half_norm: int,
    quarter_norms: Optional[Sequence[int]] = None,
    *,
    prefix: tuple[int, ...] = (),
    rotation_minimal: bool = False,
) -> Iterator[tuple[int, ...]]:
    """All length-l exponent tuples for one role, DFS order over the
    canonical symbol order.

    Constraints: row sum 0 for role A and 1+i for role B; alternating sum
    of norm half_norm; when quarter_norms is given (4 | l), the i-weighted
    sum must land on one of those norms.  prefix pins leading symbol
    indices (the work-partitioning hook).
    """
    if l < 2 or l % 2 != 0:
        raise ValueError(f"even length required, got {l}")
    if role not in _ROW_TARGET:
        raise ValueError(f"role must be 'A' or 'B', got {role!r}")
    row_targets = (_ROW_TARGET[role],)
    alt_targets = tuple(two_square_reps(half_norm))
    if not alt_targets:
        return iter(())
    quarter_targets: Optional[tuple[tuple[int, int], ...]] = None
    quarter_set: Optional[frozenset[int]] = None
    if quarter_norms is not None:
        if l % 4 != 0:
            raise ValueError("quarter constraints need 4 | l")
        quarter_set = frozenset(quarter_norms)
        quarter_targets = tuple(
            itertools.chain.from_iterable(two_square_reps(q) for q in quarter_set)
        )
        if not quarter_targets:
            return iter(())

    # i^j factors per position, as (re move, im move) multipliers
    unit_xy = ((1, 0), (0, 1), (-1, 0), (0, -1))
    chosen: list[int] = []

    def quarter_step(j: int, idx: int) -> tuple[int, int]:
        # contribution of symbol idx at position j to sum_j a_j i^j
        k = (idx + j) % 4  # i^j * i^idx = i^(j+idx)
        return unit_xy[k]

    def walk(
        j: int, rx: int, ry: int, ax: int, ay: int, qx: int, qy: int
    ) -> Iterator[tuple[int, ...]]:
        if j == l:
            if (rx, ry) != row_targets[0]:
                return
            if ax * ax + ay * ay != half_norm:
                return
            if quarter_set is not None and (qx * qx + qy * qy) not in quarter_set:
                return
            if rotation_minimal and not _is_rotation_minimal(chosen):
                return
            yield tuple(chosen)
            return
        rem = l - j - 1
        alt_sign = 1 if j % 2 == 0 else -1
        fixed = prefix[j] if j < len(prefix) else None
        for idx in range(4):
            if fixed is not None and idx != fixed:
                continue
            mx, my = unit_xy[idx]
            rx2, ry2 = rx + mx, ry + my
            ax2, ay2 = ax + alt_sign * mx, ay + alt_sign * my
            if not walk_reachable(rx2, ry2, rem, row_targets):
                continue
            if not walk_reachable(ax2, ay2, rem, alt_targets):
                continue
            qmx, qmy = quarter_step(j, idx)
            qx2, qy2 = qx + qmx, qy + qmy
            if quarter_targets is not None and not walk_reachable(
                qx2, qy2, rem, quarter_targets
            ):
                continue
            chosen.append(idx)
            yield from walk(j + 1, rx2, ry2, ax2, ay2, qx2, qy2)
            chosen.pop()

    return walk(0, 0, 0, 0, 0, 0, 0)


def _rank(exps: Iterable[int]) -> tuple[int, ...]:
    # format_qseq orders tokens -1 < -i < 1 < i, so exponents 0, 1, 2, 3
    # rank 2, 3, 0, 1; comparing rank tuples compares the texts
    return tuple((e + 2) & 3 for e in exps)


def _is_rotation_minimal(exps: Sequence[int]) -> bool:
    key = _rank(exps)
    return all(key[k:] + key[:k] >= key for k in range(1, len(key)))


def _a3_candidates(
    l: int,
    seed: tuple[int, int],
    half_norm: int,
    quarter_norms: Optional[Sequence[int]],
    rotation_minimal: bool,
) -> Iterator[QSeq]:
    """A-role candidates drawn from decompressions of an l/3 seed."""
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
        if quarter_set is not None and dft_exact(seq, l // 4).norm() not in quarter_set:
            return False
        return not rotation_minimal or _is_rotation_minimal(list(map(unit_index, seq)))

    return decompress(comp, predicate=accept, prune=prune)


def _enumerate_task(l: int, *args, **kwargs) -> np.ndarray:
    # the role walk as one exponent array: a picklable worker task
    exps = itertools.chain.from_iterable(_role_exponents(l, *args, **kwargs))
    return np.fromiter(exps, dtype=np.int8).reshape(-1, l)


def _collect_candidates(
    plan: SearchPlan,
    role: str,
    half_norm: int,
    quarter_norms: Optional[tuple[int, ...]],
) -> np.ndarray:
    rotation_minimal = plan.reduce_rotation and role == "A"
    if role == "A" and plan.a3_seed is not None:
        return unit_rows(list(_a3_candidates(
            plan.length, plan.a3_seed, half_norm, quarter_norms, rotation_minimal
        )))
    task = functools.partial(
        _enumerate_task,
        plan.length,
        role,
        half_norm,
        quarter_norms,
        rotation_minimal=rotation_minimal,
    )
    if plan.workers == 1:
        return task()
    # one task per leading symbol, concatenated in symbol order
    with ProcessPoolExecutor(max_workers=plan.workers) as pool:
        futures = [pool.submit(task, prefix=(idx,)) for idx in range(4)]
        return np.concatenate([fut.result() for fut in futures])


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
