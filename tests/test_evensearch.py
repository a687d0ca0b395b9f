"""Direct even-length search: candidates, join, reductions, plans."""
import itertools

import numpy as np
import pytest
from conftest import join_with_a_non_pair, random_qseq

from qlegendre.evensearch import (
    InfeasibleLengthError,
    SearchPlan,
    enumerate_role_candidates,
    paf_join,
    search_even,
)
from qlegendre import evensearch
from qlegendre.gaussint import GaussInt, UNITS
from qlegendre.pairs import is_legendre_pair
from qlegendre.psdfilters import PsdPairTable, a3_seed_candidates, eligible_half_psd_pairs
from qlegendre.compression import compress
from qlegendre.corpus import corpus_seed_pair
from qlegendre.sequences import QSeq, format_qseq, paf, parse_qseq, psd, row_sum, unit_rows

I = GaussInt(0, 1)


def _alt_sum(seq):
    total = GaussInt(0, 0)
    for j, z in enumerate(seq.entries):
        total = total + z if j % 2 == 0 else total - z
    return total


def _quarter_sum(seq):
    total = GaussInt(0, 0)
    power = GaussInt(1, 0)
    for z in seq.entries:
        total = total + z * power
        power = power * I
    return total


def _texts(plan):
    return [(format_qseq(p.a), format_qseq(p.b)) for p in search_even(plan)]


def _conj_partner(t):
    a, b = parse_qseq(t[0]), parse_qseq(t[1])
    return (format_qseq(a.conj()), format_qseq(b.conj().scaled(I)))


def _rotations(text):
    seq = parse_qseq(text)
    return {format_qseq(seq.rotated(k)) for k in range(len(seq))}


def test_candidate_validation():
    with pytest.raises(ValueError):
        list(enumerate_role_candidates(5, "A", 2))
    with pytest.raises(ValueError):
        list(enumerate_role_candidates(4, "C", 2))
    with pytest.raises(ValueError):
        list(enumerate_role_candidates(6, "A", 2, quarter_norms=(2,)))


def test_candidate_constraints_and_determinism():
    table = eligible_half_psd_pairs(8).pairs
    x, y = table[0]
    for role, norm, target in (("A", x, GaussInt(0, 0)), ("B", y, GaussInt(1, 1))):
        quarters = tuple(sorted({v for pair in table for v in pair}))
        cands = list(enumerate_role_candidates(8, role, norm, quarters))
        assert cands, (role, norm)
        for seq in cands:
            assert all(abs(z.re) + abs(z.im) == 1 for z in seq.entries)
            assert row_sum(seq) == target
            assert _alt_sum(seq).norm() == norm
            assert _quarter_sum(seq).norm() in quarters
        again = list(enumerate_role_candidates(8, role, norm, quarters))
        assert cands == again


def _brute_candidates(l, role, half_norm, quarter_norms=None):
    target = GaussInt(0, 0) if role == "A" else GaussInt(1, 1)
    out = []
    for combo in itertools.product(UNITS, repeat=l):
        seq = QSeq(combo)
        if row_sum(seq) != target:
            continue
        if _alt_sum(seq).norm() != half_norm:
            continue
        if quarter_norms is not None and _quarter_sum(seq).norm() not in quarter_norms:
            continue
        out.append(seq)
    return out


def test_candidates_match_brute_force():
    for x, y in eligible_half_psd_pairs(2).pairs:
        assert list(enumerate_role_candidates(2, "A", x)) == _brute_candidates(2, "A", x)
        assert list(enumerate_role_candidates(2, "B", y)) == _brute_candidates(2, "B", y)
    table4 = eligible_half_psd_pairs(4).pairs
    quarters = tuple(sorted({v for pair in table4 for v in pair}))
    for x, y in table4:
        got_a = list(enumerate_role_candidates(4, "A", x, quarters))
        assert got_a == _brute_candidates(4, "A", x, quarters)
        got_b = list(enumerate_role_candidates(4, "B", y, quarters))
        assert got_b == _brute_candidates(4, "B", y, quarters)
    for x, y in eligible_half_psd_pairs(6).pairs:
        for role, norm in (("A", x), ("B", y)):
            brute = _brute_candidates(6, role, norm)
            assert list(enumerate_role_candidates(6, role, norm)) == brute
            got = list(enumerate_role_candidates(6, role, norm, rotation_minimal=True))
            assert got == [s for s in brute if _text_rotation_minimal(s)]


def test_rotation_minimal_candidates():
    full = list(enumerate_role_candidates(4, "A", 0))
    reduced = list(enumerate_role_candidates(4, "A", 0, rotation_minimal=True))
    expected = [
        s
        for s in full
        if all(format_qseq(s.rotated(k)) >= format_qseq(s) for k in range(1, 4))
    ]
    assert reduced == expected
    # the constraint set is rotation-invariant, so every member's minimal
    # rotation is again a member
    texts = {format_qseq(s) for s in full}
    for s in full:
        assert min(_rotations(format_qseq(s))) in texts


def test_paf_join_matches_double_loop(rng):
    a_list = [random_qseq(rng, 6) for _ in range(40)]
    b_list = [random_qseq(rng, 6) for _ in range(40)]

    expected = []
    for i, a in enumerate(a_list):
        for j, b in enumerate(b_list):
            if all(
                paf(a, s) + paf(b, s) == GaussInt(-2, 0) for s in range(1, 4)
            ):
                expected.append((i, j))
    assert paf_join(a_list, b_list) == expected
    assert paf_join(a_list, b_list, chunk=1) == expected
    assert paf_join(unit_rows(a_list), unit_rows(b_list)) == expected
    assert paf_join(unit_rows(a_list), unit_rows(b_list), chunk=7) == expected
    assert paf_join([], b_list) == []


def _text_rotation_minimal(seq):
    return all(format_qseq(seq.rotated(k)) >= format_qseq(seq) for k in range(1, len(seq)))


def test_rank_key_follows_text_order():
    for l in range(1, 7):
        exps = list(itertools.product(range(4), repeat=l))
        by_rank = sorted(exps, key=evensearch._rank)
        by_text = sorted(exps, key=lambda e: format_qseq(QSeq(UNITS[k] for k in e)))
        assert by_rank == by_text
        # the vectorised rotation-minimality mask compares the same keys
        want = [_text_rotation_minimal(QSeq(UNITS[k] for k in e)) for e in exps]
        rows = np.array(exps, dtype=np.int8)
        assert evensearch._rotation_minimal(rows).tolist() == want


def test_join_defect_is_caught_by_reverification(monkeypatch):
    monkeypatch.setattr(evensearch, "paf_join", join_with_a_non_pair(paf_join))
    with pytest.raises(AssertionError, match="non-pair"):
        list(search_even(SearchPlan(6)))


FULL_L2 = [
    ("[1,-1]", "[1,i]"),
    ("[1,-1]", "[i,1]"),
    ("[i,-i]", "[1,i]"),
    ("[i,-i]", "[i,1]"),
    ("[-1,1]", "[1,i]"),
    ("[-1,1]", "[i,1]"),
    ("[-i,i]", "[1,i]"),
    ("[-i,i]", "[i,1]"),
]


def test_search_complete_length_2():
    assert _texts(SearchPlan(2)) == FULL_L2


def _brute_pairs(l):
    out = []
    for a_combo in itertools.product(UNITS, repeat=l):
        a = QSeq(a_combo)
        if row_sum(a) != GaussInt(0, 0):
            continue
        for b_combo in itertools.product(UNITS, repeat=l):
            b = QSeq(b_combo)
            if row_sum(b) != GaussInt(1, 1):
                continue
            if is_legendre_pair(a, b):
                out.append((format_qseq(a), format_qseq(b)))
    return sorted(out)


def test_search_complete_length_4():
    got = _texts(SearchPlan(4))
    assert len(got) == 64
    assert sorted(got) == _brute_pairs(4)


def test_search_verifies_and_first_only():
    full = _texts(SearchPlan(4))
    first = _texts(SearchPlan(4, first_only=True))
    assert first == full[:1]
    for pair in search_even(SearchPlan(4)):
        assert pair.verified


def test_rotation_reduction_expands_back():
    for l in (2, 4):
        full = set(_texts(SearchPlan(l)))
        reduced = _texts(SearchPlan(l, reduce_rotation=True))
        expanded = {
            (ra, b) for a, b in reduced for ra in _rotations(a)
        }
        assert expanded == full
        assert len(reduced) < len(full)


def test_conjugation_reduction_expands_back():
    for l in (2, 4):
        full = set(_texts(SearchPlan(l)))
        reduced = _texts(SearchPlan(l, reduce_conjugation=True))
        expanded = set(reduced) | {_conj_partner(t) for t in reduced}
        assert expanded == full
        assert len(reduced) == len(full) // 2


def test_both_reductions_expand_back():
    for l in (2, 4):
        full = set(_texts(SearchPlan(l)))
        reduced = _texts(
            SearchPlan(l, reduce_rotation=True, reduce_conjugation=True)
        )
        rotated = {(ra, b) for a, b in reduced for ra in _rotations(a)}
        expanded = rotated | {_conj_partner(t) for t in rotated}
        assert expanded == full


def test_half_pair_restriction_partitions_output():
    table = eligible_half_psd_pairs(4).pairs
    assert len(table) > 1
    union = []
    for x, y in table:
        chunk = _texts(SearchPlan(4, half_pair=(x, y)))
        for ta, tb in chunk:
            assert psd(parse_qseq(ta), 2) == x
            assert psd(parse_qseq(tb), 2) == y
        union.extend(chunk)
    assert sorted(union) == sorted(_texts(SearchPlan(4)))


def test_requested_pair_validation():
    with pytest.raises(ValueError):
        list(search_even(SearchPlan(4, half_pair=(3, 7))))
    with pytest.raises(ValueError):
        list(search_even(SearchPlan(4, quarter_pair=(3, 7))))
    with pytest.raises(ValueError):
        list(search_even(SearchPlan(6, quarter_pair=(0, 14))))
    with pytest.raises(ValueError, match="workers"):
        list(search_even(SearchPlan(4, workers=0)))


def test_infeasible_length_signal(monkeypatch):
    monkeypatch.setattr(
        evensearch,
        "eligible_half_psd_pairs",
        lambda l: PsdPairTable(l, l // 2, ()),
    )
    with pytest.raises(InfeasibleLengthError):
        list(search_even(SearchPlan(8)))


def test_a3_seeded_search_matches_shape_restriction():
    full = _texts(SearchPlan(6))
    by_seed = {}
    for a, b in a3_seed_candidates(6):
        for t in _texts(SearchPlan(6, a3_seed=(a, b))):
            by_seed.setdefault((a, b), []).append(t)
            assert t in full
    seeded_union = sorted(t for chunk in by_seed.values() for t in chunk)
    expected = sorted(
        (ta, tb)
        for ta, tb in full
        if (lambda c: c.entries[0] == GaussInt(0, 0) and c.entries[2] == -c.entries[1])(
            compress(parse_qseq(ta), 3)
        )
    )
    assert seeded_union == expected
    assert seeded_union  # the shape is realized at length 6


def test_corpus_pair_is_rediscovered_at_length_6():
    pair = corpus_seed_pair(3)
    key = (format_qseq(pair.a), format_qseq(pair.b))
    full = _texts(SearchPlan(6))
    assert key in full
    # its threefold compression has the [0, z, -z] shape, so the seeded
    # search finds it too
    c = compress(pair.a, 3)
    seed = (c.entries[1].re, c.entries[1].im)
    assert key in _texts(SearchPlan(6, a3_seed=seed))


@pytest.mark.slow
def test_two_workers_match_serial():
    serial = _texts(SearchPlan(4))
    parallel = _texts(SearchPlan(4, workers=2))
    assert parallel == serial


@pytest.mark.slow
@pytest.mark.parametrize("l", [6, 8])
@pytest.mark.parametrize(
    "kw",
    [{}, {"reduce_rotation": True, "reduce_conjugation": True}, {"first_only": True}],
    ids=["complete", "reduced", "first_only"],
)
def test_two_workers_match_serial_at_6_and_8(l, kw):
    serial = _texts(SearchPlan(l, **kw))
    assert serial
    assert _texts(SearchPlan(l, workers=2, **kw)) == serial
