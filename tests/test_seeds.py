"""Seed construction for lengths 2p and the restricted half-vector search."""
import pytest

from qlegendre.compression import compress, decompress, decompression_count
from qlegendre.corpus import seed_half_vector
from qlegendre.gaussint import GaussInt, I, MINUS_I, MINUS_ONE, ONE, UNITS
from qlegendre.numtheory import legendre_symbol
from qlegendre.pairs import is_legendre_pair
from qlegendre.seeds import (
    build_seed_b,
    decompress_seed_a,
    mod4_filter,
    seed_feasible,
    seed_identity_report,
    seed_pair,
    seed_search,
)
from qlegendre.sequences import paf, row_sum


def test_seed_pair_shape():
    sp = seed_pair(7)
    assert sp.p == 7
    assert sp.a.entries[0] == GaussInt(0, 0)
    for j in range(1, 7):
        assert sp.a.entries[j] == GaussInt(2 * legendre_symbol(j, 7), 0)
    assert sp.b.entries[0] == GaussInt(1, 1)
    assert all(z == GaussInt(0, 0) for z in sp.b.entries[1:])
    assert sp.a.ratio == sp.b.ratio == 2
    with pytest.raises(ValueError):
        seed_pair(9)


def test_decompress_seed_a_family():
    # the four decompressions of A_p are exactly the unit choices of a0
    for p in (3, 5, 7, 13):
        sp = seed_pair(p)
        members = set(decompress(sp.a))
        assert len(members) == decompression_count(sp.a) == 4
        assert members == {decompress_seed_a(p, u) for u in UNITS}
        a = decompress_seed_a(p)
        assert a[p] == -a[0]
        for j in range(1, p):
            assert a[j] == a[j + p] == GaussInt(legendre_symbol(j, p), 0)
        assert compress(a, p) == sp.a
    with pytest.raises(ValueError):
        decompress_seed_a(7, GaussInt(2, 0))


def test_seed_b_space_size():
    sp = seed_pair(3)
    assert decompression_count(sp.b) == 2 * 4 ** (3 - 1)  # 32


def test_build_seed_b_structure():
    half = seed_half_vector(13).symbols
    b = build_seed_b(13, half)
    assert b[0] == ONE and b[13] == I
    for j in range(1, 13):
        assert b[j + 13] == -b[j]
    for j in range(1, 7):
        assert b[13 - j] == -b[j]
    assert row_sum(b) == GaussInt(1, 1)
    assert compress(b, 13) == seed_pair(13).b
    with pytest.raises(ValueError):
        build_seed_b(13, half[:-1])
    with pytest.raises(ValueError):
        build_seed_b(13, (GaussInt(2, 0),) * 6)


def test_restricted_b_structural_identities():
    # independent of the half-vector: PAF(B, p) = -2p+2 and the
    # 2-compression collapses to [1+i, 0, ..., 0]
    for p, half in ((5, (ONE, I)), (5, (MINUS_ONE, MINUS_I)), (7, (I, I, I))):
        b = build_seed_b(p, half)
        assert paf(b, p) == GaussInt(-2 * p + 2, 0)
        assert compress(b, p) == seed_pair(p).b


def test_pair_level_paf_vanishes_for_corpus_halves():
    for p in (3, 5, 7, 13):
        b = seed_half_vector(p).expand()
        for s in range(1, 2 * p):
            if s % p != 0:
                assert paf(b, s) == GaussInt(0, 0), (p, s)


def test_mod4_filter():
    assert mod4_filter(3, (ONE,))
    assert mod4_filter(3, (MINUS_I,))
    assert not mod4_filter(3, (MINUS_ONE,))
    for p in (5, 7, 13, 19):
        assert mod4_filter(p, seed_half_vector(p).symbols)


def test_feasibility_split():
    for p in (3, 5, 7, 13, 19, 23, 31, 37, 41, 43):
        assert seed_feasible(p)
    for p in (11, 17, 29, 47):
        assert not seed_feasible(p)


def test_seed_search_p3_exact():
    found = seed_search(3)
    assert sorted(h.text() for h in found) == ["[-i]", "[1]"]
    for h in found:
        a = decompress_seed_a(3)
        assert is_legendre_pair(a, h.expand())


def test_seed_search_rediscovers_corpus():
    for p in (5, 7, 13):
        found = seed_search(p)
        texts = {h.text() for h in found}
        assert seed_half_vector(p).text() in texts
        for h in found:
            assert is_legendre_pair(decompress_seed_a(p), h.expand())
            assert mod4_filter(p, h.symbols)


def test_seed_search_first_only():
    found = seed_search(7, first_only=True)
    assert len(found) == 1
    assert is_legendre_pair(decompress_seed_a(7), found[0].expand())


def test_seed_search_infeasible_returns_empty():
    assert seed_search(11) == []
    assert seed_search(17) == []


def _texts(found):
    return [h.text() for h in found]


def test_seed_search_tolerance_independent():
    # the float band only screens; exact confirmation fixes the output
    for p in (7, 19, 23):
        assert _texts(seed_search(p, tol=1e-9)) == _texts(seed_search(p, tol=1e-4)), p


def test_seed_search_lexicographic_order():
    found = seed_search(19)
    keys = [tuple(UNITS.index(z) for z in h.symbols) for h in found]
    assert len(found) == 18
    assert keys == sorted(keys)
    assert _texts(seed_search(19, first_only=True)) == _texts(found)[:1]


@pytest.mark.parametrize("p", [13, 19, 23])
def test_seed_search_workers_match_serial(p):
    assert _texts(seed_search(p, workers=2)) == _texts(seed_search(p))


def test_seed_search_workers_first_only_match_serial():
    for p in (7, 13, 19):
        serial = _texts(seed_search(p, first_only=True))
        assert len(serial) == 1
        assert _texts(seed_search(p, first_only=True, workers=2)) == serial


def test_seed_search_p23_exhaustively_empty():
    # 4p-2 = 90 = 9^2 + 3^2 is a sum of two squares, yet no half-vector works
    assert seed_feasible(23)
    assert seed_search(23) == []


def test_seed_search_p31_count():
    found = _texts(seed_search(31))
    assert len(found) == 30
    assert seed_half_vector(31).text() in found


def test_seed_search_rejects_bad_p():
    with pytest.raises(ValueError):
        seed_search(4)
    with pytest.raises(ValueError):
        seed_search(9)


def test_identity_report_all_pass():
    for p in (3, 5, 7, 11, 13):
        rep = seed_identity_report(p)
        assert rep, p
        for check in rep:
            assert check.passed, (p, check.name, check.detail)


def test_identity_report_with_corpus_half():
    # the corpus half completes a pair, so the pair-level block is present
    rep = seed_identity_report(13, seed_half_vector(13).symbols)
    names = [c.name for c in rep]
    assert any(n.startswith("psd(B,2s-1)") for n in names)
    assert any(n.startswith("dft_exact(B,p)") for n in names)
    for check in rep:
        assert check.passed, (check.name, check.detail)
