"""Sequence layer: PAF, DFT, PSD and the exact special lags."""
import cmath
import pickle
import random

import numpy as np
import pytest

from conftest import random_qseq
from qlegendre.corpus import all_corpus_pairs
from qlegendre.gaussint import GaussInt, I, MINUS_ONE, ONE, UNITS
from qlegendre.sequences import (
    QSeq,
    dft,
    dft_exact,
    exact_lags,
    format_qseq,
    paf,
    paf_rows,
    parse_qseq,
    psd,
    psd_profile,
    row_sum,
    unit_rows,
)


def test_qseq_validation():
    with pytest.raises(ValueError):
        QSeq([])
    with pytest.raises(ValueError):
        QSeq([ONE, GaussInt(2, 0)])
    with pytest.raises(ValueError):
        QSeq([ONE, GaussInt(0, 0)])


def test_qseq_pickle_round_trip(rng):
    for l in (1, 2, 7, 12):
        a = random_qseq(rng, l)
        back = pickle.loads(pickle.dumps(a))
        assert back == a and type(back) is QSeq
        assert all(type(z) is GaussInt for z in back)


def test_qseq_periodic_indexing_and_moves():
    a = parse_qseq("[1,i,-1,-i]")
    assert a[0] == ONE and a[4] == ONE and a[-1] == -I
    assert a.rotated(1).entries == (I, MINUS_ONE, -I, ONE)
    assert a.rotated(4) == a
    assert a.conj().entries == (ONE, -I, MINUS_ONE, I)
    assert (-a).entries == (MINUS_ONE, -I, ONE, I)
    assert a.scaled(I).entries == (I, MINUS_ONE, -I, ONE)


def test_parse_format_round_trip(rng):
    for _ in range(300):
        a = random_qseq(rng, rng.randint(1, 30))
        assert parse_qseq(format_qseq(a)) == a
    with pytest.raises(ValueError):
        parse_qseq("[1,2]")
    with pytest.raises(ValueError):
        parse_qseq("1,i")


def _paf_direct(a: QSeq, s: int) -> complex:
    l = len(a)
    return sum(complex(a[j]) * complex(a[j + s]).conjugate() for j in range(l))


def test_paf_matches_direct_sum(rng):
    for _ in range(300):
        a = random_qseq(rng, rng.randint(2, 16))
        for s in range(len(a)):
            got = paf(a, s)
            assert complex(got) == _paf_direct(a, s)


def _assert_paf_rows_match(seqs):
    rows = unit_rows(seqs)
    assert rows.dtype == np.int8 and unit_rows(rows) is rows
    got = paf_rows(rows)
    l = len(seqs[0])
    assert got.dtype == np.int64 and got.shape == (len(seqs), l // 2, 2)
    for k, seq in enumerate(seqs):
        assert [tuple(v) for v in got[k].tolist()] == [
            (paf(seq, s).re, paf(seq, s).im) for s in range(1, l // 2 + 1)
        ]


def test_paf_rows_match_paf(rng):
    for l in range(2, 42):
        _assert_paf_rows_match([random_qseq(rng, l) for _ in range(6)])
    for _, pair in all_corpus_pairs():
        _assert_paf_rows_match([pair.a, pair.b])


def test_unit_rows_rejects_non_units():
    with pytest.raises(ValueError):
        unit_rows([[ONE, GaussInt(1, 1)]])


def test_paf_zero_lag_is_length(rng):
    for _ in range(100):
        a = random_qseq(rng, rng.randint(1, 40))
        assert paf(a, 0) == GaussInt(len(a), 0)


def test_paf_conjugate_symmetry(rng):
    # paf(A, l-s) is the conjugate of paf(A, s)
    for _ in range(1000):
        a = random_qseq(rng, rng.randint(2, 24))
        s = rng.randrange(1, len(a))
        assert paf(a, len(a) - s) == paf(a, s).conj()


def test_paf_rotation_invariant(rng):
    for _ in range(300):
        a = random_qseq(rng, rng.randint(2, 20))
        k = rng.randrange(len(a))
        s = rng.randrange(len(a))
        assert paf(a.rotated(k), s) == paf(a, s)


def test_dft_matches_direct(rng):
    for _ in range(200):
        a = random_qseq(rng, rng.randint(2, 18))
        l = len(a)
        for s in range(l):
            direct = sum(
                complex(a[j]) * cmath.exp(2j * cmath.pi * j * s / l) for j in range(l)
            )
            assert abs(dft(a, s) - direct) < 1e-9


def test_exact_lags():
    assert exact_lags(12) == (3, 6)
    assert exact_lags(10) == (5,)
    assert exact_lags(7) == ()
    assert exact_lags(4) == (1, 2)


def test_dft_exact_agrees_with_float(rng):
    for _ in range(400):
        l = rng.choice((4, 8, 12, 16, 20, 6, 10, 14))
        a = random_qseq(rng, l)
        for s in exact_lags(l):
            z = dft_exact(a, s)
            assert abs(complex(z) - dft(a, s)) < 1e-9
    with pytest.raises(ValueError):
        dft_exact(random_qseq(rng, 12), 5)
    with pytest.raises(ValueError):
        dft_exact(random_qseq(rng, 7), 1)


def test_psd_exact_at_special_lags(rng):
    for _ in range(200):
        l = rng.choice((4, 8, 12, 20))
        a = random_qseq(rng, l)
        for s in exact_lags(l):
            v = psd(a, s)
            assert isinstance(v, int)
            assert abs(v - abs(dft(a, s)) ** 2) < 1e-6
        plain = next(s for s in range(1, l) if s not in exact_lags(l))
        assert isinstance(psd(a, plain), float)


def test_parseval(rng):
    # sum over all lags 0..l-1 of |DFT|^2 equals l^2 for unit sequences
    for _ in range(200):
        a = random_qseq(rng, rng.randint(2, 20))
        l = len(a)
        total = abs(complex(row_sum(a))) ** 2 + sum(psd(a, s) for s in range(1, l))
        assert abs(total - l * l) < 1e-6


def test_psd_profile(rng):
    a = random_qseq(rng, 12)
    prof = psd_profile(a)
    assert prof.length == 12
    assert len(prof.values) == 11
    for s in (3, 6):
        assert prof.exact[s - 1]
        assert prof.value(s) == psd(a, s)
