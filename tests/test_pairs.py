"""Pair verification, balance, canonical normalization, serialization."""
import json
import random

import pytest

from conftest import random_qseq
from qlegendre.corpus import EVEN_LENGTHS, SEED_PRIMES, all_corpus_pairs, corpus_even_pair
from qlegendre.gaussint import GaussInt, I, ONE, UNITS
from qlegendre.pairs import (
    LegendrePair,
    balance_check,
    canonical_key,
    first_failing_lag,
    first_failing_lags,
    is_legendre_pair,
    lag_sums,
    normalize,
    pair_from_json,
    pair_to_json,
)
from qlegendre.sequences import QSeq, parse_qseq, paf, row_sum, unit_rows


def test_tiny_known_pair():
    a, b = parse_qseq("[1,-1]"), parse_qseq("[1,i]")
    assert is_legendre_pair(a, b)
    assert paf(a, 1) == GaussInt(-2, 0)
    assert paf(b, 1) == GaussInt(0, 0)
    assert not is_legendre_pair(a, parse_qseq("[1,1]"))


def test_length_mismatch_and_short():
    with pytest.raises(ValueError):
        is_legendre_pair(parse_qseq("[1,-1]"), parse_qseq("[1,i,-1]"))
    with pytest.raises(ValueError):
        is_legendre_pair(parse_qseq("[1]"), parse_qseq("[1]"))


def test_first_failing_lag_matches_per_lag_sums(rng):
    for _ in range(300):
        l = rng.randint(2, 12)
        a, b = random_qseq(rng, l), random_qseq(rng, l)
        sums = [paf(a, s) + paf(b, s) for s in range(1, l // 2 + 1)]
        assert list(lag_sums(a, b)) == sums
        bad = [s for s, t in enumerate(sums, start=1) if t != GaussInt(-2, 0)]
        want = bad[0] if bad else None
        assert first_failing_lag(a, b) == want
        assert first_failing_lag(a, b, sums) == want
        assert is_legendre_pair(a, b) == (want is None)
    for _, pair in all_corpus_pairs():
        assert first_failing_lag(pair.a, pair.b) is None
    with pytest.raises(ValueError, match="length mismatch"):
        lag_sums(parse_qseq("[1,-1]"), parse_qseq("[1,i,-1]"))


def _one_changed(rng, seq):
    j = rng.randrange(len(seq))
    ent = list(seq.entries)
    ent[j] = rng.choice([u for u in UNITS if u != ent[j]])
    return QSeq(ent)


def test_batch_test_matches_single_pair_test(rng):
    for l in (2, 3, 8, 13):
        a_list = [random_qseq(rng, l) for _ in range(50)]
        b_list = [random_qseq(rng, l) for _ in range(50)]
        want = [first_failing_lag(a, b) or 0 for a, b in zip(a_list, b_list)]
        assert first_failing_lags(unit_rows(a_list), unit_rows(b_list)).tolist() == want
        assert first_failing_lags(a_list, b_list).tolist() == want
    a_list, b_list = [], []
    for _, pair in all_corpus_pairs():
        a_list += [pair.a, _one_changed(rng, pair.a), pair.a]
        b_list += [pair.b, pair.b, _one_changed(rng, pair.b)]
    for l in sorted({len(a) for a in a_list}):
        idx = [k for k, a in enumerate(a_list) if len(a) == l]
        got = first_failing_lags([a_list[k] for k in idx], [b_list[k] for k in idx])
        want = [first_failing_lag(a_list[k], b_list[k]) or 0 for k in idx]
        assert got.tolist() == want
        assert want[0::3] == [0] * (len(idx) // 3)
        if l > 2:  # at l = 2 a changed member can still form a pair
            assert all(want[1::3]) and all(want[2::3])
    with pytest.raises(ValueError, match="length mismatch"):
        first_failing_lags([parse_qseq("[1,-1]")], [parse_qseq("[1,i,-1]")])
    with pytest.raises(ValueError, match="row count mismatch"):
        first_failing_lags([parse_qseq("[1,-1]")], [parse_qseq("[1,i]")] * 2)


def test_random_pairs_rarely_legendre(rng):
    # sanity: the verifier is not trivially true
    hits = 0
    for _ in range(500):
        l = rng.choice((4, 6, 8))
        if is_legendre_pair(random_qseq(rng, l), random_qseq(rng, l)):
            hits += 1
    assert hits < 20


def test_balance_on_corpus():
    for name, pair in all_corpus_pairs():
        alpha, beta = balance_check(pair.a, pair.b)
        assert alpha.norm() + beta.norm() == 2
        l = len(pair.a)
        if l % 2 == 0:
            assert (alpha.norm(), beta.norm()) in ((0, 2), (2, 0))
        else:
            assert alpha.norm() == beta.norm() == 1


ODD_PAIR = (parse_qseq("[1,1,-1]"), parse_qseq("[1,1,-1]"))


def _scramble(rng, a, b):
    # pair-preserving moves: unit scalings, rotations, swap, conjugation
    a = a.scaled(rng.choice(UNITS)).rotated(rng.randrange(len(a)))
    b = b.scaled(rng.choice(UNITS)).rotated(rng.randrange(len(b)))
    if rng.random() < 0.5:
        a, b = b, a
    if rng.random() < 0.5:
        a, b = a.conj(), b.conj()
    return a, b


def test_normalize_even(rng):
    pool = [corpus_even_pair(l) for l in EVEN_LENGTHS if l <= 16]
    for _ in range(400):
        base = rng.choice(pool)
        a, b = _scramble(rng, base.a, base.b)
        assert is_legendre_pair(a, b)
        na, nb = normalize(a, b)
        assert is_legendre_pair(na, nb)
        assert row_sum(na) == GaussInt(0, 0)
        assert row_sum(nb) == GaussInt(1, 1)
        assert normalize(na, nb) == (na, nb)  # idempotent


def test_normalize_odd(rng):
    a0, b0 = ODD_PAIR
    assert is_legendre_pair(a0, b0)
    for _ in range(400):
        a, b = _scramble(rng, a0, b0)
        na, nb = normalize(a, b)
        assert is_legendre_pair(na, nb)
        assert row_sum(na) == ONE
        assert row_sum(nb) == ONE
        assert normalize(na, nb) == (na, nb)


def test_normalize_rejects_non_pair():
    with pytest.raises(ValueError):
        normalize(parse_qseq("[1,-1]"), parse_qseq("[1,1]"))


def test_legendre_pair_check():
    a, b = parse_qseq("[1,-1]"), parse_qseq("[1,i]")
    pair = LegendrePair.check(a, b)
    assert pair.verified and pair.length == 2
    assert pair.alpha == GaussInt(0, 0) and pair.beta == GaussInt(1, 1)


def test_canonical_key_invariance(rng):
    base = corpus_even_pair(8)
    key = canonical_key(base.a, base.b)
    for _ in range(100):
        a, b = base.a, base.b
        a = a.rotated(rng.randrange(len(a)))
        b = b.rotated(rng.randrange(len(b)))
        if rng.random() < 0.5:
            a, b = b, a
        if rng.random() < 0.5:
            a, b = a.conj(), b.conj()
        assert canonical_key(a, b) == key


def test_pair_json_round_trip():
    for name, pair in all_corpus_pairs():
        back = pair_from_json(pair_to_json(pair))
        assert back.a == pair.a and back.b == pair.b
        assert back.alpha == pair.alpha and back.beta == pair.beta


def test_pair_json_tamper_detection():
    pair = corpus_even_pair(4)
    doc = json.loads(pair_to_json(pair))
    doc["alpha"] = "1"
    with pytest.raises(ValueError):
        pair_from_json(json.dumps(doc))
