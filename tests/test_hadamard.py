"""Bordered-circulant Hadamard construction and both exact checkers."""
import numpy as np
import pytest

from qlegendre.corpus import corpus_even_pair, corpus_seed_pair
from qlegendre.gaussint import GaussInt
from qlegendre.hadamard import (
    binary_from_quaternary,
    is_binary_hadamard,
    is_quaternary_hadamard,
    quaternary_hadamard_from_pair,
)
from qlegendre.matrices import GaussMatrix
from qlegendre.sequences import parse_qseq

I = GaussInt(0, 1)
ONE = GaussInt(1, 0)

ODD_PAIR = (parse_qseq("[1,1,-1]"), parse_qseq("[1,1,-1]"))
PALEY_7 = parse_qseq("[1,1,1,-1,1,-1,-1]")


def test_even_length_block_layout():
    a = parse_qseq("[1,-1]")
    b = parse_qseq("[1,i]")
    h = quaternary_hadamard_from_pair(a, b)
    assert h.n == 6
    # border: corner -1, even-length twist i / -i, unit fills
    assert h.entry(0, 0) == -ONE
    assert h.entry(0, 1) == I
    assert h.entry(1, 0) == -I
    assert all(h.entry(0, c) == ONE for c in range(2, 6))
    assert all(h.entry(1, c) == ONE for c in range(2, 4))
    assert all(h.entry(1, c) == -ONE for c in range(4, 6))
    assert all(h.entry(r, 0) == ONE for r in range(2, 6))
    assert all(h.entry(r, 1) == ONE for r in range(2, 4))
    assert all(h.entry(r, 1) == -ONE for r in range(4, 6))
    # circulant core: first circulant row is A itself, second block is B
    assert [h.entry(2, 2), h.entry(2, 3)] == list(a.entries)
    assert [h.entry(2, 4), h.entry(2, 5)] == list(b.entries)
    # bottom blocks: transposed conjugate circulants
    assert [h.entry(4, 2), h.entry(4, 3)] == [z.conj() for z in b.entries][:2]
    assert h.entry(4, 4) == -a.entries[0].conj()
    assert is_quaternary_hadamard(h)


def test_odd_length_corner():
    h = quaternary_hadamard_from_pair(*ODD_PAIR)
    assert h.n == 8
    assert h.entry(0, 0) == -ONE
    assert h.entry(0, 1) == -ONE
    assert h.entry(1, 0) == -ONE
    assert is_quaternary_hadamard(h)
    assert not np.any(h.im)  # a {-1,1} pair gives a real matrix


def test_paley_pair_gives_order_16():
    h = quaternary_hadamard_from_pair(PALEY_7, PALEY_7)
    assert h.n == 16
    assert is_quaternary_hadamard(h)
    k = binary_from_quaternary(h)
    assert k.n == 32
    assert is_binary_hadamard(k)


def test_scrambled_input_is_normalized_first():
    a = parse_qseq("[1,-1]")
    b = parse_qseq("[1,i]")
    h = quaternary_hadamard_from_pair(a.scaled(I).rotated(1), b.rotated(1))
    assert h.n == 6
    assert is_quaternary_hadamard(h)


def test_non_pair_is_rejected():
    with pytest.raises(ValueError):
        quaternary_hadamard_from_pair(parse_qseq("[1,1]"), parse_qseq("[1,1]"))


def test_corpus_samples_build_and_double():
    for pair in (corpus_seed_pair(3), corpus_even_pair(20)):
        l = len(pair.a)
        h = quaternary_hadamard_from_pair(pair.a, pair.b)
        assert h.n == 2 * l + 2
        assert is_quaternary_hadamard(h)
        k = binary_from_quaternary(h)
        assert k.n == 4 * l + 4
        assert is_binary_hadamard(k)
        assert np.array_equal(k.re[: h.n, : h.n], h.re + h.im)
        assert np.array_equal(k.re[: h.n, h.n :], h.re - h.im)


def test_gram_checks_reject_one_changed_entry_at_order_332():
    pair = corpus_seed_pair(41)
    h = quaternary_hadamard_from_pair(pair.a, pair.b)
    k = binary_from_quaternary(h)
    assert (h.n, k.n) == (166, 332)
    for r, c in ((0, 0), (165, 17), (83, 165)):
        re, im = h.re.copy(), h.im.copy()
        re[r, c], im[r, c] = -h.im[r, c], h.re[r, c]  # times i: still a unit
        assert not is_quaternary_hadamard(GaussMatrix(re, im))
    for r, c in ((0, 0), (331, 200), (100, 331)):
        re = k.re.copy()
        re[r, c] = -re[r, c]
        assert not is_binary_hadamard(GaussMatrix(re, k.im))


def test_quaternary_checker_rejects():
    n = 4
    ident = GaussMatrix(np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64))
    assert not is_quaternary_hadamard(ident)  # zero entries are not units
    ones = GaussMatrix(np.ones((n, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64))
    assert not is_quaternary_hadamard(ones)  # units, but the Gram is n J


def test_binary_checker_rejects():
    n = 4
    ones = GaussMatrix(np.ones((n, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64))
    assert not is_binary_hadamard(ones)
    im_unit = GaussMatrix(np.zeros((n, n), dtype=np.int64), np.ones((n, n), dtype=np.int64))
    assert not is_binary_hadamard(im_unit)


def test_doubling_garbage_raises():
    n = 4
    ones = GaussMatrix(np.ones((n, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64))
    with pytest.raises(AssertionError):
        binary_from_quaternary(ones)
