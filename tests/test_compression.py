"""Compression alphabet, splittings enumeration, and the DFS decompressor."""
import random

import pytest

from conftest import random_qseq
from qlegendre.compression import (
    CompressedSeq,
    compress,
    compressed_alphabet,
    decompress,
    decompression_count,
    entry_in_alphabet,
    entry_splittings,
    format_compressed,
    interleave,
    parse_compressed,
)
from qlegendre.gaussint import GaussInt, ONE, gauss_sum
from qlegendre.sequences import QSeq, dft, psd


def test_alphabet_size_and_membership():
    for m in range(1, 7):
        alpha = compressed_alphabet(m)
        assert len(alpha) == (m + 1) ** 2
        assert len(set(alpha)) == len(alpha)
        for z in alpha:
            assert entry_in_alphabet(z, m)
        # parity excluded values
        assert not entry_in_alphabet(GaussInt(m, 1), m)
        assert not entry_in_alphabet(GaussInt(m + 1, 0), m)


def test_interleave_inverts_residue_classes(rng):
    for _ in range(100):
        k = rng.choice((1, 2, 3, 4, 6))
        a = random_qseq(rng, k * rng.randint(1, 4))
        ent = a.entries
        assert interleave([ent[j::k] for j in range(k)]) == a


def test_compress_shape_and_sums(rng):
    for _ in range(200):
        k = rng.choice((1, 2, 3, 4, 6))
        m = rng.randint(1, 4)
        a = random_qseq(rng, k * m)
        c = compress(a, k)
        assert len(c) == k and c.ratio == m and c.original_length == k * m
        for j in range(k):
            assert c.entries[j] == gauss_sum(a[k * n + j] for n in range(m))
    with pytest.raises(ValueError):
        compress(random_qseq(rng, 6), 4)


def test_entry_splittings_exact():
    # 0 at ratio 2: the four cancelling unit pairs
    z = GaussInt(0, 0)
    assert len(entry_splittings(z, 2)) == 4
    for split in entry_splittings(z, 2):
        assert gauss_sum(split) == z
    assert entry_splittings(GaussInt(2, 0), 2) == ((ONE, ONE),)
    assert len(entry_splittings(GaussInt(1, 1), 2)) == 2
    with pytest.raises(ValueError):
        entry_splittings(GaussInt(2, 1), 2)


def test_splittings_sum_property(rng):
    for _ in range(300):
        m = rng.randint(1, 5)
        alpha = compressed_alphabet(m)
        z = rng.choice(alpha)
        splits = entry_splittings(z, m)
        assert len(splits) == len(set(splits))
        for split in splits:
            assert len(split) == m
            assert gauss_sum(split) == z


def test_decompress_round_trip(rng):
    # every decompression member re-compresses to the source, and the
    # original sequence is always among the members
    for _ in range(250):
        k = rng.choice((2, 3, 4, 5))
        m = rng.choice((1, 2))
        a = random_qseq(rng, k * m)
        c = compress(a, k)
        members = list(decompress(c))
        assert len(members) == decompression_count(c)
        assert a in members
        for seq in members:
            assert compress(seq, k) == c


def test_decompress_count_known():
    # seed-shaped compressions: [2,0,0] ratio 2 has 1*4*4 members
    c = CompressedSeq([GaussInt(2, 0), GaussInt(0, 0), GaussInt(0, 0)], ratio=2)
    assert decompression_count(c) == 16
    assert len(list(decompress(c))) == 16
    b = CompressedSeq([GaussInt(1, 1)] + [GaussInt(0, 0)] * 2, ratio=2)
    assert decompression_count(b) == 32


def test_decompress_hooks(rng):
    a = random_qseq(rng, 8)
    c = compress(a, 4)
    assert list(decompress(c, prune=lambda chosen: False)) == []
    full = list(decompress(c))
    assert list(decompress(c, prune=lambda chosen: True)) == full
    only_a = list(decompress(c, predicate=lambda s: s == a))
    assert only_a == [a]
    # prune sees prefixes of entry splittings in order
    seen = []
    list(decompress(c, prune=lambda chosen: seen.append(len(chosen)) or True))
    assert set(seen) <= {1, 2, 3, 4}


def test_dft_transfer(rng):
    # dft of the compression at lag s equals dft of the original at s*k
    for _ in range(200):
        k = rng.choice((2, 3, 4))
        m = rng.choice((2, 3))
        a = random_qseq(rng, k * m)
        c = compress(a, k)
        for s in range(1, k):
            assert abs(dft(c, s) - dft(a, s * m)) < 1e-9


def test_psd_transfer(rng):
    for _ in range(200):
        k = rng.choice((2, 4, 6))
        m = 2
        a = random_qseq(rng, k * m)
        c = compress(a, k)
        for s in range(1, k):
            assert abs(psd(c, s) - psd(a, s * m)) < 1e-6


def test_parse_format_round_trip(rng):
    for _ in range(100):
        m = rng.randint(1, 4)
        alpha = compressed_alphabet(m)
        c = CompressedSeq([rng.choice(alpha) for _ in range(5)], ratio=m)
        assert parse_compressed(format_compressed(c), m) == c


def test_alphabet_rejection():
    with pytest.raises(ValueError):
        CompressedSeq([GaussInt(3, 0)], ratio=2)
    with pytest.raises(ValueError):
        CompressedSeq([], ratio=2)
