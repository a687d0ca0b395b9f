"""The oracle must reject corrupted answers, independently of qlegendre."""
import numpy as np
import pytest

import oracle


def _flip(text: str, j: int) -> str:
    ent = text[1:-1].split(",")
    ent[j] = "-1" if ent[j] == "1" else "1"
    return "[" + ",".join(ent) + "]"


def _sylvester(n: int) -> np.ndarray:
    h = np.array([[1]], dtype=np.int64)
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h


def test_corpus_pairs_pass_and_corrupted_pair_fails():
    corpus = oracle.load_corpus()
    assert len(corpus) == 16
    pairs = [(d["A"], d["B"]) for d in corpus]
    assert all(oracle.pair_flags(pairs))
    bad = [(_flip(a, len(a) // 8), b) for a, b in pairs if a.count(",") >= 7]
    assert not any(oracle.pair_flags(bad))


def test_even_search_check_rejects_a_corrupted_output():
    pair = oracle.EVEN_FIRST_L10
    assert oracle.check_even_search("red", 10, [pair]).startswith("red l=10: 1 pairs")
    good = [pair] * 1680
    assert "duplicate" in oracle.check_even_search("red", 10, good)
    with pytest.raises(KeyError):
        oracle.check_even_search("all", 12, [pair])
    assert oracle.check_first_l10(pair) is None
    assert oracle.check_first_l10((_flip(pair[0], 3), pair[1])) is not None


def test_seed_search_check_rejects_a_corrupted_vector():
    b = oracle.expand_half(19, oracle.SEED_FIRST_P19)
    assert oracle.check_seed_search(19, True, [b]) is None
    # keep the searched shape but break the pair: flip b_1 and its mirror b_18
    half = oracle.SEED_FIRST_P19[1:-1].split(",")
    half[0] = "i"
    wrong = oracle.expand_half(19, "[" + ",".join(half) + "]")
    assert oracle.seed_b_ok(19, wrong)
    assert "not a Legendre pair" in oracle.check_seed_search(19, True, [wrong])


def test_binary_gram_check_rejects_a_corrupted_matrix():
    h = _sylvester(8)
    assert oracle.binary_gram_ok(h)
    h[3, 5] *= -1
    assert not oracle.binary_gram_ok(h)
    h[3, 5] = 0
    assert not oracle.binary_gram_ok(h)


def test_quaternary_gram_check_rejects_a_corrupted_matrix():
    re = np.array([[1, 0], [0, 1]])
    im = np.array([[0, 1], [1, 0]])  # [[1, i], [i, 1]]
    assert oracle.quaternary_gram_ok(re, im)
    big_re, big_im = np.kron(_sylvester(4), re), np.kron(_sylvester(4), im)
    assert oracle.quaternary_gram_ok(big_re, big_im)
    big_im[2, 3], big_re[2, 3] = big_re[2, 3], big_im[2, 3]  # i <-> 1 at one entry
    assert not oracle.quaternary_gram_ok(big_re, big_im)


def test_matrix_text_round_trip_and_corruption():
    text = "1 i\ni 1\n"
    assert oracle.quaternary_gram_ok(*oracle.parse_matrix_text(text))
    assert not oracle.quaternary_gram_ok(*oracle.parse_matrix_text("1 i\n-i 1\n"))


def test_gauss_tokens():
    assert [oracle.parse_gauss(t) for t in ("0", "-2", "2i", "-2i", "i", "-i", "1-2i")] == [
        (0, 0), (-2, 0), (0, 2), (0, -2), (0, 1), (0, -1), (1, -2)]


def test_decompress_check_rejects_a_wrong_member():
    # the 9,216 members of [0,2,-2] at ratio 4, built independently here
    import itertools

    def splits(c):
        return [s for s in itertools.product(("1", "i", "-1", "-i"), repeat=4)
                if tuple(map(sum, zip(*(oracle.parse_gauss(u) for u in s)))) == c]

    target = [(0, 0), (2, 0), (-2, 0)]
    members = []
    for choice in itertools.product(*(splits(c) for c in target)):
        ent = [choice[j][n] for n in range(4) for j in range(3)]
        members.append("[" + ",".join(ent) + "]")
    assert oracle.check_decompress(members, "[0,2,-2]") is None
    tokens = members[5][1:-1].split(",")
    tokens[0] = "i" if tokens[0] != "i" else "1"
    members[5] = "[" + ",".join(tokens) + "]"
    assert "does not compress" in oracle.check_decompress(members, "[0,2,-2]")
