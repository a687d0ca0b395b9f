"""Property tests: text round trips, normal-form idempotence and the
invariance of the deduplication key."""
from hypothesis import given, settings
from hypothesis import strategies as st

from qlegendre.corpus import all_corpus_pairs
from qlegendre.gaussint import UNITS, GaussInt, format_gauss, parse_gauss
from qlegendre.pairs import canonical_key, is_legendre_pair, normalize
from qlegendre.sequences import QSeq, format_qseq, parse_qseq

PAIRS = [pair for _, pair in all_corpus_pairs()]

bounded = settings(max_examples=60, deadline=None)
units = st.sampled_from(UNITS)
gauss = st.builds(GaussInt, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


@bounded
@given(st.lists(units, min_size=1, max_size=40))
def test_qseq_text_round_trip(entries):
    seq = QSeq(entries)
    text = format_qseq(seq)
    assert parse_qseq(text) == seq
    assert format_qseq(parse_qseq(text)) == text


@bounded
@given(gauss)
def test_gauss_text_round_trip(z):
    text = format_gauss(z)
    assert parse_gauss(text) == z
    assert format_gauss(parse_gauss(text)) == text


@st.composite
def scrambled_pairs(draw, pool):
    """A corpus pair moved by pair-preserving moves: unit scalings,
    independent rotations, swap and simultaneous conjugation."""
    pair = draw(st.sampled_from(pool))
    l = pair.length
    a = pair.a.scaled(draw(units)).rotated(draw(st.integers(0, l - 1)))
    b = pair.b.scaled(draw(units)).rotated(draw(st.integers(0, l - 1)))
    if draw(st.booleans()):
        a, b = b, a
    if draw(st.booleans()):
        a, b = a.conj(), b.conj()
    return a, b


@bounded
@given(scrambled_pairs(PAIRS))
def test_normalize_is_idempotent_on_corpus_pairs(ab):
    na, nb = normalize(*ab)
    assert is_legendre_pair(na, nb)
    assert normalize(na, nb) == (na, nb)


def quadratic_key(a, b):
    """canonical_key's definition: the least text pair over swaps,
    simultaneous conjugation and every pair of rotations."""
    return min(
        (format_qseq(x.rotated(r)), format_qseq(y.rotated(t)))
        for x, y in ((a, b), (b, a), (a.conj(), b.conj()), (b.conj(), a.conj()))
        for r in range(len(x))
        for t in range(len(y))
    )


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(PAIRS),
    st.integers(0, 81),
    st.integers(0, 81),
    st.booleans(),
    st.booleans(),
)
def test_canonical_key_is_invariant(pair, ra, rb, swap, conj):
    a, b = pair.a.rotated(ra), pair.b.rotated(rb)
    if swap:
        a, b = b, a
    if conj:
        a, b = a.conj(), b.conj()
    key = canonical_key(pair.a, pair.b)
    assert canonical_key(a, b) == key
    if pair.length <= 16:
        assert quadratic_key(a, b) == key
