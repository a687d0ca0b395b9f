import json
import random

import numpy as np
import pytest

from qlegendre.gaussint import GaussInt, I, ONE, format_gauss
from qlegendre.matrices import (
    GaussMatrix,
    circulant_from_entries,
    format_matrix_text,
    matrix_from_json,
    matrix_to_json,
    parse_matrix_text,
)
from qlegendre.sequences import parse_qseq


def _rand_matrix(rng: random.Random, n: int, hi: int = 9) -> GaussMatrix:
    rows = [
        [GaussInt(rng.randint(-hi, hi), rng.randint(-hi, hi)) for _ in range(n)]
        for _ in range(n)
    ]
    return GaussMatrix.from_rows(rows)


def test_shape_validation():
    with pytest.raises(ValueError):
        GaussMatrix(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        GaussMatrix.from_rows([[ONE, I], [ONE]])


def test_immutability():
    m = GaussMatrix.identity(3)
    with pytest.raises(AttributeError):
        m.re = None
    with pytest.raises(ValueError):
        m.re[0, 0] = 5  # numpy write lock


def test_matmul_matches_complex(rng):
    for _ in range(60):
        n = rng.randint(1, 6)
        a = _rand_matrix(rng, n)
        b = _rand_matrix(rng, n)
        got = a @ b
        for r in range(n):
            for c in range(n):
                want = sum(
                    complex(a.entry(r, k)) * complex(b.entry(k, c)) for k in range(n)
                )
                assert complex(got.entry(r, c)) == want


def _zero_parts(m: GaussMatrix, re: bool, im: bool) -> GaussMatrix:
    return GaussMatrix(
        np.zeros_like(m.re) if re else m.re, np.zeros_like(m.im) if im else m.im
    )


def test_matmul_zero_parts_match_complex(rng):
    # every all-zero pattern of either factor: products skip those parts
    patterns = [(False, False), (True, False), (False, True), (True, True)]
    for pa in patterns:
        for pb in patterns:
            n = rng.randint(1, 6)
            a = _zero_parts(_rand_matrix(rng, n), *pa)
            b = _zero_parts(_rand_matrix(rng, n), *pb)
            got = a @ b
            for r in range(n):
                for c in range(n):
                    want = sum(
                        complex(a.entry(r, k)) * complex(b.entry(k, c)) for k in range(n)
                    )
                    assert complex(got.entry(r, c)) == want


def test_identity_and_scalar():
    m = GaussMatrix.identity(4)
    assert m.is_scalar_identity(ONE)
    s = m.scaled(GaussInt(3, -2))
    assert s.is_scalar_identity(GaussInt(3, -2))
    assert not s.is_scalar_identity(ONE)


def test_adjoint_ops(rng):
    m = _rand_matrix(rng, 4)
    assert m.conj_transpose() == m.conj().transpose()
    assert m.conj_transpose() == m.transpose().conj()
    assert (-m) + m == GaussMatrix.identity(4).scaled(GaussInt(0, 0))


def test_overflow_guard():
    big = 1 << 33
    m = GaussMatrix.from_rows(
        [[GaussInt(big, 0), GaussInt(0, 0)], [GaussInt(0, 0), GaussInt(big, 0)]]
    )
    assert not m.im.any()  # real-only: the product skips three of its parts
    with pytest.raises(OverflowError):
        m @ m
    with pytest.raises(OverflowError):
        m.scaled(GaussInt(big, big))
    # the guard runs before any skip, even when every part product is skipped
    huge = GaussMatrix(np.eye(2, dtype=np.int64) << 61, np.zeros((2, 2), dtype=np.int64))
    zero = GaussMatrix.identity(2).scaled(GaussInt(0, 0))
    with pytest.raises(OverflowError):
        zero @ huge
    with pytest.raises(OverflowError):
        huge @ zero


def test_circulant_layout():
    a = parse_qseq("[1,i,-1,-i]")
    c = circulant_from_entries(a.entries)
    for r in range(4):
        for col in range(4):
            assert c.entry(r, col) == a[(col - r) % 4]


def _reference_rows(m: GaussMatrix) -> list[list[str]]:
    """Reference writer: one GaussInt and one format_gauss call per entry."""
    return [[format_gauss(m.entry(r, c)) for c in range(m.n)] for r in range(m.n)]


def _reference_text(m: GaussMatrix) -> str:
    return "\n".join(" ".join(row) for row in _reference_rows(m)) + "\n"


def _reference_json(m: GaussMatrix, kind: str) -> str:
    doc = {"order": m.n, "kind": kind, "rows": _reference_rows(m)}
    return json.dumps(doc, indent=2, sort_keys=True)


def test_writers_match_per_entry_reference(rng):
    # 2**61 parts would overflow a value key such as re * span + im
    cases = [_rand_matrix(rng, n, hi) for hi in (1, 9, 2**61) for n in range(1, 8)]
    cases += [_zero_parts(_rand_matrix(rng, 5), False, True)]  # real only
    cases += [_zero_parts(_rand_matrix(rng, 5), True, False)]  # imaginary only
    # imaginary span 2**62, so re * span + im would wrap and merge 0-2**61i with 4-2**61i
    lo, hi = -(2**61), 2**61 - 1
    cases += [GaussMatrix(np.array([[0, 4], [1, 2]]), np.array([[lo, lo], [hi, 0]]))]
    for m in cases:
        assert format_matrix_text(m) == _reference_text(m)
        assert matrix_to_json(m, "k") == _reference_json(m, "k")
        assert parse_matrix_text(format_matrix_text(m)) == m


def test_text_round_trip(rng):
    m = _rand_matrix(rng, 5)
    assert parse_matrix_text(format_matrix_text(m)) == m
    with pytest.raises(ValueError):
        parse_matrix_text("  \n ")


def test_json_round_trip(rng):
    m = _rand_matrix(rng, 3)
    back, kind = matrix_from_json(matrix_to_json(m, "test-kind"))
    assert back == m and kind == "test-kind"
