"""Exact Z[i] scalar arithmetic, checked against Python's complex."""
import pickle
import random

import numpy as np
import pytest

from qlegendre.gaussint import (
    GaussInt,
    I,
    MINUS_I,
    MINUS_ONE,
    ONE,
    UNITS,
    ZERO,
    format_gauss,
    gauss_sum,
    parse_gauss,
    unit_index,
    walk_reachable,
)


def test_constants():
    assert ZERO == GaussInt(0, 0)
    assert UNITS == (ONE, I, MINUS_ONE, MINUS_I)
    assert [complex(u) for u in UNITS] == [1, 1j, -1, -1j]


def test_units_and_index():
    for k, u in enumerate(UNITS):
        assert u.is_unit()
        assert unit_index(u) == k
    assert not ZERO.is_unit()
    assert not GaussInt(1, 1).is_unit()
    with pytest.raises(ValueError):
        unit_index(GaussInt(2, 0))


def test_pickle_round_trip():
    for z in (ZERO, GaussInt(-3, 7), *UNITS):
        back = pickle.loads(pickle.dumps(z))
        assert back == z and type(back) is GaussInt
    with pytest.raises(AttributeError):
        back.re = 5


def test_walk_reachable_matches_brute_force():
    # the positions `steps` unit moves can reach from the origin
    reach = {(0, 0)}
    xs, ys = (a.ravel() for a in np.mgrid[-7:8, -7:8])
    for steps in range(6):
        for targets in (((0, 0),), ((1, 1),), ((2, -1), (-3, 0))):
            want = [
                any((tx - x, ty - y) in reach for tx, ty in targets)
                for x, y in zip(xs.tolist(), ys.tolist())
            ]
            got = [walk_reachable(x, y, steps, targets) for x, y in zip(xs.tolist(), ys.tolist())]
            assert got == want and all(type(ok) is bool for ok in got)
            # the same prune over arrays of positions, elementwise
            assert walk_reachable(xs, ys, steps, targets).tolist() == want
        reach = {(x + u.re, y + u.im) for x, y in reach for u in UNITS}
    assert not walk_reachable(0, 0, 3, ())


def test_arithmetic_matches_complex():
    rng = random.Random(17)
    for _ in range(2000):
        a = GaussInt(rng.randint(-50, 50), rng.randint(-50, 50))
        b = GaussInt(rng.randint(-50, 50), rng.randint(-50, 50))
        assert complex(a + b) == complex(a) + complex(b)
        assert complex(a - b) == complex(a) - complex(b)
        assert complex(a * b) == complex(a) * complex(b)
        assert complex(-a) == -complex(a)
        assert complex(a.conj()) == complex(a).conjugate()
        assert a.norm() == a.re * a.re + a.im * a.im


def test_norm_multiplicative():
    rng = random.Random(18)
    for _ in range(500):
        a = GaussInt(rng.randint(-30, 30), rng.randint(-30, 30))
        b = GaussInt(rng.randint(-30, 30), rng.randint(-30, 30))
        assert (a * b).norm() == a.norm() * b.norm()


def test_parse_format_round_trip():
    tokens = ["0", "1", "-1", "i", "-i", "2i", "-2i", "3", "1+i", "1-2i",
              "-4+3i", "-1-i", "17-40i"]
    for tok in tokens:
        z = parse_gauss(tok)
        assert format_gauss(z) == tok
    rng = random.Random(19)
    for _ in range(1000):
        z = GaussInt(rng.randint(-99, 99), rng.randint(-99, 99))
        assert parse_gauss(format_gauss(z)) == z


@pytest.mark.parametrize("bad", ["", "+", "i2", "1+", "2x", "1++i", "--1", "1 + i"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_gauss(bad)


def test_gauss_sum():
    assert gauss_sum([]) == ZERO
    assert gauss_sum(UNITS) == ZERO
    assert gauss_sum([ONE, ONE, I]) == GaussInt(2, 1)


def test_hash_and_equality():
    assert GaussInt(2, -3) == GaussInt(2, -3)
    assert hash(GaussInt(2, -3)) == hash(GaussInt(2, -3))
    assert GaussInt(2, -3) != GaussInt(-3, 2)
    assert len({ZERO, GaussInt(0, 0), ONE}) == 2
