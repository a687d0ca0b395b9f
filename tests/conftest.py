import random

import pytest

from qlegendre.gaussint import UNITS
from qlegendre.sequences import QSeq


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def random_qseq(rng: random.Random, l: int) -> QSeq:
    return QSeq(rng.choice(UNITS) for _ in range(l))


def join_with_a_non_pair(join):
    """A paf_join stand-in that adds the first (i, j) the real join left
    out, which is therefore not a pair."""

    def bad_join(a, b, **kwargs):
        matches = join(a, b, **kwargs)
        found = set(matches)
        extra = next(
            (i, j) for i in range(len(a)) for j in range(len(b)) if (i, j) not in found
        )
        return sorted(matches + [extra])

    return bad_join
