"""Answer checks for the benchmark, written independently of qlegendre.

Sequences arrive as text ('[1,-1,i,-i]') and matrices as int64 arrays or
text files; every check here uses its own parser and exact numpy int64
arithmetic, so a defect in the package cannot hide in its own checker.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_UNIT = {"1": (1, 0), "i": (0, 1), "-1": (-1, 0), "-i": (0, -1)}

CORPUS_FILE = Path(__file__).with_name("corpus.json")

# pinned answers of the search tasks
SEED_COUNTS = {13: 6, 19: 18, 23: 0}
SEED_FIRST_P19 = "[1,-1,1,-i,-1,-i,-i,1,1]"
EVEN_COUNTS = {("all", 8): 8192, ("all", 10): 33600, ("red", 10): 1680}
EVEN_FIRST_L10 = ("[-1,1,-i,-i,i,-1,1,-i,i,i]", "[1,1,1,i,-i,-1,i,-1,-i,i]")
DECOMPRESS_MEMBERS = 9216


def parse_gauss(token: str) -> tuple[int, int]:
    """'a', 'bi' or 'a+bi' (integers a, b) -> (a, b)."""
    t = token.strip().replace("i", "j")
    if t in ("j", "+j", "-j"):
        t = t.replace("j", "1j")
    z = complex(t)
    if z.real != int(z.real) or z.imag != int(z.imag):
        raise ValueError(f"not a Gaussian integer: {token!r}")
    return int(z.real), int(z.imag)


def parse_units(text: str) -> np.ndarray:
    """'[1,-i,...]' -> (l, 2) int64 array of (re, im); units only."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"not a bracketed sequence: {text!r}")
    return np.array([_UNIT[tok.strip()] for tok in body[1:-1].split(",")], dtype=np.int64)


def load_corpus() -> list[dict]:
    """The 16 pinned corpus pairs; each is re-checked here before use."""
    pairs = json.loads(CORPUS_FILE.read_text())
    bad = [d for d, ok in zip(pairs, pair_flags([(d["A"], d["B"]) for d in pairs])) if not ok]
    if bad:
        raise AssertionError(f"pinned corpus entries are not pairs: {bad}")
    return pairs


def paf_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """PAF(A, s) + PAF(B, s) for s = 1..l-1 on stacks of sequences.

    a, b: (n, l, 2) int64 (re, im).  Returns (n, l-1, 2) int64, where
    PAF(X, s) = sum_j x_j * conj(x_{j+s}).
    """
    l = a.shape[1]
    out = np.zeros((a.shape[0], l - 1, 2), dtype=np.int64)
    for s in range(1, l):
        for x in (a, b):
            y = np.roll(x, -s, axis=1)
            xr, xi, yr, yi = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
            out[:, s - 1, 0] += (xr * yr + xi * yi).sum(axis=1)
            out[:, s - 1, 1] += (xi * yr - xr * yi).sum(axis=1)
    return out


def stack(pairs: list[tuple[str, str]]) -> tuple[np.ndarray, np.ndarray]:
    """Text pairs of one common length -> two (n, l, 2) int64 stacks."""
    a = np.stack([parse_units(x) for x, _ in pairs])
    b = np.stack([parse_units(y) for _, y in pairs])
    if a.shape != b.shape:
        raise ValueError("pair members differ in length")
    return a, b


def pair_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sums = paf_sums(a, b)
    return ((sums[..., 0] == -2) & (sums[..., 1] == 0)).all(axis=1)


def pair_flags(pairs: list[tuple[str, str]]) -> list[bool]:
    """Whether each (A, B) text pair is a Legendre pair, grouped by length."""
    flags = [False] * len(pairs)
    by_len: dict[tuple[int, int], list[int]] = {}
    for k, (a, b) in enumerate(pairs):
        by_len.setdefault((a.count(","), b.count(",")), []).append(k)
    for (la, lb), idx in by_len.items():
        if la != lb or la < 1:
            continue
        for k, v in zip(idx, pair_mask(*stack([pairs[k] for k in idx]))):
            flags[k] = bool(v)
    return flags


def row_sum(seq: np.ndarray) -> tuple[int, int]:
    return int(seq[:, 0].sum()), int(seq[:, 1].sum())


def half_lag_psd(seq: np.ndarray) -> int:
    """|sum_j (-1)^j a_j|^2, the exact PSD at lag l/2."""
    sign = np.where(np.arange(len(seq)) % 2 == 0, 1, -1)
    re, im = (seq * sign[:, None]).sum(axis=0)
    return int(re * re + im * im)


def legendre_symbol(j: int, p: int) -> int:
    r = pow(j, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


def seed_a(p: int) -> str:
    """The length-2p seed sequence: a_0 = 1, a_p = -1, a_j = a_{j+p} = (j|p)."""
    ent = ["1"] * (2 * p)
    ent[p] = "-1"
    for j in range(1, p):
        ent[j] = ent[j + p] = "1" if legendre_symbol(j, p) == 1 else "-1"
    return "[" + ",".join(ent) + "]"


def seed_b_ok(p: int, b_text: str) -> bool:
    """B has the searched shape: b_0 = 1, b_p = i, b_{p-j} = -b_j, b_{j+p} = -b_j."""
    b = parse_units(b_text)
    if len(b) != 2 * p or tuple(b[0]) != (1, 0) or tuple(b[p]) != (0, 1):
        return False
    j = np.arange(1, p)
    return bool((b[j + p] == -b[j]).all() and (b[p - j] == -b[j]).all())


def check_seed_search(p: int, first_only: bool, b_texts: list[str]) -> str | None:
    """None when the half-vector search answer is right, else the reason."""
    want = 1 if first_only else SEED_COUNTS[p]
    if len(b_texts) != want:
        return f"p={p}: {len(b_texts)} results, expected {want}"
    if len(set(b_texts)) != len(b_texts):
        return f"p={p}: duplicate results"
    if not all(seed_b_ok(p, b) for b in b_texts):
        return f"p={p}: result outside the searched half-vector space"
    a = seed_a(p)
    if not all(pair_flags([(a, b) for b in b_texts])):
        return f"p={p}: result is not a Legendre pair"
    if first_only and p == 19 and b_texts[0] != expand_half(19, SEED_FIRST_P19):
        return "p=19: first result is not the lexicographically first vector"
    return None


def expand_half(p: int, half_text: str) -> str:
    half = half_text.strip()[1:-1].split(",")
    neg = {"1": "-1", "-1": "1", "i": "-i", "-i": "i"}
    b = [""] * (2 * p)
    b[0], b[p] = "1", "i"
    for j, tok in enumerate(half, start=1):
        b[j], b[p - j] = tok, neg[tok]
    for j in range(1, p):
        b[j + p] = neg[b[j]]
    return "[" + ",".join(b) + "]"


def check_even_search(mode: str, length: int, pairs: list[tuple[str, str]]) -> str | None:
    """Pinned count, distinct outputs, canonical balance form, exact pairs."""
    want = EVEN_COUNTS[(mode, length)]
    if len(pairs) != want:
        return f"{mode} l={length}: {len(pairs)} pairs, expected {want}"
    if len(set(pairs)) != len(pairs):
        return f"{mode} l={length}: duplicate pairs"
    a, b = stack(pairs)
    if a.shape[1] != length:
        return f"{mode} l={length}: output of length {a.shape[1]}"
    if not ((a.sum(axis=1) == (0, 0)).all() and (b.sum(axis=1) == (1, 1)).all()):
        return f"{mode} l={length}: pair not in canonical balance form"
    if not pair_mask(a, b).all():
        return f"{mode} l={length}: output is not a Legendre pair"
    return None


def check_first_l10(pair: tuple[str, str] | None) -> str | None:
    if pair != EVEN_FIRST_L10:
        return f"search-even --length 10 gave {pair}, expected {EVEN_FIRST_L10}"
    return None


def quaternary_gram_ok(re: np.ndarray, im: np.ndarray) -> bool:
    """Unit entries and H conj(H)^T = n I, exactly."""
    re = np.asarray(re, dtype=np.int64)
    im = np.asarray(im, dtype=np.int64)
    n = re.shape[0]
    if re.shape != (n, n) or im.shape != (n, n):
        return False
    if not (np.abs(re) + np.abs(im) == 1).all():
        return False
    g_re = re @ re.T + im @ im.T
    g_im = im @ re.T - re @ im.T
    return bool((g_re == n * np.eye(n, dtype=np.int64)).all() and not g_im.any())


def binary_gram_ok(m: np.ndarray) -> bool:
    """Entries in {-1, 1} and M M^T = n I, exactly."""
    m = np.asarray(m, dtype=np.int64)
    n = m.shape[0]
    if m.shape != (n, n) or not (np.abs(m) == 1).all():
        return False
    return bool((m @ m.T == n * np.eye(n, dtype=np.int64)).all())


def parse_matrix_text(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Whitespace-separated unit tokens, one row per line -> (re, im)."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    arr = np.array([[_UNIT[t] for t in row] for row in rows], dtype=np.int64)
    return arr[..., 0], arr[..., 1]


def hadamard_ok(re: np.ndarray, im: np.ndarray, binary: bool) -> bool:
    return binary_gram_ok(re) and not np.any(im) if binary else quaternary_gram_ok(re, im)


def check_decompress(members: list[str], compressed: str) -> str | None:
    """All members are distinct unit sequences that compress to `compressed`."""
    if len(members) != DECOMPRESS_MEMBERS:
        return f"decompress: {len(members)} members, expected {DECOMPRESS_MEMBERS}"
    if len(set(members)) != len(members):
        return "decompress: duplicate members"
    target = np.array([parse_gauss(t) for t in compressed.strip()[1:-1].split(",")])
    seqs = np.stack([parse_units(t) for t in members])
    # entry j of the compression is a_j + a_{j+k} + a_{j+2k} + ...
    if not (seqs.reshape(len(seqs), -1, len(target), 2).sum(axis=1) == target).all():
        return "decompress: a member does not compress to the seed"
    return None
