"""Command-line surface.

Exit codes are uniform across subcommands: 0 success or verified,
1 legitimate negative (no pair found / not a pair / infeasible input,
with a distinct message for infeasibility), 2 invalid input, 3 internal
invariant violation.  Global --json switches stdout to machine-readable
documents that round-trip through the package parsers.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .compression import (
    compress,
    decompress,
    decompression_count,
    entry_splittings,
    format_compressed,
    interleave,
    parse_compressed,
)
from .corpus import (
    EVEN_LENGTHS,
    EXPECTED_HALF_PSD_TABLE,
    REALIZED_HALF_PSD,
    REALIZED_QUARTER_PSD,
    SEED_FEASIBLE_PRIMES,
    SEED_INFEASIBLE_PRIMES,
    SEED_PRIMES,
    corpus_even_pair,
    corpus_seed_pair,
)
from .evensearch import InfeasibleLengthError, SearchPlan, search_even
from .gaussint import format_gauss
from .hadamard import binary_from_quaternary, quaternary_hadamard_from_pair
from .matrices import format_matrix_text, matrix_to_json
from .pairs import first_failing_lag, lag_sum_ok, lag_sums, pair_to_json
from .psdfilters import (
    a3_seed_candidates,
    eligible_half_psd_pairs,
    eligible_quarter_psd_pairs,
)
from .seeds import decompress_seed_a, seed_feasible, seed_search
from .sequences import QSeq, format_qseq, parse_qseq, psd, row_sum

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


def _load_pair_args(args: argparse.Namespace) -> tuple[QSeq, QSeq]:
    if args.file is not None:
        text = (
            sys.stdin.read() if args.file == "-" else Path(args.file).read_text()
        )
        stripped = text.lstrip()
        if stripped.startswith("{"):
            doc = json.loads(text)
            return parse_qseq(str(doc["A"])), parse_qseq(str(doc["B"]))
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if len(lines) != 2:
            raise ValueError("pair file must hold exactly two sequence lines")
        return parse_qseq(lines[0]), parse_qseq(lines[1])
    if args.a is None or args.b is None:
        raise ValueError("give two sequences or --file")
    return parse_qseq(args.a), parse_qseq(args.b)


def _cmd_verify(args: argparse.Namespace) -> int:
    a, b = _load_pair_args(args)
    sums = lag_sums(a, b)
    failing = first_failing_lag(a, b, sums)
    ok = failing is None
    l = len(a)
    alpha, beta = row_sum(a), row_sum(b)
    half = (psd(a, l // 2), psd(b, l // 2)) if l % 2 == 0 else None
    quarter = (psd(a, l // 4), psd(b, l // 4)) if l % 4 == 0 else None
    if args.json:
        doc = {
            "length": l,
            "alpha": format_gauss(alpha),
            "beta": format_gauss(beta),
            "paf_sums": [format_gauss(total) for total in sums],
            "half_psd": list(half) if half else None,
            "quarter_psd": list(quarter) if quarter else None,
            "legendre": ok,
            "first_failing_lag": failing,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"length {l}")
        print(f"alpha {format_gauss(alpha)}  beta {format_gauss(beta)}")
        for s, total in enumerate(sums, start=1):
            mark = "ok" if lag_sum_ok(total.re, total.im) else "FAIL"
            print(f"lag {s}: PAF(A)+PAF(B) = {format_gauss(total)} {mark}")
        if half is not None:
            print(f"half-lag PSD: A {half[0]}, B {half[1]}")
        if quarter is not None:
            print(f"quarter-lag PSD: A {quarter[0]}, B {quarter[1]}")
        if ok:
            print("verdict: Legendre pair")
        else:
            print(f"verdict: not a Legendre pair (first failing lag {failing})")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_corpus_check(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool]] = []
    for p in SEED_PRIMES:
        try:
            corpus_seed_pair(p)
            checks.append((f"seed p={p} (length {2 * p}) pair", True))
        except AssertionError:
            checks.append((f"seed p={p} (length {2 * p}) pair", False))
    for l in EVEN_LENGTHS:
        try:
            pair = corpus_even_pair(l)
        except AssertionError:
            checks.append((f"length {l} pair", False))
            continue
        checks.append((f"length {l} pair", True))
        half = (psd(pair.a, l // 2), psd(pair.b, l // 2))
        checks.append(
            (
                f"length {l} half-lag PSD {half}",
                half == REALIZED_HALF_PSD[l],
            )
        )
        table = eligible_half_psd_pairs(l).pairs
        checks.append(
            (f"length {l} eligibility table", table == EXPECTED_HALF_PSD_TABLE[l])
        )
        if l % 4 == 0:
            quarter = (psd(pair.a, l // 4), psd(pair.b, l // 4))
            checks.append(
                (
                    f"length {l} quarter-lag PSD {quarter}",
                    quarter == REALIZED_QUARTER_PSD[l],
                )
            )
    for p in SEED_FEASIBLE_PRIMES:
        checks.append((f"feasible p={p}", seed_feasible(p)))
    for p in SEED_INFEASIBLE_PRIMES:
        checks.append((f"infeasible p={p}", not seed_feasible(p)))
    all_ok = all(ok for _, ok in checks)
    if args.json:
        print(
            json.dumps(
                {
                    "checks": [{"name": n, "ok": ok} for n, ok in checks],
                    "all_ok": all_ok,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for name, ok in checks:
            print(f"{'ok  ' if ok else 'FAIL'} {name}")
        print(f"{sum(ok for _, ok in checks)}/{len(checks)} checks passed")
    # the corpus is package data: a failure is an internal defect
    return EXIT_OK if all_ok else EXIT_INTERNAL


def _cmd_search_seed(args: argparse.Namespace) -> int:
    p = args.p
    if not seed_feasible(p):
        msg = f"p={p} is infeasible: 4p-2 = {4 * p - 2} is not a sum of two squares"
        if args.json:
            print(json.dumps({"p": p, "infeasible": True, "found": []}, indent=2))
        else:
            print(msg)
        return EXIT_NEGATIVE
    found = seed_search(p, first_only=args.first, tol=args.tol, workers=args.workers)
    rows = []
    for half in found:
        row = {"half": half.text()}
        if args.emit_pairs:
            row["A"] = format_qseq(decompress_seed_a(p))
            row["B"] = format_qseq(half.expand())
        rows.append(row)
    if args.json:
        print(
            json.dumps(
                {"p": p, "infeasible": False, "found": rows}, indent=2, sort_keys=True
            )
        )
    else:
        for row in rows:
            line = row["half"]
            if args.emit_pairs:
                line += f"  A={row['A']}  B={row['B']}"
            print(line)
        print(f"{len(found)} half-vector(s) for p={p}")
    return EXIT_OK if found else EXIT_NEGATIVE


def _parse_int_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{what} must be two comma-separated integers")
    return int(parts[0]), int(parts[1])


def _cmd_search_even(args: argparse.Namespace) -> int:
    half_pair = _parse_int_pair(args.psd_pair, "--psd-pair") if args.psd_pair else None
    quarter_pair = (
        _parse_int_pair(args.quarter_pair, "--quarter-pair")
        if args.quarter_pair
        else None
    )
    a3 = _parse_int_pair(args.a3_seed, "--a3-seed") if args.a3_seed else None
    plan = SearchPlan(
        length=args.length,
        half_pair=half_pair,
        quarter_pair=quarter_pair,
        reduce_rotation=not args.no_reductions,
        reduce_conjugation=not args.no_reductions,
        first_only=args.first,
        workers=args.workers,
        a3_seed=a3,
    )
    pairs = list(search_even(plan))
    if args.json_out:
        docs = [json.loads(pair_to_json(p)) for p in pairs]
        Path(args.json_out).write_text(json.dumps(docs, indent=2, sort_keys=True))
    if args.json:
        print(
            json.dumps(
                {
                    "length": args.length,
                    "found": [
                        {"A": format_qseq(p.a), "B": format_qseq(p.b)} for p in pairs
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for p in pairs:
            print(f"A={format_qseq(p.a)}  B={format_qseq(p.b)}")
        print(f"{len(pairs)} pair(s) at length {args.length}")
    return EXIT_OK if pairs else EXIT_NEGATIVE


def _cmd_compress(args: argparse.Namespace) -> int:
    seq = parse_qseq(args.sequence)
    if args.ratio < 1 or len(seq) % args.ratio != 0:
        raise ValueError(
            f"--ratio must divide the length: ratio={args.ratio}, l={len(seq)}"
        )
    comp = compress(seq, len(seq) // args.ratio)
    if args.json:
        print(
            json.dumps(
                {
                    "ratio": comp.ratio,
                    "original_length": comp.original_length,
                    "entries": [format_gauss(z) for z in comp.entries],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(format_compressed(comp))
    return EXIT_OK


def _cmd_decompress(args: argparse.Namespace) -> int:
    if (args.sample or 0) < 0 or (args.limit or 0) < 0:
        raise ValueError("--sample and --limit must be >= 0")
    comp = parse_compressed(args.compressed, args.ratio)
    total = decompression_count(comp)
    if args.count:
        if args.json:
            print(json.dumps({"count": total}))
        else:
            print(total)
        return EXIT_OK
    members: list[str] = []
    if args.sample is not None:
        rng = random.Random(args.seed)
        for _ in range(args.sample):
            picks = [rng.choice(entry_splittings(z, comp.ratio)) for z in comp.entries]
            members.append(format_qseq(interleave(picks)))
    else:
        for i, seq in enumerate(decompress(comp)):
            if args.limit is not None and i >= args.limit:
                break
            members.append(format_qseq(seq))
    if args.json:
        print(
            json.dumps({"count": total, "members": members}, indent=2, sort_keys=True)
        )
    else:
        for text in members:
            print(text)
        print(f"{len(members)} of {total} member(s)")
    return EXIT_OK


def _cmd_psd_filters(args: argparse.Namespace) -> int:
    l = args.length
    table = eligible_half_psd_pairs(l)
    quarter = eligible_quarter_psd_pairs(l) if l % 4 == 0 else None
    a3 = a3_seed_candidates(l) if l % 6 == 0 else None
    if args.json:
        doc = {
            "length": l,
            "half": {"lag": table.lag, "pairs": [list(p) for p in table.pairs]},
            "quarter": (
                {"lag": quarter.lag, "pairs": [list(p) for p in quarter.pairs]}
                if quarter
                else None
            ),
            "a3_seeds": [list(p) for p in a3] if a3 is not None else None,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"length {l} eligible (PSD(A), PSD(B)) pairs at lag {table.lag}:")
        for x, y in table.pairs:
            print(f"  ({x}, {y})")
        if quarter is not None:
            print(f"same eligible set applies at quarter lag {quarter.lag}")
        if a3 is not None:
            print(f"threefold seed candidates (a, b) for length {l}:")
            for a, b in a3:
                print(f"  ({a}, {b})")
    return EXIT_OK if table.pairs else EXIT_NEGATIVE


def _cmd_hadamard(args: argparse.Namespace) -> int:
    a, b = _load_pair_args(args)
    h = quaternary_hadamard_from_pair(a, b)
    k = binary_from_quaternary(h)
    prefix = args.out or f"hadamard-l{len(a)}"
    if args.json:
        qpath = Path(f"{prefix}.quaternary.json")
        bpath = Path(f"{prefix}.binary.json")
        qpath.write_text(matrix_to_json(h, "quaternary-hadamard"))
        bpath.write_text(matrix_to_json(k, "binary-hadamard"))
    else:
        qpath = Path(f"{prefix}.quaternary.txt")
        bpath = Path(f"{prefix}.binary.txt")
        qpath.write_text(format_matrix_text(h))
        bpath.write_text(format_matrix_text(k))
    print(f"quaternary order {h.n} -> {qpath}")
    print(f"binary order {k.n} -> {bpath}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # the CLI's invalid-input form: an `error:` line, the usage, exit 2
        self.exit(EXIT_INVALID, f"error: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qlegendre",
        description="Exact search, verification and Hadamard constructions "
        "for quaternary Legendre pairs.",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable stdout"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes for searches"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomized helpers"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="verify a pair and report its profile")
    sp.add_argument("a", nargs="?", help="sequence A, e.g. '[1,-1]'")
    sp.add_argument("b", nargs="?", help="sequence B, e.g. '[1,i]'")
    sp.add_argument("--file", help="two-line text file or JSON pair ('-' = stdin)")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("corpus-check", help="rebuild and verify the embedded corpus")
    sp.set_defaults(func=_cmd_corpus_check)

    sp = sub.add_parser("search-seed", help="search half-vectors for length 2p")
    sp.add_argument("--p", type=int, required=True, help="odd prime")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--all", dest="first", action="store_false", default=False)
    group.add_argument("--first", dest="first", action="store_true")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--emit-pairs", action="store_true", help="print A and B too")
    sp.set_defaults(func=_cmd_search_seed)

    sp = sub.add_parser("search-even", help="direct search at an even length")
    sp.add_argument("--length", type=int, required=True)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--psd-pair", help="half-lag target 'x,y'")
    group.add_argument(
        "--all-psd-pairs", action="store_true", help="run the whole table (default)"
    )
    sp.add_argument("--quarter-pair", help="quarter-lag target 'x,y' (needs 4 | l)")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--first", dest="first", action="store_true", default=True)
    group.add_argument("--all", dest="first", action="store_false")
    sp.add_argument(
        "--no-reductions",
        action="store_true",
        help="disable rotation/conjugation reductions (complete enumeration)",
    )
    sp.add_argument("--a3-seed", help="draw A from a threefold seed 'a,b'")
    sp.add_argument("--json", dest="json_out", metavar="OUT", help="write pairs here")
    sp.set_defaults(func=_cmd_search_even)

    sp = sub.add_parser("compress", help="m-fold compression of a sequence")
    sp.add_argument("sequence")
    sp.add_argument("--ratio", type=int, required=True, help="units per entry m")
    sp.set_defaults(func=_cmd_compress)

    sp = sub.add_parser("decompress", help="enumerate members of a compression")
    sp.add_argument("compressed")
    sp.add_argument("--ratio", type=int, required=True, help="units per entry m")
    sp.add_argument("--count", action="store_true", help="print the count only")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--limit", type=int, default=None)
    group.add_argument("--sample", type=int, default=None, help="random members")
    sp.set_defaults(func=_cmd_decompress)

    sp = sub.add_parser("psd-filters", help="eligibility tables for a length")
    sp.add_argument("--length", type=int, required=True)
    sp.set_defaults(func=_cmd_psd_filters)

    sp = sub.add_parser("hadamard", help="build and verify both Hadamard matrices")
    sp.add_argument("a", nargs="?")
    sp.add_argument("b", nargs="?")
    sp.add_argument("--file", help="two-line text file or JSON pair ('-' = stdin)")
    sp.add_argument("--out", help="output path prefix")
    sp.set_defaults(func=_cmd_hadamard)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleLengthError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
