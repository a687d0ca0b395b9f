"""The traced run: untraced and traced passes alternate for the run's
seconds, then stage measurements made from outside the package, all
reduced to per-layer self times, counts and ratios.

Spans wrap only the benchmark's own calls into public package functions;
gaussint and numtheory run only inside other modules and get no span.
"""
from __future__ import annotations

import re
import statistics
from collections import Counter
from pathlib import Path

import spans
from workloads import more_passes

# the l = 10 even tasks replayed stage by stage: (reductions on, first only)
REPLAYS = {"all_l10": (False, False), "red_l10": (True, False), "first_l10": (True, True)}
REPLAY_METRICS = (
    "enumerate_A_s", "enumerate_B_s", "cands_A", "cands_B", "cands_per_s",
    "join_s", "join_rows", "join_matches", "join_rows_per_s",
    "search_s", "residual_s", "yield_ratio", "cand_use_ratio",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def replay_even(q, tr: spans.Tracer, label: str, reduce: bool, first_only: bool):
    """search_even's pipeline for l = 10 rebuilt from enumerate_role_candidates
    and paf_join, one span per stage; returns (counts, A and B candidates)."""
    st = Counter()
    cands: list = []
    with tr.span(f"replay.{label}"):
        table = tr.call("psdfilters.eligible_half_psd_pairs", q.eligible_half_psd_pairs, 10).pairs
        tr.count("psdfilters.targets", len(table))
        for x, y in table:
            a = tr.call(f"evensearch.{label}.enumerate_A", lambda: list(
                q.enumerate_role_candidates(10, "A", x, None, rotation_minimal=reduce)))
            st["cands_A"] += len(a)
            if not a:
                continue
            b = tr.call(f"evensearch.{label}.enumerate_B",
                        lambda: list(q.enumerate_role_candidates(10, "B", y, None)))
            st["cands_B"] += len(b)
            if not b:
                continue
            matches = tr.call(f"evensearch.{label}.join", q.paf_join, a, b)
            st["join_rows"] += len(a) + len(b)
            st["join_matches"] += len(matches)
            st["a_used"] += len({i for i, _ in matches})
            cands += a + b
            if first_only and matches:
                break
    return st, cands


def run(q, meas, workload: str, seed: int, seconds: float, trace_file: Path) -> dict:
    off = spans.Tracer("untraced", enabled=False)
    untraced: list[float] = []
    traced: list[float] = []
    pass_spans: list = []
    counts: Counter = Counter()
    answers = None
    while more_passes(untraced + traced, seconds, minimum=2):
        if len(untraced) <= len(traced):
            untraced.append(meas.one_pass(off, {}))
            continue
        tr = spans.Tracer(f"{workload}-{seed}-pass{len(traced)}", enabled=True)
        traced.append(meas.one_pass(tr, {}))
        pass_spans += tr.spans
        counts.update(tr.counts)
        answers = meas.last_answers
    n = len(traced)
    busy, calls = spans.self_times(pass_spans)

    def per_pass(name: str) -> float:
        return busy.get(name, 0.0) / n

    def task_median(name: str) -> float:
        ds = spans.durations(pass_spans, f"task.{name}")
        return statistics.median(ds) if ds else 0.0

    ex = spans.Tracer(f"{workload}-{seed}-stages", enabled=True)
    stages = {"seed": _seed_stages, "even": _even_stages, "certify": _certify_stages}
    layers = stages[workload](q, ex, meas, answers, task_median)
    ex_busy, ex_calls = spans.self_times(ex.spans)

    w2 = task_median("seed_p23_w2")
    verify_calls = calls.get("pairs.is_legendre_pair", 0)
    layers.update({
        "seeds.search_s": per_pass("seeds.seed_search"),
        "seeds.search_calls": calls.get("seeds.seed_search", 0) / n,
        "seeds.found": counts["seeds.found"] / n,
        "seeds.parallel_eff": _ratio(task_median("seed_p23"), 2 * w2),
        "seeds.identity_report_s": per_pass("seeds.seed_identity_report"),
        "psdfilters.table_s": ex_busy.get("psdfilters.eligible_half_psd_pairs", 0.0),
        "psdfilters.targets": ex.counts["psdfilters.targets"],
        "pairs.confirm_s": ex_busy.get("pairs.LegendrePair.check", 0.0),
        "pairs.confirm_calls": ex_calls.get("pairs.LegendrePair.check", 0),
        "pairs.verify_s": per_pass("pairs.is_legendre_pair"),
        "pairs.verify_calls": verify_calls / n,
        "pairs.verify_neg_frac": _ratio(counts["pairs.verify_neg"], verify_calls),
        "pairs.normalize_s": per_pass("pairs.normalize"),
        "sequences.paf_profiles": ex.counts["sequences.paf_profiles"],
        "sequences.paf_profiles_per_s": _ratio(ex.counts["sequences.paf_profiles"],
                                               ex_busy.get("sequences.paf_profiles", 0.0)),
        "sequences.psd_profile_s": per_pass("sequences.psd_profile"),
        "hadamard.quaternary_s": per_pass("hadamard.quaternary_hadamard_from_pair"),
        "hadamard.binary_s": per_pass("hadamard.binary_from_quaternary"),
        "matrices.gram_s": ex_busy.get("matrices.gram", 0.0),
        "matrices.gram_ops": ex.counts["matrices.gram_ops"],
        "matrices.gram_bytes": ex.counts["matrices.gram_bytes"],
        "matrices.gram_ops_per_s": _ratio(ex.counts["matrices.gram_ops"],
                                          ex_busy.get("matrices.gram", 0.0)),
        "matrices.format_text_s": ex_busy.get("matrices.format_matrix_text", 0.0),
        "compression.decompress_s": per_pass("compression.decompress"),
        "compression.members": counts["compression.members"] / n,
        "corpus.load_s": per_pass("corpus.all_corpus_pairs"),
        "cli.main_s": per_pass("cli.main"),
        "cli.main_calls": calls.get("cli.main", 0) / n,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1,
    })
    for label in REPLAYS:
        for key in REPLAY_METRICS:
            layers.setdefault(f"evensearch.{label}.{key}", 0.0)

    spans.write(trace_file, pass_spans + ex.spans, counts + ex.counts)
    return {
        "walls_untraced": untraced,
        "walls_traced": traced,
        "layers": layers,
    }


def _confirm(q, tr: spans.Tracer, meas, pairs) -> None:
    """Exact confirmation of search outputs, one LegendrePair.check each."""
    for a, b in pairs:
        if not tr.call("pairs.LegendrePair.check", q.LegendrePair.check, a, b).verified:
            meas.failures.append("confirmation rejected a search output")


def _seed_stages(q, tr, meas, answers, task_median) -> dict:
    for task in meas.tasks:
        if task["name"] in answers:
            a = q.decompress_seed_a(task["p"])
            _confirm(q, tr, meas, [(a, hv.expand()) for hv in answers[task["name"]]])
    return {}


def _even_stages(q, tr, meas, answers, task_median) -> dict:
    layers = {}
    for task in meas.tasks:
        out = answers.get(task["name"])
        if out is None:
            continue
        if task["kind"] == "search_even":
            _confirm(q, tr, meas, [(p.a, p.b) for p in out])
        else:
            m = re.search(r"^A=(\S+)\s+B=(\S+)$", out[1], re.M)
            if m is not None:
                _confirm(q, tr, meas, [(q.parse_qseq(m.group(1)), q.parse_qseq(m.group(2)))])
    emitted = {label: 1 if first_only else len(answers.get(f"even_{label}", ()))
               for label, (_, first_only) in REPLAYS.items()}
    for label, (reduce, first_only) in REPLAYS.items():
        st, cands = replay_even(q, tr, label, reduce, first_only)
        busy, _ = spans.self_times(tr.spans)
        for stage in ("enumerate_A", "enumerate_B", "join"):
            st[f"{stage}_s"] = busy.get(f"evensearch.{label}.{stage}", 0.0)
        search_s = task_median(f"even_{label}")
        stage_s = st["enumerate_A_s"] + st["enumerate_B_s"] + st["join_s"]
        values = {
            "enumerate_A_s": st["enumerate_A_s"],
            "enumerate_B_s": st["enumerate_B_s"],
            "cands_A": st["cands_A"],
            "cands_B": st["cands_B"],
            "cands_per_s": _ratio(st["cands_A"] + st["cands_B"],
                                  st["enumerate_A_s"] + st["enumerate_B_s"]),
            "join_s": st["join_s"],
            "join_rows": st["join_rows"],
            "join_matches": st["join_matches"],
            "join_rows_per_s": _ratio(st["join_rows"], st["join_s"]),
            "search_s": search_s,
            "residual_s": search_s - stage_s,
            "yield_ratio": _ratio(emitted[label], st["join_matches"]),
            "cand_use_ratio": _ratio(st["a_used"], st["cands_A"]),
        }
        for key in REPLAY_METRICS:
            layers[f"evensearch.{label}.{key}"] = values[key]
        # without reductions every join match is emitted; with them at most
        if (label == "all_l10" and st["join_matches"] != emitted[label]) or \
                st["join_matches"] < emitted[label]:
            meas.failures.append(f"replayed {label} join found {st['join_matches']} matches "
                                 f"for {emitted[label]} emitted pairs")
        if label == "all_l10":
            _paf_profiles(q, tr, cands)
    return layers


def _paf_profiles(q, tr: spans.Tracer, seqs) -> None:
    """Full half-profiles paf(X, 1..l/2), the join's key material."""
    with tr.span("sequences.paf_profiles"):
        for seq in seqs:
            [q.paf(seq, s) for s in range(1, len(seq) // 2 + 1)]
    tr.count("sequences.paf_profiles", len(seqs))


def _certify_stages(q, tr, meas, answers, task_median) -> dict:
    corpus = q.all_corpus_pairs()
    _paf_profiles(q, tr, [s for _, p in corpus for s in (p.a, p.b)])
    for l in q.EVEN_LENGTHS:
        table = tr.call("psdfilters.eligible_half_psd_pairs", q.eligible_half_psd_pairs, l)
        tr.count("psdfilters.targets", len(table.pairs))
    for _, p in corpus:
        h = q.quaternary_hadamard_from_pair(p.a, p.b)
        k = q.binary_from_quaternary(h)
        for m, other in ((h, h.conj_transpose()), (k, k.transpose())):
            tr.call("matrices.gram", m.__matmul__, other)
            # GaussMatrix @ runs four int64 n x n products (computed, not counted)
            tr.count("matrices.gram_ops", 4 * m.n ** 3)
            # re and im of both operands read once, re and im of the result written
            tr.count("matrices.gram_bytes", 6 * 8 * m.n ** 2)
        if p.length == 82:
            tr.call("matrices.format_matrix_text", q.format_matrix_text, h)
            tr.call("matrices.format_matrix_text", q.format_matrix_text, k)
    return {}
