"""The measuring process: imports qlegendre from the checkout's src/ and
runs one workload's task list, one task at a time (a closed loop with a
single client), checking every answer outside the timed region.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE OUT_JSON

`setup` imports the package, makes the warm-up calls that fill its lazy
caches and exits; run.py times it from spawn to exit.  `run` writes its
measurements to OUT_JSON for run.py to turn into metrics.
"""
from __future__ import annotations

import hashlib
import io
import json
import re
import resource
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def import_package():
    """qlegendre from ROOT/src and nowhere else."""
    init = ROOT / "src" / "qlegendre" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: no package source at {init.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    import qlegendre
    from qlegendre import cli

    if Path(qlegendre.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported {qlegendre.__file__}, not {init}")
    return qlegendre, cli


def warm_up(q, cli) -> None:
    """Small calls through every layer, so lazy caches and numpy code paths
    are filled before anything is timed."""
    q.seed_search(5)
    list(q.search_even(q.SearchPlan(4)))
    pair = q.corpus_even_pair(8)
    q.psd_profile(pair.a)
    q.binary_from_quaternary(q.quaternary_hadamard_from_pair(pair.a, pair.b))
    list(q.decompress(q.compress(pair.a, 4)))
    cli.build_parser()


def _cli(tr, cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = tr.call("cli.main", cli.main, argv)
    return rc, buf.getvalue()


class Runner:
    """Executes tasks against the package and checks their answers."""

    def __init__(self, q, cli, tasks: list[dict], workdir: Path) -> None:
        self.q = q
        self.cli = cli
        self.workdir = workdir
        self.verified_digests: set[bytes] = set()
        self.corpus = [(d["A"], d["B"]) for d in oracle.load_corpus()]
        # inputs are parsed once, before anything is timed
        self.inputs: dict[int, object] = {}
        for k, t in enumerate(tasks):
            if t["kind"] == "certify":
                self.inputs[k] = (q.parse_qseq(t["a"]), q.parse_qseq(t["b"]))
            elif t["kind"] == "identity_report":
                self.inputs[k] = tuple(q.parse_qseq(t["half"]))
            elif t["kind"] == "decompress":
                self.inputs[k] = q.parse_compressed(t["compressed"], t["ratio"])

    def run(self, k: int, task: dict, tr: spans.Tracer):
        """Run one task; returns (answer, timings in seconds)."""
        q, kind = self.q, task["kind"]
        if kind == "seed_search":
            found = tr.call("seeds.seed_search", q.seed_search, task["p"],
                            first_only=task["first_only"], workers=task["workers"])
            tr.count("seeds.found", len(found))
            return found, {}
        if kind == "search_even":
            red = task["mode"] == "red"
            plan = q.SearchPlan(task["length"], reduce_rotation=red, reduce_conjugation=red)
            return tr.call("evensearch.search_even", lambda: list(q.search_even(plan))), {}
        if kind == "cli_search_even":
            return _cli(tr, self.cli, ["search-even", "--length", str(task["length"])]), {}
        if kind == "certify":
            return self._certify(self.inputs[k], tr)
        if kind == "identity_report":
            return tr.call("seeds.seed_identity_report", q.seed_identity_report,
                           task["p"], self.inputs[k]), {}
        if kind == "corpus_load":
            return tr.call("corpus.all_corpus_pairs", q.all_corpus_pairs), {}
        if kind == "cli_corpus_check":
            return _cli(tr, self.cli, ["corpus-check"]), {}
        if kind == "decompress":
            members = tr.call("compression.decompress", lambda: list(q.decompress(self.inputs[k])))
            tr.count("compression.members", len(members))
            return members, {}
        if kind == "cli_hadamard":
            prefix = self.workdir / "hadamard-l82"
            return _cli(tr, self.cli, ["hadamard", task["a"], task["b"], "--out", str(prefix)]), {}
        raise ValueError(f"unknown task kind {kind!r}")

    def _certify(self, ab, tr: spans.Tracer):
        q = self.q
        a, b = ab
        out = {"h": None, "k": None, "norm": None, "rejected": False}
        t0 = time.perf_counter()
        out["ok"] = tr.call("pairs.is_legendre_pair", q.is_legendre_pair, a, b)
        t1 = time.perf_counter()
        if out["ok"]:
            out["norm"] = tr.call("pairs.normalize", q.normalize, a, b)
            out["h"] = tr.call("hadamard.quaternary_hadamard_from_pair",
                               q.quaternary_hadamard_from_pair, a, b)
            out["k"] = tr.call("hadamard.binary_from_quaternary", q.binary_from_quaternary, out["h"])
        else:
            tr.count("pairs.verify_neg")
            try:
                tr.call("pairs.normalize", q.normalize, a, b)
            except ValueError:
                out["rejected"] = True
        t2 = time.perf_counter()
        out["psd"] = (tr.call("sequences.psd_profile", q.psd_profile, a),
                      tr.call("sequences.psd_profile", q.psd_profile, b))
        times = {"verify": t1 - t0}
        if out["ok"]:
            times["certify"] = t2 - t0
        return out, times

    # --- answer checks, outside every timed region -------------------------

    def check(self, task: dict, out) -> str | None:
        """None when the task's answer is right, else the reason."""
        q, kind = self.q, task["kind"]
        if kind == "seed_search":
            texts = [q.format_qseq(hv.expand()) for hv in out]
            return oracle.check_seed_search(task["p"], task["first_only"], texts)
        if kind == "search_even":
            texts = [(q.format_qseq(p.a), q.format_qseq(p.b)) for p in out]
            return oracle.check_even_search(task["mode"], task["length"], texts)
        if kind == "cli_search_even":
            rc, text = out
            m = re.search(r"^A=(\S+)\s+B=(\S+)$", text, re.M)
            if rc != 0 or m is None:
                return f"search-even exited {rc}: {text[-200:]!r}"
            return oracle.check_first_l10((m.group(1), m.group(2)))
        if kind == "certify":
            return self._check_certify(task, out)
        if kind == "identity_report":
            if not out or not all(c.passed for c in out):
                return f"identity report p={task['p']} has failing checks"
            return None
        if kind == "corpus_load":
            got = [(q.format_qseq(p.a), q.format_qseq(p.b)) for _, p in out]
            return None if got == self.corpus else "corpus pairs differ from the pinned corpus"
        if kind == "cli_corpus_check":
            rc, text = out
            m = re.search(r"^(\d+)/(\d+) checks passed$", text, re.M)
            if rc != 0 or m is None or m.group(1) != m.group(2):
                return f"corpus-check exited {rc}: {text[-200:]!r}"
            return None
        if kind == "decompress":
            return oracle.check_decompress([q.format_qseq(m) for m in out], task["compressed"])
        if kind == "cli_hadamard":
            return self._check_hadamard_files(task, out)
        return f"unknown task kind {kind!r}"

    def _gram_checked(self, tag: bytes, m, binary: bool) -> bool:
        """Oracle Gram check, once per distinct matrix."""
        digest = hashlib.sha256(tag + m.re.tobytes() + m.im.tobytes()).digest()
        if digest not in self.verified_digests and oracle.hadamard_ok(m.re, m.im, binary):
            self.verified_digests.add(digest)
        return digest in self.verified_digests

    def _check_certify(self, task: dict, out) -> str | None:
        q = self.q
        label = task["label"]
        if out["ok"] != task["is_pair"]:
            return f"{label}: is_legendre_pair says {out['ok']}, oracle says {task['is_pair']}"
        a, b = oracle.parse_units(task["a"]), oracle.parse_units(task["b"])
        l = len(a)
        pa, pb = out["psd"]
        if len(pa.values) != l - 1 or len(pb.values) != l - 1:
            return f"{label}: PSD profile has the wrong length"
        if l % 2 == 0 and (pa.value(l // 2) != oracle.half_lag_psd(a)
                           or pb.value(l // 2) != oracle.half_lag_psd(b)):
            return f"{label}: exact half-lag PSD differs from the oracle"
        if not task["is_pair"]:
            return None if out["rejected"] else f"{label}: normalize accepted a non-pair"
        if max(abs(x + y - (2 * l + 2)) for x, y in zip(pa.values, pb.values)) > 1e-6:
            return f"{label}: PSD(A) + PSD(B) != 2l + 2"
        na, nb = (q.format_qseq(x) for x in out["norm"])
        norm = oracle.parse_units(na), oracle.parse_units(nb)
        if oracle.row_sum(norm[0]) != (0, 0) or oracle.row_sum(norm[1]) != (1, 1):
            return f"{label}: normalize did not reach canonical balance form"
        if not oracle.pair_flags([(na, nb)])[0]:
            return f"{label}: normalize broke the pair"
        h, k = out["h"], out["k"]
        if h.n != 2 * l + 2 or k.n != 4 * l + 4:
            return f"{label}: Hadamard orders {h.n}/{k.n} for l={l}"
        if not self._gram_checked(b"q", h, binary=False):
            return f"{label}: quaternary matrix fails the oracle Gram check"
        if not self._gram_checked(b"b", k, binary=True):
            return f"{label}: binary matrix fails the oracle Gram check"
        return None

    def _check_hadamard_files(self, task: dict, out) -> str | None:
        rc, text = out
        if rc != 0:
            return f"hadamard exited {rc}: {text[-200:]!r}"
        l = len(oracle.parse_units(task["a"]))
        for suffix, order in (("quaternary", 2 * l + 2), ("binary", 4 * l + 4)):
            path = self.workdir / f"hadamard-l82.{suffix}.txt"
            data = path.read_bytes()
            digest = hashlib.sha256(suffix.encode() + data).digest()
            if digest in self.verified_digests:
                continue
            re_, im = oracle.parse_matrix_text(data.decode())
            if re_.shape != (order, order):
                return f"hadamard: {suffix} matrix has shape {re_.shape}, expected order {order}"
            if not oracle.hadamard_ok(re_, im, binary=suffix == "binary"):
                return f"hadamard: {suffix} matrix file fails the oracle Gram check"
            self.verified_digests.add(digest)
        return None


class Measurement:
    """Timed passes over the task list, with their answers checked."""

    def __init__(self, runner: Runner, tasks: list[dict]) -> None:
        self.runner = runner
        self.tasks = tasks
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tr: spans.Tracer, record: dict) -> float:
        """Run the task list once; returns the summed task time.  Each answer
        is checked right after its task, outside the timed region, and then
        dropped, so peak memory is that of one task, not of a pass."""
        wall = 0.0
        kept = {}
        for k, task in enumerate(self.tasks):
            t0 = time.perf_counter()
            try:
                with tr.span(f"task.{task['name']}"):
                    out, times = self.runner.run(k, task, tr)
            except Exception:  # a failing task is counted and reported, not fatal
                out, times = traceback.format_exc(), None
            dt = time.perf_counter() - t0
            wall += dt
            record.setdefault(task["name"], []).append(dt)
            for key, value in (times or {}).items():
                record.setdefault(f"{task['name']}.{key}", []).append(value)
            self.attempted += 1
            reason = f"{task['name']} raised: {out}" if times is None else self.runner.check(task, out)
            if reason is not None:
                self.failures.append(reason)
            elif tr.enabled:
                kept[task["name"]] = out
            out = None
        if tr.enabled:
            # answers of the traced pass that passed their check, for the stage replays
            self.last_answers = kept
        return wall


def peak_rss_kb() -> int:
    """Peak resident set of this process plus that of its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own + kids


def untraced_run(meas: Measurement, seconds: float, workload: str) -> dict:
    off = spans.Tracer("untraced", enabled=False)
    walls: list[float] = []
    record: dict[str, list[float]] = {}
    while workloads.more_passes(walls, seconds, minimum=2):
        walls.append(meas.one_pass(off, record))
    if workload == "certify":
        latencies = record.get("certify.certify", [])
    else:
        latencies = [t for task in meas.tasks for t in record[task["name"]]]
    verify = record.get("certify.verify", []) + record.get("verify_perturbed.verify", [])
    return {
        "walls": walls,
        "task_times": record,
        "latency_s": latencies,
        "verify_calls": len(verify),
        "verify_s": sum(verify),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        q, cli = import_package()
        warm_up(q, cli)
        return 0
    if len(argv) != 6 or argv[0] != "run":
        print(__doc__, file=sys.stderr)
        return 2
    _, workload, seed, seconds, trace, out_path = argv
    tasks = workloads.build(workload, int(seed))
    q, cli = import_package()
    warm_up(q, cli)
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        runner = Runner(q, cli, tasks, Path(tmp))
        meas = Measurement(runner, tasks)
        if trace == "1":
            import tracedrun

            trace_file = BENCH_DIR / "out" / f"trace-{workload}-seed{seed}.json"
            result = tracedrun.run(q, meas, workload, int(seed), float(seconds), trace_file)
            result["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            result = untraced_run(meas, float(seconds), workload)
    result.update(attempted=meas.attempted, failures=meas.failures, peak_rss_kb=peak_rss_kb())
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
