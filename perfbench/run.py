"""qlegendre benchmark: one workload, one run, metrics on the last line.

    python3 perfbench/run.py --workload seed|even|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory, nothing is installed.  Each workload is a closed loop with
one client: a single measuring process runs the seeded task list one task
at a time, as many passes as fit in S seconds (at least two).  Every
answer is checked against the oracle in this directory outside the timed
region; a wrong answer, wrong count or exception is a failed task.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
untraced and traced passes alternately plus stage replays and prints the
per-layer metrics, writing the spans to perfbench/out/.  The lines before
the last give the environment and the per-task figures, and the same
report is kept in perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PACKAGE = ROOT / "src" / "qlegendre"
sys.path.insert(0, str(BENCH_DIR))

from workloads import KEY_TASK, WORKLOADS  # noqa: E402

SETUP_RUNS = 5
DEADLINE_S = 170

# per-task medians reported beside the gated metrics: report name -> task
TASK_REPORT = {
    "seed": {"seed_p23_s": "seed_p23", "seed_p23_w2_s": "seed_p23_w2"},
    "even": {"even_all_l10_s": "even_all_l10", "even_red_l10_s": "even_red_l10",
             "even_first_l10_s": "even_first_l10"},
    "certify": {"cli_hadamard_l82_s": "cli_hadamard_l82"},
}


def fail(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def spawn(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a worker in its own process group; on timeout kill the group,
    including any pool processes, and wait for it."""
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), *argv],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise RuntimeError(f"worker {argv[0]} exceeded {timeout:.0f} s") from None
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def measure_setup(deadline: float) -> list[float]:
    """Fresh interpreter + import + warm-up, timed from spawn to exit."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        done = spawn(["setup"], deadline - time.monotonic())
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"setup failed: {done.stderr.strip()[-500:]}")
    return times


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def src_lines() -> dict[str, int]:
    """Line count per package module ('init' is __init__.py)."""
    return {("init" if f.stem == "__init__" else f.stem): len(f.read_text().splitlines())
            for f in sorted(PACKAGE.glob("*.py"))}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(workload: str, res: dict, setups: list[float]) -> tuple[dict, dict]:
    """The gated metrics and the per-task report of an untraced run."""
    times = res["task_times"]
    lat = res["latency_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["walls"]),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
        "key_task_s": statistics.median(times[KEY_TASK[workload]]),
        "task_p90_ms": p90(lat) * 1000,
    }
    report = {name: statistics.median(times[task]) for name, task in TASK_REPORT[workload].items()}
    if workload == "certify":
        report["verify_per_s"] = res["verify_calls"] / res["verify_s"]
        report["certify_p50_ms"] = statistics.median(lat) * 1000
        report["certify_p90_ms"] = metrics["task_p90_ms"]
    report.update(passes=len(res["walls"]), latency_samples=len(lat),
                  setup_samples=setups, pass_walls=res["walls"])
    return metrics, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_file = ROOT / "BENCHMARK.json"
    if not (PACKAGE / "__init__.py").is_file():
        return fail(f"no package source at {PACKAGE}; run from a source checkout")
    if not spec_file.is_file():
        return fail(f"missing {spec_file}")
    spec = json.loads(spec_file.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = OUT_DIR / f"raw-{tag}.json"
    try:
        setups = [] if args.trace else measure_setup(deadline)
        done = spawn(["run", args.workload, str(args.seed), str(args.seconds),
                      str(args.trace), str(raw)], deadline - time.monotonic())
    except RuntimeError as exc:
        return fail(str(exc))
    if done.returncode != 0:
        return fail(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    res = json.loads(raw.read_text())

    if args.trace:
        values = dict(res["layers"])
        values.update({f"{mod}.src_lines": n for mod, n in src_lines().items()})
        report = {"walls_untraced": res["walls_untraced"], "walls_traced": res["walls_traced"],
                  "trace_file": res["trace_file"]}
    else:
        values, report = end_to_end(args.workload, res, setups)
    if set(values) != set(units):
        return fail(f"metrics {sorted(set(values) ^ set(units))} disagree with {spec_file.name}")

    failures = res["failures"]
    report.update(fail_frac=len(failures) / res["attempted"], failures=failures[:20])
    env = environment()
    print(f"env: {json.dumps(env)}")
    for name, value in report.items():
        print(f"report {name}: {value}")
    for name in units:
        print(f"metric {name} = {values[name]:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": res["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "report": report, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
