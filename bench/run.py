"""The knewimp benchmark: end-to-end metrics per workload, then a traced run.

Load is closed-loop: one fresh worker process runs one repetition at a
time, and the next starts only after it ends, while another one still fits
in --seconds. Every repetition is checked; a failed check, an exception or
a non-zero exit counts toward `failed`. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

    python3 bench/run.py                           # every workload, both runs
    python3 bench/run.py --workload wine_flow --seed 3 --seconds 35 --trace 0

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are its per-layer ones. Results, with the per-layer
table and the environment stamp, are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = ("BENCHMARK.json", "src/knewimp/__init__.py", "data/sample.csv")
# A run must end within 180 s; this leaves room to report after a hang.
RUN_DEADLINE_S = 165.0
# Printed with the end-to-end metrics but not bounded in BENCHMARK.json:
# raw quality varies too much across workload seeds (README.md).
INFO_UNITS = {"mae": "std-units", "w2": "std-units^2"}


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    # A checkout nested in another repository must not report that one's commit.
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat; (0, 0) without it."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # user nice system idle iowait irq softirq steal [guest guest_nice]; guest
    # time is already inside user and nice.
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_rep(args, work: Path, rep_index: int, kind: str, deadline: float) -> dict:
    """One repetition in a fresh process: its record, or the reason it failed."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--work", str(work), "--rep", str(rep_index),
    ]
    cmd += {"plain": [], "traced": ["--traced"], "inherited": ["--inherited-blas"]}[kind]
    cmd += ["--smoke"] * args.smoke + ["--corrupt"] * args.corrupt
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": "repetition timed out"}
    if proc.returncode != 0:
        return {"error": f"worker exited with {proc.returncode}: {err[-2000:]}"}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"worker printed no record: {err[-2000:]}"}


def run_workload(args) -> tuple[list[dict], float, float]:
    """Closed loop of repetitions.

    With --trace 1 they cycle through untraced, traced and, where the
    workload pins the program's BLAS threads, untraced with the inherited
    BLAS setting. The loop runs until each kind and each of the workload's
    input draws has run once and the time is up.
    """
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    kinds = ["plain"]
    min_reps = 1
    reps: list[dict] = []
    steal0, total0 = cpu_ticks()
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    try:
        while True:
            kind = kinds[len(reps) % len(kinds)]
            rep_start = time.perf_counter()
            rep = run_rep(args, work, len(reps), kind, deadline)
            # The first repetition also builds the reference the others are
            # checked against; that time is not expected again.
            next_s = time.perf_counter() - rep_start - rep.get("reference_s", 0.0)
            rep["kind"] = kind
            reps.append(rep)
            if len(reps) == 1:
                if args.trace:
                    kinds += ["traced"] + ["inherited"] * bool(rep.get("blas_pinnable"))
                min_reps = max(len(kinds), rep.get("draws", 1))
            elapsed = time.perf_counter() - start
            if len(reps) >= min_reps and elapsed + next_s > args.seconds:
                break
            if elapsed + next_s > RUN_DEADLINE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall_s = time.perf_counter() - start
    steal1, total1 = cpu_ticks()
    steal_frac = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    return reps, wall_s, steal_frac


def is_failed(rep: dict) -> bool:
    return "error" in rep or bool(rep.get("failures"))


def median(reps: list[dict], key) -> float:
    return statistics.median(key(r) for r in reps)


def draw_mean(reps: list[dict], key) -> float:
    """Mean over the input draws of each draw's median, so that every draw
    weighs the same however many repetitions it got."""
    draws = sorted({r["draw"] for r in reps})
    return statistics.fmean(median([r for r in reps if r["draw"] == d], key) for d in draws)


def end_to_end(measured: list[dict]) -> dict[str, float]:
    return {
        "setup_s": median(measured, lambda r: r["setup_s"]),
        "run_s": median(measured, lambda r: r["run_s"]),
        "peak_rss_mb": median(measured, lambda r: r["peak_rss_mb"]),
        "mae_rel": draw_mean(measured, lambda r: r["mae"] / r["mae_base"]),
        "w2_rel": draw_mean(measured, lambda r: r["w2"] / r["w2_base"]),
        "mae": draw_mean(measured, lambda r: r["mae"]),
        "w2": draw_mean(measured, lambda r: r["w2"]),
    }


def per_layer(measured: list[dict]) -> dict[str, float]:
    traced, plain, inherited = (
        [r for r in measured if r["kind"] == k] for k in ("traced", "plain", "inherited")
    )
    if not traced or not plain:
        raise RuntimeError("the traced run needs one traced and one untraced repetition")
    values = {
        name: median(traced, lambda r, n=name: r["layers"][n])
        for name in traced[0]["layers"]
    }
    plain_run_s = median(plain, lambda r: r["run_s"])
    values["trace.overhead_frac"] = median(traced, lambda r: r["run_s"]) / plain_run_s - 1.0
    # 0 where the workload does not pin BLAS threads, like a layer it does not use.
    values["cli.inherited_blas_slowdown"] = (
        median(inherited, lambda r: r["run_s"]) / plain_run_s if inherited else 0.0
    )
    return values


def run_one(args, spec: dict) -> dict:
    """Run one workload in one mode; print its table and write its results."""
    reps, wall_s, steal_frac = run_workload(args)
    attempted = len(reps)
    failed = sum(is_failed(r) for r in reps)
    measured = [r for r in reps if "error" not in r]
    if not measured:
        for rep in reps:
            print(rep["error"], file=sys.stderr)
        raise SystemExit(f"{args.workload}: no repetition produced a measurement")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(measured) if args.trace else end_to_end(measured)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    info = {}
    if not args.trace:
        info = {k: {"value": values[k], "unit": u} for k, u in INFO_UNITS.items()}
        # 0 on a healthy commit, so it cannot carry a relative bound.
        info["failed_frac"] = {"value": failed / attempted, "unit": "fraction"}
        # Time the hypervisor gave this machine's CPUs to others during the
        # run: one cause of a run_s that rises with setup_s.
        info["host.steal_frac"] = {"value": steal_frac, "unit": "fraction"}

    env = dict(measured[0]["env"], git_commit=git_commit(), workload_seed=args.seed)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} wall_s={wall_s:.1f}")
    print("# env " + json.dumps(env, sort_keys=True))
    for rep in reps:
        if is_failed(rep):
            print(f"# failed: {rep.get('error') or '; '.join(rep['failures'])}")
    for name, m in {**metrics, **info}.items():
        print(f"{args.workload:<18} {name:<28} {m['value']:>16.6g} {m['unit']}")

    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    out = Path(args.out_dir) / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(
        {**result, "info": info, "env": env, "seconds": args.seconds,
         "smoke": args.smoke, "repetitions": reps},
        indent=1, sort_keys=True,
    ) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="one workload name, or 'all' (default) for every one")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end run, 1: traced run (default with 'all': both)")
    parser.add_argument("--out-dir", default=str(ROOT / ".bench_out"))
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb every output before it is checked, for tests")
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a knewimp checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if args.workload != "all":
        args.trace = args.trace or 0
        print(json.dumps(run_one(args, spec)))
        return 0
    results = {}
    for name in names:
        for trace in ((0, 1) if args.trace is None else (args.trace,)):
            run_args = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
            results[f"{name}/trace{trace}"] = run_one(run_args, spec)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: r["metrics"] for k, r in results.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
