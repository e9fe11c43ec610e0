"""One benchmark repetition, run in a fresh process by bench/run.py.

The process generates the workload's inputs from the seed, calls the
program once inside the timed region, checks its output and prints one
JSON record as the last line of standard output. setup_s counts from the
first line of this file, so imports are part of it.

    python bench/worker.py --workload wine_flow --seed 0 --work DIR [--rep 0]
        [--traced] [--inherited-blas]
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.optimize import linear_sum_assignment  # noqa: E402

imputer = importlib.import_module("knewimp.imputer")
kernel = importlib.import_module("knewimp.kernel")
missingness = importlib.import_module("knewimp.missingness")
score = importlib.import_module("knewimp.score")
tabular = importlib.import_module("knewimp.tabular")

from tracing import Tracer, layer_metrics  # noqa: E402

MISSING_RATE = 0.3
# Relative tolerance for "same as the first repetition": repeated runs of one
# seed may differ only by floating-point round-off.
ROUND_OFF = 1e-9

# Library workloads call knewimp() on synthetic AR(1) Gaussian data; the CLI
# workload runs `knewimp experiment` as a subprocess. Steps and epochs are
# cut from the defaults so that a 40 s run holds five or more repetitions,
# which the medians need on a noisy machine; README.md says why each
# workload exists. pin_blas runs the program with one BLAS thread unless the
# repetition asks for the inherited setting: two CLI workers each running
# the inherited BLAS threads oversubscribe the cores, and their run time
# then swings with the scheduler (README.md, "BLAS threads"). Repetition r
# draws its masks from draw r % draws of the workload seed; several draws
# per run steady the quality of the small CLI table across workload seeds.
WORKLOADS = {
    "wine_flow": {
        "kind": "library", "n": 4898, "d": 11, "hidden": 256,
        "epochs": 3, "steps": 6, "loops": 1, "median_bandwidth": False,
    },
    "score_train": {
        "kind": "library", "n": 1000, "d": 16, "hidden": 256,
        "epochs": 100, "steps": 12, "loops": 1, "median_bandwidth": True,
    },
    "experiment_sample": {
        "kind": "cli", "csv": "data/sample.csv", "seeds": 2, "hidden": 256,
        "epochs": 40, "steps": 100, "loops": 2, "pin_blas": True, "draws": 5,
    },
}
# Smoke mode: the same code paths at tiny shapes, for the benchmark's tests.
SMOKE = {
    "wine_flow": {"n": 150, "hidden": 16, "epochs": 2, "steps": 3},
    "score_train": {"n": 100, "hidden": 16, "epochs": 4, "steps": 3},
    "experiment_sample": {"hidden": 16, "epochs": 2, "steps": 3},
}


def workload_spec(name: str, smoke: bool) -> dict:
    spec = dict(WORKLOADS[name])
    if smoke:
        spec.update(SMOKE[name])
    return spec


def ar1_gaussian(n: int, d: int, seed: int, rho: float = 0.6) -> np.ndarray:
    """Gaussian rows whose column correlation decays as rho ** |i - j|."""
    rng = np.random.default_rng(seed)
    cov = rho ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    return rng.standard_normal((n, d)) @ np.linalg.cholesky(cov).T


def exact_w2(a: np.ndarray, b: np.ndarray) -> float:
    """Squared 2-Wasserstein distance of two equal-size uniform clouds."""
    cost = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * (a @ b.T)
    rows, cols = linear_sum_assignment(cost)
    diff = a[rows] - b[cols]
    return float((diff * diff).sum(1).mean())


def observed_zscore(truth: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """truth standardised by the mean and sample std of its observed cells."""
    z = np.empty_like(truth)
    for j in range(truth.shape[1]):
        col = truth[mask[:, j] == 1.0, j]
        std = max(col.std(ddof=1) if col.size >= 2 else 0.0, 1e-12)
        z[:, j] = (truth[:, j] - col.mean()) / std
    return z


def mean_fill(z: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Baseline: every missing cell gets its column's observed mean."""
    obs = mask == 1.0
    means = np.array([z[obs[:, j], j].mean() for j in range(z.shape[1])])
    return np.where(obs, z, means)


def mae(truth: np.ndarray, x: np.ndarray, mask: np.ndarray) -> float:
    missing = mask == 0.0
    return float(np.abs(truth[missing] - x[missing]).mean())


def w2_incomplete(truth: np.ndarray, x: np.ndarray, mask: np.ndarray) -> float:
    rows = (mask == 0.0).any(axis=1)
    return exact_w2(truth[rows], x[rows])


def differs(a: float, b: float) -> bool:
    return not abs(a - b) <= ROUND_OFF * max(abs(a), abs(b), 1e-300)


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, or 0 when it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return 0
    for lib in sorted({t for t in maps.split() if "openblas" in t and ".so" in t}):
        dll = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy without mode="dicts" or a different layout
        blas_id = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_id,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
        "knewimp_threads_env": os.environ.get("KNEWIMP_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


class Reference:
    """The first passing repetition of a draw, which later ones must match."""

    def __init__(self, work: Path, draw: int) -> None:
        self.meta_path = work / f"reference-{draw}.json"
        self.matrix_path = work / f"reference-{draw}.npy"

    def load(self):
        if not self.meta_path.exists():
            return None, None
        meta = json.loads(self.meta_path.read_text())
        matrix = np.load(self.matrix_path) if self.matrix_path.exists() else None
        return meta, matrix

    def save(self, meta: dict, matrix=None) -> None:
        if matrix is not None:
            np.save(self.matrix_path, matrix)
        self.meta_path.write_text(json.dumps(meta))


def run_library(spec: dict, seed: int, work: Path, corrupt: bool) -> dict:
    data_seed, mask_seed, model_seed = (
        int(v) for v in np.random.SeedSequence(seed).generate_state(3)
    )
    csv_path = work / "input.csv"
    np.savetxt(csv_path, ar1_gaussian(spec["n"], spec["d"], data_seed),
               delimiter=",", fmt="%.17g")
    table = tabular.load_csv(str(csv_path))
    mask = missingness.simulate(
        table.values,
        missingness.MissingSpec(missingness.Mechanism.MCAR, MISSING_RATE, seed=mask_seed),
    )
    ds_std, _ = tabular.standardize(tabular.from_complete(table.values, mask))
    program_input = dataclasses.replace(ds_std, truth=None)
    dcfg = score.DsmConfig(epochs=spec["epochs"])
    kcfg = kernel.KernelConfig(use_median_heuristic=spec["median_bandwidth"])
    wcfg = imputer.WgfConfig(num_steps=spec["steps"], num_loops=spec["loops"])
    setup_s = time.perf_counter() - _PROCESS_START

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    call_start = time.perf_counter()
    result = imputer.knewimp(
        program_input, dcfg, kcfg, wcfg, hidden=spec["hidden"], seed=model_seed
    )
    run_s = time.perf_counter() - call_start
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    x = np.array(result.imputed, dtype=np.float64)
    observed = mask == 1.0
    if corrupt:
        i, j = np.argwhere(observed)[0]
        x[i, j] = np.nextafter(x[i, j], np.inf)
    failures = []
    if x.shape != mask.shape:
        raise RuntimeError(f"imputed shape {x.shape} != input shape {mask.shape}")
    if not np.all(np.isfinite(x)):
        failures.append("non-finite imputed cell")
    if not np.array_equal(x[observed].view(np.uint64),
                          program_input.values[observed].view(np.uint64)):
        failures.append("observed cell not bit-identical to the input")
    truth = ds_std.truth
    record = {"mae": mae(truth, x, mask)}
    reference = Reference(work, 0)
    ref_meta, ref_matrix = reference.load()
    reference_start = time.perf_counter()
    if ref_meta is None:
        base = mean_fill(truth, mask)
        record.update(
            w2=w2_incomplete(truth, x, mask),
            mae_base=mae(truth, base, mask),
            w2_base=w2_incomplete(truth, base, mask),
        )
        if not failures:
            reference.save(record, x)
    else:
        # w2 is not recomputed: a matrix equal to the first repetition's
        # within round-off has the same W2 within round-off.
        record.update({k: ref_meta[k] for k in ("w2", "mae_base", "w2_base")})
        scale = max(float(np.abs(ref_matrix).max()), 1.0)
        if float(np.abs(x - ref_matrix).max()) > ROUND_OFF * scale:
            failures.append("imputed matrix differs from the first repetition")
        if differs(record["mae"], ref_meta["mae"]):
            failures.append("mae differs from the first repetition")

    useful_rows = int((~observed).any(axis=1).sum())
    record.update(
        reference_s=time.perf_counter() - reference_start if ref_meta is None else 0.0,
        setup_s=setup_s,
        run_s=run_s,
        call_start=call_start,
        peak_rss_mb=ru1.ru_maxrss / 1024.0,
        cpu_s=(ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        ctx_switches_invol=ru1.ru_nivcsw - ru0.ru_nivcsw,
        estimate_s=result.estimate_seconds,
        impute_s=result.impute_seconds,
        rows=spec["n"],
        useful_rows=useful_rows,
        flow_rows=spec["n"],
        flow_steps=spec["steps"] * spec["loops"],
        failures=failures,
    )
    return record


def run_cli(
    spec: dict, seed: int, draw: int, work: Path, corrupt: bool, spans_path, pin_blas: bool
) -> dict:
    csv_path = ROOT / spec["csv"]
    truth = tabular.load_csv(str(csv_path), has_header=True).values
    base = spec["draws"] * seed + draw
    seeds = [spec["seeds"] * base + 1 + k for k in range(spec["seeds"])]
    masks = {
        s: missingness.simulate(
            truth,
            missingness.MissingSpec(missingness.Mechanism.MAR, MISSING_RATE, seed=s),
        )
        for s in seeds
    }
    expected_base_mae = float(np.mean([
        mae(observed_zscore(truth, m), mean_fill(observed_zscore(truth, m), m), m)
        for m in masks.values()
    ]))
    out_dir = work / f"experiment-{time.monotonic_ns()}"
    cli_args = [
        "experiment", "--input", str(csv_path), "--has-header",
        "--mechanism", "mar", "--rate", str(MISSING_RATE),
        "--seeds", ",".join(map(str, seeds)), "--output-dir", str(out_dir),
        "--steps", str(spec["steps"]), "--epochs", str(spec["epochs"]),
        "--loops", str(spec["loops"]), "--hidden", str(spec["hidden"]),
    ]
    if spans_path is None:
        cmd = [sys.executable, "-m", "knewimp.cli", *cli_args]
    else:
        cmd = [sys.executable, str(BENCH / "tracing.py"), "--spans", str(spans_path),
               "--", *cli_args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    if pin_blas:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    log_path = work / "cli.log"
    setup_s = time.perf_counter() - _PROCESS_START

    with open(log_path, "w") as log:
        call_start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        run_s = time.perf_counter() - call_start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log_path.read_text()[-2000:]
        raise RuntimeError(f"experiment exited with {proc.returncode}:\n{tail}")

    summary = json.loads((out_dir / "summary.json").read_text())["methods"]
    per_seed = [json.loads((out_dir / f"seed_{s}.json").read_text()) for s in seeds]
    record = {
        "mae": summary["knewimp"]["mae"]["mean"],
        "w2": summary["knewimp"]["wass"]["mean"],
        "mae_base": summary["mean_baseline"]["mae"]["mean"],
        "w2_base": summary["mean_baseline"]["wass"]["mean"],
    }
    if corrupt:
        record["mae_base"] *= 1.0 + 1e-6
    failures = []
    if not all(np.isfinite(v) for v in record.values()):
        failures.append("non-finite metric in summary.json")
    for s, report in zip(seeds, per_seed):
        missing = masks[s] == 0.0
        if (report["knewimp"]["m0"], report["knewimp"]["m1"]) != (
            int(missing.sum()), int(missing.any(axis=1).sum())
        ):
            failures.append(f"seed {s}: missing-cell counts differ from the mask")
    if differs(record["mae_base"], expected_base_mae):
        failures.append("mean-fill mae differs from the benchmark's own computation")
    reference = Reference(work, draw)
    ref_meta, _ = reference.load()
    if ref_meta is None:
        if not failures:
            reference.save(record)
    elif any(differs(record[k], ref_meta[k]) for k in ("mae", "w2")):
        failures.append("mae or w2 differs from the first repetition")

    record.update(
        reference_s=0.0,
        setup_s=setup_s,
        run_s=run_s,
        call_start=float("-inf"),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        ctx_switches_invol=usage.ru_nivcsw,
        estimate_s=sum(r["timings"]["estimate_seconds"] for r in per_seed),
        impute_s=sum(r["timings"]["impute_seconds"] for r in per_seed),
        rows=truth.shape[0] * len(seeds),
        useful_rows=sum(r["knewimp"]["m1"] for r in per_seed),
        flow_rows=truth.shape[0],
        flow_steps=spec["steps"] * spec["loops"] * len(seeds),
        failures=failures,
    )
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="per-run scratch directory")
    parser.add_argument("--rep", type=int, default=0, help="repetition index in the run")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--inherited-blas", action="store_true",
                        help="do not pin the program to one BLAS thread")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb the output before checking it")
    args = parser.parse_args()
    spec = workload_spec(args.workload, args.smoke)
    work = Path(args.work)
    pin_blas = spec.get("pin_blas", False) and not args.inherited_blas
    draws = spec.get("draws", 1)
    draw = args.rep % draws

    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    if spec["kind"] == "library":
        record = run_library(spec, args.seed, work, args.corrupt)
        trace = None if tracer is None else {
            "spans": tracer.spans, "installed": tracer.installed,
        }
    else:
        spans_path = work / "spans.json" if args.traced else None
        record = run_cli(spec, args.seed, draw, work, args.corrupt, spans_path, pin_blas)
        trace = json.loads(spans_path.read_text()) if args.traced else None

    env = environment()
    layers = {
        "imputer.estimate_s": record["estimate_s"],
        "imputer.impute_s": record["impute_s"],
        "imputer.useful_row_frac": record["useful_rows"] / record["rows"],
        "imputer.rows": record["rows"],
        "proc.blas_threads": 1 if pin_blas else env["blas_threads"],
        "proc.cpu_s": record["cpu_s"],
        "proc.cpu_util": record["cpu_s"] / (record["run_s"] * env["nproc"]),
        "proc.ctx_switches_invol": record["ctx_switches_invol"],
    }
    if trace is not None:
        record["probes"] = trace["installed"]
        layers.update(layer_metrics(
            trace["spans"],
            run_s=record["run_s"],
            window_start=record["call_start"],
            flow_steps=record["flow_steps"],
            flow_rows=record["flow_rows"],
        ))
    del record["call_start"]
    record.update(
        traced=args.traced, draw=draw, draws=draws,
        blas_pinnable=spec.get("pin_blas", False),
        blas_pinned=pin_blas, layers=layers,
        env={**env, "program_blas_threads": layers["proc.blas_threads"]},
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
