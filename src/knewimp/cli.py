"""Command-line experiment harness.

Subcommands: simulate (empty the cells of complete data that a drawn
missingness mask hides), impute (fill a masked CSV; it never reads ground
truth), evaluate (score an imputed CSV against ground truth on the empty
cells of the masked CSV, whose observed cells must be the truth's), and
experiment (simulate + impute + evaluate across seeds, with a mean-fill
baseline; the seeds run at once through lanes.each, which owns the pool
and its BLAS pin). Timings come from the benchmark, `python3 bench/run.py`.

Exit codes: 0 success, 1 usage error, 2 runtime/data error. All commands
are deterministic given their full flag set. A JSON config file may supply
any flag value, keyed by the flag's destination name and checked like the
flag. A typed flag beats the config file, which beats the flag's default.
A model setting that neither sets keeps the default of the object that
owns it (DsmConfig, KernelConfig, WgfConfig, knewimp()).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import lanes
from . import metrics as metrics_mod
from .imputer import WgfConfig, knewimp, mean_impute
from .kernel import KernelConfig
from .missingness import Mechanism, MissingSpec, simulate
from .score import DsmConfig, load_network, save_network
from .tabular import TabularDataset, from_complete, load_csv, standardize, write_csv

# Path flags: a config file may not supply them.
_PATH_KEYS = frozenset({
    "input", "output", "output_dir", "masked", "truth", "save_net", "load_net", "imputed",
})


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 and without flag
    abbreviations, so a removed flag (evaluate --mask) is refused instead of
    read as the flag it prefixes (--masked)."""

    commands: dict[str, argparse.ArgumentParser]  # subcommand parsers, top level only

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_model_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="ner_weight", type=float, help="attraction weight")
    p.add_argument("--step-size", dest="step_size", type=float)
    p.add_argument("--steps", type=int, help="Euler steps per round")
    p.add_argument("--loops", type=int, help="train/simulate rounds")
    p.add_argument("--epochs", type=int, help="training epochs per round")
    p.add_argument("--sigma", type=float, help="DSM noise scale")
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--hidden", type=int, help="score network hidden width")
    p.add_argument("--bandwidth", type=float, help="RBF kernel bandwidth")
    p.add_argument(
        "--median-bandwidth",
        dest="median_bandwidth",
        action="store_const",
        const=True,
        help="take the bandwidth once per round, from the round's starting matrix",
    )


def _add_mechanism_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mechanism", default="mcar", choices=[m.value for m in Mechanism])
    p.add_argument("--rate", type=float, default=0.3)


def build_parser() -> _Parser:
    parser = _Parser(prog="knewimp", description=__doc__)
    parser.add_argument("--config", help="JSON file supplying default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a missingness mask")
    p.add_argument("--input", required=True, help="complete numeric CSV")
    p.add_argument("--has-header", dest="has_header", action="store_true")
    _add_mechanism_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", default=".", help="where masked.csv goes")

    p = sub.add_parser("impute", help="fill the missing cells of a CSV")
    p.add_argument("--input", required=True, help="CSV whose empty cells are missing")
    p.add_argument("--has-header", dest="has_header", action="store_true")
    p.add_argument("--output", required=True, help="imputed CSV path")
    p.add_argument("--save-net", dest="save_net", help="score network checkpoint out")
    p.add_argument("--load-net", dest="load_net", help="warm-start checkpoint in")
    p.add_argument("--seed", type=int, default=0)
    _add_model_options(p)

    p = sub.add_parser("evaluate", help="score an imputed CSV against ground truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--imputed", required=True)
    p.add_argument("--masked", required=True, help="masked CSV; its empty cells are scored")
    p.add_argument("--has-header", dest="has_header", action="store_true")
    p.add_argument("--output", help="report JSON path (stdout if omitted)")

    p = sub.add_parser("experiment", help="simulate/impute/evaluate across seeds")
    p.add_argument("--input", required=True, help="complete numeric CSV")
    p.add_argument("--has-header", dest="has_header", action="store_true")
    _add_mechanism_options(p)
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seed list")
    p.add_argument("--output-dir", required=True)
    _add_model_options(p)

    parser.commands = sub.choices
    return parser


def _check_config(parser: _Parser, config: dict) -> dict:
    """The config values, each converted as if typed after its flag.

    A key is the destination name of a flag of any subcommand (ner_weight
    for --lambda), so one file can serve several subcommands. A switch takes
    JSON true or false. A path key, or a bad key or value, is a usage error
    naming the key.
    """
    flags = {a.dest: a for sub in parser.commands.values() for a in sub._actions
             if a.option_strings and a.dest != "help"}
    dests = {f: a.dest for a in flags.values() for f in a.option_strings}
    checked = {}
    for key, value in config.items():
        action = flags.get(key)
        if action is None:
            dest = dests.get("--" + key)
            hint = f"; the key of --{key} is {dest!r}" if dest else ""
            parser.error(f"config key {key!r} names no flag{hint}")
        flag = action.option_strings[0]
        if key in _PATH_KEYS:
            parser.error(f"config key {key!r} is a path: give it as the flag {flag}")
        if action.nargs == 0:
            if not isinstance(value, bool):
                parser.error(f"config key {key!r} ({flag}) must be true or false")
            checked[key] = value
            continue
        try:
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise ValueError
            checked[key] = (action.type or str)(str(value))
        except ValueError:
            parser.error(f"config key {key!r}: invalid {flag} value {value!r}")
        if action.choices is not None and checked[key] not in action.choices:
            parser.error(f"config key {key!r}: {flag} takes one of {action.choices}")
    return checked


def _given(**fields) -> dict:
    """The fields that a flag or the config file sets (not None)."""
    return {field: value for field, value in fields.items() if value is not None}


def _build_configs(args: argparse.Namespace) -> dict:
    """knewimp() keyword arguments from the model flags; an unset field keeps
    the default of the object that owns it."""
    if args.bandwidth is not None and args.median_bandwidth:
        raise ValueError("--bandwidth and --median-bandwidth both set the bandwidth; give one")
    if args.hidden is not None and args.hidden < 1:
        raise ValueError(f"--hidden must be >= 1, got {args.hidden}")
    return {
        "dcfg": DsmConfig(**_given(sigma=args.sigma, epochs=args.epochs, lr=args.lr)),
        "kcfg": KernelConfig(**_given(
            bandwidth=args.bandwidth, use_median_heuristic=args.median_bandwidth,
        )),
        "wcfg": WgfConfig(**_given(
            ner_weight=args.ner_weight, step_size=args.step_size, num_steps=args.steps,
            num_loops=args.loops,
        )),
        **_given(hidden=args.hidden),
    }


def _load_complete(path: str, has_header: bool, role: str) -> TabularDataset:
    """load_csv(path), refused unless no cell is missing."""
    ds = load_csv(path, has_header=has_header)
    if ds.mask.min() < 1.0:
        raise ValueError(f"{path}: {role} must be complete")
    return ds


def cmd_simulate(args: argparse.Namespace) -> int:
    ds = _load_complete(args.input, args.has_header, "simulate input")
    spec = MissingSpec(args.mechanism, args.rate, args.seed)
    mask = simulate(ds.values, spec)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    masked = np.where(mask == 1.0, ds.values, np.nan)
    write_csv(out / "masked.csv", masked, ds.column_names)
    achieved = float(1.0 - mask.mean())
    print(f"wrote {out / 'masked.csv'}; achieved missing rate {achieved:.4f}")
    return 0


def cmd_impute(args: argparse.Namespace) -> int:
    model = _build_configs(args)
    ds = load_csv(args.input, has_header=args.has_header)
    ds_std, stats = standardize(ds)
    net0 = None
    if args.load_net:
        net0 = load_network(args.load_net)
        # The checkpoint fixes the width, so knewimp() gets no hidden to check.
        width = net0.layer_dims[1]
        if model.pop("hidden", width) != width:
            raise ValueError(
                f"{args.load_net}: --hidden gives hidden width {args.hidden}, "
                f"the checkpoint has hidden width {width}"
            )
    result = knewimp(ds_std, **model, seed=args.seed, initial_net=net0)
    if args.save_net:
        save_network(args.save_net, result.network)
    imputed = stats.invert(result.imputed)
    observed = ds.mask == 1.0
    imputed[observed] = ds.values[observed]
    write_csv(args.output, imputed, ds.column_names)
    print(
        f"wrote {args.output} "
        f"(estimate {result.estimate_seconds:.2f}s, impute {result.impute_seconds:.2f}s)"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    truth = _load_complete(args.truth, args.has_header, "truth CSV")
    imputed = _load_complete(args.imputed, args.has_header, "imputed CSV")
    masked = load_csv(args.masked, has_header=args.has_header)
    if masked.values.shape != truth.values.shape or imputed.values.shape != truth.values.shape:
        raise ValueError("truth, imputed, and masked shapes must match")
    # Only the empty cells are scored, so a masked table of other data would
    # score without a word unless its observed cells are the truth's.
    differ = np.argwhere((masked.mask == 1.0) & (masked.values != truth.values))
    if differ.size:
        i, j = differ[0]
        raise ValueError(
            f"{args.masked}: cell at row {i + 1}, column {j + 1} is {masked.values[i, j]}, "
            f"where --truth has {truth.values[i, j]}"
        )
    ds = from_complete(truth.values, masked.mask, truth.column_names)
    ds_std, stats = standardize(ds)
    report = metrics_mod.evaluate(ds_std, stats.apply(imputed.values))
    payload = report.to_json()
    if args.output:
        Path(args.output).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    return 0


def _experiment_seed(truth_ds, args, model, seed):
    spec = MissingSpec(args.mechanism, args.rate, seed)
    mask = simulate(truth_ds.values, spec)
    # The W2 evaluation of the incomplete rows must fit before any training.
    metrics_mod.check_w2_memory(int((mask == 0.0).any(axis=1).sum()))
    ds = from_complete(truth_ds.values, mask, truth_ds.column_names)
    ds_std, _ = standardize(ds)
    result = knewimp(ds_std, **model, seed=seed)
    report_model = metrics_mod.evaluate(ds_std, result.imputed)
    report_mean = metrics_mod.evaluate(ds_std, mean_impute(ds_std))
    return {
        "seed": seed,
        "knewimp": report_model.as_dict(),
        "mean_baseline": report_mean.as_dict(),
        "timings": {
            "estimate_seconds": result.estimate_seconds,
            "impute_seconds": result.impute_seconds,
        },
    }


def _seed_list(text: str) -> list[int]:
    """The --seeds value: comma-separated, distinct, non-negative integers."""
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        seeds = []
    if not seeds or len(set(seeds)) < len(seeds) or min(seeds) < 0:
        raise ValueError(
            f"--seeds takes distinct comma-separated non-negative integers, got {text!r}"
        )
    return seeds


def _aggregate(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std}


def cmd_experiment(args: argparse.Namespace) -> int:
    model = _build_configs(args)
    seeds = _seed_list(args.seeds)
    truth_ds = _load_complete(args.input, args.has_header, "experiment input")
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    def run_one(seed: int):
        try:
            return _experiment_seed(truth_ds, args, model, seed)
        except Exception as exc:
            raise RuntimeError(f"seed {seed} failed: {exc}") from exc

    reports = lanes.each(run_one, seeds)

    for report in reports:
        path = out / f"seed_{report['seed']}.json"
        path.write_text(json.dumps(report, sort_keys=True) + "\n", encoding="utf-8")

    summary = {
        "input": args.input,
        "mechanism": args.mechanism,
        "rate": args.rate,
        "seeds": seeds,
        "methods": {
            name: {
                metric: _aggregate([r[name][metric] for r in reports])
                for metric in ("mae", "wass")
            }
            for name in ("knewimp", "mean_baseline")
        },
    }
    payload = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    (out / "summary.json").write_text(payload, encoding="utf-8")
    print(payload, end="")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "impute": cmd_impute,
    "evaluate": cmd_evaluate,
    "experiment": cmd_experiment,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"knewimp: cannot read config: {exc}", file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print("knewimp: config file must hold a JSON object", file=sys.stderr)
            return 2
        # Config values become flag defaults, so a typed flag still wins.
        parser.commands[args.command].set_defaults(**_check_config(parser, config))
        args = parser.parse_args(argv)
    try:
        _validate_flags(parser.commands[args.command], args)
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except (ValueError, RuntimeError, FloatingPointError, OSError, MemoryError) as exc:
        origin = type(exc).__module__.rsplit(".", 1)[-1]
        print(f"knewimp {args.command} ({origin}): {exc}", file=sys.stderr)
        return 2


def _validate_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Range-check numeric flags and check flag pairs, so bad values exit
    as usage errors before any file is read. parser is the subcommand's, so
    the error shows that command's usage, as argparse's own errors do."""
    try:
        if args.command in ("simulate", "impute") and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.command in ("simulate", "experiment"):
            MissingSpec(args.mechanism, args.rate, 0)
        if args.command in ("impute", "experiment"):
            _build_configs(args)
        if args.command == "experiment":
            _seed_list(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
