"""Span tracing for the benchmark, installed from outside the package.

The tracer replaces each probed function with a wrapper under the name the
calling module resolves it by (``knewimp.imputer.train`` is the name the
flow loop calls, ``knewimp.cli.simulate`` the one the CLI calls), so the
package itself is never edited. Spans stay in memory and are summarised
into the per-layer table once the repetition ends.

Run as a script, this module starts the ``knewimp`` CLI under the tracer
and writes the spans to a JSON file when the CLI returns:

    python bench/tracing.py --spans spans.json -- experiment --input ...
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (module, attribute path, span name). Each probe wraps the attribute as the
# named module resolves it at call time; a probe whose target no longer
# exists is skipped, so the benchmark keeps running after a refactor. The
# two attributes of _FlowWorkspace / _velocity_with_workspace are private:
# they are labelled probes on the flow's own state, because the Euler loop
# builds its Gram and velocity there rather than through the public names.
PROBES = [
    ("knewimp.imputer", "forward", "score.forward"),
    ("knewimp.imputer", "train", "score.train"),
    ("knewimp.imputer", "init_network", "score.init_network"),
    ("knewimp.score", "dsm_loss_and_grad", "score.epoch"),
    ("knewimp.imputer", "gram", "kernel.gram"),
    ("knewimp.imputer", "_FlowWorkspace.gram_into", "kernel.gram"),
    ("knewimp.kernel", "median_bandwidth", "kernel.median_bandwidth"),
    ("knewimp.imputer", "velocity", "imputer.velocity"),
    ("knewimp.imputer", "_velocity_with_workspace", "imputer.velocity"),
    ("knewimp.imputer", "euler_impute", "imputer.euler_impute"),
    ("knewimp.imputer", "initialize_missing", "tabular.initialize_missing"),
    ("knewimp.metrics", "mae", "metrics.mae"),
    ("knewimp.metrics", "wasserstein2", "metrics.wasserstein2"),
    ("knewimp.metrics", "evaluate", "metrics.evaluate"),
    ("knewimp.missingness", "simulate", "missingness.simulate"),
    ("knewimp.tabular", "load_csv", "tabular.load_csv"),
    ("knewimp.tabular", "from_complete", "tabular.from_complete"),
    ("knewimp.tabular", "standardize", "tabular.standardize"),
    ("knewimp.cli", "knewimp", "imputer.knewimp"),
    ("knewimp.cli", "mean_impute", "imputer.mean_impute"),
    ("knewimp.cli", "simulate", "missingness.simulate"),
    ("knewimp.cli", "load_csv", "tabular.load_csv"),
    ("knewimp.cli", "from_complete", "tabular.from_complete"),
    ("knewimp.cli", "standardize", "tabular.standardize"),
]


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self) -> None:
        # (id, name, parent id or None, thread ident, start, end)
        self.spans: list[tuple] = []
        self.installed: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller, with no parent."""
        self.spans.append((next(self._ids), name, None, threading.get_ident(), start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (span_id, name, parent, threading.get_ident(), start, end)
                )

        return traced

    def install(self) -> None:
        """Wrap every probe whose module and attribute exist."""
        for module_name, path, span in PROBES:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                continue
            setattr(owner, attr, self.wrap(span, getattr(owner, attr)))
            self.installed.append(f"{module_name}.{path}")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, covered_to = 0.0, float("-inf")
    for start, end in sorted(intervals):
        total += max(end - max(start, covered_to), 0.0)
        covered_to = max(covered_to, end)
    return total


def layer_metrics(
    spans: list,
    *,
    run_s: float,
    window_start: float,
    flow_steps: int,
    flow_rows: int,
) -> dict[str, float]:
    """Summarise spans into the per-layer table.

    window_start excludes spans recorded before the timed call (setup) from
    the coverage figure; flow_steps is the number of Euler steps the run
    took in total and flow_rows the row count N of one flow.
    """
    by_id = {s[0]: s for s in spans}
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    for _, name, _, _, start, end in spans:
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)

    def per_call_ms(name: str) -> float:
        return 1e3 * total.get(name, 0.0) / count[name] if count.get(name) else 0.0

    trajectory_s = sum(
        s[5] - s[4] for s in spans
        if s[1].startswith("metrics.") and s[2] is not None
        and by_id[s[2]][1] == "imputer.euler_impute"
    )
    flow_s = total.get("imputer.euler_impute", 0.0) - trajectory_s
    steps = max(flow_steps, 1)
    step_ms = 1e3 * flow_s / steps
    top_level = [(s[4], s[5]) for s in spans if s[2] is None and s[5] > window_start]
    epochs = count.get("score.epoch", 0)
    return {
        "score.forward.calls": count.get("score.forward", 0),
        "score.forward.ms": per_call_ms("score.forward"),
        "score.epoch.ms": 1e3 * total.get("score.train", 0.0) / epochs if epochs else 0.0,
        "score.train.s": total.get("score.train", 0.0),
        "kernel.gram.ms": per_call_ms("kernel.gram"),
        "kernel.gram.bytes": 8 * flow_rows * flow_rows,
        "kernel.median_bandwidth.ms": per_call_ms("kernel.median_bandwidth"),
        "imputer.velocity.ms": per_call_ms("imputer.velocity"),
        "imputer.step.ms": step_ms,
        "imputer.step_self.ms": step_ms - 1e3 * (
            total.get("score.forward", 0.0) + total.get("kernel.gram", 0.0)
        ) / steps,
        "imputer.flow.s": flow_s,
        "imputer.trajectory.s": trajectory_s,
        "metrics.wasserstein2.calls": count.get("metrics.wasserstein2", 0),
        "metrics.wasserstein2.ms": per_call_ms("metrics.wasserstein2"),
        "metrics.evaluate.s": total.get("metrics.evaluate", 0.0),
        "missingness.simulate.ms": per_call_ms("missingness.simulate"),
        "tabular.load_csv.ms": per_call_ms("tabular.load_csv"),
        "tabular.standardize.ms": per_call_ms("tabular.standardize"),
        "cli.workers": len({s[3] for s in spans if s[1] == "imputer.knewimp"}),
        "trace.coverage_frac": _union_length(top_level) / run_s if run_s > 0 else 0.0,
    }


def _main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracing.py --spans OUT.json -- <knewimp CLI arguments>", file=sys.stderr)
        return 1
    out, cli_args = argv[1], argv[3:]
    tracer = Tracer()
    start = time.perf_counter()
    cli = importlib.import_module("knewimp.cli")
    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "installed": tracer.installed}, fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
