import ast
import re
import sys
from pathlib import Path

import pytest

import knewimp
import knewimp.lanes

PACKAGE = Path(knewimp.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
SIBLINGS = {path.stem for path in PACKAGE.glob("*.py")}


def private_cross_module_names(path):
    """(line, name) of each underscore name that the module at path takes
    from a sibling module: imported from it, or read off it as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in SIBLINGS:
                    aliases.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_takes_a_sibling_private_name():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_cross_module_names(path))
    }
    assert found == {}


def test_walker_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import kernel as k\nfrom .score import _forward, forward\nk._gram_tile\n",
        encoding="utf-8",
    )
    assert private_cross_module_names(probe) == [(2, "score._forward"), (3, "k._gram_tile")]


# Packages that start threads or processes, and the pool classes they
# start them with.
THREAD_PACKAGES = {"concurrent", "multiprocessing"}
EXECUTORS = {"ThreadPoolExecutor", "ProcessPoolExecutor"}
PIN = {"pinned", "_pinned"}


def lane_knowledge(path):
    """(line, name) of each place the module at path reads LANES or the BLAS
    pin of lanes, imports concurrent.futures or multiprocessing, or names
    threading.Thread or a pool executor: imported, read bare or read off a
    module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    threading_aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "threading"
    }
    lanes_aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
        if alias.name == "lanes"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                (node.lineno, alias.name)
                for alias in node.names
                if alias.name.split(".")[0] in THREAD_PACKAGES
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            found += [
                (node.lineno, f"{module}.{alias.name}")
                for alias in node.names
                if (node.level == 0 and module.split(".")[0] in THREAD_PACKAGES)
                or alias.name == "LANES"
                or alias.name in EXECUTORS
                or (module == "threading" and alias.name == "Thread")
                or (node.level == 1 and module == "lanes" and alias.name in PIN)
            ]
        elif isinstance(node, ast.Name) and (node.id == "LANES" or node.id in EXECUTORS):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and (
            node.attr == "LANES"
            or node.attr in EXECUTORS
            or isinstance(node.value, ast.Name) and (
                (node.attr == "Thread" and node.value.id in threading_aliases)
                or (node.attr in PIN and node.value.id in lanes_aliases)
            )
        ):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_only_lanes_knows_the_lanes():
    # Dealing blocks to lanes, starting every thread or pool and pinning
    # BLAS for them is lanes.py's job.
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "lanes.py" and (names := lane_knowledge(path))
    }
    assert found == {}
    assert lane_knowledge(PACKAGE / "lanes.py") != []


def test_lanes_exports_no_pin():
    assert not hasattr(knewimp.lanes, "pinned")
    assert not hasattr(knewimp.lanes, "deal")


def test_lane_walker_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .lanes import LANES\n"
        "from . import lanes as ln\n"
        "import threading as th\n"
        "from threading import Thread, Lock\n"
        "n = ln.LANES + LANES\n"
        "th.Thread(target=print)\n"
        "th.Lock()\n"
        "import concurrent.futures as cf\n"
        "from concurrent.futures import ThreadPoolExecutor, wait\n"
        "from concurrent import futures\n"
        "cf.ProcessPoolExecutor()\n"
        "import multiprocessing, os\n"
        "from multiprocessing.pool import ThreadPool\n"
        "with ln.pinned(), ln._pinned(), ln.run(print, range(0)):\n"
        "    pass\n"
        "from .lanes import _pinned, deal\n",
        encoding="utf-8",
    )
    assert lane_knowledge(probe) == [
        (1, "lanes.LANES"), (4, "threading.Thread"), (5, "LANES"), (5, "ln.LANES"),
        (6, "th.Thread"), (8, "concurrent.futures"),
        (9, "concurrent.futures.ThreadPoolExecutor"), (9, "concurrent.futures.wait"),
        (10, "concurrent.futures"), (11, "cf.ProcessPoolExecutor"), (12, "multiprocessing"),
        (13, "multiprocessing.pool.ThreadPool"), (14, "ln._pinned"), (14, "ln.pinned"),
        (16, "lanes._pinned"),
    ]


# What the package may import besides the standard library and itself: the
# dependencies pyproject.toml names.
DEPENDENCIES = {"numpy", "scipy"}


def outside_imports(path):
    """(line, module) of each import in the module at path that is neither
    the standard library, the package itself, numpy nor scipy."""
    allowed = set(sys.stdlib_module_names) | DEPENDENCIES | {"knewimp"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue  # a relative import names a sibling module
        found += [(node.lineno, m) for m in modules if m.split(".")[0] not in allowed]
    return sorted(found)


def test_package_imports_only_its_dependencies():
    # A BLAS helper such as threadpoolctl would otherwise slip in unlisted.
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := outside_imports(path))
    }
    assert found == {}
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    listed = [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in pyproject["project"]["dependencies"]]
    assert sorted(listed) == sorted(DEPENDENCIES)


def test_import_walker_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import threadpoolctl\n"
        "from scipy.optimize import linear_sum_assignment\n"
        "import os, numpy.linalg, sklearn.utils as su\n"
        "from . import lanes\n"
        "from .score import forward\n"
        "from pandas import DataFrame\n"
        "from __future__ import annotations\n"
        "import knewimp.kernel\n",
        encoding="utf-8",
    )
    assert outside_imports(probe) == [(1, "threadpoolctl"), (3, "sklearn.utils"), (6, "pandas")]


def environment_reads(path):
    """(line, name) of each place the module at path reads os.environ or
    os.getenv: imported from os, or read off os or an alias of it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    os_aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "os"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                (node.lineno, f"os.{alias.name}")
                for alias in node.names
                if alias.name in ("environ", "getenv")
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in os_aliases
            and node.attr in ("environ", "getenv")
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_the_environment():
    # A setting read from an environment variable escapes both argparse and
    # --config; settings are flags, config keys or arguments.
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := environment_reads(path))
    }
    assert found == {}


def test_environment_walker_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\n"
        "import os as o\n"
        "from os import environ, getenv, path\n"
        "a = os.environ.get('A')\n"
        "b = o.getenv('B') or os.cpu_count()\n",
        encoding="utf-8",
    )
    assert environment_reads(probe) == [
        (3, "os.environ"), (3, "os.getenv"), (4, "os.environ"), (5, "o.getenv"),
    ]


def test_every_exported_name_resolves():
    missing = [name for name in knewimp.__all__ if not hasattr(knewimp, name)]
    assert missing == []
    assert len(set(knewimp.__all__)) == len(knewimp.__all__)


def test_package_exports_the_pipeline_only():
    # The layers under knewimp() are imported from their own modules.
    assert set(knewimp.__all__) == {
        "DsmConfig", "ImputationResult", "KernelConfig", "Mechanism", "MetricReport",
        "MissingSpec", "ScoreNetwork", "StandardizationStats", "TabularDataset",
        "WgfConfig", "evaluate", "from_complete", "knewimp", "load_csv", "mae",
        "mean_impute", "simulate", "standardize", "wasserstein2", "write_csv",
    }
