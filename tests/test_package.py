import ast
from pathlib import Path

import knewimp

PACKAGE = Path(knewimp.__file__).parent
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


def lane_knowledge(path):
    """(line, name) of each place the module at path reads LANES or names
    threading.Thread: imported, read bare or read off a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    threading_aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "threading"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [
                (node.lineno, f"{node.module}.{alias.name}")
                for alias in node.names
                if alias.name == "LANES" or (node.module == "threading" and alias.name == "Thread")
            ]
        elif isinstance(node, ast.Name) and node.id == "LANES":
            found.append((node.lineno, "LANES"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
            node.attr == "LANES"
            or (node.attr == "Thread" and node.value.id in threading_aliases)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_only_lanes_knows_the_lanes():
    # Dealing blocks to lanes and starting their threads is lanes.run's job.
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "lanes.py" and (names := lane_knowledge(path))
    }
    assert found == {}
    assert lane_knowledge(PACKAGE / "lanes.py") != []


def test_lane_walker_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .lanes import LANES\n"
        "from . import lanes as ln\n"
        "import threading as th\n"
        "from threading import Thread, Lock\n"
        "n = ln.LANES + LANES\n"
        "th.Thread(target=print)\n"
        "th.Lock()\n",
        encoding="utf-8",
    )
    assert lane_knowledge(probe) == [
        (1, "lanes.LANES"), (4, "threading.Thread"), (5, "LANES"), (5, "ln.LANES"),
        (6, "th.Thread"),
    ]


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
