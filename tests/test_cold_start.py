"""A cold `python -m liecontract.cli` call imports only what it uses.

Without a writable bytecode cache every cold call compiles the package and
imports its modules afresh, so the import path is cold latency.  Importing
the CLI must not load dataclasses (which pulls in inspect, dis, ast and
tokenize) or typing, and a text-format verb must not load json.  Each check
runs a fresh `python -S` interpreter, so no module `site` loads hides one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = {"dataclasses", "inspect", "json", "typing"}


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_importing_the_cli_loads_no_heavy_module():
    added = python("-c", "import sys; before = set(sys.modules); import liecontract.cli; "
                         "print(*sorted(set(sys.modules) - before))").split()
    assert "liecontract.cli" in added
    assert not HEAVY & set(added)


def test_a_text_verb_does_not_load_json():
    script = ("import sys; from liecontract.cli import main; code = main(['index', 'sl2']); "
              f"print(code, sorted(set({sorted(HEAVY)!r}) & set(sys.modules)))")
    assert python("-c", script) == "index sl2 = 1\n0 []\n"


def test_a_cold_json_verb_still_prints_json():
    assert json.loads(python("-m", "liecontract.cli", "--format", "json", "index", "sl2")) \
        == {"index": 1, "target": "sl2"}
