"""The package root imports its modules on first use, and the command line
holds OpenBLAS to one thread.

Each test runs its check in a fresh interpreter, since the test process
itself has long imported every module and numpy.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(code, **env):
    """The JSON object that ``code`` prints last, run with ``src/`` on the
    path, ``OPENBLAS_NUM_THREADS`` unset and then ``env`` added."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=environ, capture_output=True, text=True,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_import_leaves_numpy_out():
    assert run_fresh("""
import json, sys
import dbcayley
names = dir(dbcayley)
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "listed": sorted(set(dbcayley.__all__) - set(names)),
    "version": dbcayley.__version__,
}))
""") == {"numpy": False, "listed": [], "version": "0.1.0"}


def test_every_exported_name_is_its_defining_modules_object():
    result = run_fresh("""
import importlib, json
import dbcayley
exported = {name: getattr(dbcayley, name) for name in dbcayley.__all__}
from dbcayley import *
bad = []
for name, value in exported.items():
    home = importlib.import_module(f"dbcayley.{dbcayley._HOME[name]}")
    defined_in = getattr(value, "__module__", home.__name__)
    if not (value is getattr(home, name) is getattr(dbcayley, name) is globals()[name]
            and defined_in == home.__name__):
        bad.append(name)
print(json.dumps({"count": len(exported), "bad": bad}))
""")
    assert result == {"count": 42, "bad": []}


def test_unknown_attribute_raises_attribute_error():
    result = run_fresh("""
import json
import dbcayley
try:
    dbcayley.no_such_name
except AttributeError as exc:
    print(json.dumps({"error": str(exc), "has": hasattr(dbcayley, "no_such_name")}))
""")
    assert result == {
        "error": "module 'dbcayley' has no attribute 'no_such_name'", "has": False,
    }


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_holds_openblas_to_one_thread():
    result = run_fresh("""
import json, os, sys
import dbcayley.cli
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "value": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir("/proc/self/task")),
}))
""")
    assert result == {"numpy": True, "value": "1", "threads": 1}


def test_cli_keeps_a_preset_thread_count():
    result = run_fresh("""
import json, os
import dbcayley.cli
print(json.dumps({"value": os.environ.get("OPENBLAS_NUM_THREADS")}))
""", OPENBLAS_NUM_THREADS="2")
    assert result == {"value": "2"}
