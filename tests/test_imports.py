"""Loading the package and starting the CLI import no scipy module.

scipy is imported inside the functions that call it, so a fresh interpreter
pays for numpy alone until a stage needs scipy.  Each case runs a new
interpreter and dumps its ``sys.modules`` when it exits; no time is measured.
"""

import json
import subprocess
import sys

import pytest

_DUMP_AT_EXIT = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules))))\n"
)


@pytest.mark.parametrize("code", [
    "import vesselmesh.pipeline",
    "import vesselmesh.cli",
    # `python -m vesselmesh.cli --help`, which ends in SystemExit(0)
    "import runpy\n"
    "sys.argv = ['vesselmesh', '--help']\n"
    "runpy.run_module('vesselmesh.cli', run_name='__main__', alter_sys=True)",
], ids=["import pipeline", "import cli", "cli --help"])
def test_start_loads_no_scipy(code):
    res = subprocess.run([sys.executable, "-c", _DUMP_AT_EXIT + code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    modules = json.loads(res.stdout.strip().splitlines()[-1])
    assert "vesselmesh" in modules and "numpy" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
