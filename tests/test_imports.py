"""What importing the package costs: the modules it adds to a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# slow to import and not needed: dataclasses alone pulls in inspect, and
# inspect pulls in ast, dis and tokenize
UNWANTED = {"dataclasses", "inspect"}

_PROBE = """
import importlib, json, sys
before = set(sys.modules)
module = importlib.import_module(sys.argv[1])
print(json.dumps([module.__file__, sorted(set(sys.modules) - before)]))
"""


def _import_fresh(module):
    """The module's file, and the modules a fresh interpreter adds to
    sys.modules while importing it.

    Taking the difference leaves out whatever the interpreter's own start-up
    (site and its .pth files) had already loaded.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, module],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    path, added = json.loads(proc.stdout)
    return Path(path), set(added)


@pytest.mark.parametrize("module", ["bnkappa.cli", "bnkappa.selfcheck"])
def test_import_adds_neither_dataclasses_nor_inspect(module):
    path, added = _import_fresh(module)
    assert path.is_relative_to(SRC)  # the probe imported this tree's package
    assert not added & UNWANTED, sorted(added & UNWANTED)
