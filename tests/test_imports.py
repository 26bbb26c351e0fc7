"""The package's import graph: what a fresh ``import lolkit`` loads."""

import json
import os
import subprocess
import sys

import lolkit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lolkit.__file__)))


def test_lolkit_and_its_cli_do_not_import_scipy_stats():
    # a fresh interpreter, because other test files import scipy.stats
    # into this one
    code = ("import json, sys, lolkit, lolkit.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         check=True, capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert "scipy.linalg" in loaded
    # scipy.special is loaded on the first bayes_error_two_class or
    # hotelling_two_sample call, never at import
    for heavy in ("scipy.special", "scipy.stats"):
        assert [m for m in loaded if m == heavy or m.startswith(heavy + ".")] == []
