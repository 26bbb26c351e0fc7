"""The README's usage example runs as written."""

import pathlib
import re

from lolkit.linalg import resolve_svd_mode

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_example_runs_as_written():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["proj"].d == 10
    assert namespace["pred"].shape == (200,)
    # the README calls this fit exact: min(p, n) = 200 is at most EXACT_SVD_MAX_DIM
    assert resolve_svd_mode(10, 5000, 200, "auto") == "exact"
