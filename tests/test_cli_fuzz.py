"""Fuzz test of the CLI error contract (Hypothesis).

Every argument vector runs to exit 0, or to exit 2 with a one-line JSON
error on stderr; none may raise.  Integer options are drawn from
{-1, 0, 1, 2} and float options from {-1, 0, 0.5, 1, 2, nan, inf, -inf},
and the inputs are a tiny CSV fixture, so no draw can ask for a large
allocation or a long run.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from lolkit.benchmark import ALGORITHMS
from lolkit.cli import main
from lolkit.simulations import FAMILIES

INTS = st.sampled_from(["-1", "0", "1", "2"])
FLOATS = st.sampled_from(["-1", "0", "0.5", "1", "2", "nan", "inf", "-inf"])


def _option(draw, name, values):
    return [name, draw(values)]


def _maybe(draw, name, values):
    return _option(draw, name, values) if draw(st.booleans()) else []


def _maybe_float(draw, name):
    # one --name=value token, so that argparse reads "-inf" as a value
    return [f"{name}={draw(FLOATS)}"] if draw(st.booleans()) else []


def _algorithms(draw):
    return ",".join(draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3,
                                  unique=True)))


def _family_options(draw):
    argv = ["--family", draw(st.sampled_from(FAMILIES))]
    argv += _option(draw, "--p", INTS) + _option(draw, "--seed", INTS)
    for name in ("--a", "--b", "--rho", "--frobenius", "--delta-scale"):
        argv += _maybe_float(draw, name)
    return argv


@st.composite
def argv_for(draw, files):
    """One argument vector for one subcommand, on the paths in ``files``."""
    out = files["out"]
    label = _maybe(draw, "--label-column", st.sampled_from(["label", "0", "4", "-1", "nope"]))
    sub = draw(st.sampled_from(
        ["sim", "fit", "embed", "bench", "chernoff", "test", "regress", "scale"]))
    if sub == "sim":
        return (["sim"] + _family_options(draw) + _option(draw, "--n", INTS)
                + ["--output-dir", f"{out}/sim"])
    if sub == "fit":
        return (["fit", "--input", files["csv"], "--alg", draw(st.sampled_from(ALGORITHMS))]
                + _option(draw, "--d", INTS) + _option(draw, "--seed", INTS) + label
                + _maybe(draw, "--svd-mode", st.sampled_from(["auto", "exact", "randomized"]))
                + ["--output", f"{out}/proj.txt"])
    if sub == "embed":
        projection = draw(st.sampled_from([files["proj"], files["other_proj"]]))
        return (["embed", "--input", files["csv"], "--projection", projection] + label
                + ["--output", f"{out}/emb.csv"])
    if sub == "bench":
        return (["bench", "--input", files["csv"], "--algs", _algorithms(draw)]
                + _option(draw, "--k", INTS) + _option(draw, "--d-max", INTS)
                + _option(draw, "--seed", INTS) + label
                + _maybe(draw, "--classifier", st.sampled_from(["lda", "qda"]))
                + ["--output-dir", f"{out}/bench"])
    if sub == "chernoff":
        return (["chernoff"] + _option(draw, "--instances", INTS)
                + _option(draw, "--max-p", INTS) + _option(draw, "--seed", INTS))
    if sub == "test":
        return (["test"] + _family_options(draw) + _option(draw, "--n-per-group", INTS)
                + _option(draw, "--d", INTS) + _option(draw, "--reps", INTS)
                + _maybe_float(draw, "--alpha") + ["--methods", _algorithms(draw)]
                + (["--split"] if draw(st.booleans()) else []))
    if sub == "regress":
        return (["regress"] + _option(draw, "--p", INTS) + _option(draw, "--n", INTS)
                + _option(draw, "--k-bins", INTS) + _option(draw, "--d", INTS)
                + _option(draw, "--seed", INTS) + _maybe_float(draw, "--rho")
                + _maybe_float(draw, "--frobenius"))
    sweep = draw(st.sampled_from(["1:2:x2", "2:2:x2", "2:4:x2", "2:3:x1.5"]))
    return (["scale", "--p-sweep", sweep] + _option(draw, "--n", INTS)
            + _option(draw, "--d", INTS) + _option(draw, "--repeats", INTS)
            + _option(draw, "--seed", INTS) + ["--output", f"{out}/scale.csv"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The fixture CSV (trunk, p=4, n=12), a projection fitted on it, a
    p=3 projection that does not fit it, and an output directory."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["sim", "--family", "trunk", "--p", "4", "--n", "12", "--seed", "1",
                 "--output-dir", str(root)]) == 0
    csv = str(root / "dataset.csv")
    assert main(["fit", "--input", csv, "--alg", "lol", "--d", "2",
                 "--output", str(root / "proj.txt")]) == 0
    (root / "other.txt").write_text("lolkit-projection,v1,3,1,lol,\n1,0,0\n")
    (root / "out").mkdir()
    return {"csv": csv, "proj": str(root / "proj.txt"), "other_proj": str(root / "other.txt"),
            "out": str(root / "out")}


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_argument_vector_exits_0_or_2_with_json(files, data):
    argv = data.draw(argv_for(files), label="argv")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), argv
    if code == 2:
        body = json.loads(err.getvalue())
        assert set(body) == {"error", "message"}, argv
