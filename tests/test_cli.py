import argparse
import json
import os
import stat

import numpy as np
import pytest

from lolkit import benchmark
from lolkit.benchmark import ALGORITHMS
from lolkit.cli import _parse_sweep, _samples_csv, build_parser, main
from lolkit.embeddings import save_projection
from lolkit.errors import ParseFailure
from lolkit.files import _atomic_write
from lolkit.model import Projection


def run(args):
    return main(args)


def test_help_on_every_subcommand(capsys):
    for sub in ("sim", "fit", "embed", "bench", "chernoff", "test", "regress", "scale"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


def test_parse_sweep():
    assert _parse_sweep("10000:80000:x2") == [10000, 20000, 40000, 80000]
    assert _parse_sweep("500:500:x2") == [500]
    for bad in ("10:20:5", "10:20:2", "10:20", "a:20:x2", "10:20:x", "10:20:x1",
                "10:20:x0.5", "0:20:x2", "-5:20:x2", "20:10:x2", "10:inf:x2", "nan:20:x2"):
        with pytest.raises(ParseFailure):
            _parse_sweep(bad)


def test_scale_bad_sweep_is_a_structured_error(capsys):
    assert run(["scale", "--p-sweep", "10:20:2"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseFailure"


def test_fit_alg_choices_are_the_registry():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    alg = next(a for a in sub.choices["fit"]._actions if a.dest == "alg")
    assert tuple(alg.choices) == ALGORITHMS


def test_sim_writes_dataset_and_model(tmp_path):
    out = tmp_path / "sim"
    assert run(["sim", "--family", "trunk", "--p", "100", "--n", "200",
                "--seed", "7", "--output-dir", str(out)]) == 0
    lines = (out / "dataset.csv").read_text().strip().split("\n")
    assert len(lines) == 201
    assert lines[0].count(",") == 100  # 100 features + label
    model = json.loads((out / "model.json").read_text())
    assert model["family"] == "trunk"
    assert len(model["means"]) == 100


def test_fit_embed_round_trip(tmp_path):
    out = tmp_path / "sim"
    run(["sim", "--family", "trunk", "--p", "20", "--n", "100",
         "--output-dir", str(out)])
    proj_path = tmp_path / "proj.txt"
    assert run(["fit", "--input", str(out / "dataset.csv"), "--alg", "lol",
                "--d", "4", "--output", str(proj_path)]) == 0
    emb_path = tmp_path / "emb.csv"
    assert run(["embed", "--input", str(out / "dataset.csv"),
                "--projection", str(proj_path), "--output", str(emb_path)]) == 0
    lines = emb_path.read_text().strip().split("\n")
    assert len(lines) == 101
    assert lines[0] == "e0,e1,e2,e3,label"


def test_embed_rejects_corrupt_projection_files(tmp_path, capsys):
    out = tmp_path / "sim"
    run(["sim", "--family", "trunk", "--p", "20", "--n", "50",
         "--output-dir", str(out)])
    data = str(out / "dataset.csv")
    proj_path = tmp_path / "proj.txt"
    assert run(["fit", "--input", data, "--alg", "lol", "--d", "4",
                "--output", str(proj_path)]) == 0
    header, *cols = proj_path.read_text().splitlines()
    corruptions = {
        "truncated": [header] + cols[:2],
        "value dropped": [header] + cols[:1] + [cols[1].rsplit(",", 1)[0]] + cols[2:],
        "header shortened": [header.rsplit(",", 1)[0]] + cols,
    }
    for name, lines in corruptions.items():
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        emb_path = tmp_path / "emb.csv"
        code = run(["embed", "--input", data, "--projection", str(bad),
                    "--output", str(emb_path)])
        assert code == 2, name
        assert json.loads(capsys.readouterr().err)["error"] == "ShapeMismatch", name
        assert not emb_path.exists(), name


def test_bench_unknown_algorithm_fails_before_fitting(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    run(["sim", "--family", "trunk", "--p", "15", "--n", "80",
         "--output-dir", str(sim_dir)])
    code = run(["bench", "--input", str(sim_dir / "dataset.csv"), "--algs", "lol,foo",
                "--k", "3", "--d-max", "4", "--output-dir", str(tmp_path / "b")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ShapeMismatch"
    assert "'foo'" in err["message"]
    assert all(tag in err["message"] for tag in ALGORITHMS)
    assert not (tmp_path / "b").exists()


def test_bench_without_lol_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    sim_dir = tmp_path / "sim"
    run(["sim", "--family", "trunk", "--p", "15", "--n", "80",
         "--output-dir", str(sim_dir)])
    calls = []
    monkeypatch.setattr(benchmark, "sweep", lambda *args, **kwargs: calls.append(args))
    code = run(["bench", "--input", str(sim_dir / "dataset.csv"), "--algs", "pca,rp",
                "--k", "3", "--d-max", "4", "--output-dir", str(tmp_path / "b")])
    assert code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {
        "error": "NoBaseline", "message": "normalized metrics require an 'lol' curve"}
    assert captured.out == ""
    assert calls == []
    assert not (tmp_path / "b").exists()


def test_bench_deterministic_reports(tmp_path):
    sim_dir = tmp_path / "sim"
    run(["sim", "--family", "trunk", "--p", "15", "--n", "80",
         "--output-dir", str(sim_dir)])
    outs = []
    for name in ("b1", "b2"):
        bdir = tmp_path / name
        assert run(["bench", "--input", str(sim_dir / "dataset.csv"),
                    "--algs", "lol,pca,rp", "--k", "3", "--d-max", "6",
                    "--seed", "1", "--output-dir", str(bdir)]) == 0
        outs.append(((bdir / "report.json").read_bytes(),
                     (bdir / "curves.csv").read_bytes()))
    assert outs[0] == outs[1]
    report = json.loads(outs[0][0])
    assert report["schema_version"] == 1
    assert set(report["algorithms"]) == {"lol", "pca", "rp"}


def test_chernoff_subcommand_json(capsys):
    assert run(["chernoff", "--instances", "10", "--max-p", "6", "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gaps_nonnegative"] is True
    assert out["min_lol_vs_lda_gap"] >= -1e-10
    assert out["max_closed_form_rel_mismatch"] < 1e-8


def test_test_subcommand(capsys):
    assert run(["test", "--family", "toeplitz_diag", "--p", "20",
                "--n-per-group", "20", "--d", "2", "--reps", "20",
                "--methods", "lol", "--seed", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["power"]["lol"] <= 1.0


def test_regress_subcommand(capsys):
    assert run(["regress", "--p", "15", "--n", "100", "--d", "3",
                "--seed", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mse_lol"] < out["var_y_test"]


def test_scale_subcommand(tmp_path):
    out = tmp_path / "scale.csv"
    assert run(["scale", "--p-sweep", "200:400:x2", "--n", "100", "--d", "3",
                "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "p,n,d,seconds,ratio_to_previous"
    assert len(lines) == 3


def test_structured_error_and_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,label\n1,0\n2,0\n3,0\n")
    code = run(["fit", "--input", str(bad), "--alg", "lol", "--d", "1",
                "--output", str(tmp_path / "p.txt")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DegenerateLabels"
    assert not (tmp_path / "p.txt").exists()  # nothing partially written


def test_missing_input_files_are_structured_errors(tmp_path, capsys):
    out = tmp_path / "sim"
    run(["sim", "--family", "trunk", "--p", "10", "--n", "40", "--output-dir", str(out)])
    data = out / "dataset.csv"
    proj = tmp_path / "proj.txt"
    assert run(["fit", "--input", str(data), "--alg", "lol", "--d", "2",
                "--output", str(proj)]) == 0
    # undecodable bytes fail like missing files: exit 2, the path in the message
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_bytes(data.read_bytes().replace(b"\n", b"\n\xff", 1))
    bad_proj = tmp_path / "bad.txt"
    bad_proj.write_bytes(b"\xff" + proj.read_bytes())
    fit = ["fit", "--alg", "lol", "--d", "2", "--output", str(tmp_path / "p.txt"), "--input"]
    embed = ["embed", "--input", str(data), "--output", str(tmp_path / "e.csv"),
             "--projection"]
    for error, argv in [("ParseFailure", fit + [str(tmp_path / "nope.csv")]),
                        ("ShapeMismatch", embed + [str(tmp_path / "nope.txt")]),
                        ("ParseFailure", fit + [str(bad_csv)]),
                        ("ShapeMismatch", embed + [str(bad_proj)])]:
        assert run(argv) == 2, argv
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        assert argv[-1] in err["message"]
    assert not (tmp_path / "p.txt").exists()
    assert not (tmp_path / "e.csv").exists()


def test_an_output_in_a_missing_directory_is_a_structured_error(tmp_path, capsys):
    out = tmp_path / "sim"
    run(["sim", "--family", "trunk", "--p", "10", "--n", "40", "--output-dir", str(out)])
    data, proj = str(out / "dataset.csv"), str(tmp_path / "proj.txt")
    assert run(["fit", "--input", data, "--alg", "lol", "--d", "2", "--output", proj]) == 0
    missing = tmp_path / "missing-dir"
    for argv in (["fit", "--input", data, "--alg", "lol", "--d", "2"],
                 ["embed", "--input", data, "--projection", proj],
                 ["scale", "--p-sweep", "20:20:x2", "--n", "20", "--d", "2"]):
        target = str(missing / f"{argv[0]}.out")
        assert run(argv + ["--output", target]) == 2, argv
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "WriteFailure"
        assert target in err["message"] and ".lolkit-tmp-" not in err["message"]
    assert not missing.exists()


# values near 1e160 square to inf, so every cell's covariance overflows;
# the CLI silences numpy's overflow warnings, so stderr is the JSON body alone
def test_bench_with_overflowing_covariances_is_a_structured_error(tmp_path, capsys):
    rng = np.random.default_rng(0)
    y = np.arange(40) % 2
    x = (rng.standard_normal((6, 40)) + y) * 1e160
    data = tmp_path / "big.csv"
    data.write_text("".join(_samples_csv("x", x, "label", map(str, y.tolist()))))
    code = run(["bench", "--input", str(data), "--algs", "lol,pca", "--k", "2",
                "--d-max", "3", "--output-dir", str(tmp_path / "bench")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "EmptyCurve"


@pytest.mark.parametrize("d_max", ["-3", "0"])
def test_bench_rejects_d_max_below_one(tmp_path, capsys, d_max):
    sim_dir = tmp_path / "sim"
    run(["sim", "--family", "trunk", "--p", "15", "--n", "80", "--output-dir", str(sim_dir)])
    code = run(["bench", "--input", str(sim_dir / "dataset.csv"), "--algs", "lol",
                "--k", "3", "--d-max", d_max, "--output-dir", str(tmp_path / "b")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ShapeMismatch"
    assert f"d_max={d_max}" in err["message"]
    assert not (tmp_path / "b").exists()


def test_bench_threads_flag_is_gone(tmp_path, capsys):
    assert run(["bench", "--input", str(tmp_path / "x.csv"), "--threads", "2",
                "--output-dir", str(tmp_path / "b")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseFailure"
    assert "--threads" in err["message"]


def test_oversized_csv_field_is_a_structured_error(tmp_path, capsys):
    data = tmp_path / "huge.csv"
    data.write_text("a,label\n1,0\n" + "9" * 200_000 + ",1\n2,0\n")
    code = run(["fit", "--input", str(data), "--alg", "lol", "--d", "1",
                "--output", str(tmp_path / "p.txt")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseFailure"
    assert f"{data}:3:" in err["message"]
    assert not (tmp_path / "p.txt").exists()


def test_oversized_numeric_field_in_a_numeric_file_is_a_structured_error(tmp_path, capsys):
    # a table np.loadtxt parses whole; the long field is a valid number
    rows = [f"{i + 0.5},{i % 2}" for i in range(12)]
    rows[5] = "0." + "0" * 140_000 + "1,1"
    data = tmp_path / "huge.csv"
    data.write_text("a,label\n" + "\n".join(rows) + "\n")
    code = run(["fit", "--input", str(data), "--alg", "lol", "--d", "1",
                "--output", str(tmp_path / "p.txt")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseFailure"
    assert f"{data}:7:" in err["message"]
    assert not (tmp_path / "p.txt").exists()


def test_atomic_write_that_fails_mid_file_leaves_nothing(tmp_path):
    def lines():
        yield "a,b\n"
        yield "1,2\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        _atomic_write(tmp_path / "out.csv", lines())
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_streams_utf8_lines(tmp_path):
    out = tmp_path / "out.csv"
    _atomic_write(out, iter(["a,\u00e9\n", "1,2\n"]))
    assert out.read_bytes() == "a,\u00e9\n1,2\n".encode("utf-8")
    assert list(tmp_path.iterdir()) == [out]


# -0.0, subnormals down to 5e-324, the largest doubles, and values whose
# shortest repr is shorter than 17 digits
ROUND_TRIP = [-0.0, 0.0, 5e-324, -1e-320, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
              0.1, -1 / 3, 1e16, 123456789.125, 2.0 ** -1074 * 3]


def test_percent_template_writes_what_per_value_format_wrote(tmp_path):
    for v in ROUND_TRIP + [float("inf"), -float("inf"), float("nan")]:
        assert "%.17g" % v == "{:.17g}".format(v), v
    values = np.array([ROUND_TRIP + [float("inf")], ROUND_TRIP[::-1] + [float("nan")]]).T
    lines = list(_samples_csv("f", values, "label", ["0", "x"]))
    assert lines[1:] == [",".join(map("{:.17g}".format, col)) + f",{last}\n"
                         for col, last in zip(values.T.tolist(), "0x")]
    path = tmp_path / "proj.txt"
    save_projection(Projection(values[:-1], "lol"), path)
    assert path.read_text().splitlines()[1:] == [",".join(map("{:.17g}".format, col))
                                                 for col in values[:-1].T.tolist()]


@pytest.mark.parametrize("argv, error", [
    (["test", "--family", "trunk", "--p", "10", "--reps", "0"], "ShapeMismatch"),
    (["chernoff", "--max-p", "1"], "ParseFailure"),
    (["chernoff", "--instances", "0"], "ParseFailure"),
    # numpy seeds are non-negative
    (["chernoff", "--instances", "1", "--seed", "-1"], "ParseFailure"),
    (["scale", "--p-sweep", "2:2:x2", "--n", "-1"], "ParseFailure"),
    # regression_linear's two population coefficients need p >= 2
    (["regress", "--p", "1", "--n", "4"], "PTooSmall"),
    (["regress", "--p", "2", "--n", "8", "--frobenius", "0"], "ShapeMismatch"),
    # two equal sparse random columns make the embedded covariance singular
    (["test", "--family", "stacked_cigars", "--p", "2", "--d", "2", "--reps", "5",
      "--methods", "rp"], "SingularProjectedCov"),
    # a NaN or infinite float option; --alpha nan used to print "alpha": NaN
    (["test", "--family", "toeplitz_diag", "--p", "3", "--reps", "2", "--n-per-group", "4",
      "--d", "1", "--alpha", "nan"], "ParseFailure"),
    (["regress", "--p", "2", "--n", "8", "--frobenius", "inf"], "ParseFailure"),
    # argparse usage errors: a bad type, an unknown flag, a missing required
    # option, and a separate "-inf" token, which argparse reads as a flag
    (["fit", "--input", "x.csv", "--alg", "lol", "--d", "abc", "--output", "p.txt"],
     "ParseFailure"),
    (["chernoff", "--no-such-flag"], "ParseFailure"),
    (["regress", "--p", "4"], "ParseFailure"),
    (["test", "--family", "trunk", "--p", "4", "--alpha", "-inf"], "ParseFailure"),
    # bench checks its tags before it reads the CSV, which need not exist
    (["bench", "--input", "no-such.csv", "--algs", "lol,lol", "--output-dir", "no-such"],
     "ShapeMismatch"),
    # an option the family does not take; sim checks before it writes anything
    (["sim", "--family", "trunk", "--p", "5", "--n", "20", "--a", "7", "--rho", "0.2",
      "--output-dir", "no-such"], "ShapeMismatch"),
    (["test", "--family", "trunk", "--p", "4", "--rho", "0.3"], "ShapeMismatch"),
])
def test_argument_ranges_are_structured_errors(capsys, monkeypatch, tmp_path, argv, error):
    monkeypatch.chdir(tmp_path)  # where a command that wrongly succeeds writes
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == error
    assert captured.out == ""


@pytest.mark.parametrize("alg", ["cca", "pls"])
@pytest.mark.parametrize("d", ["-1", "0"])
def test_fit_rejects_d_below_one(tmp_path, capsys, alg, d):
    # cca clamps d to C-1 and pls to min(p, n-1); a d below 1 used to
    # give cca a (C-1)-column fit and pls a negative-width allocation
    out = tmp_path / "sim"
    run(["sim", "--family", "trunk3", "--p", "6", "--n", "30", "--output-dir", str(out)])
    proj = tmp_path / "p.txt"
    assert run(["fit", "--input", str(out / "dataset.csv"), "--alg", alg, "--d", d,
                "--output", str(proj)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["message"]) == ("TooFewDims", f"d={d} below 1")
    assert not proj.exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
def test_written_files_get_the_mode_open_gives(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        sim = tmp_path / "sim"
        data = str(sim / "dataset.csv")
        assert run(["sim", "--family", "trunk", "--p", "15", "--n", "80",
                    "--output-dir", str(sim)]) == 0
        assert run(["fit", "--input", data, "--alg", "lol", "--d", "2",
                    "--output", str(tmp_path / "proj.txt")]) == 0
        assert run(["embed", "--input", data, "--projection", str(tmp_path / "proj.txt"),
                    "--output", str(tmp_path / "emb.csv")]) == 0
        assert run(["bench", "--input", data, "--algs", "lol,pca", "--k", "3", "--d-max", "3",
                    "--output-dir", str(tmp_path / "bench")]) == 0
        assert run(["scale", "--p-sweep", "20:20:x2", "--n", "10", "--d", "2",
                    "--repeats", "1", "--output", str(tmp_path / "scale.csv")]) == 0
    finally:
        os.umask(old)
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert [p.relative_to(tmp_path).as_posix() for p in files] == [
        "bench/curves.csv", "bench/report.json", "emb.csv", "proj.txt", "scale.csv",
        "sim/dataset.csv", "sim/model.json"]
    # proj.txt comes from save_projection, the rest from the CLI's writers
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in files} == \
        dict.fromkeys((p.name for p in files), mode)
