"""The benchmark's own tests, at tiny sizes.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as perfbench  # noqa: E402
import tracer  # noqa: E402

TINY = {
    "cv_lda": {"family": "trunk", "classes": 2, "p": 60, "n": 40, "k": 3, "d_max": 6,
               "algs": ["lol", "pca", "rrlda", "rp"], "classifier": "lda"},
    "cv_qda": {"family": "trunk3", "classes": 3, "p": 60, "n": 45, "k": 3, "d_max": 5,
               "algs": ["lol", "qoq", "rlol", "lfl", "cca", "pls"], "classifier": "qda"},
    "csv_wide": {"family": "trunk", "p": 80, "n": 30, "d": 4},
    "wide_fit": {"p": 400, "n": 40, "d": 4},
}


@pytest.fixture(scope="module")
def lolkit():
    return perfbench.import_lolkit(ROOT)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tiny_run(lolkit, tmp_path, name, trace=0, seed=0, reference=None):
    return perfbench.run_workload(name, seed, 0.05, trace, params=TINY[name],
                                  reference={} if reference is None else reference,
                                  workdir=str(tmp_path), lolkit=lolkit)


def test_spec_matches_code(spec):
    assert tuple(w["name"] for w in spec["workloads"]) == perfbench.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == perfbench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == perfbench.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_present_with_unit(lolkit, spec, tmp_path, name, trace):
    result, info = tiny_run(lolkit, tmp_path, name, trace)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"], info["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = spec["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_counts_as_failure(lolkit, tmp_path):
    _, info = tiny_run(lolkit, tmp_path, "cv_lda")
    stored = tmp_path / "reference.json"
    perfbench.record_reference(info, path=stored)
    reference = perfbench.load_reference(stored)
    result, info = tiny_run(lolkit, tmp_path, "cv_lda", reference=reference)
    assert result["failed"] == 0 and set(info["reference"].values()) == {"match"}

    key = next(iter(info["digests"]))
    digest = reference["cv_lda"][key]["curves.csv"]
    reference["cv_lda"][key]["curves.csv"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    result, info = tiny_run(lolkit, tmp_path, "cv_lda", reference=reference)
    assert not result["correct"]
    assert result["failed"] >= 1 and info["fail_frac"] > 0
    assert info["reference"][key] == "MISMATCH"


def test_raising_iteration_counts_as_failure(lolkit, tmp_path, monkeypatch):
    sim_only = lolkit.cli.main
    monkeypatch.setattr(lolkit.cli, "main",
                        lambda argv=None: sim_only(argv) if argv[0] == "sim" else 2)
    result, info = tiny_run(lolkit, tmp_path, "csv_wide")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert info["problems"][0].startswith("raised RuntimeError: lolkit fit/embed exited with 2")


def test_unhooked_span_trips_zero_call_check(lolkit, tmp_path, monkeypatch):
    # a reference the tracer cannot see: embed reached through a plain object
    monkeypatch.setattr(lolkit.benchmark, "emb",
                        types.SimpleNamespace(**vars(lolkit.embeddings)))
    result, info = tiny_run(lolkit, tmp_path, "cv_lda", trace=1)
    assert result["metrics"]["embeddings.embed.calls"]["value"] == 0
    assert not result["correct"]
    assert any("embeddings.embed" in p for p in info["problems"])


def test_other_seeds_change_inputs_and_pass(lolkit, tmp_path):
    import workloads
    wl = workloads.WORKLOADS["cv_qda"](lolkit, TINY["cv_qda"])
    inputs = []
    for seed in (1, 2):
        d = tmp_path / f"seed{seed}"
        d.mkdir()
        with open(wl.setup(seed, str(d))["csv"], "rb") as fh:
            inputs.append(fh.read())
        result, info = tiny_run(lolkit, d, "cv_qda", seed=seed)
        assert result["correct"], info["problems"]
    assert inputs[0] != inputs[1]


def test_only_whole_failed_folds_may_be_missing(lolkit):
    import workloads
    prm = TINY["cv_qda"]
    wl = workloads.WORKLOADS["cv_qda"](lolkit, prm)

    def outputs(blank, filled=()):
        lines = ["algorithm,r,fold,error"]
        for a in prm["algs"]:
            for j in range(prm["k"]):
                for r in range(1, prm["d_max"] + 1):
                    cell = (a, r, j)
                    empty = cell in blank or (cell in wl.expected_missing()
                                              and cell not in filled)
                    lines.append(f"{a},{r},{j},{'' if empty else '0.25'}")
        report = {"algorithms": dict.fromkeys(prm["algs"], {})}
        return {"curves.csv": ("\n".join(lines) + "\n").encode(),
                "report.json": json.dumps(report).encode()}

    assert wl.check_each(None, outputs(set())) == []
    whole_fold = {("pls", r, 1) for r in range(1, prm["d_max"] + 1)}
    assert wl.check_each(None, outputs(whole_fold)) == []
    assert wl.check_once(None, outputs(whole_fold)) == ([], {"failed_fits": ["pls/fold1"]})
    assert wl.check_each(None, outputs({("pls", 2, 1)}))
    assert wl.check_each(None, outputs(set(), filled={("cca", prm["d_max"], 0)}))


def test_tracer_restores_every_reference(lolkit):
    lk = lolkit
    before = (lk.benchmark._SEEDED_FITS["lol"], lk.embeddings.truncated_svd,
              lk.model.DataMatrix.__dict__["__post_init__"], lk.fit_lol)
    with tracer.Tracer(lk) as tr:
        assert lk.benchmark._SEEDED_FITS["lol"] is not before[0]
        assert lk.embeddings.truncated_svd is lk.linalg.truncated_svd
        lk.fit_lol(lk.simulations.sample(lk.simulations.SimSpec("trunk", 20, 30)).dataset, 3)
        assert tr.calls["embeddings.fit_lol"] == 1
        assert tr.calls["linalg.truncated_svd"] == 1
    after = (lk.benchmark._SEEDED_FITS["lol"], lk.embeddings.truncated_svd,
             lk.model.DataMatrix.__dict__["__post_init__"], lk.fit_lol)
    assert all(a is b for a, b in zip(before, after))


def test_fails_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv_lda", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
