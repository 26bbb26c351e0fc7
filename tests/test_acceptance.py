"""End-to-end acceptance suite.

Each test exercises one headline behavior of the package at realistic
problem sizes and prints a single PASS/FAIL line (criteria numbered 01
to 13) before asserting, so a full run yields a scannable scorecard.
"""

import json
import sys

import numpy as np
import pytest

from lolkit.benchmark import ErrorCurve, select_rstar
from lolkit.chernoff import (
    lol_vs_lda_gap,
    lol_vs_pca_gap,
    pooled_top_eigvecs,
    projected_chernoff_quadform,
)
from lolkit.classifiers import (
    bayes_error_two_class,
    fit_lda,
    fit_qda,
    misclassification_rate,
    predict_lda,
    predict_qda,
)
from lolkit.cli import main as cli_main
from lolkit.embeddings import (
    embed,
    fit_lfl,
    fit_lol,
    fit_lrcca,
    fit_pca,
    fit_qoq,
    fit_rlol,
    fit_rrlda,
)
from lolkit.errors import LolkitError
from lolkit.linalg import random_rotation
from lolkit.extensions import projected_test_power
from lolkit.model import DataMatrix, GaussianModel, LabeledDataset
from lolkit.simulations import SimSpec, _draw_class, sample


from conftest import SCORECARD


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    SCORECARD.append(line)
    return ok


def split_sample(spec, n_train):
    """Train/test split of one simulated draw (train = first columns)."""
    sim = sample(spec)
    x = sim.dataset.data.values
    y = sim.dataset.labels
    train = LabeledDataset(DataMatrix(x[:, :n_train]), y[:n_train],
                           sim.dataset.num_classes)
    return sim, train, DataMatrix(x[:, n_train:]), y[n_train:]


def projected_lda_error(fitter, train, test_x, test_y, d):
    proj = fitter(train, d)
    clf = fit_lda(embed(proj, train.data), train.labels, train.num_classes)
    pred = predict_lda(clf, embed(proj, test_x))
    return misclassification_rate(pred, test_y)


def test_criterion_01_trunk_near_optimality():
    lol_errs, rr_errs, bayes = [], [], []
    for seed in range(10):
        spec = SimSpec("trunk", 1000, 10100, seed=seed)
        sim, train, test_x, test_y = split_sample(spec, 100)
        bayes.append(bayes_error_two_class(sim.model))
        lol_errs.append(projected_lda_error(fit_lol, train, test_x, test_y, 3))
        rr_errs.append(projected_lda_error(fit_rrlda, train, test_x, test_y, 3))
    lol_med = float(np.median(lol_errs))
    rr_med = float(np.median(rr_errs))
    bayes_med = float(np.median(bayes))
    ok = lol_med - bayes_med <= 0.05 and rr_med >= 0.45
    assert report(1, ok,
                  f"LOL median {lol_med:.4f} vs Bayes {bayes_med:.4f} "
                  f"(tol 0.05); RR-LDA median {rr_med:.4f} (need >= 0.45)")


def test_criterion_02_rotated_trunk():
    lol_plain, lol_rot, pca_rot = [], [], []
    for seed in range(10):
        _, train, test_x, test_y = split_sample(
            SimSpec("trunk", 1000, 10100, seed=seed), 100)
        lol_plain.append(projected_lda_error(fit_lol, train, test_x, test_y, 3))
        _, train, test_x, test_y = split_sample(
            SimSpec("rotated_trunk", 1000, 10100, seed=seed), 100)
        lol_rot.append(projected_lda_error(fit_lol, train, test_x, test_y, 3))
        pca_rot.append(projected_lda_error(fit_pca, train, test_x, test_y, 3))
    drift = abs(float(np.median(lol_rot)) - float(np.median(lol_plain)))
    margin = float(np.median(pca_rot)) - float(np.median(lol_rot))
    ok = drift <= 0.03 and margin >= 0.05
    assert report(2, ok,
                  f"rotation drift {drift:.4f} (tol 0.03); "
                  f"PCA - LOL margin {margin:.4f} (need >= 0.05)")


def test_criterion_03_gap_property_sweep():
    rng = np.random.default_rng(42)
    min_gap = np.inf
    max_mismatch = 0.0
    for _ in range(200):
        p = int(rng.integers(2, 31))
        g = rng.standard_normal((p, p))
        sigma = g @ g.T / p + 0.1 * np.eye(p)
        delta = rng.standard_normal(p)
        lam, u = np.linalg.eigh(sigma)
        u = u[:, ::-1]
        for d in range(1, p + 1):
            try:
                gap = lol_vs_lda_gap(delta, sigma, d)
            except LolkitError:
                continue
            a = np.column_stack([delta, u[:, : d - 1]])
            q_lol = projected_chernoff_quadform(a, delta, sigma)
            direct = q_lol - projected_chernoff_quadform(u[:, :d], delta, sigma)
            min_gap = min(min_gap, gap)
            max_mismatch = max(max_mismatch,
                               abs(gap - direct) / max(1.0, q_lol))
    ok = min_gap >= -1e-10 and max_mismatch <= 1e-8
    assert report(3, ok,
                  f"min gap {min_gap:.3e} (need >= -1e-10); "
                  f"max closed-form mismatch {max_mismatch:.3e} (tol 1e-8)")


def test_criterion_04_remark_exact_case():
    sigma = np.diag([4.0, 2.0, 1.0])
    delta = np.array([0.0, 0.0, 1.0])
    pca_map = pooled_top_eigvecs(delta, sigma, 2)
    q_pca = projected_chernoff_quadform(pca_map, delta, sigma)
    a = np.column_stack([delta, np.eye(3)[:, :1]])
    q_lol = projected_chernoff_quadform(a, delta, sigma)
    ok = abs(q_pca) < 1e-10 and abs(q_lol - 1.0) < 1e-10
    assert report(4, ok,
                  f"PCA quadform {q_pca:.2e} (expect 0); "
                  f"LOL quadform {q_lol:.12f} (expect 1)")


def test_criterion_05_cca_data_piling():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((200, 40))
    y = np.tile([0, 1], 20)
    ds = LabeledDataset(DataMatrix(x), y, 2)
    proj = fit_lrcca(ds, 1)
    e = embed(proj, ds.data).values[0]
    within = max(float(np.var(e[y == 0])), float(np.var(e[y == 1])))
    between = float((e[y == 0].mean() - e[y == 1].mean()) ** 2)
    ok = within < 1e-8 * between
    assert report(5, ok,
                  f"within-class var {within:.3e} vs "
                  f"1e-8 x separation {1e-8 * between:.3e}")


def test_criterion_06_nested_fits():
    ds = sample(SimSpec("trunk", 40, 200, seed=6)).dataset
    worst = ""
    ok = True
    for fitter, name in ((fit_lol, "lol"), (fit_pca, "pca"),
                         (fit_rrlda, "rrlda"), (fit_lfl, "lfl")):
        big = fitter(ds, 10, seed=6)
        for r in range(1, 10):
            small = fitter(ds, r, seed=6)
            if not np.array_equal(big.directions[:, :r], small.directions):
                ok = False
                worst = f"{name} at r={r}"
    assert report(6, ok,
                  "bit-exact column nesting for lol/pca/rrlda/lfl, r in 1..9"
                  + (f"; first failure {worst}" if worst else ""))


def test_criterion_07_lda_rotation_invariance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 500)) + 0.8 * np.outer(
        np.arange(5) == 0, np.tile([0, 1], 250))
    y = np.tile([0, 1], 250)
    t = rng.standard_normal((5, 1000))
    q = random_rotation(5, seed=7)
    base = predict_lda(fit_lda(DataMatrix(x), y, 2), DataMatrix(t))
    rotated = predict_lda(fit_lda(DataMatrix(q @ x), y, 2), DataMatrix(q @ t))
    ok = np.array_equal(base, rotated)
    assert report(7, ok, "identical predictions on 1000 points after rotation")


def fresh_inlier_error(proj, clf_fit, clf_predict, model, seed, per_class=500):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 999)))
    x0 = _draw_class(model, 0, rng.standard_normal((model.p, per_class)))
    x1 = _draw_class(model, 1, rng.standard_normal((model.p, per_class)))
    test = DataMatrix(np.hstack([x0, x1]))
    truth = np.repeat([0, 1], per_class)
    return misclassification_rate(clf_predict(clf_fit, embed(proj, test)), truth)


def test_criterion_08_robust_and_cross_orderings():
    lol_rob, rlol_rob = [], []
    for seed in range(20):
        sim = sample(SimSpec("robust", 100, 100, seed=seed))
        for fitter, out in ((fit_lol, lol_rob), (fit_rlol, rlol_rob)):
            proj = fitter(sim.dataset, 5)
            clf = fit_lda(embed(proj, sim.inliers.data), sim.inliers.labels, 2)
            out.append(fresh_inlier_error(proj, clf, predict_lda,
                                          sim.model, seed))
    robust_margin = float(np.mean(lol_rob) - np.mean(rlol_rob))

    lol_cross, qoq_cross = [], []
    for seed in range(20):
        _, train, test_x, test_y = split_sample(
            SimSpec("cross", 100, 1100, seed=seed), 100)
        lol_cross.append(projected_lda_error(fit_lol, train, test_x, test_y, 10))
        proj = fit_qoq(train, 10)
        clf = fit_qda(embed(proj, train.data), train.labels, 2)
        pred = predict_qda(clf, embed(proj, test_x))
        qoq_cross.append(misclassification_rate(pred, test_y))
    cross_margin = float(np.mean(lol_cross) - np.mean(qoq_cross))
    ok = robust_margin >= 0.03 and cross_margin >= 0.05
    assert report(8, ok,
                  f"RLOL margin on outlier setting {robust_margin:.4f} "
                  f"(need >= 0.03); QOQ+QDA margin on cross setting "
                  f"{cross_margin:.4f} (need >= 0.05)")


def test_criterion_09_lfl_tracks_lol_spherical():
    p = 100
    mu1 = np.zeros(p)
    mu1[0] = 0.8
    model = GaussianModel(priors=np.array([0.5, 0.5]),
                          means=np.column_stack([np.zeros(p), mu1]),
                          covariances=(np.ones(p),), shared=True)
    dims = (1, 5, 10)
    errs = {alg: {d: [] for d in dims} for alg in ("lol", "lfl", "pca")}
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence((9, seed)))
        blocks = [_draw_class(model, c, rng.standard_normal((p, 1000))) for c in (0, 1, 0, 1)]
        y = np.repeat([0, 1], 1000)
        train = LabeledDataset(DataMatrix(np.hstack(blocks[:2])), y, 2)
        test_x = DataMatrix(np.hstack(blocks[2:]))
        for alg, fitter in (("lol", fit_lol), ("lfl", fit_lfl),
                            ("pca", fit_pca)):
            proj = fitter(train, max(dims), seed=seed)
            for d in dims:
                sub = proj.prefix(d)
                clf = fit_lda(embed(sub, train.data), y, 2)
                pred = predict_lda(clf, embed(sub, test_x))
                errs[alg][d].append(misclassification_rate(pred, y))
    gap = max(abs(float(np.mean(errs["lfl"][d])) -
                  float(np.mean(errs["lol"][d]))) for d in dims)
    margin = float(np.mean(errs["pca"][1])) - float(np.mean(errs["lol"][1]))
    ok = gap <= 0.02 and margin >= 0.1
    assert report(9, ok,
                  f"max |LFL - LOL| over d in {dims}: {gap:.4f} (tol 0.02); "
                  f"PCA - LOL at d=1: {margin:.4f} (need >= 0.1)")


def test_criterion_10_linear_scaling(tmp_path):
    out = tmp_path / "scale.csv"
    code = cli_main(["scale", "--p-sweep", "10000:80000:x2", "--n", "2000",
                     "--d", "10", "--seed", "0", "--repeats", "3",
                     "--output", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    ratios = [float(r.split(",")[4]) for r in rows[1:]]
    ok = all(1.5 <= r <= 3.0 for r in ratios)
    assert report(10, ok,
                  "doubling-p wall-clock ratios "
                  + "/".join(f"{r:.2f}" for r in ratios)
                  + " all within [1.5, 3.0]")


def test_criterion_11_hotelling_pipeline():
    spec = SimSpec("toeplitz_diag", 100, 100, seed=11)
    power_lol = projected_test_power(spec, "lol", 5, reps=200, seed=11)
    power_rp = projected_test_power(spec, "rp", 5, reps=200, seed=11)
    null_spec = SimSpec("toeplitz_diag", 100, 100, seed=11,
                        params={"delta_scale": 0.0})
    null_rate = projected_test_power(null_spec, "lol", 5, reps=200, seed=11, split=True)
    band = 3 * np.sqrt(0.05 * 0.95 / 200)
    ok = power_lol >= power_rp + 0.02 and abs(null_rate - 0.05) <= band
    assert report(11, ok,
                  f"LOL power {power_lol:.3f} vs RP {power_rp:.3f} "
                  f"(margin 0.02); null rate {null_rate:.3f} "
                  f"(band 0.05 +/- {band:.3f})")


def test_criterion_12_benchmark_determinism_and_rstar(tmp_path):
    sim_dir = tmp_path / "sim"
    cli_main(["sim", "--family", "trunk", "--p", "20", "--n", "90",
              "--seed", "12", "--output-dir", str(sim_dir)])
    outputs = []
    for name in ("a", "b"):
        bdir = tmp_path / name
        code = cli_main(["bench", "--input", str(sim_dir / "dataset.csv"),
                         "--algs", "lol,pca,rrlda", "--k", "3",
                         "--d-max", "8", "--seed", "12",
                         "--output-dir", str(bdir)])
        assert code == 0
        outputs.append((bdir / "report.json").read_bytes())
    deterministic = outputs[0] == outputs[1]

    def curve(means):
        return ErrorCurve(algorithm="x",
                          rates=np.asarray(means, dtype=float)[None, :])

    formulas = (select_rstar(curve([0.30, 0.20, 0.19, 0.21])) == 3
                and select_rstar(curve([0.50, 0.10, 0.10])) == 2
                and select_rstar(curve([0.25, 0.25, 0.25])) == 1
                and select_rstar(curve([0.2, 0.0, 0.0])) == 2)
    ok = deterministic and formulas
    assert report(12, ok,
                  f"byte-identical report.json: {deterministic}; "
                  f"dimension-selection formula cases: {formulas}")


def test_criterion_13_user_csv_end_to_end(tmp_path):
    rng = np.random.default_rng(13)
    lines = ["f" + ",f".join(str(i) for i in range(8)) + ",label"]
    for i in range(60):
        label = i % 2
        row = rng.standard_normal(8)
        row[0] += 2.0 * label
        lines.append(",".join(f"{v:.6f}" for v in row) + f",{label}")
    csv_path = tmp_path / "user.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    bdir = tmp_path / "bench"
    code = cli_main(["bench", "--input", str(csv_path), "--algs",
                     "lol,pca,rp", "--k", "3", "--d-max", "5",
                     "--seed", "13", "--output-dir", str(bdir)])
    rep = json.loads((bdir / "report.json").read_text())
    ok = (code == 0 and set(rep["algorithms"]) == {"lol", "pca", "rp"}
          and all(np.isfinite(v["norm_error_mean"])
                  for v in rep["algorithms"].values()))
    assert report(13, ok,
                  "benchmark harness ran end to end on a user CSV with "
                  f"{len(rep['algorithms'])} algorithms reported")
