import contextlib
import json
import os
import sys
import threading

import numpy as np
import pytest

from lolkit import benchmark, model
from lolkit import embeddings as emb
from lolkit.benchmark import (
    _MISSING,
    _MISSING_ANY_CASE,
    ALGORITHMS,
    ErrorCurve,
    curves_rows,
    fit_projection,
    load_csv,
    make_fold_plan,
    normalized_report,
    select_rstar,
    sweep,
)
from lolkit.errors import (
    DegenerateLabels,
    EmptyCurve,
    NoBaseline,
    ParseFailure,
    ShapeMismatch,
    TooManyFolds,
)
from lolkit.model import DataMatrix, LabeledDataset
from lolkit.simulations import SimSpec, sample


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_drops_incomplete_rows(tmp_path):
    path = write(tmp_path, "\n".join([
        "a,b,label",
        "1.5,2.0,x",
        ",3.0,y",
        "2.5,4.0,y",
    ]))
    # both features have <10 unique values, so they are one-hot encoded
    loaded = load_csv(path, "label")
    assert loaded.dataset.n == 2
    assert loaded.n_dropped_rows == 1
    assert loaded.label_mapping == {"x": 0, "y": 1}


def test_load_csv_one_hot_binary_feature(tmp_path):
    rows = ["f,cat,label"]
    for i in range(24):
        rows.append(f"{i * 0.5},{'A' if i % 2 else 'B'},{i % 2}")
    loaded = load_csv(write(tmp_path, "\n".join(rows)), "label")
    # f has 24 distinct numeric values (kept), cat becomes two 0/1 columns
    assert loaded.dataset.p == 3
    assert set(loaded.feature_names) == {"f", "cat=A", "cat=B"}
    onehot = loaded.dataset.data.values[[loaded.feature_names.index("cat=A")]]
    assert set(np.unique(onehot)) <= {0.0, 1.0}


def test_load_csv_integer_column_with_many_values_kept_numeric(tmp_path):
    rows = ["v,label"]
    for i in range(24):
        rows.append(f"{i % 12},{i % 2}")
    loaded = load_csv(write(tmp_path, "\n".join(rows)), "label")
    assert loaded.feature_names == ("v",)
    assert loaded.dataset.p == 1


def test_load_csv_tab_autodetect_and_label_index(tmp_path):
    path = write(tmp_path, "a\tlabel\n1.0\t0\n2.0\t1\n3.0\t0\n4.0\t1\n"
                 "5.0\t0\n6.0\t1\n7.0\t0\n8.0\t1\n9.0\t0\n10.0\t1\n11.0\t0\n")
    loaded = load_csv(path, 1)
    assert loaded.dataset.p == 1
    assert loaded.dataset.n == 11


@pytest.mark.parametrize("header, sep, names", [
    ('"a\tb",label', ",", ("a\tb",)),      # a quoted tab in a comma file
    ("a\tlabel", "\t", ("a",)),            # a tab file
    ('"a\tb"\tlabel', "\t", ("a\tb",)),    # a tab file with a quoted tab
])
def test_load_csv_sniffs_a_tab_only_outside_quoted_fields(tmp_path, header, sep, names):
    path = write(tmp_path, header + "\n" + "".join(f"{i + 0.5}{sep}{i % 2}\n" for i in range(12)))
    loaded = load_csv(path, "label")
    assert loaded.feature_names == names
    assert loaded.dataset.data.values.tolist() == [[i + 0.5 for i in range(12)]]
    assert loaded.dataset.labels.tolist() == [i % 2 for i in range(12)]


def test_load_csv_reads_a_pipe(tmp_path):
    # a stream that cannot be rewound is parsed by the float() path alone
    fifo = tmp_path / "d.csv"
    os.mkfifo(fifo)
    text = "a,label\n" + "".join(f"{i + 0.5},{i % 2}\n" for i in range(12))
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    loaded = load_csv(fifo, "label")
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert loaded.dataset.data.values.tolist() == [[i + 0.5 for i in range(12)]]


def test_load_csv_errors(tmp_path):
    with pytest.raises(ParseFailure):
        load_csv(write(tmp_path, ""), "label")
    with pytest.raises(ParseFailure):
        load_csv(write(tmp_path, "a,label\n1,0,9\n"), "label")
    with pytest.raises(ParseFailure):
        load_csv(write(tmp_path, "a,label\n1,0\n2,1\n"), "nope")
    with pytest.raises(DegenerateLabels):
        load_csv(write(tmp_path, "a,label\n1,0\n2,0\n3,0\n"), "label")
    with pytest.raises(ParseFailure, match="nope.csv"):
        load_csv(tmp_path / "nope.csv", "label")
    with pytest.raises(ParseFailure, match="no feature columns"):
        load_csv(write(tmp_path, "label\n" + "0\n1\n" * 6), "label")
    bad = tmp_path / "bytes.csv"
    bad.write_bytes(b"a,label\n1,0\n\xff,1\n3,0\n")
    with pytest.raises(ParseFailure, match="bytes.csv: not UTF-8"):
        load_csv(bad, "label")
    huge = write(tmp_path, "a,label\n1,0\n" + "9" * 200_000 + ",1\n", name="huge.csv")
    with pytest.raises(ParseFailure, match=r"huge.csv:3: field larger than field limit"):
        load_csv(huge, "label")


def test_load_csv_counts_every_row_of_a_column_that_turns_non_numeric_late(tmp_path):
    # v has 12 distinct numbers before its first non-numeric cell, so the
    # loader has stopped keeping its strings; the message still counts all
    rows = ["v,cat,label"] + [f"{i},{'AB'[i % 2]},{i % 2}" for i in range(12)]
    rows += ["x,A,0", "x,B,1", "NA,A,0"]
    with pytest.raises(ParseFailure, match=r"column 'v' is non-numeric with 13 distinct values"):
        load_csv(write(tmp_path, "\n".join(rows)), "label")


def test_missing_tokens_in_any_case_are_the_lowercase_rule():
    # the loader tests cells against every case spelling of the tokens,
    # which equals testing cell.lower() only if no other character lowers
    # to a character of a token
    token_chars = set("".join(_MISSING))
    odd = [c for c in map(chr, range(sys.maxunicode + 1))
           if not c.isascii() and not token_chars.isdisjoint(c.lower())]
    assert odd == []
    assert {s.lower() for s in _MISSING_ANY_CASE} == _MISSING
    assert "nOnE" in _MISSING_ANY_CASE and "N/a" in _MISSING_ANY_CASE


def test_make_fold_plan_subsample_sizes():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 1000)
    plan = make_fold_plan(1000, 100, 2, 10, labels, seed=1)
    assert all(s.size == 99 for s in plan.train_subsets)
    labels = np.tile([0, 1], 10)
    plan = make_fold_plan(20, 1000, 2, 10, labels, seed=1)
    assert all(s.size == 18 for s in plan.train_subsets)


def test_make_fold_plan_structure_and_determinism():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 3, 97)
    a = make_fold_plan(97, 50, 3, 5, labels, seed=7)
    b = make_fold_plan(97, 50, 3, 5, labels, seed=7)
    allidx = np.sort(np.concatenate(a.folds))
    assert np.array_equal(allidx, np.arange(97))
    for j, fold in enumerate(a.folds):
        assert np.intersect1d(fold, a.train_subsets[j]).size == 0
        # subsample covers every class
        assert set(labels[a.train_subsets[j]]) == {0, 1, 2}
        assert np.array_equal(fold, b.folds[j])
        assert np.array_equal(a.train_subsets[j], b.train_subsets[j])
    with pytest.raises(TooManyFolds):
        make_fold_plan(5, 10, 2, 6, np.array([0, 1] * 2 + [0]), seed=0)


def _curve(means):
    return ErrorCurve(algorithm="x", rates=np.asarray(means, dtype=float)[None, :])


def test_select_rstar_unit_cases():
    assert select_rstar(_curve([0.30, 0.20, 0.19, 0.21])) == 3
    assert select_rstar(_curve([0.50, 0.10, 0.10])) == 2
    assert select_rstar(_curve([0.25, 0.25, 0.25])) == 1
    with pytest.raises(EmptyCurve):
        select_rstar(ErrorCurve(algorithm="x", rates=np.full((2, 3), np.nan)))


def test_select_rstar_zero_best():
    assert select_rstar(_curve([0.2, 0.0, 0.0])) == 2


def trunk_dataset(p=30, n=120, seed=0):
    return sample(SimSpec("trunk", p, n, seed=seed)).dataset


def test_sweep_basic_and_deterministic():
    ds = trunk_dataset()
    plan = make_fold_plan(ds.n, ds.p, 2, 4, ds.labels, seed=2)
    curves1 = sweep(ds, ["lol", "pca", "cca"], 6, plan)
    curves2 = sweep(ds, ["lol", "pca", "cca"], 6, plan)
    for c1, c2 in zip(curves1, curves2):
        assert np.array_equal(c1.rates, c2.rates, equal_nan=True)
    lol = curves1[0]
    assert np.nanmin(lol.mean) <= np.nanmin(curves1[1].mean) + 0.05
    # CCA is clamped to a single dimension: r >= 2 cells stay missing
    cca = curves1[2]
    assert np.all(np.isfinite(cca.rates[:, 0]))
    assert np.all(np.isnan(cca.rates[:, 1:]))


def test_sweep_prefix_reuse_matches_per_r_refits():
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds.n, ds.p, 2, 3, ds.labels, seed=3)
    curves = sweep(ds, ["lol"], 5, plan)
    from lolkit.classifiers import class_moments, fit_lda, misclassification_rate, predict_lda
    from lolkit.embeddings import embed
    for j in range(plan.k):
        tr = plan.train_subsets[j]
        te = plan.folds[j]
        train = LabeledDataset(DataMatrix(ds.data.values[:, tr]), ds.labels[tr], 2)
        for r in (1, 3, 5):
            proj = fit_projection("lol", train, r, "auto", plan.seed)
            clf = fit_lda(class_moments(embed(proj, train.data), train.labels, 2))
            pred = predict_lda(clf, embed(proj, DataMatrix(ds.data.values[:, te])))
            rate = misclassification_rate(pred, ds.labels[te])
            assert abs(rate - curves[0].rates[j, r - 1]) < 1e-12


def test_registry_fits_every_algorithm_at_its_clamped_width():
    # 3 classes, p=20, n=12: d=12 exceeds both the cca limit C-1=2 and
    # the pls limit min(p, n-1)=11
    ds = sample(SimSpec("trunk3", 20, 12, seed=0)).dataset
    widths = {tag: fit_projection(tag, ds, 12).d for tag in ALGORITHMS}
    assert widths == {**dict.fromkeys(ALGORITHMS, 12), "cca": 2, "pls": 11}
    with pytest.raises(ShapeMismatch, match="choose from"):
        fit_projection("foo", ds, 2)


def test_sweep_rejects_unknown_tag_before_fitting(monkeypatch):
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds.n, ds.p, 2, 3, ds.labels, seed=3)
    monkeypatch.setitem(benchmark._SEEDED_FITS, "lol", None)  # would fail if called
    with pytest.raises(ShapeMismatch, match="'foo'.*choose from"):
        sweep(ds, ["lol", "foo"], 4, plan)


def test_sweep_rejects_a_repeated_tag_before_fitting(monkeypatch):
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds.n, ds.p, 2, 3, ds.labels, seed=3)
    monkeypatch.setitem(benchmark._SEEDED_FITS, "lol", None)  # would fail if called
    monkeypatch.setitem(benchmark._SEEDED_FITS, "pca", None)
    with pytest.raises(ShapeMismatch, match="'pca' listed twice"):
        sweep(ds, ["pca", "lol", "pca"], 4, plan)


def test_sweep_rejects_an_unknown_classifier_before_fitting(monkeypatch):
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds.n, ds.p, 2, 3, ds.labels, seed=3)
    monkeypatch.setitem(benchmark._SEEDED_FITS, "lol", None)  # would fail if called
    for classifier in ("svm", "LDA", None):
        with pytest.raises(ShapeMismatch, match=f"unknown classifier {classifier!r}"):
            sweep(ds, ["lol"], 4, plan, classifier=classifier)


def test_sweep_records_linalg_failures_as_missing_cells(monkeypatch):
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds.n, ds.p, 2, 3, ds.labels, seed=3)
    baseline = sweep(ds, ["lol", "pca"], 5, plan)
    real_fit_lda = benchmark.fit_lda

    def fit_lda_failing_at_r3(moments):
        if moments.means.shape[0] == 3:
            raise np.linalg.LinAlgError("leading minor not positive definite")
        return real_fit_lda(moments)

    monkeypatch.setattr(benchmark, "fit_lda", fit_lda_failing_at_r3)
    curves = sweep(ds, ["lol", "pca"], 5, plan)
    for got, want in zip(curves, baseline):
        assert np.all(np.isnan(got.rates[:, 2]))
        keep = [0, 1, 3, 4]
        assert np.array_equal(got.rates[:, keep], want.rates[:, keep])
        assert np.all(np.isfinite(want.rates))

    def failing_fit(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(benchmark._SEEDED_FITS, "pca", failing_fit)
    lol, pca = sweep(ds, ["lol", "pca"], 5, plan)
    assert np.all(np.isnan(pca.rates))
    assert np.isfinite(lol.rates[:, 0]).all()


# numpy warns when the scatter overflows, before lolkit sees the inf
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sweep_records_an_overflowing_covariance_as_missing_cells():
    ds = trunk_dataset(p=6, n=40, seed=3)
    big = LabeledDataset(DataMatrix(ds.data.values * 1e160), ds.labels, 2)
    plan = make_fold_plan(big.n, big.p, 2, 2, big.labels, seed=3)
    for classifier in ("lda", "qda"):
        (pca,) = sweep(big, ["pca"], 3, plan, classifier=classifier)
        assert np.all(np.isnan(pca.rates)), classifier


def test_normalized_report_identical_to_lol_is_zero():
    ds = trunk_dataset(p=20, n=100, seed=4)
    plan = make_fold_plan(ds.n, ds.p, 2, 4, ds.labels, seed=4)
    curves = sweep(ds, ["lol"], 5, plan)
    twin = ErrorCurve(algorithm="twin", rates=curves[0].rates.copy())
    report = normalized_report([curves[0], twin], plan, ds)
    entry = report["algorithms"]["twin"]
    assert entry["norm_embedding_dim"] == 0.0
    assert abs(entry["norm_error_mean"]) < 1e-12
    assert abs(entry["norm_error_median"]) < 1e-12
    with pytest.raises(NoBaseline):
        normalized_report([twin], plan, ds)


def test_normalized_report_hand_computed_two_folds():
    ds = trunk_dataset(p=10, n=40, seed=5)
    plan = make_fold_plan(ds.n, ds.p, 2, 2, ds.labels, seed=5)
    lol = ErrorCurve("lol", np.array([[0.2, 0.1], [0.3, 0.2]]))
    other = ErrorCurve("other", np.array([[0.4, 0.5], [0.2, 0.6]]))
    report = normalized_report([lol, other], plan, ds)
    # r*: lol argmin col2 (0.15) -> r*=2; other argmin col1 (0.3) -> r*=1
    assert report["algorithms"]["lol"]["r_star"] == 2
    assert report["algorithms"]["other"]["r_star"] == 1
    chance = []
    for j in range(2):
        mode = np.argmax(np.bincount(ds.labels[plan.train_subsets[j]]))
        chance.append(np.mean(ds.labels[plan.folds[j]] != mode))
    expected = np.mean([(0.1 - 0.4) / chance[0], (0.2 - 0.2) / chance[1]])
    assert abs(report["algorithms"]["other"]["norm_error_mean"] - expected) < 1e-12
    assert report["algorithms"]["other"]["norm_embedding_dim"] == (2 - 1) / 10


def test_report_json_roundtrip_byte_identical():
    ds = trunk_dataset(p=25, n=90, seed=6)
    plan = make_fold_plan(ds.n, ds.p, 2, 3, ds.labels, seed=6)

    def run():
        curves = sweep(ds, ["lol", "pca", "rp"], 6, plan)
        report = normalized_report(curves, plan, ds)
        return json.dumps(report, sort_keys=True), curves_rows(curves)

    a, rows_a = run()
    b, rows_b = run()
    assert a == b
    assert rows_a == rows_b


def _openblas_copies():
    """How many of numpy and scipy were built against scipy-openblas."""
    import scipy

    return sum(mod.__config__.CONFIG["Build Dependencies"]["blas"]["name"] == "scipy-openblas"
               for mod in (np, scipy))


@pytest.fixture
def blas_at_two_threads():
    """The OpenBLAS thread controls, every copy set to 2 threads for the
    test and put back to its own count afterwards."""
    controls = benchmark._openblas_thread_controls()
    saved = [(set_, get()) for get, set_ in controls]
    for set_, _ in saved:
        set_(2)
    yield controls
    for set_, threads in saved:
        set_(threads)


def _threads(controls):
    return [get() for get, _ in controls]


def test_one_blas_thread_pins_and_restores(blas_at_two_threads):
    controls = blas_at_two_threads
    assert len(controls) == _openblas_copies()
    with benchmark._one_blas_thread(controls):
        assert _threads(controls) == [1] * len(controls)
    assert _threads(controls) == [2] * len(controls)
    with pytest.raises(RuntimeError, match="cell"):
        with benchmark._one_blas_thread(controls):
            raise RuntimeError("cell failed")
    assert _threads(controls) == [2] * len(controls)


def _threads_seen_by_cells(monkeypatch, controls):
    # the thread counts each classifier fit in a sweep runs at
    seen = []
    real_fit_lda = benchmark.fit_lda

    def recording_fit_lda(*args, **kwargs):
        seen.append(tuple(_threads(controls)))
        return real_fit_lda(*args, **kwargs)

    monkeypatch.setattr(benchmark, "fit_lda", recording_fit_lda)
    return seen


def test_sweep_runs_cells_at_one_thread_and_restores(monkeypatch, blas_at_two_threads):
    controls = blas_at_two_threads
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds.n, ds.p, 2, 3, ds.labels, seed=3)
    seen = _threads_seen_by_cells(monkeypatch, controls)
    sweep(ds, ["lol", "pca"], 4, plan)
    assert set(seen) == {(1,) * len(controls)}
    assert len(seen) == 2 * plan.k * 4
    assert _threads(controls) == [2] * len(controls)


def test_sweep_fits_every_projection_but_cca_at_one_thread(monkeypatch, blas_at_two_threads):
    controls = blas_at_two_threads
    ds = sample(SimSpec("trunk3", 40, 120, seed=8)).dataset
    plan = make_fold_plan(ds.n, ds.p, ds.num_classes, 3, ds.labels, seed=8)
    seen = {tag: [] for tag in ALGORITHMS}
    # the "lol" entry is emb.fit_lol itself, so spy through the registry
    for tag, fit in list(benchmark._SEEDED_FITS.items()):
        def recording_fit(*args, _fit=fit, _seen=seen[tag], **kwargs):
            _seen.append(tuple(_threads(controls)))
            return _fit(*args, **kwargs)

        monkeypatch.setitem(benchmark._SEEDED_FITS, tag, recording_fit)
    sweep(ds, ALGORITHMS, 4, plan)
    one, default = (1,) * len(controls), (2,) * len(controls)
    assert seen == {tag: [default if tag == "cca" else one] * plan.k for tag in ALGORITHMS}
    assert _threads(controls) == [2] * len(controls)


def test_sweep_runs_one_class_centered_svd_per_fold(monkeypatch):
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds.n, ds.p, 2, 3, ds.labels, seed=3)
    calls = []
    for module in (model, emb):
        real = module.truncated_svd

        def counting_svd(values, *args, _real=real, **kwargs):
            calls.append(values.shape)
            return _real(values, *args, **kwargs)

        monkeypatch.setattr(module, "truncated_svd", counting_svd)
    lol, rrlda = sweep(ds, ["lol", "rrlda"], 5, plan)
    assert calls == [(ds.p, len(tr)) for tr in plan.train_subsets]
    assert np.isfinite(lol.rates).all() and np.isfinite(rrlda.rates).all()


def test_sweep_without_openblas_leaves_threads_alone(monkeypatch, blas_at_two_threads):
    controls = blas_at_two_threads
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds.n, ds.p, 2, 3, ds.labels, seed=3)
    pinned = sweep(ds, ["lol"], 4, plan)
    monkeypatch.setattr(benchmark, "_openblas_thread_controls", lambda: [])
    seen = _threads_seen_by_cells(monkeypatch, controls)
    (unpinned,) = sweep(ds, ["lol"], 4, plan)
    assert set(seen) == {(2,) * len(controls)}
    assert np.array_equal(unpinned.rates, pinned[0].rates)


@pytest.mark.parametrize("classifier", ["lda", "qda"])
def test_sweep_curves_do_not_depend_on_the_pin(monkeypatch, classifier):
    ds = sample(SimSpec("trunk3", 40, 120, seed=8)).dataset
    plan = make_fold_plan(ds.n, ds.p, ds.num_classes, 3, ds.labels, seed=8)
    pinned = sweep(ds, ALGORITHMS, 8, plan, classifier=classifier)
    monkeypatch.setattr(benchmark, "_one_blas_thread", contextlib.nullcontext)
    unpinned = sweep(ds, ALGORITHMS, 8, plan, classifier=classifier)
    for got, want in zip(pinned, unpinned):
        assert got.algorithm == want.algorithm
        assert np.array_equal(got.rates, want.rates, equal_nan=True), got.algorithm
        assert np.isfinite(got.rates[:, 0]).all(), got.algorithm
