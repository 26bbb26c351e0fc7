import contextlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from lolkit import benchmark, model
from lolkit import embeddings as emb
from lolkit.benchmark import (
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
    EmptyClass,
    EmptyCurve,
    LolkitError,
    NoBaseline,
    ParseFailure,
    RankRequestTooLarge,
    ShapeMismatch,
    TooFewDims,
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
    # both features parse, so each is one numeric row however few values it has
    loaded = load_csv(path, "label")
    assert loaded.feature_names == ("a", "b")
    assert loaded.dataset.data.values.tolist() == [[1.5, 2.5], [2.0, 4.0]]
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


@pytest.mark.parametrize("cells", [
    ["1", "1.0"] * 6,                   # two spellings of one value
    [str(i) for i in range(9)],         # a file of 9 rows
    [str(i % 3) for i in range(30)],    # 0/1/2 genotype codes
], ids=["one-spelled-two-ways", "nine-rows", "genotypes"])
@pytest.mark.parametrize("category", [False, True], ids=["numpy", "row-by-row"])
def test_load_csv_keeps_a_column_that_parses_numeric(tmp_path, cells, category):
    # a categorical column makes the file one that numpy's parse declines
    extra = lambda i: f",{'AB'[i % 2]}" if category else ""
    text = "v,label" + (",cat" if category else "") + "\n" + "".join(
        f"{c},{i % 2}{extra(i)}\n" for i, c in enumerate(cells))
    loaded = load_csv(write(tmp_path, text), "label")
    assert loaded.feature_names == (("v", "cat=A", "cat=B") if category else ("v",))
    assert loaded.dataset.data.values[0].tolist() == [float(c) for c in cells]


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
    # v has 12 distinct numbers before its first non-numeric cell, so it
    # has too many values to be one-hot encoded
    rows = ["v,cat,label"] + [f"{i},{'AB'[i % 2]},{i % 2}" for i in range(12)]
    rows += ["x,A,0", "x,B,1", "NA,A,0"]
    with pytest.raises(ParseFailure,
                       match=r"column 'v' is non-numeric with at least 10 distinct values"):
        load_csv(write(tmp_path, "\n".join(rows)), "label")
    # with 3 numbers before it, its numeric cells are levels of its indicators
    rows = ["v,cat,label"] + [f"{i % 3},{'AB'[i % 2]},{i % 2}" for i in range(12)]
    loaded = load_csv(write(tmp_path, "\n".join(rows + ["x,A,0", "x,B,1"])), "label")
    assert loaded.feature_names == ("v=0", "v=1", "v=2", "v=x", "cat=A", "cat=B")
    assert loaded.dataset.data.values[:4].sum(axis=0).tolist() == [1.0] * 14


def test_load_csv_refuses_a_many_valued_non_numeric_pipe(tmp_path):
    # the input is read once: a pipe has nothing left to read again
    fifo = tmp_path / "d.csv"
    os.mkfifo(fifo)
    text = "v,label\n" + "".join(f"v{i},{i % 2}\n" for i in range(12))
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    outcome = []
    reader = threading.Thread(target=lambda: outcome.append(_raised(load_csv, fifo, "label")),
                              daemon=True)
    reader.start()
    reader.join(timeout=20)
    writer.join(timeout=1)
    assert not reader.is_alive() and not writer.is_alive()
    assert outcome == [(ParseFailure, f"{fifo}: column 'v' is non-numeric with at least 10 "
                                      "distinct values")]
    # standard input through the CLI, in a fresh interpreter
    done = subprocess.run(
        [sys.executable, "-m", "lolkit.cli", "fit", "--input", "/dev/stdin", "--alg", "lol",
         "--d", "1", "--output", str(tmp_path / "p.txt")],
        input=text, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(benchmark.__file__))))
    assert done.returncode == 2
    assert json.loads(done.stderr) == {
        "error": "ParseFailure",
        "message": "/dev/stdin: column 'v' is non-numeric with at least 10 distinct values"}


def _raised(fn, *args):
    try:
        fn(*args)
    except LolkitError as exc:
        return type(exc), str(exc)
    return None


def _zeros_dataset(p, labels):
    return LabeledDataset(DataMatrix(np.zeros((p, len(labels)))), labels)


def test_make_fold_plan_subsample_sizes():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 1000)
    plan = make_fold_plan(_zeros_dataset(100, labels), 10, seed=1)
    assert all(s.size == 99 for s in plan.train_subsets)
    labels = np.tile([0, 1], 10)
    plan = make_fold_plan(_zeros_dataset(1000, labels), 10, seed=1)
    assert all(s.size == 18 for s in plan.train_subsets)


def test_make_fold_plan_structure_and_determinism():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 3, 97)
    ds = _zeros_dataset(50, labels)
    a = make_fold_plan(ds, 5, seed=7)
    b = make_fold_plan(ds, 5, seed=7)
    assert a.dataset is ds
    allidx = np.sort(np.concatenate(a.folds))
    assert np.array_equal(allidx, np.arange(97))
    for j, fold in enumerate(a.folds):
        assert np.intersect1d(fold, a.train_subsets[j]).size == 0
        # subsample covers every class
        assert set(labels[a.train_subsets[j]]) == {0, 1, 2}
        assert np.array_equal(fold, b.folds[j])
        assert np.array_equal(a.train_subsets[j], b.train_subsets[j])
    with pytest.raises(TooManyFolds):
        make_fold_plan(_zeros_dataset(10, [0, 1] * 2 + [0]), 6, seed=0)
    # labels that do not fit are refused by the dataset a plan is made from
    with pytest.raises(ShapeMismatch):
        LabeledDataset(DataMatrix(np.zeros((5, 10))), [0, 1], 2)
    with pytest.raises(EmptyClass):
        LabeledDataset(DataMatrix(np.zeros((5, 4))), [0, 1, 2, 0], 2)


def test_stratified_subsample_gives_back_what_the_one_sample_floor_adds():
    # floors of 3 * [10, 1, 1] / 12 are [2, 0, 0]; raising the singletons
    # to one sample makes [2, 1, 1], one over, which the largest class gives back
    labels = np.array([0] * 10 + [1, 2])
    picked = benchmark._stratified_subsample(np.arange(12), labels, 3, np.random.default_rng(0))
    assert np.bincount(labels[picked]).tolist() == [1, 1, 1]


def test_sweep_skips_a_fold_whose_training_subsample_lacks_a_class():
    labels = np.array([0] * 5 + [1] * 5 + [2])
    x = np.random.default_rng(0).normal(size=(10, labels.size))
    plan = make_fold_plan(LabeledDataset(DataMatrix(x), labels), 3, seed=0)
    # the fold holding the one class-2 sample trains without class 2
    (lacking,) = [j for j, fold in enumerate(plan.folds) if 10 in fold]
    for curve in sweep(plan, ["lol", "pca", "rp", "cca"], 2):
        others = [j for j in range(plan.k) if j != lacking]
        assert np.all(np.isnan(curve.rates[lacking])), curve.algorithm
        assert np.all(np.isfinite(curve.rates[others])), curve.algorithm


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
    plan = make_fold_plan(ds, 4, seed=2)
    curves1 = sweep(plan, ["lol", "pca", "cca"], 6)
    curves2 = sweep(plan, ["lol", "pca", "cca"], 6)
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
    plan = make_fold_plan(ds, 3, seed=3)
    curves = sweep(plan, ["lol"], 5)
    from lolkit.classifiers import fit_lda, misclassification_rate, predict_lda
    from lolkit.embeddings import embed
    for j in range(plan.k):
        tr = plan.train_subsets[j]
        te = plan.folds[j]
        train = LabeledDataset(DataMatrix(ds.data.values[:, tr]), ds.labels[tr], 2)
        for r in (1, 3, 5):
            proj = fit_projection("lol", train, r, "auto", plan.seed)
            clf = fit_lda(embed(proj, train.data), train.labels, 2)
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


# what a fit wider than p gives, where it is not TooFewDims
_WIDER_THAN_P = {"pca": RankRequestTooLarge, "rrlda": RankRequestTooLarge,
                 "cca": None, "pls": None}  # None: clamped to a width of at most p


@pytest.mark.parametrize("tag", ALGORITHMS)
def test_no_fit_returns_more_columns_than_features(tag):
    # 5 features, 3 classes, n=30
    ds = sample(SimSpec("trunk3", 5, 30, seed=0)).dataset
    assert fit_projection(tag, ds, 5).d == (2 if tag == "cca" else 5)
    error = _WIDER_THAN_P.get(tag, TooFewDims)
    for d in (6, 99):
        if error is None:
            assert fit_projection(tag, ds, d).d <= 5
        else:
            with pytest.raises(error):
                fit_projection(tag, ds, d)


def test_sweep_rejects_unknown_tag_before_fitting(monkeypatch):
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds, 3, seed=3)
    monkeypatch.setitem(benchmark._SEEDED_FITS, "lol", None)  # would fail if called
    with pytest.raises(ShapeMismatch, match="'foo'.*choose from"):
        sweep(plan, ["lol", "foo"], 4)


def test_sweep_rejects_a_repeated_tag_before_fitting(monkeypatch):
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds, 3, seed=3)
    monkeypatch.setitem(benchmark._SEEDED_FITS, "lol", None)  # would fail if called
    monkeypatch.setitem(benchmark._SEEDED_FITS, "pca", None)
    with pytest.raises(ShapeMismatch, match="'pca' listed twice"):
        sweep(plan, ["pca", "lol", "pca"], 4)


def test_sweep_rejects_an_unknown_classifier_before_fitting(monkeypatch):
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds, 3, seed=3)
    monkeypatch.setitem(benchmark._SEEDED_FITS, "lol", None)  # would fail if called
    for classifier in ("svm", "LDA", None):
        with pytest.raises(ShapeMismatch, match=f"unknown classifier {classifier!r}"):
            sweep(plan, ["lol"], 4, classifier=classifier)


def test_sweep_records_linalg_failures_as_missing_cells(monkeypatch):
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds, 3, seed=3)
    baseline = sweep(plan, ["lol", "pca"], 5)
    real_fit_lda = benchmark.fit_lda

    def fit_lda_failing_at(width):
        def fit(embedded, labels, num_classes=None):
            if embedded.p == width:
                raise np.linalg.LinAlgError("leading minor not positive definite")
            return real_fit_lda(embedded, labels, num_classes)
        return fit

    # the full-width fit serves every r >= 2 cell, and r = 1 has its own
    for width, lost, kept in ((5, slice(1, None), [0]), (1, [0], slice(1, None))):
        monkeypatch.setattr(benchmark, "fit_lda", fit_lda_failing_at(width))
        curves = sweep(plan, ["lol", "pca"], 5)
        for got, want in zip(curves, baseline):
            assert np.all(np.isnan(got.rates[:, lost])), width
            assert np.array_equal(got.rates[:, kept], want.rates[:, kept]), width
            assert np.all(np.isfinite(want.rates))
    monkeypatch.setattr(benchmark, "fit_lda", real_fit_lda)

    def failing_fit(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(benchmark._SEEDED_FITS, "pca", failing_fit)
    lol, pca = sweep(plan, ["lol", "pca"], 5)
    assert np.all(np.isnan(pca.rates))
    assert np.isfinite(lol.rates[:, 0]).all()


def test_sweep_leaves_the_cells_above_n_train_missing():
    # n_train = min(floor(30 * 2 / 3), 59) = 20 < d_max = 40
    ds = trunk_dataset(p=60, n=30, seed=0)
    plan = make_fold_plan(ds, 3, seed=0)
    n_train = len(plan.train_subsets[0])
    assert n_train == 20
    for curve in sweep(plan, ["rp", "lfl"], 40):
        assert np.isfinite(curve.rates[:, :n_train]).all(), curve.algorithm
        assert np.isnan(curve.rates[:, n_train:]).all(), curve.algorithm


# values near 1e160 square to inf
def test_sweep_records_an_overflowing_covariance_as_missing_cells():
    ds = trunk_dataset(p=6, n=40, seed=3)
    big = LabeledDataset(DataMatrix(ds.data.values * 1e160), ds.labels, 2)
    plan = make_fold_plan(big, 2, seed=3)
    for classifier in ("lda", "qda"):
        (pca,) = sweep(plan, ["pca"], 3, classifier=classifier)
        assert np.all(np.isnan(pca.rates)), classifier


def test_normalized_report_identical_to_lol_is_zero():
    ds = trunk_dataset(p=20, n=100, seed=4)
    plan = make_fold_plan(ds, 4, seed=4)
    curves = sweep(plan, ["lol"], 5)
    twin = ErrorCurve(algorithm="twin", rates=curves[0].rates.copy())
    report = normalized_report([curves[0], twin], plan)
    entry = report["algorithms"]["twin"]
    assert entry["norm_embedding_dim"] == 0.0
    assert abs(entry["norm_error_mean"]) < 1e-12
    assert abs(entry["norm_error_median"]) < 1e-12
    with pytest.raises(NoBaseline):
        normalized_report([twin], plan)


def test_normalized_report_rejects_a_curve_of_another_fold_count():
    ds = trunk_dataset(p=10, n=40, seed=5)
    plan = make_fold_plan(ds, 3, seed=5)
    lol = ErrorCurve("lol", np.full((3, 2), 0.1))
    with pytest.raises(ShapeMismatch, match="'lol' has 5 folds, the plan 3"):
        normalized_report([ErrorCurve("lol", np.full((5, 2), 0.1))], plan)
    with pytest.raises(ShapeMismatch, match="'pca' has 2 folds"):
        normalized_report([lol, ErrorCurve("pca", np.full((2, 2), 0.1))], plan)
    assert normalized_report([lol], plan)["n"] == 40
    # one finite fold of 3 at r* = 2 is below k / 2; lol's 3 are not
    sparse = ErrorCurve("sparse", np.array([[0.3, np.nan], [np.nan, np.nan], [np.nan, 0.2]]))
    report = normalized_report([lol, sparse], plan)
    assert report["algorithms"]["sparse"]["r_star"] == 2
    assert report["algorithms"]["sparse"]["folds_ok_at_r_star"] == 1
    assert report["flagged_low_coverage"] == ["sparse"]


def test_normalized_report_hand_computed_two_folds():
    ds = trunk_dataset(p=10, n=40, seed=5)
    plan = make_fold_plan(ds, 2, seed=5)
    lol = ErrorCurve("lol", np.array([[0.2, 0.1], [0.3, 0.2]]))
    other = ErrorCurve("other", np.array([[0.4, 0.5], [0.2, 0.6]]))
    report = normalized_report([lol, other], plan)
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
    plan = make_fold_plan(ds, 3, seed=6)

    def run():
        curves = sweep(plan, ["lol", "pca", "rp"], 6)
        report = normalized_report(curves, plan)
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
    plan = make_fold_plan(ds, 3, seed=3)
    seen = _threads_seen_by_cells(monkeypatch, controls)
    sweep(plan, ["lol", "pca"], 4)
    assert set(seen) == {(1,) * len(controls)}
    # per fold and algorithm: the r = 1 fit and the one fit every r >= 2 reads
    assert len(seen) == 2 * plan.k * 2
    assert _threads(controls) == [2] * len(controls)


def test_sweep_reuses_the_thread_controls_found_once(monkeypatch, blas_at_two_threads):
    controls = blas_at_two_threads
    assert benchmark._openblas_thread_controls() is controls

    def no_second_lookup(*args, **kwargs):
        raise AssertionError("OpenBLAS looked up again")

    monkeypatch.setattr(benchmark.ctypes, "CDLL", no_second_lookup)
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds, 3, seed=3)
    seen = _threads_seen_by_cells(monkeypatch, controls)
    sweep(plan, ["lol"], 4)
    assert set(seen) == {(1,) * len(controls)}
    assert _threads(controls) == [2] * len(controls)


def test_sweep_fits_every_projection_but_cca_at_one_thread(monkeypatch, blas_at_two_threads):
    controls = blas_at_two_threads
    ds = sample(SimSpec("trunk3", 40, 120, seed=8)).dataset
    plan = make_fold_plan(ds, 3, seed=8)
    seen = {tag: [] for tag in ALGORITHMS}
    # the "lol" entry is emb.fit_lol itself, so spy through the registry
    for tag, fit in list(benchmark._SEEDED_FITS.items()):
        def recording_fit(*args, _fit=fit, _seen=seen[tag], **kwargs):
            _seen.append(tuple(_threads(controls)))
            return _fit(*args, **kwargs)

        monkeypatch.setitem(benchmark._SEEDED_FITS, tag, recording_fit)
    sweep(plan, ALGORITHMS, 4)
    one, default = (1,) * len(controls), (2,) * len(controls)
    assert seen == {tag: [default if tag == "cca" else one] * plan.k for tag in ALGORITHMS}
    assert _threads(controls) == [2] * len(controls)


def test_sweep_runs_one_class_centered_svd_per_fold(monkeypatch):
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds, 3, seed=3)
    calls = []
    for module in (model, emb):
        real = module.truncated_svd

        def counting_svd(values, *args, _real=real, **kwargs):
            calls.append(values.shape)
            return _real(values, *args, **kwargs)

        monkeypatch.setattr(module, "truncated_svd", counting_svd)
    lol, rrlda = sweep(plan, ["lol", "rrlda"], 5)
    assert calls == [(ds.p, len(tr)) for tr in plan.train_subsets]
    assert np.isfinite(lol.rates).all() and np.isfinite(rrlda.rates).all()


def test_sweep_without_openblas_leaves_threads_alone(monkeypatch, blas_at_two_threads):
    controls = blas_at_two_threads
    ds = trunk_dataset(p=15, n=80, seed=3)
    plan = make_fold_plan(ds, 3, seed=3)
    pinned = sweep(plan, ["lol"], 4)
    monkeypatch.setattr(benchmark, "_openblas_thread_controls", lambda: [])
    seen = _threads_seen_by_cells(monkeypatch, controls)
    (unpinned,) = sweep(plan, ["lol"], 4)
    assert set(seen) == {(2,) * len(controls)}
    assert np.array_equal(unpinned.rates, pinned[0].rates)


@pytest.mark.parametrize("classifier", ["lda", "qda"])
def test_sweep_curves_do_not_depend_on_the_pin(monkeypatch, classifier):
    ds = sample(SimSpec("trunk3", 40, 120, seed=8)).dataset
    plan = make_fold_plan(ds, 3, seed=8)
    pinned = sweep(plan, ALGORITHMS, 8, classifier=classifier)
    monkeypatch.setattr(benchmark, "_one_blas_thread", contextlib.nullcontext)
    unpinned = sweep(plan, ALGORITHMS, 8, classifier=classifier)
    for got, want in zip(pinned, unpinned):
        assert got.algorithm == want.algorithm
        assert np.array_equal(got.rates, want.rates, equal_nan=True), got.algorithm
        assert np.isfinite(got.rates[:, 0]).all(), got.algorithm
