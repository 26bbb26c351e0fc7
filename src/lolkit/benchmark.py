"""Dataset ingestion, the projection registry, cross-validation protocol
and comparison metrics.

The protocol: stratified k-fold assignment, per-fold training subsample
of size min(floor(n (k-1) / k), p - 1), projections fitted once per fold
at the maximum dimension, one classifier fitted at that width whose
leading blocks give every r >= 2 (r = 1 has a fit of its own), evaluation
on the held-out fold.  A failed fit leaves the cells it would have filled
missing instead of aborting the sweep.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import embeddings as emb
from .classifiers import (
    _predict_by_width,
    class_moments,
    fit_lda,
    fit_qda,
    misclassification_rate,
    predict_lda,
    predict_qda,
)
from .errors import (
    DegenerateLabels,
    EmptyCurve,
    LolkitError,
    NoBaseline,
    ParseFailure,
    ShapeMismatch,
    TooManyFolds,
)
from .linalg import seed_sequence
from .model import DataMatrix, LabeledDataset

SCHEMA_VERSION = 1

# a stripped cell is missing when its lower case is one of these; the NaN
# spellings are every cell that float() turns into NaN
_MISSING = {"", "na", "nan", "+nan", "-nan", "n/a", "?", "null", "none"}

# a feature column holding a cell that float() rejects is one-hot encoded
# when it has fewer distinct cells than this, and refused otherwise
ONE_HOT_THRESHOLD = 10


@dataclass(frozen=True)
class LoadedCsv:
    dataset: LabeledDataset
    feature_names: tuple
    label_mapping: dict       # original label value -> dense 0..C-1
    n_dropped_rows: int


def load_csv(path, label_column) -> LoadedCsv:
    """Load a UTF-8 comma- or tab-delimited file into a LabeledDataset.

    The delimiter is a tab when the header line holds one outside a quoted
    field.  Rows with any missing entry are dropped.  A feature column
    whose cells all parse with float() is one numeric row, however few
    distinct values it has; a column holding a cell that float() rejects
    is one-hot encoded when it has fewer than ONE_HOT_THRESHOLD distinct
    cells, and otherwise raises ParseFailure.  ``label_column`` is a header
    name or integer index.  A plain numeric file is parsed by numpy's C
    tokenizer, which gives the values float() gives, also when some rows
    hold a NaN cell or a missing label (see _numeric_table); every
    other file, such as one with other missing entries, categorical
    columns, quoted fields or cells like ``1_000``, is parsed row by row as
    it is read (see _FeatureRows), so its cells are never all held as
    strings at once.  The input is read once, so it may be a pipe.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseFailure(f"{path}: cannot open: {exc.strerror}") from None
    with fh:
        reader = None
        try:
            first = fh.readline()
            if not first:
                raise ParseFailure(f"{path}: empty file")
            # a tab inside a quoted field does not make a tab-delimited file
            delimiter = "\t" if len(next(csv.reader([first], delimiter="\t"))) > 1 else ","
            header = next(csv.reader([first], delimiter=delimiter))
            # a bad label column is reported once the whole file has parsed
            label_idx, label_error = _label_index(header, label_column)
            numeric = _numeric_table(fh, delimiter, len(header), label_idx)
            if numeric is not None:
                n_rows = numeric[2]
            else:
                table = _FeatureRows(len(header), label_idx)
                reader = csv.reader(fh, delimiter=delimiter)
                n_rows = 0
                for lineno, row in enumerate(reader, start=2):
                    if not row:
                        continue
                    if len(row) != len(header):
                        raise ParseFailure(
                            f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                        )
                    n_rows += 1
                    row = list(map(str.strip, row))
                    if _MISSING.isdisjoint(map(str.lower, row)):
                        table.add(row)
        except UnicodeDecodeError as exc:
            raise ParseFailure(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            line = 1 if reader is None else reader.line_num + 1
            raise ParseFailure(f"{path}:{line}: {exc}") from None
    if label_error is not None:
        raise label_error
    label_cells = table.labels if numeric is None else numeric[0]

    n = len(label_cells)
    if n < 2:
        raise DegenerateLabels(f"{path}: fewer than 2 complete rows")
    classes = sorted(set(label_cells))
    if len(classes) < 2:
        raise DegenerateLabels(f"{path}: fewer than 2 classes after cleaning")
    mapping = {v: i for i, v in enumerate(classes)}
    labels = np.array([mapping[v] for v in label_cells], dtype=np.int64)

    columns = [j for j in range(len(header)) if j != label_idx]  # header index per feature
    if not columns:
        raise ParseFailure(f"{path}: no feature columns")
    if numeric is None:
        one_hot = table.one_hot()
        for k, j in enumerate(columns):
            if k in table.unparsed and k not in one_hot:
                raise ParseFailure(
                    f"{path}: column {header[j]!r} is non-numeric with at least "
                    f"{ONE_HOT_THRESHOLD} distinct values"
                )
        parsed = np.stack(table.values, axis=1)  # one row per feature column
    else:
        one_hot, parsed = {}, numeric[1]
    feature_names, blocks = [], []
    for k, j in enumerate(columns):
        if k in one_hot:
            levels, codes = one_hot[k]
            feature_names.extend(f"{header[j]}={v}" for v in levels)
            blocks.append(codes == np.arange(len(levels))[:, None])
        else:
            feature_names.append(header[j])
            blocks.append(parsed[k:k + 1])
    x = np.vstack(blocks) if one_hot else parsed  # p x n
    dataset = LabeledDataset(DataMatrix(x), labels, len(classes))
    return LoadedCsv(dataset, tuple(feature_names), mapping, n_rows - n)


def _numeric_table(fh, delimiter, width, label_idx):
    """(label cells, p x n float64 matrix, rows read) of the complete rows
    left in ``fh``, parsed by np.loadtxt, or None with ``fh`` rewound when
    numpy cannot give exactly what _FeatureRows gives.

    numpy parses a field with PyOS_string_to_double after stripping the
    characters str.strip() strips, which is the conversion float() makes.
    The forms float() accepts and numpy rejects (``1_000``, non-ASCII
    digits, quoted cells, missing tokens other than the NaN spellings)
    make the call fail.  A result is kept only when it is complete, has no
    quoted label and no field over csv.field_size_limit().  Every feature
    cell of a kept result parsed, so no column is one-hot.  Every spelling
    that float() turns into NaN is a missing token, so a row holding a NaN
    is dropped, as is a row whose label is a missing token: _FeatureRows
    drops both.  A stream that cannot be rewound, such as a pipe, is left
    to _FeatureRows.
    """
    if not fh.seekable():
        return None
    start = fh.tell()
    limit = csv.field_size_limit()
    label_codes = {}  # label cell -> code

    def lines():
        for line in fh:
            if len(line) > limit and max(map(len, line.rstrip("\r\n").split(delimiter))) > limit:
                raise ValueError("a field over csv.field_size_limit()")
            yield line

    def label_code(cell):
        return label_codes.setdefault(cell.strip(), len(label_codes))

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(lines(), delimiter=delimiter, comments=None, quotechar=None,
                              ndmin=2, converters={label_idx: label_code})
    except (ValueError, Warning):
        data = None
    if data is not None and data.shape[1] == width and len(data) >= 2 \
            and not any('"' in v for v in label_codes):
        codes = data[:, label_idx].astype(np.intp)
        # the label column holds codes, so a NaN is a feature's missing cell
        drop = np.isnan(data).any(axis=1) | np.isin(
            codes, [c for v, c in label_codes.items() if v.lower() in _MISSING])
        n_read = len(data)
        if drop.any():
            data, codes = data[~drop], codes[~drop]
        x = data.T[[j for j in range(width) if j != label_idx]]  # C-contiguous p x n
        cells = list(label_codes)
        return [cells[code] for code in codes.tolist()], x, n_read
    fh.seek(start)
    return None


def _label_index(header, label_column):
    """(index of the label column in ``header``, None), or (0, the
    ParseFailure that names it): a file with a bad label column is still
    read through, so its own parse errors come first."""
    if isinstance(label_column, int):
        if 0 <= label_column < len(header):
            return label_column, None
        return 0, ParseFailure(f"label column index {label_column} out of range")
    try:
        return header.index(label_column), None
    except ValueError:
        return 0, ParseFailure(f"label column {label_column!r} not in header")


class _FeatureRows:
    """The complete rows of a CSV file, parsed as each one is read.

    ``add`` takes a row's stripped cells and keeps its label cell and, in
    one float64 array, float() of each feature cell.  A column whose cell
    float() rejects is not parsed again and its entries are left 0.  Until
    a column has ONE_HOT_THRESHOLD distinct cells it also keeps them, with
    a level code per row: all that a one-hot column needs.  Any column may
    turn out not to parse on a later row, and a pipe cannot be read again,
    so the levels are kept for every column, not only those known not to
    parse.
    """

    def __init__(self, width, label_idx):
        self.label_idx = label_idx
        self.labels = []
        self.values = []                                # one array per row
        self.parsed = list(range(width - 1))           # features float() still parses
        self.unparsed = set()
        self.levels = {k: {} for k in self.parsed}     # cell -> code, while few-valued
        self.codes = {k: [] for k in self.parsed}

    def add(self, cells):
        self.labels.append(cells.pop(self.label_idx))
        for k, seen in list(self.levels.items()):
            code = seen.setdefault(cells[k], len(seen))
            if len(seen) < ONE_HOT_THRESHOLD:
                self.codes[k].append(code)
            else:
                del self.levels[k], self.codes[k]
        self.values.append(self._parse(cells))

    def _parse(self, cells):
        while True:
            try:
                if len(self.parsed) == len(cells):
                    return np.fromiter(map(float, cells), np.float64, len(cells))
                out = np.zeros(len(cells))
                out[self.parsed] = np.fromiter(map(float, map(cells.__getitem__, self.parsed)),
                                               np.float64, len(self.parsed))
                return out
            except ValueError:
                self.unparsed.update(k for k in self.parsed if not _parses(cells[k]))
                self.parsed = [k for k in self.parsed if k not in self.unparsed]

    def one_hot(self):
        """{feature: (sorted levels, level index per row)} for the columns
        that did not parse and have fewer than ONE_HOT_THRESHOLD distinct
        cells."""
        out = {}
        for k, seen in self.levels.items():
            if k in self.unparsed:
                levels = sorted(seen)
                rank = np.empty(len(levels), np.intp)  # code -> index in levels
                rank[[seen[v] for v in levels]] = np.arange(len(levels))
                out[k] = levels, rank[np.array(self.codes[k], dtype=np.intp)]
        return out


def _parses(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class FoldPlan:
    dataset: LabeledDataset   # the dataset split, by reference
    folds: tuple              # k disjoint index arrays covering 0..n-1
    train_subsets: tuple      # per fold, stratified subsample of the complement
    seed: int

    @property
    def k(self):
        return len(self.folds)


def _stratified_subsample(indices, labels, size, rng):
    # proportional allocation with at least one sample per class present
    classes = np.unique(labels[indices])
    if size < classes.size:
        raise ShapeMismatch(
            f"subsample size {size} cannot cover {classes.size} classes"
        )
    per_class = {c: indices[labels[indices] == c] for c in classes}
    counts = np.array([per_class[c].size for c in classes], dtype=np.float64)
    exact = size * counts / counts.sum()
    alloc = np.maximum(np.floor(exact).astype(int), 1)
    alloc = np.minimum(alloc, counts.astype(int))
    # spread the remainder by largest fractional part in one pass: it is
    # below the number of classes that kept their floor, each with room
    for j in np.argsort(-(exact - np.floor(exact))):
        if alloc.sum() >= size:
            break
        if alloc[j] < counts[j]:
            alloc[j] += 1
    # classes raised to one sample can overshoot: the largest give it back
    while alloc.sum() > size:
        alloc[np.argmax(alloc)] -= 1
    picked = []
    for c, m in zip(classes, alloc):
        idx = per_class[c]
        picked.append(rng.choice(idx, size=int(m), replace=False))
    return np.sort(np.concatenate(picked))


def make_fold_plan(dataset: LabeledDataset, k, seed) -> FoldPlan:
    """Stratified fold assignment of ``dataset`` plus per-fold training
    subsamples of size min(floor(n (k-1) / k), p - 1)."""
    n, labels = dataset.n, dataset.labels
    if k > n:
        raise TooManyFolds(f"k={k} exceeds n={n}")
    if k < 2:
        raise TooManyFolds("need at least 2 folds")
    rng = np.random.default_rng(seed_sequence(seed, 0xF01D))
    assignment = np.empty(n, dtype=np.int64)
    offset = 0
    for c in range(dataset.num_classes):
        idx = np.flatnonzero(labels == c)
        idx = rng.permutation(idx)
        assignment[idx] = (np.arange(idx.size) + offset) % k
        offset += idx.size
    folds = tuple(np.flatnonzero(assignment == j) for j in range(k))

    size = min(math.floor(n * (k - 1) / k), dataset.p - 1)
    subsets = []
    for j in range(k):
        train = np.flatnonzero(assignment != j)
        sub_rng = np.random.default_rng(seed_sequence(seed, 1 + j))
        subsets.append(_stratified_subsample(train, labels, size, sub_rng))
    return FoldPlan(dataset=dataset, folds=folds, train_subsets=tuple(subsets), seed=seed)


@dataclass(frozen=True)
class ErrorCurve:
    algorithm: str
    rates: np.ndarray         # (k, d_max), NaN marks a failed cell

    @property
    def mean(self):
        # all-NaN columns (every fold failed at that r) stay NaN silently
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanmean(self.rates, axis=0)


# tag -> fit(dataset, d, *, svd_mode, seed).  The adapters look the
# embeddings function up at call time, so a wrapper installed on the
# module attribute sees the call.
_SEEDED_FITS = {
    "lol": emb.fit_lol,
    "pca": emb.fit_pca,
    "rrlda": emb.fit_rrlda,
    "qoq": emb.fit_qoq,
    "rlol": emb.fit_rlol,
    "lfl": lambda ds, d, *, svd_mode, seed: emb.fit_lfl(ds, d, seed=seed),
    "rp": lambda ds, d, *, svd_mode, seed: emb.fit_rp(ds, d, seed=seed),
    "cca": lambda ds, d, *, svd_mode, seed: emb.fit_lrcca(ds, min(d, ds.num_classes - 1)),
    "pls": lambda ds, d, *, svd_mode, seed: emb.fit_pls(ds, min(d, ds.p, ds.n - 1)),
}

ALGORITHMS = tuple(_SEEDED_FITS)

# fits that sweep runs at the process default BLAS thread count, not at
# one thread: the cca basis below C-1 dimensions depends on the thread
# count (its top eigenvalues tie when n <= p), so pinning it would change
# its curves at the default count
_DEFAULT_THREAD_FITS = frozenset({"cca"})


def _check_algorithm(tag):
    if tag not in _SEEDED_FITS:
        raise ShapeMismatch(f"unknown algorithm {tag!r}; choose from {ALGORITHMS}")


def check_algorithms(tags):
    """Raise ShapeMismatch for the first tag in ``tags`` that is unknown or
    repeats an earlier one."""
    seen = set()
    for tag in tags:
        _check_algorithm(tag)
        if tag in seen:
            raise ShapeMismatch(f"algorithm {tag!r} listed twice")
        seen.add(tag)


def require_baseline(tags):
    """Raise NoBaseline unless ``tags`` holds "lol", the curve every
    normalized metric is relative to."""
    if "lol" not in tags:
        raise NoBaseline("normalized metrics require an 'lol' curve")


def fit_projection(tag, dataset, d, svd_mode="auto", seed=0):
    """Fit the projection registered under ``tag`` (one of ALGORITHMS).

    cca is clamped to d <= C-1 and pls to d <= min(p, n-1), so the
    returned width can be below ``d``.
    """
    _check_algorithm(tag)
    return _SEEDED_FITS[tag](dataset, d, svd_mode=svd_mode, seed=seed)


# a failed fit or cell is recorded as missing; numerical failures from
# NumPy/SciPy (a singular Cholesky factor, a non-converging SVD) included
_CELL_ERRORS = (LolkitError, np.linalg.LinAlgError)

# (get, set) thread-count entry points of the 64-bit-integer (numpy) and
# 32-bit (scipy) OpenBLAS builds
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_controls():
    """[(get, set)] thread-count functions of each OpenBLAS copy loaded in
    this process.  numpy and scipy each ship their own copy with its own
    thread pool.  Empty where none is found, for example off Linux.

    Both copies are loaded once lolkit is imported (it imports numpy and
    scipy.linalg), so the lookup runs once per process and later calls
    return the same list; callers must not change it."""
    try:
        with open("/proc/self/maps") as fh:
            fields = (line.split(maxsplit=5) for line in fh)
            paths = sorted({f[5].rstrip("\n") for f in fields
                            if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread(controls):
    """Run the block with every OpenBLAS copy in ``controls`` at one thread,
    then restore each copy's previous count."""
    saved = [(set_, get()) for get, set_ in controls]
    try:
        for set_, _ in saved:
            set_(1)
        yield
    finally:
        for set_, threads in saved:
            set_(threads)


def sweep(plan: FoldPlan, algorithms, d_max, classifier="lda"):
    """Error curves for every algorithm over r = 1..d_max on plan.dataset.

    ``algorithms`` are distinct tags from ALGORITHMS and ``classifier`` is
    "lda" or "qda"; anything else raises ShapeMismatch before any fit.

    For each fold and algorithm, one classifier fitted at width w =
    min(proj.d, n_train) gives every r = 2..w: both folds are embedded
    once through ``prefix(w)``, and the rule at r, read off that fit (see
    classifiers), uses the leading r x r block of the width-w covariance,
    ridge included.  Exact-SVD fits nest, so the leading r rows of the
    embedding are the r-dim embedding; a randomized-SVD fit (what "auto"
    picks when min(p, n_train) > 2000) does not, and its curve at r scores
    the leading r columns of the d_max fit.  The r = 1 cell has a fit of
    its own, on its own ``prefix(1)`` embedding: numpy computes a one-row
    product by a matrix-vector path whose last bits differ from row 0 of
    the full product, and the 1-dim cca embedding, with almost no
    within-class variance when n <= p, changes its predictions on those
    bits.  Cells above n_train stay missing.  A failed fit leaves the cells
    it serves missing, and a test point that no class scores finitely from
    width r on leaves r and every wider cell missing.

    Each fold's projection fits and cells (embed, classifier fit,
    predict) run with BLAS at one thread: their SVDs and d x d solves are
    far slower when two thread pools contend for the cores.  The cca fit
    alone runs at the process default, because its result depends on the
    thread count (see _DEFAULT_THREAD_FITS).  Thread counts are
    process-wide, so sweeps running concurrently in one process can
    restore each other's pinned count.
    """
    check_algorithms(algorithms)
    dataset = plan.dataset
    if classifier not in ("lda", "qda"):
        raise ShapeMismatch(f"unknown classifier {classifier!r}; choose from ('lda', 'qda')")
    if not 1 <= d_max <= dataset.p - 1:
        raise ShapeMismatch(f"d_max={d_max} must lie in 1..p-1={dataset.p - 1}")
    fit_cls, predict = (fit_qda, predict_qda) if classifier == "qda" else (fit_lda, predict_lda)
    x = dataset.data.values
    y = dataset.labels
    c = dataset.num_classes
    blas = _openblas_thread_controls()

    rates = [np.full((plan.k, d_max), np.nan) for _ in algorithms]
    for j in range(plan.k):
        tr = plan.train_subsets[j]
        te = plan.folds[j]
        try:
            train_ds = LabeledDataset(DataMatrix(x[:, tr]), y[tr], c)
            test = DataMatrix(x[:, te])
        except _CELL_ERRORS:
            continue
        for tag, tag_rates in zip(algorithms, rates):
            with _one_blas_thread([] if tag in _DEFAULT_THREAD_FITS else blas):
                try:
                    proj = fit_projection(tag, train_ds, d_max, seed=plan.seed)
                except _CELL_ERRORS:
                    continue
            with _one_blas_thread(blas):
                for width in sorted({1, min(proj.d, train_ds.n)}):
                    try:
                        pre = proj.prefix(width)
                        clf = fit_cls(class_moments(emb.embed(pre, train_ds.data),
                                                    train_ds.labels, c))
                        z_test = emb.embed(pre, test)
                        if width == 1:
                            tag_rates[j, 0] = misclassification_rate(predict(clf, z_test), y[te])
                        else:
                            pred = _predict_by_width(clf, z_test)
                            tag_rates[j, 1:len(pred)] = np.mean(pred[1:] != y[te], axis=1)
                    except _CELL_ERRORS:
                        continue
    return [ErrorCurve(algorithm=tag, rates=tag_rates)
            for tag, tag_rates in zip(algorithms, rates)]


def select_rstar(curve: ErrorCurve):
    """Smallest r whose mean error is within 5% of the best dimension's."""
    means = curve.mean
    finite = np.isfinite(means)
    if not np.any(finite):
        raise EmptyCurve(f"no successful cells for {curve.algorithm}")
    best = np.nanmin(means)
    threshold = 1.05 * best
    ok = np.flatnonzero(finite & (means < threshold))
    if ok.size == 0:
        # strict inequality unachievable (best == 0); fall back to argmin
        return int(np.nanargmin(means)) + 1
    return int(ok[0]) + 1


def normalized_report(curves, plan: FoldPlan):
    """Per-algorithm r*, error at r*, and LOL-relative normalized metrics."""
    by_tag = {c.algorithm: c for c in curves}
    require_baseline(by_tag)
    for curve in curves:
        if curve.rates.shape[0] != plan.k:
            raise ShapeMismatch(f"curve {curve.algorithm!r} has {curve.rates.shape[0]} "
                                f"folds, the plan {plan.k}")
    p = plan.dataset.p
    labels = plan.dataset.labels
    chance = np.empty(plan.k)
    for j in range(plan.k):
        mode = int(np.argmax(np.bincount(labels[plan.train_subsets[j]])))
        rate = float(np.mean(labels[plan.folds[j]] != mode))
        chance[j] = rate if rate > 0 else np.nan  # degenerate fold: no chance scale

    lol_curve = by_tag["lol"]
    r_lol = select_rstar(lol_curve)
    lol_fold = lol_curve.rates[:, r_lol - 1]

    report = {"schema_version": SCHEMA_VERSION, "k": plan.k, "p": p,
              "n": plan.dataset.n, "algorithms": {}}
    flagged = []
    for curve in curves:
        tag = curve.algorithm
        r_star = select_rstar(curve)
        fold_rates = curve.rates[:, r_star - 1]
        diffs = (lol_fold - fold_rates) / chance
        good = diffs[np.isfinite(diffs)]
        entry = {
            "r_star": r_star,
            "mean_error_at_r_star": float(np.nanmean(fold_rates)),
            "norm_embedding_dim": (r_lol - r_star) / p,
            "norm_error_mean": float(np.mean(good)) if good.size else None,
            "norm_error_median": float(emb._row_medians(good[None])[0]) if good.size else None,
            "folds_ok_at_r_star": int(np.sum(np.isfinite(fold_rates))),
        }
        if entry["folds_ok_at_r_star"] < plan.k / 2:
            flagged.append(tag)
        report["algorithms"][tag] = entry
    report["flagged_low_coverage"] = sorted(flagged)
    return report


def curves_rows(curves):
    """Flatten curves to (algorithm, r, fold, error) rows for curves.csv."""
    rows = []
    for curve in curves:
        k, d_max = curve.rates.shape
        for j in range(k):
            for r in range(d_max):
                v = curve.rates[j, r]
                rows.append((curve.algorithm, r + 1, j, "" if np.isnan(v) else f"{v:.17g}"))
    return rows
