"""Differential test of ``benchmark.load_csv`` against the loader it replaced.

``reference_load_csv`` is the earlier loader, kept verbatim: one Python
step per cell for the strip, the missing check, the distinct-value count
and the ``float()`` conversion.  The current loader must give the same
bytes, names, label mapping and dropped-row count, or raise the same
exception with the same message, on every generated file.
"""

import csv
import io

import numpy as np
from hypothesis import given, settings, strategies as st

from lolkit.benchmark import LoadedCsv, load_csv
from lolkit.errors import DegenerateLabels, LolkitError, ParseFailure
from lolkit.model import DataMatrix, LabeledDataset

_MISSING = {"", "na", "nan", "n/a", "?", "null", "none"}
ONE_HOT_THRESHOLD = 10


def reference_load_csv(path, label_column) -> LoadedCsv:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseFailure(f"{path}: cannot open: {exc.strerror}") from None
    with fh:
        try:
            first = fh.readline()
            if not first:
                raise ParseFailure(f"{path}: empty file")
            delimiter = "\t" if "\t" in first else ","
            header = next(csv.reader([first], delimiter=delimiter))
            rows = []
            for lineno, row in enumerate(csv.reader(fh, delimiter=delimiter), start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseFailure(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                rows.append([cell.strip() for cell in row])
        except UnicodeDecodeError as exc:
            raise ParseFailure(f"{path}: not UTF-8 text ({exc.reason})") from None

    if isinstance(label_column, int):
        label_idx = label_column
        if not 0 <= label_idx < len(header):
            raise ParseFailure(f"label column index {label_column} out of range")
    else:
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ParseFailure(f"label column {label_column!r} not in header") from None

    kept = [r for r in rows if not any(c.lower() in _MISSING for c in r)]
    n_dropped = len(rows) - len(kept)
    if len(kept) < 2:
        raise DegenerateLabels(f"{path}: fewer than 2 complete rows")

    raw_labels = [r[label_idx] for r in kept]
    classes = sorted(set(raw_labels))
    if len(classes) < 2:
        raise DegenerateLabels(f"{path}: fewer than 2 classes after cleaning")
    mapping = {v: i for i, v in enumerate(classes)}
    labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)

    feature_cols = []
    feature_names = []
    for j, name in enumerate(header):
        if j == label_idx:
            continue
        col = [r[j] for r in kept]
        uniq = sorted(set(col))
        if len(uniq) < ONE_HOT_THRESHOLD:
            for v in uniq:
                feature_names.append(f"{name}={v}")
                feature_cols.append(np.array([1.0 if c == v else 0.0 for c in col]))
        else:
            try:
                feature_cols.append(np.array([float(c) for c in col]))
            except ValueError as exc:
                raise ParseFailure(
                    f"{path}: column {name!r} is non-numeric with "
                    f"{len(uniq)} distinct values"
                ) from exc
            feature_names.append(name)

    if not feature_cols:
        raise ParseFailure(f"{path}: no feature columns")
    x = np.vstack(feature_cols)  # p x n
    dataset = LabeledDataset(DataMatrix(x), labels, len(classes))
    return LoadedCsv(dataset, tuple(feature_names), mapping, n_dropped)


def _outcome(loader, path, label_column):
    try:
        got = loader(path, label_column)
    except LolkitError as exc:
        return type(exc), str(exc)
    ds = got.dataset
    return (ds.data.values.tobytes(), ds.data.values.shape, ds.data.values.flags.c_contiguous,
            ds.labels.tobytes(), ds.labels.dtype, ds.num_classes, got.feature_names,
            list(got.label_mapping.items()), got.n_dropped_rows)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
integers = st.integers(-10**6, 10**6)
# cell forms float() accepts, each with its exact value
numbers = st.one_of(
    finite.map("{:.17g}".format),
    finite.map("{:.6f}".format),
    finite.map("{:+.3e}".format),
    finite.map("{:E}".format),
    integers.map("{:+d}".format),
    integers.map("{:_}".format),
    st.tuples(finite, st.sampled_from([" ", "  ", "\t"])).map(lambda t: f"{t[1]}{t[0]!r}{t[1]}"),
)
# drawn for one cell in 30: missing tokens in mixed case, and cells that
# float() rejects or that parse to non-finite values
rare = st.sampled_from([
    "", " ", "NA", "na", "nA", "NaN", "nan", "N/A", "n/a", "?", "NULL", "Null", "None",
    "nOnE", " none ", "inf", "-Infinity", "1e999", "-0.0", "0x10", "1__0", "\u0661\u0662",
    "\u00bd", "1,5",
])
few_levels = st.sampled_from(["1", "1.0", "2", "A", "a", "b c", "x,y", "two\nlines", '"q"'])
strings = st.text(st.sampled_from("abcXYZ 0123,.\n\"-_"), min_size=1, max_size=6)
labels = st.sampled_from(["0", "1", "2", "x", "y", "Z", "y,z", "1.0"])
odd_names = st.sampled_from(["a,b", "t\tab", 'q"uote', " pad ", "f0", "label"])


@st.composite
def csv_files(draw):
    """(file bytes, label column) for a small generated table."""
    n_features = draw(st.integers(0, 4))
    kinds = draw(st.lists(st.sampled_from(["numeric", "numeric", "few", "cycle", "string"]),
                          min_size=n_features, max_size=n_features))
    label_at = draw(st.integers(0, n_features))
    names = [f"f{i}" for i in range(n_features + 1)]
    if draw(st.integers(0, 9)) == 0:
        names[draw(st.integers(0, n_features))] = draw(odd_names)
    # a "cycle" column holds i % m in row i: m distinct values, m around
    # ONE_HOT_THRESHOLD
    cycles = [draw(st.integers(ONE_HOT_THRESHOLD - 2, ONE_HOT_THRESHOLD + 2)) for _ in kinds]
    cell_of = {"numeric": numbers, "few": few_levels, "string": strings}
    rows = []
    n_rows = draw(st.integers(0, 1) if draw(st.integers(0, 9)) == 0 else st.integers(2, 24))
    for i in range(n_rows):
        row = [draw(rare) if draw(st.integers(0, 29)) == 0
               else str(i % m) if kind == "cycle" else draw(cell_of[kind])
               for kind, m in zip(kinds, cycles)]
        row.insert(label_at, draw(rare if draw(st.integers(0, 29)) == 0 else labels))
        rows.append(row)
    if rows and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(rows) - 1))
        # a field short, a field over, or a blank line
        rows[i] = draw(st.sampled_from([rows[i][:-1], rows[i] + ["extra"], []]))
    delimiter = draw(st.sampled_from([",", "\t"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator=newline)
    writer.writerow(names)
    writer.writerows(rows)
    label_column = names[label_at]
    if draw(st.integers(0, 4)) == 0:
        label_column = draw(st.sampled_from(["absent", -1, label_at, n_features + 1]))
    return buf.getvalue().encode(), label_column


@settings(max_examples=300, deadline=None)
@given(file=csv_files())
def test_load_csv_matches_the_per_cell_reference(tmp_path_factory, file):
    raw, label_column = file
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(raw)
    assert _outcome(load_csv, path, label_column) == \
        _outcome(reference_load_csv, path, label_column)
