"""Differential test of ``benchmark.load_csv`` against the loader it replaced.

``reference_load_csv`` is the earlier loader, kept verbatim: one Python
step per cell for the strip, the missing check, the distinct-value count
and the ``float()`` conversion.  The current loader must give the same
bytes, names, label mapping and dropped-row count, or raise the same
exception with the same message, on every generated file.  The files
cover both of its paths: plain numeric tables that numpy's tokenizer
parses, and every kind of file on which that parse must be declined.
"""

import csv
import io
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lolkit import benchmark
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


# ONE_HOT_THRESHOLD cells with one distinct float fewer
signed_zeros = ["-0.0", "0.0"] + [str(v) for v in range(1, ONE_HOT_THRESHOLD - 1)]
plain_formats = st.sampled_from(["{:.17g}", "{:.6f}", "{:+.3e}", "{:E}", " {!r} ", " {!r}",
                                 "\x1c{!r}\x1c"])
plain_labels = st.sampled_from(["0", "1", "2", "x", "y", "Z", "1.0"])
# one of these, written into a plain table, makes load_csv take the
# float() path (most of them) or checks that both paths read it alike
trigger_cells = st.sampled_from([
    "1_000", "\u0661\u0662", "#1", "1#", "1\x002", "\x00", "1\x1c2", "nan", "NaN", "NA", "",
    "?", "null", "inf", '"2.5"', " ",
])
trigger_labels = st.sampled_from([
    '"x"', '"y,z"', "z\"", " x ", "\x1cy\x1c", "NA", "nan", " None ", "", "x#", "a\x00b",
    "\u0661",
])
blank_lines = st.sampled_from(["", " ", "  ", "\t", "\x1c"])
newlines = st.sampled_from(["\n", "\r\n", "\r", "\r\r\n"])
# a few values, each in several spellings
spellings = st.sampled_from(["0", "-0", "0.0", "1", "1.0", " 1", "1e0", "+1", "2", "2.", ".5",
                             "0.5", "5e-1"])


@st.composite
def plain_column(draw, n_rows):
    """Cells of a numeric column: distinct floats in mixed forms; or, one
    time in six each, a cycle of -0.0, 0.0, 1, 2, ... of length around
    ONE_HOT_THRESHOLD, whose floats have one distinct value fewer than
    its cells, or a few values with more distinct spellings."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        m = draw(st.integers(ONE_HOT_THRESHOLD - 1, ONE_HOT_THRESHOLD + 1))
        return [(signed_zeros + ["9"])[i % m] for i in range(n_rows)]
    if kind == 1:
        return draw(st.lists(spellings, min_size=n_rows, max_size=n_rows))
    values = draw(st.lists(finite, min_size=n_rows, max_size=n_rows, unique=True))
    return [draw(plain_formats).format(v) for v in values]


@st.composite
def plain_file(draw):
    """(file text, label column) for a numeric table of at least
    ONE_HOT_THRESHOLD rows written without quoting, which np.loadtxt can
    parse; one time in three a trigger cell, label or blank line is
    written in."""
    n_features = draw(st.integers(1, 4))
    n_rows = draw(st.integers(ONE_HOT_THRESHOLD, 24))
    rows = [list(r) for r in zip(*[draw(plain_column(n_rows)) for _ in range(n_features)])]
    label_at = draw(st.integers(0, n_features))
    for row in rows:
        row.insert(label_at, draw(plain_labels))
    lines = [[f"f{i}" for i in range(n_features + 1)]] + rows
    trigger = draw(st.integers(0, 8))
    at = draw(st.integers(1, n_rows))
    if trigger == 0:
        lines[at][draw(st.sampled_from([j for j in range(n_features + 1) if j != label_at]))] = \
            draw(trigger_cells)
    elif trigger == 1:
        lines[at][label_at] = draw(trigger_labels)
    elif trigger == 2:
        lines.insert(at, [draw(blank_lines)])
    delimiter = draw(st.sampled_from([",", "\t"]))
    newline = draw(newlines)
    text = "".join(delimiter.join(line) + newline for line in lines)
    label_column = lines[0][label_at]
    if draw(st.integers(0, 9)) == 0:
        label_column = draw(st.sampled_from(["absent", -1, label_at, n_features + 1]))
    return text, label_column


@st.composite
def csv_files(draw):
    """(file bytes, label column): half of the time a plain numeric table,
    otherwise a small table of mixed columns written by csv.writer."""
    if draw(st.booleans()):
        text, label_column = draw(plain_file())
        return text.encode(), label_column
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
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator=draw(newlines))
    writer.writerow(names)
    writer.writerows(rows)
    label_column = names[label_at]
    if draw(st.integers(0, 4)) == 0:
        label_column = draw(st.sampled_from(["absent", -1, label_at, n_features + 1]))
    return buf.getvalue().encode(), label_column


@pytest.fixture
def numeric_path_spy():
    """Counts, per load_csv call that tries it, whether the np.loadtxt
    parse was kept ("numpy") or declined ("float")."""
    taken = Counter()
    real = benchmark._numeric_table

    def spy(*args):
        got = real(*args)
        taken["float" if got is None else "numpy"] += 1
        return got

    with mock.patch.object(benchmark, "_numeric_table", spy):
        yield taken


def test_load_csv_matches_the_per_cell_reference(tmp_path, numeric_path_spy):
    path = tmp_path / "d.csv"

    @settings(max_examples=300, deadline=None)
    @given(file=csv_files())
    def check(file):
        raw, label_column = file
        path.write_bytes(raw)
        assert _outcome(load_csv, path, label_column) == \
            _outcome(reference_load_csv, path, label_column)

    check()
    # both paths ran, each on a fair share of the files
    assert min(numeric_path_spy.values()) >= 30, numeric_path_spy


def _plain_table(n_rows=12):
    """Header a,label,b; a holds 0.5, 1.5, ...; b holds 1e-3 * i**2."""
    rows = [[f"{i + 0.5!r}", "yx"[i % 2], f"{1e-3 * i * i:.17g}"] for i in range(n_rows)]
    return [["a", "label", "b"]] + rows


def _text(lines, newline="\n", delimiter=","):
    return "".join(delimiter.join(line) + newline for line in lines)


def _with(cell=None, label=None, row=5):
    lines = _plain_table()
    if cell is not None:
        lines[row][0] = cell
    if label is not None:
        lines[row][1] = label
    return _text(lines)


def _column_b(cells, n_rows=12):
    """The plain table with column b cycling through ``cells``."""
    lines = _plain_table(n_rows)
    for i, row in enumerate(lines[1:]):
        row[2] = cells[i % len(cells)]
    return _text(lines)


# file text, and the path load_csv must take on it
CASES = {
    "plain": (_text(_plain_table()), "numpy"),
    "tab-crlf": (_text(_plain_table(), "\r\n", "\t"), "numpy"),
    "lone-cr": (_text(_plain_table(), "\r"), "numpy"),
    "cr-cr-lf": (_text(_plain_table(), "\r\r\n"), "numpy"),
    "empty-line": (_text(_plain_table()[:6] + [[""]] + _plain_table()[6:]), "numpy"),
    "blank-line": (_text(_plain_table()[:6] + [["  "]] + _plain_table()[6:]), "float"),
    "tab-line": (_text(_plain_table()[:6] + [["\t"]] + _plain_table()[6:], delimiter="\t"),
                 "float"),
    "fs-padded-cell": (_with(cell="\x1c7\x1c"), "numpy"),
    "padded-cell": (_with(cell=" -7e-3 "), "numpy"),
    "hash-cell": (_with(cell="7#"), "float"),
    "nul-cell": (_with(cell="7\x00"), "float"),
    "fs-inside-cell": (_with(cell="7\x1c1"), "float"),
    "underscore-cell": (_with(cell="1_000"), "float"),
    "arabic-digits-cell": (_with(cell="\u0661\u0662"), "float"),
    "quoted-cell": (_with(cell='"7"'), "float"),
    "nan-cell": (_with(cell="nan"), "float"),
    "na-cell": (_with(cell="NA"), "float"),
    "empty-cell": (_with(cell=""), "float"),
    "overflow-cell": (_with(cell="1e999"), "numpy"),
    "quoted-label": (_with(label='"x"'), "float"),
    "quoted-delimiter-label": (_with(label='"y,x"'), "float"),
    "hash-label": (_with(label="x#"), "numpy"),
    "nul-label": (_with(label="y\x00"), "numpy"),
    "padded-label": (_with(label=" \x1cy "), "numpy"),
    "na-label": (_with(label="Na"), "float"),
    "none-label": (_with(label=" none "), "float"),
    "empty-label": (_with(label=""), "float"),
    "extra-field-every-row": (_text(_plain_table()[:1] + [r + ["3.5"] for r in _plain_table()[1:]]),
                              "float"),
    "one-row": (_text(_plain_table(1)), "float"),
    "header-only": (_text(_plain_table(0)), "float"),
    # one-hot when its cells, not its floats, are fewer than ONE_HOT_THRESHOLD
    "binary-column": (_column_b(["0", "1"]), "numpy"),
    "spellings-column": (_column_b(["1", "1.0", " 1", "2"]), "numpy"),
    "nan-in-binary-column": (_column_b(["0", "nan"]), "float"),
    "signed-zero-9-cells": (_column_b(signed_zeros[:9], 18), "numpy"),
    "signed-zero-10-cells": (_column_b(signed_zeros, 20), "numpy"),
    "signed-zero-11-cells": (_column_b(signed_zeros + ["9"], 22), "numpy"),
}


@pytest.mark.parametrize("case", CASES)
def test_numpy_path_is_kept_or_declined_as_expected(tmp_path, numeric_path_spy, case):
    text, path_taken = CASES[case]
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(load_csv, path, "label") == _outcome(reference_load_csv, path, "label")
    assert numeric_path_spy == {path_taken: 1}
