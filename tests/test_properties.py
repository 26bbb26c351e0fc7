"""Property tests of the file loaders (Hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lolkit.benchmark import ALGORITHMS, load_csv
from lolkit.embeddings import load_projection, save_projection
from lolkit.errors import LolkitError, ShapeMismatch
from lolkit.model import Projection

# every finite double, -0.0, subnormals and the extremes included
matrices = st.tuples(st.integers(1, 6), st.integers(1, 4)).flatmap(
    lambda shape: arrays(np.float64, shape,
                         elements=st.floats(allow_nan=False, allow_infinity=False)))


@settings(max_examples=60, deadline=None)
@given(a=matrices, tag=st.sampled_from(ALGORITHMS),
       seed=st.none() | st.integers(-2**63, 2**63 - 1))
def test_projection_file_round_trip_is_exact(tmp_path_factory, a, tag, seed):
    if seed is not None and seed < 0:  # a seed that seed_sequence refuses
        with pytest.raises(ShapeMismatch, match="seed"):
            Projection(a, tag, seed)
        return
    path = tmp_path_factory.mktemp("proj") / "p.txt"
    save_projection(Projection(a, tag, seed), path)
    back = load_projection(path)
    assert back.directions.tobytes() == a.tobytes()
    assert (back.method_tag, back.seed) == (tag, seed)


def _corrupt(data, original):
    """``original`` cut at a random length, then up to 4 bytes overwritten."""
    raw = bytearray(original[: data.draw(st.integers(0, len(original)), label="cut")])
    if raw:
        flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
        for i, byte in data.draw(st.lists(flips, max_size=4), label="flips"):
            raw[i] = byte
    return bytes(raw)


@settings(max_examples=150, deadline=None)
@given(a=matrices, data=st.data())
def test_corrupt_projection_file_loads_or_raises_lolkit_error(tmp_path_factory, a, data):
    path = tmp_path_factory.mktemp("proj") / "p.txt"
    save_projection(Projection(a, "lol", 3), path)
    original = path.read_bytes()
    raw = _corrupt(data, original)
    path.write_bytes(raw)
    try:
        back = load_projection(path)
    except LolkitError:
        return
    if raw == original:
        assert back.directions.tobytes() == a.tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupt_csv_loads_or_raises_lolkit_error(tmp_path_factory, data):
    values = np.random.default_rng(0).standard_normal(24)
    rows = ["a,b,label"] + [f"{v:.6g},{i % 3},{i % 2}" for i, v in enumerate(values)]
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(_corrupt(data, "\n".join(rows).encode() + b"\n"))
    try:
        load_csv(path, "label")
    except LolkitError:
        pass
