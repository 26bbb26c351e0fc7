import errno
import os
import subprocess
import sys

import numpy as np
import pytest

import lolkit
from lolkit.embeddings import (
    embed,
    fit_lfl,
    fit_lol,
    fit_lrcca,
    fit_pca,
    fit_pls,
    fit_qoq,
    fit_rlol,
    fit_rp,
    fit_rrlda,
    load_projection,
    mean_difference_matrix,
    save_projection,
)
from lolkit.errors import (
    CcaRankExceeded,
    DegenerateMeans,
    DegenerateTarget,
    NonFiniteData,
    RankRequestTooLarge,
    ShapeMismatch,
    TooFewDims,
)
from lolkit.linalg import random_rotation, truncated_svd
from lolkit.model import (
    DataMatrix,
    LabeledDataset,
    Projection,
    center_class_conditional,
    class_stats,
)
from lolkit.simulations import SimSpec, sample


def make_dataset(x, y, c=0):
    return LabeledDataset(DataMatrix(np.asarray(x, dtype=float)), np.asarray(y), c)


def two_class(seed=0, p=10, n=200, sep=2.0):
    rng = np.random.default_rng(seed)
    y = np.tile([0, 1], (n + 1) // 2)[:n]
    x = rng.standard_normal((p, n))
    x[0] += sep * y
    return make_dataset(x, y)


def test_mean_difference_two_class_tiebreak():
    ds = make_dataset([[0.0, 2.0], [0.0, 0.0]], [0, 1])
    delta = mean_difference_matrix(class_stats(ds))
    # equal priors: class 0 is the anchor, delta = mu0 - mu1 normalized
    assert np.allclose(delta[:, 0], [-1.0, 0.0])


def test_mean_difference_three_collinear_classes():
    x = np.column_stack([
        np.repeat([[1.0, 0, 0]], 5, axis=0).T.reshape(3, 5)[:, :5],
    ])
    cols = []
    labels = []
    for c, (m, cnt) in enumerate([(1.0, 5), (2.0, 3), (3.0, 2)]):
        cols.append(np.tile([[m], [0.0], [0.0]], (1, cnt)))
        labels += [c] * cnt
    ds = make_dataset(np.hstack(cols), labels)
    delta = mean_difference_matrix(class_stats(ds))
    assert delta.shape == (3, 2)
    assert np.allclose(delta[:, 0], [-1.0, 0, 0])
    assert np.allclose(delta[:, 1], [-1.0, 0, 0])


def test_mean_difference_prior_sorting():
    # class 1 has the larger prior, so it becomes the anchor
    ds = make_dataset([[0.0, 4.0, 4.0]], [0, 1, 1])
    delta = mean_difference_matrix(class_stats(ds))
    assert np.allclose(delta[:, 0], [1.0])  # mu1 - mu0 = +4 normalized


def test_mean_difference_degenerate():
    ds = make_dataset([[1.0, 1.0], [2.0, 2.0]], [0, 1])
    with pytest.raises(DegenerateMeans):
        mean_difference_matrix(class_stats(ds))


def test_fit_lol_d1_is_delta_only():
    ds = two_class()
    proj = fit_lol(ds, 1)
    delta = mean_difference_matrix(class_stats(ds))
    assert np.array_equal(proj.directions, delta)


def test_fit_lol_trunk_recovers_population_directions():
    sim = sample(SimSpec("trunk", 10, 2000, seed=0))
    proj = fit_lol(sim.dataset, 3)
    mu0 = sim.model.means[:, 0]
    delta_pop = mu0 / np.linalg.norm(mu0)
    ang = np.arccos(min(1.0, abs(proj.directions[:, 0] @ delta_pop)))
    assert ang < 0.2
    # top within-class eigenvectors are the last two coordinates (largest
    # diagonal variances)
    for col, coord in [(1, 9), (2, 8)]:
        v = proj.directions[:, col]
        assert abs(v[coord]) > 0.95


# values near 1e160 square to inf
def test_fit_lol_refuses_a_mean_difference_whose_norm_overflows():
    rng = np.random.default_rng(0)
    y = np.arange(40) % 2
    ds = make_dataset((rng.standard_normal((6, 40)) + y) * 1e160, y)
    with pytest.raises(NonFiniteData, match="overflows"):
        fit_lol(ds, 3)


def test_fit_lol_dimension_errors():
    ds = two_class(p=5, n=40)
    with pytest.raises(TooFewDims):
        fit_lol(ds, 0)
    with pytest.raises(TooFewDims):
        fit_lol(ds, 6)


def _assert_exact_fits_nest(ds):
    for fit in (fit_lol, fit_pca, fit_rrlda, fit_qoq, fit_rlol):
        full = fit(ds, 6, seed=5)
        for r in (1, 3, 5):
            part = fit(ds, r, seed=5)
            assert np.array_equal(full.directions[:, :r], part.directions), fit.__name__


def test_nesting_exact():
    _assert_exact_fits_nest(two_class(seed=1))


def test_nesting_exact_on_tall_data():
    # 120 x 30: pca, rlol and qoq's class blocks take the Gram path
    _assert_exact_fits_nest(two_class(seed=1, p=120, n=30))


def _qoq_merge(svds, k):
    # the (class, index) pairs qoq's merge picks from per-class SVDs
    pairs = [(j, i) for j, r in enumerate(svds) for i in range(r.S.size)]
    order = np.argsort(-np.concatenate([r.S for r in svds]), kind="stable")[:k]
    return [pairs[o] for o in order]


@pytest.mark.parametrize("seed", range(4))
def test_qoq_top_k_per_class_makes_the_all_triplets_choices(seed):
    # cv_qda's fold shape: trunk3, p=1000, n=180, k=18 eigenvector columns
    ds = sample(SimSpec("trunk3", 1000, 180, seed=seed)).dataset
    k = 18
    blocks = []
    for j in range(ds.num_classes):
        xc = ds.data.values[:, ds.labels == j]
        blocks.append(xc - xc.mean(axis=1, keepdims=True))
    top = [truncated_svd(xc, k, mode="exact") for xc in blocks]
    every = [truncated_svd(xc, min(xc.shape), mode="exact") for xc in blocks]
    picks = _qoq_merge(top, k)
    assert picks == _qoq_merge(every, k)
    eig = fit_qoq(ds, k + ds.num_classes - 1).directions[:, ds.num_classes - 1:]
    assert np.array_equal(eig, np.column_stack([top[j].U[:, i] for j, i in picks]))
    assert np.allclose(eig, np.column_stack([every[j].U[:, i] for j, i in picks]),
                       rtol=0, atol=1e-10)


def test_exact_lol_and_rrlda_are_the_rank_k_svd_of_the_class_centered_data():
    ds = sample(SimSpec("trunk3", 30, 24, seed=2)).dataset
    lol = fit_lol(ds, 7)      # C-1 = 2 mean differences, then k = 5
    rrlda = fit_rrlda(ds, 4)  # reads the SVD the lol fit left on ds
    assert "class_centered_svd" in vars(ds)

    def rank_k_u(k):
        # the leading k columns of the exact SVD of all min(p, n) triplets,
        # LAPACK's on every shape; a k < n request of this tall matrix would
        # take the Gram path
        fresh = LabeledDataset(DataMatrix(ds.data.values.copy()), ds.labels, ds.num_classes)
        centered = center_class_conditional(fresh, class_stats(fresh))
        return truncated_svd(centered.values, min(centered.values.shape), mode="exact").U[:, :k]

    delta = mean_difference_matrix(class_stats(ds))
    assert np.array_equal(lol.directions, np.hstack([delta, rank_k_u(5)]))
    assert np.array_equal(rrlda.directions, rank_k_u(4))
    assert ds.class_centered_svd.U.shape == (30, 24)


def test_randomized_lol_and_rrlda_do_not_read_the_shared_svd():
    ds = two_class(seed=3, p=40, n=30)
    for fit in (fit_lol, fit_rrlda):
        a = fit(ds, 4, svd_mode="randomized", seed=0).directions
        assert "class_centered_svd" not in vars(ds), fit.__name__
        fit(ds, 4, svd_mode="exact")
        b = fit(ds, 4, svd_mode="randomized", seed=1).directions
        again = fit(ds, 4, svd_mode="randomized", seed=0).directions
        assert not np.array_equal(a[:, -2:], b[:, -2:]), fit.__name__
        assert np.array_equal(a, again), fit.__name__
        del vars(ds)["class_centered_svd"]


@pytest.mark.parametrize("mode", ["auto", "exact", "randomized"])
def test_rank_above_min_p_n_is_still_rank_request_too_large(mode):
    ds = two_class(p=30, n=8)
    with pytest.raises(RankRequestTooLarge, match=r"^k=9 outside 1\.\.min\(p,n\)=8$"):
        fit_rrlda(ds, 9, svd_mode=mode)
    with pytest.raises(RankRequestTooLarge, match=r"^k=10 outside 1\.\.min\(p,n\)=8$"):
        fit_lol(ds, 11, svd_mode=mode)
    with pytest.raises(RankRequestTooLarge, match=r"^k=0 outside 1\.\.min\(p,n\)=8$"):
        fit_rrlda(ds, 0, svd_mode=mode)
    assert "class_centered_svd" not in vars(ds)


def test_unknown_svd_mode_is_a_shape_mismatch():
    with pytest.raises(ShapeMismatch, match="expected auto, exact or randomized"):
        fit_pca(two_class(p=5, n=40), 2, svd_mode="bogus")


def test_lfl_rp_nesting_up_to_column_scale():
    # random blocks are drawn per column from one stream, then scaled by
    # 1/sqrt(num random columns); directions are unit-norm so fits nest
    ds = two_class(seed=2)
    full = fit_lfl(ds, 6, seed=7)
    part = fit_lfl(ds, 3, seed=7)
    assert np.allclose(full.directions[:, :3], part.directions, atol=1e-12)
    full = fit_rp(ds, 6, seed=7)
    part = fit_rp(ds, 3, seed=7)
    assert np.allclose(full.directions[:, :3], part.directions, atol=1e-12)


def test_fit_pca_stacked_cigars_direction():
    sim = sample(SimSpec("stacked_cigars", 10, 500, seed=1))
    proj = fit_pca(sim.dataset, 1)
    v = proj.directions[:, 0]
    assert np.arccos(min(1.0, abs(v[1]))) < 0.1


def test_fit_pca_label_blind():
    ds = two_class(seed=3)
    flipped = LabeledDataset(ds.data, 1 - ds.labels, 2)
    assert np.array_equal(fit_pca(ds, 3).directions, fit_pca(flipped, 3).directions)
    assert np.array_equal(fit_rp(ds, 3, seed=1).directions,
                          fit_rp(flipped, 3, seed=1).directions)


def test_rrlda_ignores_mean_separation():
    rng = np.random.default_rng(4)
    n = 400
    y = np.array([0, 1] * (n // 2))
    x = rng.standard_normal((8, n))
    x[1] *= 3.0              # dominant within-class variance, orthogonal to delta
    x[0] += 50.0 * y         # huge mean separation
    ds = make_dataset(x, y)
    stats = class_stats(ds)
    rr = fit_rrlda(ds, 1)
    lol = fit_lol(ds, 1)
    gap_rr = abs(rr.directions[:, 0] @ (stats.class_means[:, 0] - stats.class_means[:, 1]))
    gap_lol = abs(lol.directions[:, 0] @ (stats.class_means[:, 0] - stats.class_means[:, 1]))
    assert gap_rr < 3.0       # at the within-class noise scale, not the mean scale
    assert gap_lol > 45.0


def test_qoq_d1_equals_lol_d1():
    ds = two_class(seed=5)
    assert np.array_equal(fit_qoq(ds, 1).directions, fit_lol(ds, 1).directions)


def test_qoq_identical_class_distributions_ok():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, 100))
    y = np.array([0, 1] * 50)
    x[0] += 0.5 * y
    proj = fit_qoq(make_dataset(x, y), 4)
    assert proj.directions.shape == (6, 4)
    assert np.all(np.isfinite(proj.directions))


def test_rlol_close_to_lol_without_outliers():
    ds = two_class(seed=7, n=500)
    a = fit_lol(ds, 3).directions
    b = fit_rlol(ds, 3).directions
    # principal angle between the spanned subspaces
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    assert np.arccos(min(1.0, s.min())) < 0.3


def test_rlol_resists_single_extreme_outlier():
    ds = two_class(seed=8, n=2000)
    x = ds.data.values.copy()
    x[:, 0] = 1e6
    poisoned = make_dataset(x, ds.labels)

    def delta_angle(fit):
        clean = fit(ds, 1).directions[:, 0]
        dirty = fit(poisoned, 1).directions[:, 0]
        return np.arccos(min(1.0, abs(clean @ dirty)))

    assert delta_angle(fit_rlol) < 1e-2
    assert delta_angle(fit_lol) > 0.5


def test_lfl_deterministic_and_d1():
    ds = two_class(seed=9)
    assert np.array_equal(fit_lfl(ds, 4, seed=3).directions,
                          fit_lfl(ds, 4, seed=3).directions)
    assert np.array_equal(fit_lfl(ds, 1, seed=3).directions,
                          fit_lol(ds, 1).directions)


def test_rp_johnson_lindenstrauss():
    rng = np.random.default_rng(10)
    p, n, d = 1000, 20, 50
    y = np.array([0, 1] * (n // 2))
    x = rng.standard_normal((p, n))
    proj = fit_rp(make_dataset(x, y), d, seed=0)
    # use the unnormalized scaling for the JL check: columns were unit
    # normalized, so rescale embeddings by sqrt(p/ s)/... simply compare
    # relative distances after a global least-squares scale
    e = proj.directions.T @ x
    d0 = np.linalg.norm(x[:, :, None] - x[:, None, :], axis=0)
    d1 = np.linalg.norm(e[:, :, None] - e[:, None, :], axis=0)
    mask = ~np.eye(n, dtype=bool)
    scale = np.median(d1[mask] / d0[mask])
    ratios = d1[mask] / (scale * d0[mask])
    assert np.all(ratios > 0.7) and np.all(ratios < 1.3)


def test_lrcca_rank_and_piling():
    rng = np.random.default_rng(11)
    p, n = 200, 40
    y = np.array([0, 1] * (n // 2))
    x = rng.standard_normal((p, n))
    x[0] += 3.0 * y
    ds = make_dataset(x, y)
    with pytest.raises(CcaRankExceeded):
        fit_lrcca(ds, 2)
    proj = fit_lrcca(ds, 1)
    e = embed(proj, ds.data).values[0]
    within = max(np.var(e[y == 0]), np.var(e[y == 1]))
    between = (e[y == 0].mean() - e[y == 1].mean()) ** 2
    assert within < 1e-8 * between


def test_pls_first_direction_informative_coordinate():
    rng = np.random.default_rng(12)
    n = 500
    y = np.array([0, 1] * (n // 2))
    x = rng.standard_normal((8, n))
    x[3] += 4.0 * y
    proj = fit_pls(make_dataset(x, y), 2)
    v = proj.directions[:, 0]
    assert np.arccos(min(1.0, abs(v[3]))) < 0.1
    # deflation makes successive weight vectors orthogonal
    assert abs(proj.directions[:, 0] @ proj.directions[:, 1]) < 1e-8


def test_pls_one_component_matches_cross_covariance():
    rng = np.random.default_rng(13)
    n = 60
    y = np.array([0, 1] * (n // 2))
    x = rng.standard_normal((5, n))
    x[1] += 1.5 * y
    ds = make_dataset(x, y)
    proj = fit_pls(ds, 1)
    xc = x - x.mean(axis=1, keepdims=True)
    yc = (y - y.mean()).astype(float)
    w = xc @ yc
    w /= np.linalg.norm(w)
    assert min(np.linalg.norm(proj.directions[:, 0] - w),
               np.linalg.norm(proj.directions[:, 0] + w)) < 1e-8


def test_fit_pls_refuses_more_components_than_min_p_n_minus_1():
    for p, n in ((5, 40), (12, 6)):
        ds = two_class(p=p, n=n)
        limit = min(p, n - 1)
        assert fit_pls(ds, limit).d == limit
        with pytest.raises(TooFewDims, match=f"exceeds min\\(p, n-1\\)={limit}"):
            fit_pls(ds, limit + 1)


def test_pls_constant_features_are_a_degenerate_target():
    # centered X is zero, so the first cross-product with the labels is too
    ds = make_dataset(np.ones((4, 10)), np.arange(10) % 2)
    with pytest.raises(DegenerateTarget, match="zero cross-product at component 0"):
        fit_pls(ds, 2)


def test_orthogonal_equivariance_with_sign_convention():
    ds = two_class(seed=14, p=12, n=80)
    q = random_rotation(12, 99)
    rotated = make_dataset(q @ ds.data.values, ds.labels)
    for fit in (fit_pca, fit_rrlda):
        a = fit(ds, 3).directions
        b = fit(rotated, 3).directions
        # subspaces match after rotation; per-column up to sign
        align = np.abs(np.sum((q @ a) * b, axis=0))
        assert np.allclose(align, 1.0, atol=1e-6)
    # LOL: identical downstream embeddings up to per-column sign
    a = fit_lol(ds, 3).directions
    b = fit_lol(rotated, 3).directions
    ea = a.T @ ds.data.values
    eb = b.T @ (q @ ds.data.values)
    signs = np.sign(np.einsum("ij,ij->i", ea, eb))
    assert np.allclose(ea * signs[:, None], eb, atol=1e-6)


def test_lol_d_cminus1_spans_delta_block():
    ds = make_dataset(np.random.default_rng(15).standard_normal((6, 90))
                      + np.eye(6)[:, np.tile([0, 1, 2], 30)] * 3,
                      np.tile([0, 1, 2], 30))
    proj = fit_lol(ds, 2)
    delta = mean_difference_matrix(class_stats(ds))
    assert np.allclose(proj.directions, delta)


def test_embed_matches_naive_multiply():
    rng = np.random.default_rng(16)
    ds = two_class(seed=16, p=7, n=9)
    proj = fit_lol(ds, 3)
    out = embed(proj, ds.data).values
    naive = np.zeros((3, 9))
    for i in range(3):
        for j in range(9):
            for k in range(7):
                naive[i, j] += proj.directions[k, i] * ds.data.values[k, j]
    assert np.allclose(out, naive, atol=1e-12)


@pytest.mark.parametrize("directions", [[[1e200], [1e200]], [[1e200], [-1e200]]],
                         ids=["inf", "nan"])
def test_an_embedding_that_overflows_is_non_finite_data_without_a_warning(directions):
    # the suite turns warnings into errors, so numpy's overflow or invalid
    # warning would fail this test before NonFiniteData
    with pytest.raises(NonFiniteData):
        embed(Projection(np.array(directions), "x"), DataMatrix(np.full((2, 1), 1e200)))


def test_projection_round_trip(tmp_path):
    ds = two_class(seed=17)
    proj = fit_lol(ds, 4, seed=2)
    path = tmp_path / "proj.txt"
    save_projection(proj, path)
    back = load_projection(path)
    assert np.array_equal(back.directions, proj.directions)
    assert back.method_tag == proj.method_tag
    assert back.seed == proj.seed


@pytest.mark.parametrize("tag", ["a,b", "a\nb", "a\rb"])
def test_save_projection_rejects_tags_the_format_cannot_hold(tmp_path, tag):
    path = tmp_path / "proj.txt"
    with pytest.raises(ShapeMismatch, match="method tag"):
        save_projection(Projection(np.ones((2, 1)), tag), path)
    assert not path.exists()


# a fresh interpreter whose files cannot grow past 10 bytes, so a write
# fails part-way as it would on a full disk
_FAILING_SAVE = """
import resource, signal, sys
import numpy as np
from lolkit.embeddings import save_projection
from lolkit.errors import WriteFailure
from lolkit.model import Projection
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (10, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    save_projection(Projection(np.full((3, 2), 0.5), "pca"), sys.argv[1])
except WriteFailure as exc:
    print(exc.__cause__.errno)
"""


def test_a_failing_projection_write_keeps_the_previous_file(tmp_path):
    # save_projection used to truncate its target first, which then held
    # only the bytes written before the failure
    path = tmp_path / "proj.txt"
    save_projection(Projection(np.ones((3, 2)), "lol"), path)
    before = path.read_bytes()
    src = os.path.dirname(os.path.dirname(os.path.abspath(lolkit.__file__)))
    out = subprocess.run([sys.executable, "-c", _FAILING_SAVE, str(path)],
                         env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == [str(errno.EFBIG)]
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
