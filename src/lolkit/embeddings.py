"""Projection fits: LOL and its variants, plus the comparator methods.

Every ``fit_*`` returns a :class:`~lolkit.model.Projection` whose columns
are projection directions.  Methods built from a mean-difference block
followed by eigenvectors (LOL, QOQ, RLOL, LFL) and the plain eigenvector
methods (PCA, RR-LDA) are *nested*: the first d' columns of a d-dim fit
equal the d'-dim fit on the same data and seed.  For the eigenvector
blocks this holds only with an exact SVD (``svd_mode="exact"``, or
``"auto"`` with min(p, n) <= EXACT_SVD_MAX_DIM): the randomized range
finder sketches k + oversample columns, so its top directions depend on k.
On a tall matrix (p >= n) the exact SVD of PCA, RLOL and each QOQ class
block comes from the Gram matrix at every width k < n up to the resolved
width w, and fits nest at all of those widths; wider ones take LAPACK's
SVD, differ from them by up to about GRAM_RTOL / n per entry, and nest
among themselves (``linalg.truncated_svd``).  LOL and RR-LDA read the
dataset's shared all-triplets SVD, which is LAPACK's on every shape.

The mean-difference and eigenvector blocks are concatenated as they are,
so their columns need not be mutually orthogonal.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMeans, DegenerateTarget, NonFiniteData, ShapeMismatch, TooFewDims
from .files import _atomic_write
from .linalg import (
    _fix_signs,
    implicit_cca_eigs,
    resolve_svd_mode,
    sparse_random_columns,
    truncated_svd,
)
from .model import (
    ClassStats,
    DataMatrix,
    LabeledDataset,
    Projection,
    center_class_conditional,
    center_pooled,
    class_stats,
)


def _delta_block(locations, priors):
    """Unit-norm location-difference columns, p x (C-1), from per-class
    locations (p x C).

    Classes are sorted by decreasing prior (ties: ascending index) and
    column j is loc_(1) - loc_(j+1), normalized.
    """
    order = np.lexsort((np.arange(priors.shape[0]), -priors))
    loc = locations[:, order]
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = loc[:, 0:1] - loc[:, 1:]
        norms = np.linalg.norm(deltas, axis=0)
    # an overflowing norm would divide every difference to zero
    if not np.isfinite(norms).all():
        raise NonFiniteData("a class location difference has a norm that overflows")
    floor = 1e-12 * max(1.0, np.linalg.norm(loc[:, 0]))
    bad = np.flatnonzero(norms < floor)
    if bad.size:
        j = int(bad[0])
        raise DegenerateMeans(
            f"classes {order[0]} and {order[j + 1]} have (near-)identical locations"
        )
    return deltas / norms


def mean_difference_matrix(stats: ClassStats) -> np.ndarray:
    """Unit-norm mean-difference columns mu_(1) - mu_(j+1), p x (C-1)."""
    return _delta_block(stats.class_means, stats.priors)


def _check_width(dataset, d):
    """The width rule of the delta-first fits and rp: a fit has no more
    columns than features, so d above p raises TooFewDims."""
    if d > dataset.p:
        raise TooFewDims(f"d={d} exceeds p={dataset.p}")


def _extra_dims(dataset, d):
    """Columns a delta-first fit adds after its C-1 mean differences."""
    c = dataset.num_classes
    if d < c - 1:
        raise TooFewDims(f"d={d} below C-1={c - 1}")
    _check_width(dataset, d)
    return d - (c - 1)


def _assemble(delta, extra, tag, seed=None):
    cols = delta if extra is None else np.hstack([delta, extra])
    return Projection(cols, method_tag=tag, seed=seed)


def fit_lol(dataset: LabeledDataset, d, svd_mode="auto", seed=0) -> Projection:
    """Mean-difference columns followed by the top eigenvectors of the
    class-conditionally centered data."""
    k = _extra_dims(dataset, d)
    stats = class_stats(dataset)
    delta = mean_difference_matrix(stats)
    eig = _class_centered_directions(dataset, k, svd_mode, seed, stats) if k else None
    return _assemble(delta, eig, "lol", seed)


def _class_centered_directions(dataset, k, svd_mode, seed, stats=None):
    # top-k left singular vectors of the class-centered data.  An exact
    # fit takes the first k columns of the dataset's shared all-triplets
    # SVD (LAPACK's, also on a tall matrix, where a rank-k truncated_svd
    # would take the Gram path); _fix_signs acts column by column, so they
    # nest at every k.  ``stats`` spares a randomized fit a second
    # class_stats pass.
    if resolve_svd_mode(k, dataset.p, dataset.n, svd_mode) == "exact":
        return dataset.class_centered_svd.U[:, :k]
    if stats is None:
        stats = class_stats(dataset)
    centered = center_class_conditional(dataset, stats)
    return truncated_svd(centered.values, k, mode=svd_mode, seed=seed).U


def fit_pca(dataset: LabeledDataset, d, svd_mode="auto", seed=0) -> Projection:
    """Top-d eigenvectors of the pooled-centered data (label-blind)."""
    centered = center_pooled(dataset, class_stats(dataset))
    u = truncated_svd(centered.values, d, mode=svd_mode, seed=seed).U
    return Projection(u, method_tag="pca", seed=seed)


def fit_rrlda(dataset: LabeledDataset, d, svd_mode="auto", seed=0) -> Projection:
    """Top-d eigenvectors of the class-conditionally centered data."""
    u = _class_centered_directions(dataset, d, svd_mode, seed)
    return Projection(u, method_tag="rrlda", seed=seed)


def fit_qoq(dataset: LabeledDataset, d, svd_mode="auto", seed=0) -> Projection:
    """Per-class eigenvectors merged by decreasing singular value, with
    the mean-difference block prepended."""
    k = _extra_dims(dataset, d)
    delta = mean_difference_matrix(class_stats(dataset))
    eig = None
    if k:
        svds = []
        for j in range(dataset.num_classes):
            xc = dataset.data.values[:, dataset.labels == j]
            xc = xc - xc.mean(axis=1, keepdims=True)
            svds.append(truncated_svd(xc, min(k, *xc.shape), mode=svd_mode, seed=seed))
        # decreasing singular value; the stable sort breaks ties by
        # (class, index), the order the blocks are stacked in.  The merge
        # takes at most k columns from one class, so each class's top k
        # triplets make the same choices as all of them
        order = np.argsort(-np.concatenate([r.S for r in svds]), kind="stable")
        eig = np.hstack([r.U for r in svds])[:, order[:k]]
    return _assemble(delta, eig, "qoq", seed)


def _row_medians(a):
    """The median of each row of the 2-D float array ``a`` (width >= 1):
    ``np.median(a, axis=1)`` bit for bit, from one sort of each row.

    np.median partitions each row around its middle entries, sums them
    from +0.0 and divides by their count; one sort finds the same entries
    faster.  Adding 0.0 repeats that sum's start, so a -0.0 middle comes
    out as +0.0 there too.  A NaN sorts last, and a row that holds one
    gives that NaN, as np.median does.
    """
    s = np.sort(a, axis=1)
    k = s.shape[1] // 2
    if s.shape[1] % 2:
        med = s[:, k] + 0.0
    else:
        med = (s[:, k - 1] + s[:, k] + 0.0) / 2.0
    last = s[:, -1]
    np.copyto(med, last, where=np.isnan(last))
    return med


def fit_rlol(dataset: LabeledDataset, d, svd_mode="auto", seed=0) -> Projection:
    """Robust LOL: class medians as locations, MAD-winsorized centered
    data for the eigenvector block."""
    k = _extra_dims(dataset, d)
    c = dataset.num_classes
    x = dataset.data.values
    y = dataset.labels
    medians = np.empty((dataset.p, c))
    for j in range(c):
        medians[:, j] = _row_medians(x[:, y == j])
    priors = np.bincount(y, minlength=c) / dataset.n
    delta = _delta_block(medians, priors)
    eig = None
    if k:
        # clip each coordinate at +-3 robust standard deviations; coordinates
        # with zero MAD are left untouched
        z = x - medians[:, y]
        med = _row_medians(z)[:, None]
        sigma = 1.4826 * _row_medians(np.abs(z - med))[:, None]
        clipped = np.clip(z, -3.0 * sigma, 3.0 * sigma)
        keep = sigma[:, 0] == 0
        clipped[keep] = z[keep]
        eig = truncated_svd(clipped, k, mode=svd_mode, seed=seed).U
    return _assemble(delta, eig, "rlol", seed)


def _unit_columns(m):
    # degenerate all-zero columns (possible only for tiny p) get a
    # deterministic basis vector so normalization stays well defined
    m = m.copy()
    norms = np.linalg.norm(m, axis=0)
    for j in np.flatnonzero(norms == 0):
        m[j % m.shape[0], j] = 1.0
        norms[j] = 1.0
    return m / norms


def fit_lfl(dataset: LabeledDataset, d, seed=0) -> Projection:
    """LOL with very sparse random directions replacing the eigenvectors."""
    k = _extra_dims(dataset, d)
    delta = mean_difference_matrix(class_stats(dataset))
    rand = _unit_columns(sparse_random_columns(dataset.p, k, seed)) if k else None
    return _assemble(delta, rand, "lfl", seed)


def fit_rp(dataset: LabeledDataset, d, seed=0) -> Projection:
    """Label-blind sparse random projection."""
    _check_width(dataset, d)
    cols = _unit_columns(sparse_random_columns(dataset.p, d, seed))
    return Projection(cols, method_tag="rp", seed=seed)


def fit_lrcca(dataset: LabeledDataset, d) -> Projection:
    """Low-rank CCA via the implicit-operator eigensolver (1 <= d <= C-1)."""
    if d < 1:
        raise TooFewDims(f"d={d} below 1")
    stats = class_stats(dataset)
    centered = center_pooled(dataset, stats)
    vecs = implicit_cca_eigs(
        centered.values, stats.class_means, stats.pooled_mean, stats.counts, d
    )
    return Projection(vecs, method_tag="cca")


def _pls_weights(x, targets, d):
    """d PLS weight vectors (p x d) of the centered p x n data ``x``
    against the centered m x n ``targets``; ``x`` is deflated in place,
    each rank-one update formed in one p x n buffer reused across
    components.

    Each weight is the top left singular vector of the cross-product
    X_a Y^T of the deflated data and the targets, the fixed point that a
    NIPALS power iteration converges to (Hoskuldsson 1988), signed so its
    largest-magnitude entry is positive.  The targets are not deflated:
    X_{a+1} t_a = 0, so deflating them leaves later cross-products as
    they are.  A zero cross-product or score raises DegenerateTarget.
    """
    weights = np.empty((x.shape[0], d))
    rank_one = np.empty_like(x)
    for comp in range(d):
        with np.errstate(over="ignore", invalid="ignore"):
            cross = x @ targets.T
            if not np.any(cross):
                raise DegenerateTarget(f"zero cross-product at component {comp}")
            if not np.isfinite(cross).all():
                raise NonFiniteData(f"the cross-product overflows at component {comp}")
            u = np.linalg.svd(cross, full_matrices=False)[0]
            w = _fix_signs(u[:, :1])[0][:, 0]
            t = x.T @ w
            tt = t @ t
            if tt == 0:
                raise DegenerateTarget(f"zero score vector at component {comp}")
            if not np.isfinite(tt):
                raise NonFiniteData(f"the score vector overflows at component {comp}")
            x -= np.multiply.outer(x @ t / tt, t, out=rank_one)
        weights[:, comp] = w
    return weights


def fit_pls(dataset: LabeledDataset, d) -> Projection:
    """PLS2 weight vectors against one-hot class labels.

    X is pooled-centered and Y row-centered internally; successive
    components deflate X, so the returned weight vectors are orthogonal in
    exact arithmetic.  In floating point the loss of orthogonality grows
    with d: on trunk (p=1000, n=160, seed 0), max |W'W - I| is 2.7e-14 at
    d=10, 8.6e-11 at d=20 and 2.9e-7 at d=30.
    """
    if d < 1:
        raise TooFewDims(f"d={d} below 1")
    if d > min(dataset.p, dataset.n - 1):
        raise TooFewDims(f"d={d} exceeds min(p, n-1)={min(dataset.p, dataset.n - 1)}")
    stats = class_stats(dataset)
    x = center_pooled(dataset, stats).values.copy()
    yhot = np.zeros((dataset.num_classes, dataset.n))
    yhot[dataset.labels, np.arange(dataset.n)] = 1.0
    yres = yhot - yhot.mean(axis=1, keepdims=True)
    return Projection(_pls_weights(x, yres, d), method_tag="pls")


def embed(proj: Projection, m: DataMatrix) -> DataMatrix:
    """Apply a projection: returns the d x n matrix directions^T @ M.  A
    product that overflows raises NonFiniteData, without numpy's warning."""
    if proj.p != m.p:
        raise ShapeMismatch(f"projection is for p={proj.p}, data has p={m.p}")
    with np.errstate(over="ignore", invalid="ignore"):
        return DataMatrix(proj.directions.T @ m.values)


# --- serialization ---------------------------------------------------------
#
# Text format, one file per projection:
#   line 1:  lolkit-projection,v1,<p>,<d>,<method_tag>,<seed-or-empty>
#   lines 2..d+1:  one column per line, p comma-separated %.17g doubles
#                  (column-major, round-trip exact)

def save_projection(proj: Projection, path):
    """Write ``proj`` in the v1 text format through _atomic_write; a tag
    holding a comma or a line break raises ShapeMismatch before any write."""
    if any(ch in proj.method_tag for ch in ",\n\r"):
        raise ShapeMismatch(f"method tag {proj.method_tag!r} holds a comma or a line break")
    lines = [
        f"lolkit-projection,v1,{proj.p},{proj.d},{proj.method_tag},"
        f"{'' if proj.seed is None else proj.seed}\n"
    ]
    template = ",".join(["%.17g"] * proj.p) + "\n"  # one % per line: faster than per value
    for j in range(proj.d):
        lines.append(template % tuple(proj.directions[:, j].tolist()))
    _atomic_write(path, lines)


def load_projection(path) -> Projection:
    """Read a save_projection file; a malformed, truncated or non-UTF-8
    one raises ShapeMismatch, and so does one that cannot be opened."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ShapeMismatch(f"{path}: cannot open: {exc.strerror}") from None
    with fh:
        try:
            header = fh.readline().strip().split(",")
            if len(header) != 6 or header[:2] != ["lolkit-projection", "v1"]:
                raise ShapeMismatch(f"not a v1 projection file: {path}")
            p, d = int(header[2]), int(header[3])
            seed = int(header[5]) if header[5] else None
            # a list rather than a p x d buffer, so a corrupt d cannot
            # allocate more than the file holds
            cols = [np.array(fh.readline().split(","), dtype=np.float64) for _ in range(d)]
            trailing = fh.read().strip()
        except ValueError as exc:  # UnicodeDecodeError included
            raise ShapeMismatch(f"{path}: malformed projection file ({exc})") from None
        if d < 1 or any(col.shape != (p,) for col in cols) or trailing:
            raise ShapeMismatch(f"{path}: expected {d} lines of {p} values after the header")
    return Projection(np.column_stack(cols), method_tag=header[4], seed=seed)
