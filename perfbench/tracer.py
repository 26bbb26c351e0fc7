"""Outside-in tracer: spans around lolkit's public functions.

Nothing inside the package is edited.  Each traced function is looked up
once, and then every reference to that same object -- in any lolkit module
namespace or in any dict held at module level, such as a registry of fit
functions -- is swapped for a timing wrapper.  A reference captured by
``from .linalg import truncated_svd`` is therefore traced wherever it
lives, and keeps being traced when a refactor moves it.  ``DataMatrix`` is
traced through ``__post_init__`` on the class, which every construction
runs.

A span's self time is its duration minus the time covered by the spans it
caused.  Byte counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

# layer.function for every traced span; "model.DataMatrix" is the class
SPANS = (
    "cli.main",
    "benchmark.load_csv",
    "benchmark.make_fold_plan",
    "benchmark.sweep",
    "benchmark.normalized_report",
    "benchmark.curves_rows",
    "embeddings.embed",
    "embeddings.fit_lol",
    "embeddings.fit_pca",
    "embeddings.fit_rrlda",
    "embeddings.fit_qoq",
    "embeddings.fit_rlol",
    "embeddings.fit_lfl",
    "embeddings.fit_rp",
    "embeddings.fit_lrcca",
    "embeddings.fit_pls",
    "embeddings.save_projection",
    "embeddings.load_projection",
    "classifiers.fit_lda",
    "classifiers.predict_lda",
    "classifiers.fit_qda",
    "classifiers.predict_qda",
    "linalg.truncated_svd",
    "linalg.implicit_cca_eigs",
    "model.class_stats",
    "model.center_class_conditional",
    "model.center_pooled",
    "model.DataMatrix",
)

# per-layer metrics derived from the counters below, with their units
DERIVED = {
    "embeddings.embed.bytes_in": "bytes",
    "embeddings.embed.useful_row_frac": "ratio",
    "classifiers.fits_per_cell": "ratio",
    "linalg.truncated_svd.calls_exact": "count",
    "linalg.truncated_svd.calls_randomized": "count",
    "linalg.truncated_svd.rank_used_frac": "ratio",
    "model.DataMatrix.bytes_validated": "bytes",
    "benchmark.load_csv.cells_per_s": "1/s",
    "benchmark.sweep.cells": "count",
    "benchmark.sweep.missing_cells": "count",
}


class SpanNotFound(RuntimeError):
    """A span names a function or class the package no longer has."""


class Tracer:
    """Install with ``with Tracer(lolkit):``; read with :meth:`snapshot`."""

    def __init__(self, package):
        self.package = package
        self._undo = []
        self._stack = []
        self._embed_signature = None
        self._svd_signature = None
        self._svd_exact_max = None
        self.reset()

    # -- counters ---------------------------------------------------------

    def reset(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.total_s = dict.fromkeys(SPANS, 0.0)
        self.counters = dict.fromkeys(
            ("embed_bytes", "embed_rows", "svd_exact", "svd_randomized",
             "svd_used", "svd_computed", "validated_bytes", "csv_cells",
             "sweep_cells", "sweep_missing"), 0)
        # (root directions array, data array, widest prefix embedded so far),
        # keyed by ids; the arrays are held so their ids cannot be reused
        self._embedded = {}

    def snapshot(self):
        """Per-span calls and self time plus the derived metrics, for the
        work done since the last :meth:`reset`."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.counters
        useful_rows = sum(rows for _, _, rows in self._embedded.values())
        fits = self.calls["classifiers.fit_lda"] + self.calls["classifiers.fit_qda"]
        done_cells = c["sweep_cells"] - c["sweep_missing"]
        load_s = self.total_s["benchmark.load_csv"]
        out.update({
            "embeddings.embed.bytes_in": c["embed_bytes"],
            "embeddings.embed.useful_row_frac":
                useful_rows / c["embed_rows"] if c["embed_rows"] else 0.0,
            "classifiers.fits_per_cell": fits / done_cells if done_cells else 0.0,
            "linalg.truncated_svd.calls_exact": c["svd_exact"],
            "linalg.truncated_svd.calls_randomized": c["svd_randomized"],
            "linalg.truncated_svd.rank_used_frac":
                c["svd_used"] / c["svd_computed"] if c["svd_computed"] else 0.0,
            "model.DataMatrix.bytes_validated": c["validated_bytes"],
            "benchmark.load_csv.cells_per_s": c["csv_cells"] / load_s if load_s else 0.0,
            "benchmark.sweep.cells": c["sweep_cells"],
            "benchmark.sweep.missing_cells": c["sweep_missing"],
        })
        return out

    def self_time_sum(self):
        return sum(self.self_s.values())

    # -- per-span hooks, run after the wrapped call returns ---------------

    def _on_embed(self, args, kwargs, result):
        bound = self._embed_signature.bind(*args, **kwargs).arguments
        proj, m = bound["proj"], bound["m"]
        directions = proj.directions
        rows = directions.shape[1]
        self.counters["embed_bytes"] += directions.nbytes + m.values.nbytes
        self.counters["embed_rows"] += rows
        root = directions if directions.base is None else directions.base
        key = (id(root), id(m.values))
        seen = self._embedded.get(key)
        if seen is None or seen[2] < rows:
            self._embedded[key] = (root, m.values, rows)

    def _on_truncated_svd(self, args, kwargs, result):
        bound = self._svd_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        p, n = a["values"].shape
        k = a["k"]
        mode = a["mode"]
        if mode == "auto":
            mode = "exact" if min(p, n) <= self._svd_exact_max else "randomized"
        if mode == "exact":
            self.counters["svd_exact"] += 1
            self.counters["svd_computed"] += min(p, n)
        else:
            self.counters["svd_randomized"] += 1
            self.counters["svd_computed"] += min(k + a["oversample"], min(p, n))
        self.counters["svd_used"] += k

    def _on_data_matrix(self, args, kwargs, result):
        self.counters["validated_bytes"] += args[0].values.nbytes

    def _on_sweep(self, args, kwargs, result):
        for curve in result:
            self.counters["sweep_cells"] += curve.rates.size
            self.counters["sweep_missing"] += int(np.isnan(curve.rates).sum())

    def _on_load_csv(self, args, kwargs, result):
        ds = result.dataset
        self.counters["csv_cells"] += (ds.p + 1) * ds.n

    # -- installation -----------------------------------------------------

    def _wrap(self, name, fn, hook):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                # reset() rebinds the dicts, so look them up on every call
                tracer.calls[name] += 1
                tracer.total_s[name] += dt
                tracer.self_s[name] += dt - children
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        pkg = self.package.__name__
        hooks = {
            "embeddings.embed": self._on_embed,
            "linalg.truncated_svd": self._on_truncated_svd,
            "model.DataMatrix": self._on_data_matrix,
            "benchmark.sweep": self._on_sweep,
            "benchmark.load_csv": self._on_load_csv,
        }
        replacements = {}   # id(original) -> (original, wrapper)
        for name in SPANS:
            module_name, attr = name.split(".")
            module = sys.modules.get(f"{pkg}.{module_name}")
            target = getattr(module, attr, None)
            if target is None:
                raise SpanNotFound(f"{pkg}.{name} not found")
            if isinstance(target, type):
                original = target.__dict__.get("__post_init__")
                if original is None:
                    raise SpanNotFound(f"{pkg}.{name}.__post_init__ not found")
                target.__post_init__ = self._wrap(name, original, hooks.get(name))
                self._undo.append((setattr, target, "__post_init__", original))
                continue
            replacements[id(target)] = (target, self._wrap(name, target, hooks.get(name)))

        self._embed_signature = inspect.signature(
            replacements[id(sys.modules[f"{pkg}.embeddings"].embed)][0])
        linalg = sys.modules[f"{pkg}.linalg"]
        self._svd_signature = inspect.signature(
            replacements[id(linalg.truncated_svd)][0])
        self._svd_exact_max = linalg.EXACT_SVD_MAX_DIM

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for module in modules:
            for key, value in list(vars(module).items()):
                if key.startswith("__"):
                    continue
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self._undo.append((setattr, module, key, value))
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        hit = replacements.get(id(v))
                        if hit is not None and hit[0] is v:
                            value[k] = hit[1]
                            self._undo.append((dict.__setitem__, value, k, v))

    def uninstall(self):
        while self._undo:
            restore, owner, key, original = self._undo.pop()
            restore(owner, key, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

