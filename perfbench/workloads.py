"""The four seeded workloads: inputs, the timed call, and output checks.

Each workload builds its inputs from the seed during set-up, drives lolkit
only through its public entry points in the timed call, and checks what the
call produced.  A check returns problem strings; an empty list means the
outputs are correct.
"""

from __future__ import annotations

import csv
import io
import json
import os

import numpy as np

# |embed output - directions.T @ X| allowed, relative to max(1, max |reference|)
EMBED_RTOL = 1e-9


def _csv_rows(data):
    return list(csv.reader(io.StringIO(data.decode())))


class Workload:
    """One workload; ``params`` fixes its sizes (tests pass tiny ones)."""

    name = ""
    why = ""
    defaults = {}
    expected_spans = ()

    def __init__(self, lolkit, params=None):
        self.lolkit = lolkit
        self.params = dict(self.defaults if params is None else params)

    def setup(self, seed, workdir):
        """Build the inputs; returns the state the timed call needs."""
        raise NotImplementedError

    def run(self, state, outdir):
        """The timed call.  Returns what :meth:`outputs` needs, if anything."""
        raise NotImplementedError

    def outputs(self, state, outdir, result):
        """{name: bytes} produced by one timed call."""
        raise NotImplementedError

    def input_bytes(self, state):
        """Bytes of input one timed call consumes, for the throughput."""
        raise NotImplementedError

    def throughput(self, state, iterations_per_s):
        """The workload's own throughput metric, by name."""
        raise NotImplementedError

    def check_each(self, state, outputs):
        """Checks every iteration's outputs must pass."""
        return []

    def check_once(self, state, outputs):
        """Costlier checks run on the first iteration's outputs only.

        Returns (problems, notes): problems count as a failed iteration,
        notes record known defects of the program without failing it.
        """
        return [], {}

    def diff_count(self, a, b):
        """How many output values differ between two iterations' outputs."""
        raise NotImplementedError

    def _sim_csv(self, family, seed, workdir):
        path = os.path.join(workdir, "dataset.csv")
        code = self.lolkit.cli.main([
            "sim", "--family", family, "--p", str(self.params["p"]),
            "--n", str(self.params["n"]), "--seed", str(seed),
            "--output-dir", workdir])
        if code != 0:
            raise RuntimeError(f"lolkit sim exited with {code}")
        return path


class CrossValidation(Workload):
    """``lolkit bench`` through ``cli.main`` on a CSV written at set-up."""

    expected_spans = (
        "cli.main", "benchmark.load_csv", "benchmark.make_fold_plan",
        "benchmark.sweep", "benchmark.normalized_report", "benchmark.curves_rows",
        "embeddings.embed", "linalg.truncated_svd", "model.class_stats",
        "model.center_class_conditional", "model.DataMatrix",
    )

    def setup(self, seed, workdir):
        path = self._sim_csv(self.params["family"], seed, workdir)
        return {"seed": seed, "csv": path}

    def run(self, state, outdir):
        prm = self.params
        code = self.lolkit.cli.main([
            "bench", "--input", state["csv"], "--algs", ",".join(prm["algs"]),
            "--k", str(prm["k"]), "--d-max", str(prm["d_max"]),
            "--classifier", prm["classifier"], "--seed", str(state["seed"]),
            "--output-dir", outdir])
        if code != 0:
            raise RuntimeError(f"lolkit bench exited with {code}")

    def outputs(self, state, outdir, result):
        out = {}
        for name in ("report.json", "curves.csv"):
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = fh.read()
        return out

    def input_bytes(self, state):
        return os.path.getsize(state["csv"])

    def throughput(self, state, iterations_per_s):
        prm = self.params
        return {"cells_per_s": len(prm["algs"]) * prm["k"] * prm["d_max"] * iterations_per_s}

    def expected_missing(self):
        """Cells no fit can fill: ``cca`` has at most C-1 directions."""
        prm = self.params
        return {("cca", r, j) for r in range(prm["classes"], prm["d_max"] + 1)
                for j in range(prm["k"])} if "cca" in prm["algs"] else set()

    def _missing(self, outputs):
        rows = _csv_rows(outputs["curves.csv"])
        return rows, {(a, int(r), int(j)) for a, r, j, e in rows[1:] if e == ""}

    def check_each(self, state, outputs):
        """``cca`` must leave every cell beyond C-1 empty.  Any other empty
        cell must belong to an (algorithm, fold) whose projection fit failed,
        which lolkit records as a whole row of missing cells by design."""
        prm = self.params
        problems = []
        rows, missing = self._missing(outputs)
        if rows[0] != ["algorithm", "r", "fold", "error"]:
            return [f"curves.csv header {rows[0]}"]
        if len(rows) - 1 != len(prm["algs"]) * prm["k"] * prm["d_max"]:
            problems.append(f"curves.csv has {len(rows) - 1} rows")
        expected = self.expected_missing()
        if not expected <= missing:
            problems.append(f"{len(expected - missing)} cca cells beyond C-1 are filled")
        partial = {(a, j) for a, _, j in missing - expected
                   if any((a, r, j) not in missing for r in range(1, prm["d_max"] + 1))}
        if partial:
            problems.append(f"cells missing in part of a fold: {sorted(partial)}")
        if any(not 0.0 <= float(row[3]) <= 1.0 for row in rows[1:] if row[3] != ""):
            problems.append("error rate outside [0, 1]")
        report = json.loads(outputs["report.json"])
        if sorted(report["algorithms"]) != sorted(prm["algs"]):
            problems.append(f"report covers {sorted(report['algorithms'])}")
        return problems

    def check_once(self, state, outputs):
        _, missing = self._missing(outputs)
        failed = sorted({f"{a}/fold{j}" for a, _, j in missing - self.expected_missing()})
        return [], {"failed_fits": failed}

    def diff_count(self, a, b):
        rows_a = _csv_rows(a["curves.csv"])
        rows_b = _csv_rows(b["curves.csv"])
        return sum(x != y for x, y in zip(rows_a, rows_b)) + abs(len(rows_a) - len(rows_b))


class CvLda(CrossValidation):
    name = "cv_lda"
    why = ("The paper's headline protocol: k-fold LDA sweep of lol,pca,rrlda,rp on "
           "trunk; per-prefix embed, tiny BLAS calls and thread contention dominate.")
    defaults = {"family": "trunk", "classes": 2, "p": 1000, "n": 200, "k": 5,
                "d_max": 30, "algs": ["lol", "pca", "rrlda", "rp"],
                "classifier": "lda"}
    expected_spans = CrossValidation.expected_spans + (
        "embeddings.fit_lol", "embeddings.fit_pca", "embeddings.fit_rrlda",
        "embeddings.fit_rp", "classifiers.fit_lda", "classifiers.predict_lda",
        "model.center_pooled")


class CvQda(CrossValidation):
    name = "cv_qda"
    why = ("Same path with QDA on 3-class trunk3: per-class covariances, NIPALS, "
           "medians, per-class SVDs and cca cells missing beyond C-1; no LDA shortcut.")
    defaults = {"family": "trunk3", "classes": 3, "p": 1000, "n": 225, "k": 5,
                "d_max": 20, "algs": ["lol", "qoq", "rlol", "lfl", "cca", "pls"],
                "classifier": "qda"}
    expected_spans = CrossValidation.expected_spans + (
        "embeddings.fit_lol", "embeddings.fit_qoq", "embeddings.fit_rlol",
        "embeddings.fit_lfl", "embeddings.fit_lrcca", "embeddings.fit_pls",
        "classifiers.fit_qda", "classifiers.predict_qda", "linalg.implicit_cca_eigs",
        "model.center_pooled")


class CsvWide(Workload):
    """``lolkit fit`` then ``lolkit embed`` on a wide CSV."""

    name = "csv_wide"
    why = ("lolkit fit then embed on a wide CSV: ingest, projection save/load and "
           "CSV writing dominate; no sweep code runs.")
    defaults = {"family": "trunk", "p": 3000, "n": 300, "d": 20}
    expected_spans = (
        "cli.main", "benchmark.load_csv", "embeddings.fit_lol",
        "embeddings.save_projection", "embeddings.load_projection",
        "embeddings.embed", "linalg.truncated_svd", "model.class_stats",
        "model.center_class_conditional", "model.DataMatrix",
    )

    def setup(self, seed, workdir):
        return {"seed": seed, "csv": self._sim_csv(self.params["family"], seed, workdir)}

    def run(self, state, outdir):
        main = self.lolkit.cli.main
        proj = os.path.join(outdir, "projection.txt")
        code = main(["fit", "--input", state["csv"], "--alg", "lol",
                     "--d", str(self.params["d"]), "--seed", str(state["seed"]),
                     "--output", proj])
        if code == 0:
            code = main(["embed", "--input", state["csv"], "--projection", proj,
                         "--output", os.path.join(outdir, "embedding.csv")])
        if code != 0:
            raise RuntimeError(f"lolkit fit/embed exited with {code}")

    def outputs(self, state, outdir, result):
        out = {}
        for name in ("projection.txt", "embedding.csv"):
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = fh.read()
        return out

    def input_bytes(self, state):
        return os.path.getsize(state["csv"])

    def throughput(self, state, iterations_per_s):
        return {"csv_mb_per_s": self.input_bytes(state) / 1e6 * iterations_per_s}

    def check_each(self, state, outputs):
        rows = _csv_rows(outputs["embedding.csv"])
        d, n = self.params["d"], self.params["n"]
        if rows[0] != [f"e{i}" for i in range(d)] + ["label"] or len(rows) != n + 1:
            return [f"embedding.csv is {len(rows) - 1} rows of {len(rows[0])} fields"]
        return []

    def check_once(self, state, outputs):
        lk = self.lolkit
        prm = self.params
        ds = lk.simulations.sample(lk.simulations.SimSpec(
            prm["family"], prm["p"], prm["n"], state["seed"])).dataset
        fitted = lk.embeddings.fit_lol(ds, prm["d"], seed=state["seed"])
        problems = []
        saved = os.path.join(os.path.dirname(state["csv"]), "check-projection.txt")
        lk.embeddings.save_projection(fitted, saved)
        with open(saved, "rb") as fh:
            if fh.read() != outputs["projection.txt"]:
                problems.append("lolkit fit output differs from fit_lol saved in memory")
        loaded = lk.embeddings.load_projection(saved)
        if not np.array_equal(loaded.directions, fitted.directions):
            problems.append("projection does not round-trip save/load exactly")
        rows = _csv_rows(outputs["embedding.csv"])[1:]
        got = np.array([[float(v) for v in row[:-1]] for row in rows]).T
        ref = fitted.directions.T @ ds.data.values
        if got.shape != ref.shape:
            problems.append(f"embedding shape {got.shape}, expected {ref.shape}")
        elif np.max(np.abs(got - ref)) > EMBED_RTOL * max(1.0, np.max(np.abs(ref))):
            problems.append(f"embed differs from directions.T @ X by "
                            f"{np.max(np.abs(got - ref)):.3g}")
        if [int(row[-1]) for row in rows] != ds.labels.tolist():
            problems.append("embedding labels differ from the input labels")
        return problems, {}

    def diff_count(self, a, b):
        return sum(sum(x != y for x, y in zip(a[k].splitlines(), b[k].splitlines()))
                   for k in a)


class WideFit(Workload):
    """The ``lolkit scale`` call on an in-memory matrix built at set-up."""

    name = "wide_fit"
    why = ("The lolkit scale call, fit_lol randomized on a large in-memory matrix: "
           "the randomized SVD, large GEMMs that gain from BLAS threads, full-array passes.")
    defaults = {"p": 20000, "n": 1000, "d": 10}
    expected_spans = (
        "embeddings.fit_lol", "linalg.truncated_svd", "model.class_stats",
        "model.center_class_conditional", "model.DataMatrix",
    )

    def setup(self, seed, workdir):
        # same construction as `lolkit scale`
        lk = self.lolkit
        rng = np.random.default_rng(seed)
        labels = (rng.random(self.params["n"]) < 0.5).astype(np.int64)
        x = rng.standard_normal((self.params["p"], self.params["n"]))
        ds = lk.model.LabeledDataset(lk.model.DataMatrix(x), labels, 2)
        return {"seed": seed, "dataset": ds}

    def _fit(self, state, d):
        return self.lolkit.embeddings.fit_lol(state["dataset"], d, svd_mode="randomized",
                                              seed=state["seed"])

    def run(self, state, outdir):
        return self._fit(state, self.params["d"])

    def outputs(self, state, outdir, result):
        return {"directions": result.directions}

    def input_bytes(self, state):
        return state["dataset"].data.values.nbytes

    def throughput(self, state, iterations_per_s):
        return {"fit_mb_per_s": self.input_bytes(state) / 1e6 * iterations_per_s}

    def check_each(self, state, outputs):
        a = outputs["directions"]
        if a.shape != (self.params["p"], self.params["d"]) or not np.all(np.isfinite(a)):
            return [f"projection shape {a.shape} or non-finite entries"]
        if np.max(np.abs(np.linalg.norm(a, axis=0) - 1.0)) > 1e-9:
            return ["projection columns are not unit-norm"]
        return []

    def check_once(self, state, outputs):
        """The lolkit README promises that the first r columns of a d-dim fit
        equal the r-dim fit bit-exactly.  The randomized SVD draws a sketch
        whose width depends on the requested rank, so this does not hold for
        r > C-1; the broken widths are reported as a note, not a failure."""
        d = self.params["d"]
        full = outputs["directions"]
        widths = sorted({1, d // 2, d - 1} - {0})
        broken = [r for r in widths
                  if not np.array_equal(full[:, :r], self._fit(state, r).directions)]
        return [], {"nesting_widths_checked": widths, "nesting_broken_at": broken}

    def diff_count(self, a, b):
        return int(np.sum(a["directions"] != b["directions"]))


WORKLOADS = {w.name: w for w in (CvLda, CvQda, CsvWide, WideFit)}
