"""Command-line interface.

Subcommands: sim, fit, embed, bench, chernoff, test, regress, scale.
Every run is reproducible through --seed; output files are written to a
temporary file and atomically renamed, so no output is ever partially
written on failure.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
import time

import numpy as np

from . import benchmark, embeddings, extensions, simulations
from .chernoff import lol_vs_lda_gap, lol_vs_pca_gap, projected_chernoff_quadform, pooled_top_eigvecs
from .errors import LolkitError, ParseFailure
from .files import _atomic_write
from .model import DataMatrix, LabeledDataset


def _write_json(path, obj):
    _atomic_write(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


def _csv_lines(header, rows):
    """CSV lines: the header line, then one line per row of formatted fields."""
    return (",".join(fields) + "\n" for fields in itertools.chain([header], rows))


def _samples_csv(prefix, values, last_name, last_fields):
    """One line per sample (column of ``values``): its entries in
    round-trip %.17g, then its entry of ``last_fields``."""
    header = [f"{prefix}{i}" for i in range(values.shape[0])] + [last_name]
    # one % per line is faster than one format call per value, same text;
    # each row is then a single field, the whole comma-joined line
    template = "%.17g," * values.shape[0] + "%s"
    rows = ((template % (*values[:, i].tolist(), last),) for i, last in enumerate(last_fields))
    return _csv_lines(header, rows)


def _family_params(args):
    params = {}
    for key in ("a", "b", "rho", "frobenius", "delta_scale"):
        v = getattr(args, key, None)
        if v is not None:
            params[key] = v
    return params


def cmd_sim(args):
    spec = simulations.SimSpec(args.family, args.p, args.n, args.seed,
                               _family_params(args))
    sim = simulations.sample(spec)
    os.makedirs(args.output_dir, exist_ok=True)
    if isinstance(sim, simulations.RegressionSample):
        _atomic_write(os.path.join(args.output_dir, "dataset.csv"),
                      _samples_csv("f", sim.data.values, "target",
                                   map("{:.17g}".format, sim.targets.tolist())))
        _write_json(os.path.join(args.output_dir, "model.json"),
                    {"family": args.family, "coef": sim.coef.tolist()})
        return 0
    _atomic_write(os.path.join(args.output_dir, "dataset.csv"),
                  _samples_csv("f", sim.dataset.data.values, "label",
                               map(str, sim.dataset.labels.tolist())))
    model = sim.model
    covs = [c.tolist() for c in model.covariances]
    _write_json(
        os.path.join(args.output_dir, "model.json"),
        {
            "family": args.family,
            "priors": model.priors.tolist(),
            "means": model.means.tolist(),
            "shared_covariance": model.shared,
            "covariances": covs,
        },
    )
    return 0


def _load(args):
    loaded = benchmark.load_csv(args.input, _label_col(args.label_column))
    return loaded.dataset


def _label_col(value):
    try:
        return int(value)
    except ValueError:
        return value


def cmd_fit(args):
    dataset = _load(args)
    proj = benchmark.fit_projection(args.alg, dataset, args.d, args.svd_mode, args.seed)
    embeddings.save_projection(proj, args.output)
    return 0


def cmd_embed(args):
    dataset = _load(args)
    proj = embeddings.load_projection(args.projection)
    e = embeddings.embed(proj, dataset.data)
    _atomic_write(args.output,
                  _samples_csv("e", e.values, "label", map(str, dataset.labels.tolist())))
    return 0


def cmd_bench(args):
    # a bad tag list fails before the CSV is read and any fold is fitted
    algs = args.algs.split(",")
    benchmark.check_algorithms(algs)
    benchmark.require_baseline(algs)
    dataset = _load(args)
    plan = benchmark.make_fold_plan(dataset.n, dataset.p, dataset.num_classes,
                                    args.k, dataset.labels, args.seed)
    d_max = args.d_max
    if d_max is None:
        d_max = min(dataset.p - 1, 100, min(len(s) for s in plan.train_subsets) - 1)
    curves = benchmark.sweep(dataset, algs, d_max, plan, classifier=args.classifier)
    report = benchmark.normalized_report(curves, plan, dataset)
    os.makedirs(args.output_dir, exist_ok=True)
    rows = (map(str, row) for row in benchmark.curves_rows(curves))
    _atomic_write(os.path.join(args.output_dir, "curves.csv"),
                  _csv_lines(("algorithm", "r", "fold", "error"), rows))
    _write_json(os.path.join(args.output_dir, "report.json"), report)
    return 0


def cmd_chernoff(args):
    if args.instances < 1 or args.max_p < 2:
        raise ParseFailure(f"need --instances >= 1 and --max-p >= 2, got "
                           f"{args.instances} and {args.max_p}")
    rng = np.random.default_rng(args.seed)
    worst_lda = np.inf
    worst_pca = np.inf
    worst_mismatch = 0.0
    for _ in range(args.instances):
        p = int(rng.integers(2, args.max_p + 1))
        g = rng.standard_normal((p, p))
        sigma = g @ g.T / p + 0.1 * np.eye(p)
        delta = rng.standard_normal(p)
        u = np.linalg.eigh(sigma)[1][:, ::-1]
        for d in range(1, p + 1):
            try:
                gap = lol_vs_lda_gap(delta, sigma, d)
            except LolkitError:
                continue
            worst_lda = min(worst_lda, gap)
            a = np.column_stack([delta, u[:, : d - 1]])
            q_lol = projected_chernoff_quadform(a, delta, sigma)
            direct = q_lol - projected_chernoff_quadform(u[:, :d], delta, sigma)
            scale = max(abs(gap), abs(direct), q_lol, 1.0)
            worst_mismatch = max(worst_mismatch, abs(gap - direct) / scale)
            try:
                gap_pca = lol_vs_pca_gap(delta, sigma, d)
            except LolkitError:
                continue
            worst_pca = min(worst_pca, gap_pca)
            pca_map = pooled_top_eigvecs(delta, sigma, d)
            direct_pca = q_lol - projected_chernoff_quadform(pca_map, delta, sigma)
            scale = max(abs(gap_pca), abs(direct_pca), q_lol, 1.0)
            worst_mismatch = max(worst_mismatch, abs(gap_pca - direct_pca) / scale)
    out = {
        "instances": args.instances,
        "max_p": args.max_p,
        "min_lol_vs_lda_gap": worst_lda,
        "min_lol_vs_pca_gap": worst_pca,
        "max_closed_form_rel_mismatch": worst_mismatch,
        "gaps_nonnegative": bool(worst_lda >= -1e-10),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_test(args):
    spec = simulations.SimSpec(args.family, args.p, 2 * args.n_per_group,
                               args.seed, _family_params(args))
    out = {}
    for method in args.methods.split(","):
        out[method] = extensions.projected_test_power(
            spec, method, args.d, alpha=args.alpha, reps=args.reps,
            seed=args.seed, n_per_group=args.n_per_group, split=args.split)
    print(json.dumps({"alpha": args.alpha, "reps": args.reps, "power": out},
                     indent=2, sort_keys=True))
    return 0


def cmd_regress(args):
    spec = simulations.SimSpec("regression_linear", args.p, 2 * args.n, args.seed,
                               _family_params(args))
    sim = simulations.sample(spec)
    x = sim.data.values
    train = DataMatrix(x[:, : args.n])
    test = DataMatrix(x[:, args.n :])
    y_train = sim.targets[: args.n]
    y_test = sim.targets[args.n :]
    lol = extensions.lol_regression(train, y_train, num_bins=args.k_bins, d=args.d,
                                    seed=args.seed)
    pls = extensions.pls1_regression(train, y_train, args.d)
    out = {
        "d": args.d,
        "mse_lol": extensions.mean_squared_error(lol, test, y_test),
        "mse_pls": extensions.mean_squared_error(pls, test, y_test),
        "var_y_test": float(np.var(y_test)),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _parse_sweep(text):
    # "start:end:x2" -> geometric sweep by factor 2
    try:
        start, end, step = text.split(":")
        if not step.startswith("x"):
            raise ValueError
        start, end, factor = float(start), float(end), float(step[1:])
    except ValueError:
        raise ParseFailure(f"sweep {text!r} must look like start:end:x<factor>") from None
    # the negated test also rejects NaN
    if not (0 < start <= end < np.inf and factor > 1):
        raise ParseFailure(f"sweep {text!r} needs 0 < start <= end < inf and factor > 1")
    vals = []
    v = start
    while v <= end * (1 + 1e-9):
        vals.append(int(round(v)))
        v *= factor
    return vals


def cmd_scale(args):
    ps = _parse_sweep(args.p_sweep)
    if args.n < 1:
        raise ParseFailure(f"--n must be at least 1, got {args.n}")
    rows = []
    prev = None
    for p in ps:
        rng = np.random.default_rng(args.seed)
        labels = (rng.random(args.n) < 0.5).astype(np.int64)
        x = rng.standard_normal((p, args.n))
        dataset = LabeledDataset(DataMatrix(x), labels, 2)
        # best-of-k wall clock: a single fit is dominated by page-fault
        # and scheduler noise at the largest sizes
        dt = np.inf
        for _ in range(max(1, args.repeats)):
            t0 = time.perf_counter()
            embeddings.fit_lol(dataset, args.d, svd_mode="randomized", seed=args.seed)
            dt = min(dt, time.perf_counter() - t0)
        ratio = "" if prev is None else f"{dt / prev:.6f}"
        rows.append((str(p), str(args.n), str(args.d), f"{dt:.6f}", ratio))
        prev = dt
        del x, dataset
        gc.collect()
    lines = _csv_lines(("p", "n", "d", "seconds", "ratio_to_previous"), rows)
    if args.output:
        _atomic_write(args.output, lines)
    else:
        sys.stdout.writelines(lines)
    return 0


def _add_family_args(sp):
    sp.add_argument("--family", required=True, choices=simulations.FAMILIES)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--frobenius", type=float, default=None)
    sp.add_argument("--delta-scale", dest="delta_scale", type=float, default=None)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ParseFailure, so they
    reach the user as the JSON error body; subparsers share the class."""

    def error(self, message):
        raise ParseFailure(f"{self.prog}: {message}")


def build_parser():
    ap = _Parser(prog="lolkit", description="supervised low-rank projection toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sim", help="sample a synthetic dataset")
    _add_family_args(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--output-dir", required=True)
    sp.set_defaults(func=cmd_sim)

    sp = sub.add_parser("fit", help="fit a projection on a CSV dataset")
    sp.add_argument("--input", required=True)
    sp.add_argument("--label-column", default="label")
    sp.add_argument("--alg", required=True, choices=benchmark.ALGORITHMS)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--svd-mode", default="auto", choices=("auto", "exact", "randomized"))
    sp.add_argument("--output", required=True)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("embed", help="apply a saved projection to a CSV dataset")
    sp.add_argument("--input", required=True)
    sp.add_argument("--label-column", default="label")
    sp.add_argument("--projection", required=True)
    sp.add_argument("--output", required=True)
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("bench", help="cross-validation benchmark on a CSV dataset")
    sp.add_argument("--input", required=True)
    sp.add_argument("--label-column", default="label")
    sp.add_argument("--algs", default="lol,pca,rrlda,cca,pls,rp")
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--d-max", dest="d_max", type=int, default=None)
    sp.add_argument("--classifier", default="lda", choices=("lda", "qda"))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output-dir", required=True)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("chernoff", help="numerical sweep of the projection-gap identities")
    sp.add_argument("--instances", type=int, default=200)
    sp.add_argument("--max-p", dest="max_p", type=int, default=30)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_chernoff)

    sp = sub.add_parser("test", help="projection + Hotelling power experiment")
    _add_family_args(sp)
    sp.add_argument("--n-per-group", dest="n_per_group", type=int, default=50)
    sp.add_argument("--d", type=int, default=5)
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--reps", type=int, default=200)
    sp.add_argument("--methods", default="lol,rp")
    sp.add_argument("--split", action="store_true",
                    help="fit the projection on held-out halves (calibrated null)")
    sp.set_defaults(func=cmd_test)

    sp = sub.add_parser("regress", help="LOL regression vs PLS baseline")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--frobenius", type=float, default=None)
    sp.add_argument("--k-bins", dest="k_bins", type=int, default=4)
    sp.add_argument("--d", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_regress)

    sp = sub.add_parser("scale", help="wall-clock scaling of the LOL fit")
    sp.add_argument("--p-sweep", dest="p_sweep", required=True,
                    help="geometric sweep, e.g. 10000:80000:x2")
    sp.add_argument("--n", type=int, default=2000)
    sp.add_argument("--d", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--repeats", type=int, default=3,
                    help="timing repeats per size; best of k is reported")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_scale)

    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # numpy seeds are non-negative
            raise ParseFailure(f"--seed must be non-negative, got {args.seed}")
        for name, value in vars(args).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ParseFailure(f"--{name.replace('_', '-')} must be finite, got {value}")
        # lolkit's own checks catch non-finite results; numpy's warnings would precede the JSON
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except LolkitError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
