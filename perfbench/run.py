"""lolkit benchmark: seeded workloads, end-to-end metrics, per-layer trace.

Run from the root of a lolkit source tree (the package is imported from
``src/``)::

    python3 perfbench/run.py --workload cv_lda --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

``--trace 0`` measures with tracing off and prints the end-to-end metrics.
``--trace 1`` prints the per-layer metrics: it times untraced iterations,
traced iterations, and untraced iterations with both OpenBLAS copies set
to one thread, a third of ``--seconds`` each.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import host
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
# set-up is repeated at least SETUP_MIN_REPS times and until SETUP_MIN_SECONDS
# have passed (at most SETUP_MAX_REPS), and its median is reported
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_MIN_SECONDS = 2.0
DEFAULT_SECONDS = 20
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)

END_TO_END = {
    "wall_s": "s",
    "input_mb_per_s": "MB/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

TRACE_ONLY = {
    "blas.numpy_threads": "count",
    "blas.scipy_threads": "count",
    "blas.single_thread_wall_s": "s",
    "blas.thread_overhead_frac": "ratio",
    "blas.thread_variant_outputs": "count",
    "embeddings.fit_lol.nesting_broken": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
}


class SourceTreeMissing(RuntimeError):
    pass


def import_lolkit(root=ROOT):
    """Import lolkit from ``<root>/src``, never from an installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lolkit", "__init__.py")):
        raise SourceTreeMissing(f"no lolkit source tree under {src}")
    sys.path.insert(0, src)
    import lolkit
    import lolkit.cli  # noqa: F401  (not imported by the package itself)
    if not os.path.abspath(lolkit.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SourceTreeMissing(f"lolkit imported from {lolkit.__file__}, not {src}")
    return lolkit


def per_layer_units():
    units = {}
    for span in tracer.SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update(tracer.DERIVED)
    units.update(TRACE_ONLY)
    return units


def _digest(value):
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    h = hashlib.sha256(str(value.shape).encode())
    h.update(value.tobytes())
    return h.hexdigest()


def load_reference(path=REFERENCE_PATH):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Run:
    """One workload at one seed: set-up, iterations, checks, metrics."""

    def __init__(self, lolkit, workload, seed, workdir, reference, blas):
        self.lolkit = lolkit
        self.wl = workload
        self.seed = seed
        self.workdir = workdir
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir, exist_ok=True)
        self.blas = blas
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = {}
        self.reference_status = {}
        entry = reference.get(workload.name, {})
        self.reference = (entry if seed == reference.get("seed", REFERENCE_SEED)
                          and entry.get("params") == workload.params else {})
        self.state = None
        self.setup_times = []
        self.digests = {}

    def set_up(self):
        while len(self.setup_times) < SETUP_MIN_REPS or (
                sum(self.setup_times) < SETUP_MIN_SECONDS
                and len(self.setup_times) < SETUP_MAX_REPS):
            self.state = None
            t0 = time.perf_counter()
            self.state = self.wl.setup(self.seed, self.workdir)
            self.setup_times.append(time.perf_counter() - t0)

    def _fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def _check(self, result, baseline):
        """Outputs of one iteration and the problems found in them."""
        outputs = self.wl.outputs(self.state, self.outdir, result)
        problems = list(self.wl.check_each(self.state, outputs))
        if baseline is not None:
            if any(_digest(outputs[k]) != _digest(baseline[k]) for k in outputs):
                problems.append("outputs differ from the run's first iteration")
            return outputs, problems
        more, notes = self.wl.check_once(self.state, outputs)
        problems += more
        self.notes.update(notes)
        key = host.thread_key(self.blas)
        stored = self.reference.get(key)
        digests = {k: _digest(v) for k, v in outputs.items()}
        if stored is None:
            self.reference_status[key] = "no stored reference"
        elif stored != digests:
            self.reference_status[key] = "MISMATCH"
            problems.append(f"outputs differ from the stored reference for {key}")
        else:
            self.reference_status[key] = "match"
        self.digests.setdefault(key, digests)
        return outputs, problems

    def iterate(self, seconds, baseline=None, tr=None):
        """Timed iterations for ``seconds``; returns (walls, snapshots, baseline).

        The first iteration's outputs become the baseline when none is given;
        it also gets the costlier once-per-run checks and the stored
        reference comparison for the current BLAS thread counts.
        """
        walls, snaps = [], []
        attempts = 0
        start = time.perf_counter()
        while attempts == 0 or time.perf_counter() - start < seconds:
            attempts += 1
            self.attempted += 1
            if tr is not None:
                tr.reset()
            t0 = time.perf_counter()
            try:
                result = self.wl.run(self.state, self.outdir)
            except Exception as exc:  # a failed iteration is counted, not fatal
                where = traceback.extract_tb(exc.__traceback__)[-1]
                self._fail(f"raised {type(exc).__name__}: {exc} "
                           f"({os.path.basename(where.filename)}:{where.lineno})")
                continue
            wall = time.perf_counter() - t0
            if tr is not None:
                snap = tr.snapshot()
                snap["_wall"] = wall
                snap["_self_sum"] = tr.self_time_sum()
            try:
                outputs, problems = self._check(result, baseline)
            except Exception as exc:  # malformed outputs fail the iteration
                outputs, problems = None, [f"checking raised {type(exc).__name__}: {exc}"]
            if baseline is None:
                baseline = outputs
            if problems:
                self._fail("; ".join(problems))
                continue
            if tr is None:
                walls.append(wall)
            else:
                snaps.append(snap)
        return walls, snaps, baseline


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run, walls):
    mb = run.wl.input_bytes(run.state) / 1e6
    return {
        "wall_s": _median(walls),
        "input_mb_per_s": mb * len(walls) / sum(walls) if walls else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": _median(run.setup_times),
    }


def per_layer(run, seconds, baseline):
    """Untraced, traced and one-thread phases; the per-layer metrics."""
    phase = seconds / 3.0
    untraced, _, _ = run.iterate(phase, baseline)
    with tracer.Tracer(run.lolkit) as tr:
        _, snaps, _ = run.iterate(phase, baseline, tr=tr)
    threads = {owner: b.threads for owner, b in run.blas.items()}
    try:
        for b in run.blas.values():
            b.set_threads(1)
        single, _, single_baseline = run.iterate(phase)
    finally:
        for owner, b in run.blas.items():
            b.set_threads(threads[owner])

    metrics = {}
    names = [k for k in (snaps[0] if snaps else {}) if not k.startswith("_")]
    for name in names:
        metrics[name] = _median([s[name] for s in snaps])
    traced_wall = _median([s["_wall"] for s in snaps])
    untraced_wall = _median(untraced)
    single_wall = _median(single)
    metrics.update({
        "blas.numpy_threads": threads.get("numpy", 0),
        "blas.scipy_threads": threads.get("scipy", 0),
        "blas.single_thread_wall_s": single_wall,
        "blas.thread_overhead_frac":
            (untraced_wall - single_wall) / untraced_wall if untraced_wall else 0.0,
        "blas.thread_variant_outputs":
            run.wl.diff_count(baseline, single_baseline)
            if baseline is not None and single_baseline is not None else 0,
        "embeddings.fit_lol.nesting_broken": len(run.notes.get("nesting_broken_at", [])),
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
        "trace.unaccounted_frac": _median(
            [(s["_wall"] - s["_self_sum"]) / s["_wall"] for s in snaps]),
    })
    zero = [s for s in run.wl.expected_spans if metrics.get(f"{s}.calls", 0) == 0]
    samples = {"untraced": len(untraced), "traced": len(snaps), "single_thread": len(single)}
    return metrics, zero, samples


def run_workload(name, seed, seconds, trace, params=None, reference=None,
                 workdir=None, lolkit=None):
    """Run one workload in this process; returns (result line, run info)."""
    lolkit = lolkit or import_lolkit()
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS before probing)
    blas = host.find_openblas()
    wl = workloads.WORKLOADS[name](lolkit, params)
    reference = load_reference() if reference is None else reference
    own_dir = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = Run(lolkit, wl, seed, workdir, reference, blas)
        run.set_up()
        # warm-up: untimed, its outputs are the baseline every later one must match
        _, _, baseline = run.iterate(0.0)
        zero = []
        if trace:
            metrics, zero, samples = per_layer(run, seconds, baseline)
            units = per_layer_units()
        else:
            walls, _, _ = run.iterate(seconds, baseline)
            metrics = end_to_end(run, walls)
            throughput = wl.throughput(run.state, len(walls) / sum(walls) if walls else 0.0)
            samples = {"wall_s": len(walls), "input_mb_per_s": len(walls),
                       "peak_rss_mb": 1, "setup_s": len(run.setup_times),
                       "walls": walls, "setup_times": run.setup_times}
            units = END_TO_END
    finally:
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)
    if zero:
        run.problems.append(f"expected spans recorded zero calls: {zero}")
    correct = run.failed == 0 and not zero
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": u}
                    for k, u in units.items()},
    }
    info = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "params": wl.params,
        "samples": samples,
        "fail_frac": run.failed / run.attempted if run.attempted else 0.0,
        "problems": run.problems,
        "reference": run.reference_status,
        "digests": run.digests,
        "notes": run.notes,
        "host": host.run_metadata(lolkit, blas),
    }
    if not trace:
        info["throughput"] = throughput
    return result, info


def record_reference(info, path=REFERENCE_PATH):
    """Store this run's first-iteration digests as the reference."""
    ref = load_reference(path)
    ref["seed"] = REFERENCE_SEED
    entry = ref.setdefault(info["workload"], {})
    if entry.get("params") != info["params"]:
        entry.clear()
        entry["params"] = info["params"]
    entry.update(info["digests"])
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


def print_run(result, info):
    print(f"# perfbench {info['workload']} seed={info['seed']} trace={info['trace']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    samples = info["samples"]
    for name, m in result["metrics"].items():
        n = samples.get(name, samples.get("traced", ""))
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']:<6s} n={n}")
    for p in info["problems"]:
        print(f"  problem: {p}")
    print(json.dumps({"perfbench": info}, sort_keys=True))


def run_all(args):
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 and not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        status = status or proc.returncode
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's output digests as the reference "
                         "for the current BLAS thread counts")
    args = ap.parse_args(argv)
    try:
        lolkit = import_lolkit()
    except SourceTreeMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, info = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                lolkit=lolkit)
    if args.record_reference:
        record_reference(info)
    print_run(result, info)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
