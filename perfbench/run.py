"""Pipeline benchmark for scalenets: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload wspd-exact --seed 1 --seconds 30 --trace 0

The corpus comes from --seed alone. Set-up (corpus, scale t, input file) is
timed over at least SETUP_REPEATS repeats and SETUP_SECONDS. Then whole
pipeline passes repeat on the same corpus until --seconds have passed (at
least MIN_PASSES). After the timed passes, sampled oracles check the outputs
of the first pass, and every pass must leave the same output digest and
counts. A failed pass or check counts in `failed`; failed_frac is
failed / attempted and is printed with the metrics.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes, prints the per-layer metrics (self times, counts) and writes
every span to .perfbench-out/trace-<workload>-<seed>.json. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 5  # at least this many set-ups, and
SETUP_SECONDS = 0.5  # until this long is spent (median of many short ones)
MIN_PASSES = 3
BLAS_THREADS = 1  # one process, no extra threads

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
    "lsh_recall": "ratio",
}

# per-layer metric -> unit; "_s" metrics are self seconds of the span of
# the same name, the others are counts or ratios
PER_LAYER_UNITS = {
    **{
        name: "s"
        for name in (
            "forest.build_s", "forest.net_s", "forest.root_rel_s", "forest.cluster_tree_s",
            "forest.rel_fill_s", "forest.read_s", "forest.write_s", "forest.roots_within_7t_s",
            "forest.vcell_s", "lsh.index_build_s", "lsh.query_s", "lsh.all_near_pairs_s",
            "geometry.read_points_s", "geometry.exact_nn_build_s", "geometry.exact_nn_query_s",
            "geometry.exact_meb_s", "wspd.gen_s", "wspd.write_s", "wssd.gen_s",
            "cech.filtration_s", "dimension.estimate_s", "cli.build_forest_s", "cli.wspd_s",
            "cli.dim_estimate_s", "trace.pipeline_s", "trace.overhead_s", "trace.top_level_s",
        )
    },
    **{
        name: "count"
        for name in (
            "forest.rel_entries", "forest.cluster_trees", "forest.roots", "forest.nodes",
            "forest.depth", "forest.vcell_calls", "forest.descend_calls", "lsh.indexes",
            "lsh.tables", "lsh.concat_k", "lsh.queries", "lsh.candidates_scanned",
            "lsh.near_pairs", "geometry.exact_nn_queries", "geometry.exact_meb_calls",
            "wspd.pairs", "wssd.tuples_tier1", "wssd.tuples_tier2", "wssd.skipped",
            "wssd.capped", "wssd.fallback_all_roots", "cech.slices", "cech.simplices",
        )
    },
    "lsh.useful_ratio": "ratio",
}


def import_package():
    """Pin the BLAS pools, then import scalenets from this checkout's src/.

    The pin only holds if numpy is not loaded yet, as in a fresh process.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "scalenets" / "__init__.py").is_file():
        raise SystemExit(f"error: no scalenets sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import scalenets

    if Path(scalenets.__file__).resolve().parent != SRC / "scalenets":
        raise SystemExit(f"error: imported scalenets from {scalenets.__file__}")
    import pipeline
    import tracing

    return pipeline, tracing


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "python_threads": threading.active_count(),
        "os_threads": len(os.listdir("/proc/self/task")),
    }


class Run:
    """One workload, one seed: passes, fingerprints, checks and metrics."""

    def __init__(self, pipeline, tracing, workload: str, seed: int, workdir: Path,
                 n: int | None = None):
        self.pipeline = pipeline
        self.workload = pipeline.WORKLOADS[workload](seed, workdir, n)
        self.tracer = tracing.Tracer()
        self.attempted = 0
        self.failures: list[str] = []
        self.first: tuple | None = None  # (outputs, digest, counts) of the first pass

    def setup(self) -> list[float]:
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            start = time.perf_counter()
            self.workload.setup()
            times.append(time.perf_counter() - start)
        return times

    def one_pass(self, traced: bool) -> tuple[float, dict]:
        """Time one pipeline pass; returns (seconds, traced metrics or {})."""
        gc.collect()
        self.attempted += 1
        tracer = self.tracer
        if traced:
            tracer.counts.clear()
            tracer.install()
            root = tracer.open("pass")
        start = time.perf_counter()
        try:
            result = self.workload.run()
        except Exception as exc:  # a failed pass is counted, the run goes on
            self.failures.append(f"pass {self.attempted}: {type(exc).__name__}: {exc}")
            result = None
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.close(root)
                tracer.uninstall()
        if result is None:
            return elapsed, {}
        try:
            outputs = self.workload.collect(result)
            fingerprint = (self.pipeline.digest(outputs), self.workload.counts(outputs))
        except Exception as exc:
            self.failures.append(f"pass {self.attempted} output: {type(exc).__name__}: {exc}")
            return elapsed, {}
        if self.first is None:
            self.first = (outputs, *fingerprint)
        elif fingerprint != self.first[1:]:
            self.failures.append(f"pass {self.attempted}: output digest or counts changed")
        if not traced:
            return elapsed, {}
        layer = {f"{name}_s": s for name, s in tracer.self_times(root).items()}
        layer.update(tracer.counts)
        layer.update(fingerprint[1])
        layer["trace.top_level_s"] = tracer.top_level_seconds(root)
        return elapsed, layer

    def passes(self, seconds: float, trace: bool) -> tuple[list[float], list[float], list[dict]]:
        """Untraced pass times, traced pass times, traced per-pass metrics."""
        plain, traced, layers = [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            elapsed, _ = self.one_pass(traced=False)
            plain.append(elapsed)
            if trace:
                elapsed, layer = self.one_pass(traced=True)
                traced.append(elapsed)
                layers.append(layer)
            if len(plain) >= MIN_PASSES and time.perf_counter() >= deadline:
                return plain, traced, layers

    def check(self, rng) -> tuple[dict, float]:
        """Sampled output checks on the first pass; returns (report, lsh recall)."""
        w = self.workload
        report = {}
        checks = w.checks(self.first[0], rng) if self.first is not None else {}
        for name, check in checks.items():
            self.attempted += 1
            try:
                bad = check()
            except Exception as exc:  # a check that cannot run has failed
                bad = [f"{type(exc).__name__}: {exc}"]
            report[name] = bad[:5]
            if bad:
                self.failures.append(f"check {name}: {len(bad)} violations")
        try:
            recall = self.pipeline.lsh_recall(w.cloud.points, w.t, w.seed, rng)
        except Exception as exc:
            self.failures.append(f"lsh recall: {type(exc).__name__}: {exc}")
            recall = 0.0
        return report, recall


def per_layer_metrics(layers: list[dict], plain: list[float], traced: list[float]) -> dict:
    """Median over traced passes of every per-layer metric."""
    values = {}
    for metric, unit in PER_LAYER_UNITS.items():
        samples = [layer.get(metric, 0) for layer in layers]
        median = statistics.median_low if unit == "count" else statistics.median
        values[metric] = median(samples) if samples else 0
    ratios = [
        layer.get("lsh.neighbours_reported", 0) / layer["lsh.candidates_scanned"]
        for layer in layers
        if layer.get("lsh.candidates_scanned")
    ]
    values["lsh.useful_ratio"] = statistics.median(ratios) if ratios else 0.0
    values["trace.pipeline_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return values


def bench(workload: str, seed: int, seconds: float, trace: bool, n: int | None = None) -> dict:
    """Run one workload and return the result object (plus report fields)."""
    pipeline, tracing = import_package()
    import numpy as np

    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(pipeline, tracing, workload, seed, workdir, n)
        setup_times = run.setup()
        plain, traced, layers = run.passes(seconds, trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks, recall = run.check(np.random.default_rng(seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pipeline_s = statistics.median(plain)
    report = {
        "workload": workload,
        "seed": seed,
        "n": run.workload.n,
        "t": run.workload.t,
        "pass_seconds": plain,
        "traced_pass_seconds": traced,
        "digest": run.first[1] if run.first else None,
        "counts": run.first[2] if run.first else None,
        "checks": checks,
        "failures": run.failures,
        "failed_frac": len(run.failures) / run.attempted,
        "environment": environment(),
    }
    if trace:
        values = per_layer_metrics(layers, plain, traced)
        units = PER_LAYER_UNITS
        report["missing"] = run.tracer.missing_layers()
        report["per_pass"] = layers
        OUT.mkdir(exist_ok=True)
        dump = {**report, **run.tracer.dump()}
        (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(dump))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "pipeline_s": pipeline_s,
            "points_per_s": run.workload.n / pipeline_s,
            "peak_rss_mb": peak_rss_mb,
            "lsh_recall": recall,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return {"result": result, "report": report}


def main(argv=None) -> int:
    pipeline, _ = import_package()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    report, result = out["report"], out["result"]
    for key in ("workload", "seed", "n", "t", "pass_seconds", "traced_pass_seconds", "digest",
                "counts", "checks", "failures", "environment", "missing"):
        if key in report:
            print(f"{key}: {json.dumps(report[key], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {report['failed_frac']:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
