"""poselift benchmark: one workload per process, one JSON result line.

    python3 bench/run.py --workload train_weak --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same loop with every traced function rebound and prints the per-layer
metrics plus the tracing overhead.  Every workload prints the same
metric names.  ``--smoke``
shrinks every size so a run takes seconds (see test_bench.py).

The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds digests, checks and the environment, which are also written to
``bench/results/``.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("train_weak", "synth_io", "infer_eval")
# One OpenBLAS thread, at most nproc.  On a 2-vCPU test VM a second thread
# made training about 20% faster, but repeated train calls in one process
# then spread ±5% instead of ±0.5%.
BLAS_THREADS = 1


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    return p.parse_args(argv)


def loop(workload, out, seconds: float) -> list[dict]:
    """Run iterations until ``seconds`` have passed and the workload's
    minimum number of iterations is done."""
    records = []
    start = perf_counter()
    while len(records) < workload.min_iterations or perf_counter() - start < seconds:
        records.append(workload.iteration(len(records), out))
    return records


def measure(args, out, work: Path) -> tuple[dict, dict]:
    """Set up, run and return (metrics, extra info) for one workload."""
    from tracing import SpanStats, Tracer, install, span_cost_s
    from workloads import FULL, SMOKE, WORKLOADS, layer_metrics

    sizes = SMOKE if args.smoke else FULL
    workload = WORKLOADS[args.workload](sizes, args.seed, work)
    setup_times = []
    for _ in range(sizes.setup_repeats):
        start = perf_counter()
        workload.setup(out)
        setup_times.append(perf_counter() - start)
    info = {"setup_times_s": setup_times}

    tracer = Tracer() if args.trace else None
    restore = install(tracer) if tracer else None
    start = perf_counter()
    try:
        workload.begin(out)
        records = loop(workload, out, args.seconds)
    finally:
        wall_s = perf_counter() - start
        if restore:
            restore()
    items_per_s, figures = workload.finish(records, out)
    info.update(figures=figures, iterations=records)
    if not tracer:
        return {
            "setup_s": (median(setup_times), "s"),
            "items_per_s": (items_per_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }, info

    stats = SpanStats(tracer.spans, wall_s)
    metrics = layer_metrics(stats, records)
    overhead_s = span_cost_s() * len(tracer.spans)
    metrics["trace.overhead_pct"] = (100.0 * overhead_s / (wall_s - overhead_s), "%")
    metrics["trace.untraced_share"] = (stats.untraced_s / wall_s, "share")
    out.check(abs(stats.self_total + stats.untraced_s - wall_s) <= 1e-6 * wall_s,
              "span self times plus the untraced remainder add up to the traced wall time")
    info.update(traced_wall_s=wall_s, spans=len(tracer.spans),
                spans_file=str(_spans_path(args).relative_to(ROOT)))
    _spans_path(args).write_text(json.dumps(tracer.to_jsonable()))
    return metrics, info


def _spans_path(args) -> Path:
    return BENCH_DIR / "results" / f"{args.workload}-seed{args.seed}-spans.json"


def environment(args, nproc: int) -> dict:
    import numpy as np

    env = {
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    try:
        env["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        env["openblas"] = "unknown"
    env["blas_threads"] = _blas_threads() or os.environ["OPENBLAS_NUM_THREADS"]
    return env


def _git_revision() -> str:
    # Only this checkout's own .git: never search parent directories.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _src_digest() -> str:
    from workloads import files_digest

    return files_digest(ROOT / "src" / "poselift")


def _blas_threads():
    """Threads OpenBLAS actually runs with, from numpy's bundled library."""
    import ctypes

    import numpy as np

    for lib_path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"):
        try:
            fn = ctypes.CDLL(str(lib_path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            return None
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "poselift" / "__init__.py").is_file():
        print(f"poselift sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import Outcome

    out = Outcome()
    work = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    (BENCH_DIR / "results").mkdir(exist_ok=True)
    status = 0
    metrics: dict = {}
    info: dict = {}
    try:
        metrics, info = measure(args, out, work)
    except Exception:
        traceback.print_exc()
        out.check(False, "the workload raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1])
        status = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, _) in metrics.items():
        out.check(math.isfinite(value), f"metric {name} is finite")
    if not args.trace:
        metrics["ok_op_share"] = (1.0 - out.failed / max(out.attempted, 1), "share")

    result = {
        "correct": out.failed == 0 and status == 0,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    details = {"environment": environment(args, nproc), "digests": out.digests,
               "problems": out.problems, **info}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (BENCH_DIR / "results" / name).write_text(json.dumps({"info": details, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": details}))
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
