"""One workload in one single-threaded process; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--setup-only]

Set-up time runs from the start of this file, so it includes the imports.
The run then does whole rounds until ``--seconds`` have passed; each round
is checked after it ends, outside its timing. With ``--trace 1`` rounds
alternate untraced and traced (at least one of each), the per-layer
metrics come from the traced rounds and the set-up, and the difference
between the two kinds of round is the tracing overhead. The last line of
standard output is one JSON object with the results.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import numpy as np  # noqa: E402

from cmlmkit import masking  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _median(values):
    return float(np.median(np.asarray(values, dtype=np.float64)))


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked of the library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the package's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version")).strip(),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def run(args) -> dict:
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        idx = tracer.open("bench.setup")
    workload = workloads.make_workload(args.workload, args.seed, args.out)
    setup_s = time.perf_counter() - _START
    if tracer:
        tracer.close(idx)
        tracer.uninstall()
    if args.setup_only:
        return {"setup_s": setup_s}

    masking.reset_mask_clamp_count()
    rounds, failures, attempted, failed = [], [], 0, 0
    traced_s, untraced_s = [], []
    elapsed = 0.0
    i = 0
    while elapsed < args.seconds or (tracer and i < 2):
        traced = bool(tracer) and i % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.install()
            idx = tracer.open("bench.round")
        try:
            result = workload.run_round()
        except Exception:  # a round that raises counts all its operations failed
            traceback.print_exc()
            result = None
        finally:
            if traced:
                tracer.close(idx)
                tracer.uninstall()
        if result is None:
            ops = workload.operations_per_round()
            attempted += ops
            failed += ops
        else:
            attempted += result.attempted
            failures += workload.check(result)
            result.outputs = {}
            (traced_s if traced else untraced_s).append(result.seconds)
            if not traced:
                rounds.append(result)
        elapsed += time.perf_counter() - t0
        i += 1

    out = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(set(failures)),
        "rounds": len(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(args.seed),
    }
    if rounds:
        out["throughput_per_s"] = _median([r.items / r.main_seconds for r in rounds])
        out["round_s"] = _median([r.seconds for r in rounds])
        out["report"] = workload.report(rounds)
    if tracer:
        layers = tracer.layer_metrics(masking.mask_clamp_count())
        if rounds and "cmlm_loss_final" in rounds[0].values:
            loss = _median([r.values["cmlm_loss_final"] for r in rounds])
        else:
            loss = 0.0
        layers["training.cmlm_loss_final"] = (loss, "nats")
        overhead = 0.0  # stays 0 only when no traced or no untraced round finished
        if traced_s and untraced_s:
            out["trace_overhead_s"] = _median(traced_s) - _median(untraced_s)
            overhead = 100.0 * out["trace_overhead_s"] / _median(untraced_s)
        layers["trace.overhead_pct"] = (overhead, "%")
        out["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        out["largest_self_times"] = tracer.largest_self_times()
        tracer.write(os.path.join(args.out, "trace.tsv"))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
