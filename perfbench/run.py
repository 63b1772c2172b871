"""The cmlmkit benchmark.

    python3 perfbench/run.py [--workload train-short|train-long|embed-eval|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in its own child
process (``worker.py``) with BLAS pinned to one thread. The report names
every metric with its unit, the operations attempted and failed, and any
output that failed its check; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones of a traced run. Run directories, traces
and ``run.json`` (environment plus results) go to ``perfbench/.runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUNS = os.path.join(HERE, ".runs")

WORKLOADS = ("train-short", "train-long", "embed-eval")
SETUP_SAMPLES = 5       # set-ups per run; setup_s is their median
TIME_LIMIT_S = 170      # for one workload, set-ups included

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB",
                    "throughput_per_s": "1/s", "round_s": "s"}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the workload finished")
    try:
        done = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                              env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past the time limit") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with code {done.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    out_dir = os.path.join(RUNS, name)
    shutil.rmtree(out_dir, ignore_errors=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--out", out_dir]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_child(common + ["--setup-only"], deadline)["setup_s"])
    res = _child(common + ["--seconds", str(seconds), "--trace", str(trace)],
                 deadline)
    if not res["rounds"]:
        raise BenchError(f"no round of {name} finished; see the worker's errors")
    setups.append(res["setup_s"])
    res["setup_samples"] = setups
    res["setup_s"] = statistics.median(setups)
    res["correct"] = not res["failures"]
    if trace:
        res["metrics"] = res["per_layer"]
    else:
        res["metrics"] = {k: {"value": res[k], "unit": u}
                          for k, u in END_TO_END_UNITS.items()}
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "trace": trace, **res}, fh, indent=1, sort_keys=True)
    return res


def _print_report(name: str, seed: int, trace: int, res: dict) -> None:
    print(f"== {name}  seed {seed}  trace {trace}: {res['rounds']} untraced "
          f"rounds, {res['attempted']} operations attempted, {res['failed']} "
          f"failed, outputs {'correct' if res['correct'] else 'WRONG'}")
    for failure in res["failures"]:
        print(f"   check failed: {failure}")
    if trace:
        for key, m in res["per_layer"].items():
            print(f"   {key:36s} {m['value']:14.6g} {m['unit']}")
        print("   largest self times (share of all traced self time):")
        for span, share in res["largest_self_times"]:
            print(f"     {span:34s} {100 * share:6.2f} %")
        if "trace_overhead_s" in res:
            print(f"   tracing overhead per round: {res['trace_overhead_s']:.4f} s")
    else:
        print(f"   {'setup_s':36s} {res['setup_s']:14.6g} s  "
              f"(median of {len(res['setup_samples'])} set-ups)")
        print(f"   {'peak_rss_mb':36s} {res['peak_rss_mb']:14.6g} MB")
        for key, value, unit in res.get("report", []):
            print(f"   {key:36s} {value:14.6g} {unit}")
        print(f"   {'throughput_per_s':36s} {res['throughput_per_s']:14.6g} 1/s")
        print(f"   {'round_s':36s} {res['round_s']:14.6g} s")
    print("env: " + json.dumps(res["env"], sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="The cmlmkit benchmark.")
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cmlmkit", "__init__.py")):
        print(f"no cmlmkit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            _print_report(name, args.seed, args.trace, results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items()
                   for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
