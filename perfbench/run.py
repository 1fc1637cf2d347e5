"""np-atlas benchmark: end-to-end query metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the np-atlas sources in ``src/`` next to
this directory.  A workload runs as repeated passes, one at a time, each in a
fresh interpreter (perfbench/worker.py), so every cache starts cold as it
does for a CLI user.  Passes repeat while one more still ends within S
seconds, and at least MIN_PASSES run.  The environment is pinned:
PYTHONHASHSEED=0, no other PYTHON* variable, and NP_ATLAS_THREADS unset so the
default single-threaded path is measured.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes of the same queries and prints per-layer calls,
self time and errors, cache ratios, and the tracing overhead; traced outputs
must match untraced ones.  Spans of the first traced pass are written to
.bench_build/spans/.  Human-readable lines come first; the last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from math import ceil
from pathlib import Path
from statistics import median, median_low

from tracer import CACHED_FUNCTIONS, LAYER_FUNCTIONS  # stdlib only: loads no np-atlas code

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BENCHMARK.json lists the first three.  g2-sweep and bbw-large are run by hand:
# their queries take 10 ms to 1 s, and a query that long runs at the host's
# average speed over its span, which on a shared 2-CPU VM drifted by up to 1.6x
# over minutes; their timings spread past any bound from run to run.  cli-cohomology measures the
# cli, bott and partitions layers in short queries instead.
WORKLOADS = ("threshold-sweep", "cli-cohomology", "schur-cold", "g2-sweep", "bbw-large")
MIN_PASSES = 5
MIN_TRACED_PAIRS = 2
PASS_TIMEOUT_S = 150
# query_tail_ms reports the highest of these percentiles that leaves at least
# TAIL_BEYOND samples above it (see end_to_end).
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10
TAIL_MIN_QUERIES = 100


class BenchError(RuntimeError):
    pass


def pinned_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "NP_ATLAS_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def warm_up(env: dict[str, str]) -> None:
    """Compile bytecode once, so no pass pays for it in its set-up time."""
    proc = subprocess.run([sys.executable, "-c", "import np_atlas.cli, workloads, tracer"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"cannot import np-atlas from {ROOT / 'src'}:\n{proc.stderr}")


def run_pass(env, workload: str, seed: int, traced: bool, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    doc["setup_s"] = doc["ready"] - spawned
    return doc


def run_passes(env, workload: str, seed: int, seconds: float, trace: bool):
    """Untraced passes, each followed by a traced one when tracing.

    A new pass (or pair) starts only if one as long as the longest so far
    still ends within ``seconds``, once the minimum number has run.
    """
    plain, traced = [], []
    spans = ROOT / ".bench_build" / "spans" / f"{workload}-seed{seed}.tsv.gz"
    start = time.monotonic()
    longest = 0.0
    while True:
        began = time.monotonic()
        plain.append(run_pass(env, workload, seed, False))
        if trace:
            traced.append(run_pass(env, workload, seed, True, None if traced else spans))
        now = time.monotonic()
        longest = max(longest, now - began)
        enough = len(traced) >= MIN_TRACED_PAIRS if trace else len(plain) >= MIN_PASSES
        if enough and now - start + longest > seconds:
            return plain, traced


def tail_percentile(samples: int) -> float:
    return next((q for q in TAIL_PERCENTILES if samples * (100 - q) / 100 >= TAIL_BEYOND),
                TAIL_PERCENTILES[-1])


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, ceil(q / 100 * len(sorted_values)) - 1)]


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Metrics as {name: (value, unit)}, plus notes printed beside them.

    Every pass runs the same queries in the same order, so each query has one
    latency per pass.  The timings use each query's best latency over the
    passes.  On a shared host, work on the sibling hardware thread slows every
    query by up to 1.4x, and the share of time it runs drifts over minutes;
    but even in a slow minute it pauses often enough that a query of a few
    milliseconds, timed in many passes, runs at full speed at least once.  So
    the best latency is the query's own cost, where a median over passes
    follows the share of slow time in the run.
    """
    per_query = [[x for x in xs if x is not None]
                 for xs in zip(*(p["latencies"] for p in passes))]
    best = sorted(min(xs) for xs in per_query if xs)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # The tail needs TAIL_BEYOND samples above it.  A pass of at least
    # TAIL_MIN_QUERIES queries gives them from the best latencies alone; a
    # pass of fewer queries (g2-sweep, bbw-large) pools every timed sample.
    if len(best) >= TAIL_MIN_QUERIES:
        q, tail_of, tail_note = tail_percentile(len(best)), best, "the per-query best latencies"
    else:
        q = tail_percentile(passes[0]["attempted"] * MIN_PASSES)
        tail_of = sorted(x for xs in per_query for x in xs)
        tail_note = "every timed sample"
    metrics = {
        "setup_s": (median(p["setup_s"] for p in passes), "s"),
        "queries_per_s": (len(best) / sum(best) if best else 0.0, "1/s"),
        "query_p50_ms": (median(best) * 1e3 if best else 0.0, "ms"),
        "query_tail_ms": (nearest_rank(tail_of, q) * 1e3 if tail_of else 0.0, "ms"),
        "failed_ratio": (failed / attempted, "ratio"),
        "correct_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (median(p["rss_kb"] for p in passes) / 1024, "MB"),
        "output_bytes": (median_low(p["output_bytes"] for p in passes), "bytes"),
    }
    notes = {
        "setup_s": f"median of {len(passes)} fresh interpreters",
        "queries_per_s": f"{len(best)} queries over the sum of their best latencies "
                         f"in {len(passes)} passes",
        "query_p50_ms": f"median of {len(best)} per-query best latencies over "
                        f"{len(passes)} passes",
        "query_tail_ms": f"p{q:g} of {len(tail_of)} samples: {tail_note}",
        "failed_ratio": "printed only: it is 0 when all is well, so correct_ratio is reported",
    }
    return metrics, notes


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    metrics = {}
    for fn in LAYER_FUNCTIONS:
        rows = [p["layers"][fn] for p in traced]
        metrics[f"{fn}.calls"] = (median(r["calls"] for r in rows), "count")
        metrics[f"{fn}.self_s"] = (median(r["self_s"] for r in rows), "s")
        metrics[f"{fn}.errors"] = (median(r["errors"] for r in rows), "count")
    bbw = [p["layers"]["bott.bbw_cohomology"] for p in traced]
    metrics["bott.bbw_cohomology.distinct_ratio"] = (
        median(r["distinct"] / r["calls"] if r["calls"] else 0.0 for r in bbw), "ratio")
    for cache in CACHED_FUNCTIONS:
        metrics[f"{cache}.hit_ratio"] = (median(p["hit_ratio"][cache] for p in traced), "ratio")
    # each traced pass runs right after its untraced twin, so the pair shares
    # the machine's state; the median pair difference is the tracing cost
    overhead = median(t["busy_s"] - u["busy_s"] for u, t in zip(plain, traced))
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = {"trace.overhead_s": f"median over {len(traced)} pairs of traced minus "
                                 f"untraced pass time"}
    return metrics, notes


# Printed for humans only; the JSON carries exactly the contract's metrics.
HUMAN_ONLY = {"failed_ratio"}


def measure(env, workload: str, seed: int, seconds: float, trace: bool):
    plain, traced = run_passes(env, workload, seed, seconds, trace)
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    agree = len({p["fingerprint"] for p in passes}) == 1
    metrics, notes = per_layer(plain, traced) if trace else end_to_end(plain)
    print(f"== {workload}: {len(plain)} untraced + {len(traced)} traced passes, "
          f"{attempted} queries, {failed} failed"
          + ("" if agree else ", OUTPUTS DIFFER BETWEEN PASSES"))
    for p in passes:
        for key, why in p["failures"]:
            print(f"   failed {key}: {why}")
    for name, (value, unit) in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"   {name:<45} {value:>14.6g} {unit}{note}")
    reported = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()
                if n not in HUMAN_ONLY}
    return failed == 0 and agree, attempted, failed, reported


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "np_atlas" / "__init__.py").is_file():
        print(f"np-atlas sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = pinned_env()
    print(f"# np-atlas benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# {platform.python_implementation()} {platform.python_version()} on "
          f"{platform.platform()}; {os.cpu_count()} CPUs; machine {platform.machine()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        warm_up(env)
        for name in names:
            ok, a, f, m = measure(env, name, args.seed, args.seconds, bool(args.trace))
            correct, attempted, failed = correct and ok, attempted + a, failed + f
            if len(names) == 1:
                metrics = m
            else:
                metrics.update({f"{name}.{k}": v for k, v in m.items()})
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
