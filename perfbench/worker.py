"""One benchmark pass in a fresh interpreter, so every cache starts cold.

run.py starts it as ``python3 perfbench/worker.py --workload W --seed N
[--trace] [--spans PATH]``.  It imports np-atlas, builds the seeded queries,
records the moment it is ready (``time.monotonic``, which the parent compares
with the moment it spawned the process), runs the queries once, checks every
output against the references and prints one JSON line.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from tracer import Tracer


def run_queries(queries, tracer=None):
    """Run each query once; time only ``call``, check outside the latency.

    Returns (latencies, digests by key, errors by key, output bytes, busy
    seconds), where busy seconds is the loop's wall time less the time spent
    rendering and digesting outputs.  Latencies are in query order, None for
    a query that raised.
    """
    call = (lambda q: q.call())
    if tracer is not None:
        call = tracer.wrap("query", call)
    clock = time.perf_counter
    latencies, digests, errors = [], workloads.KeyDigests(), {}
    output_bytes = 0
    checking = 0.0
    loop_start = clock()
    for q in queries:
        t0 = clock()
        try:
            result = call(q)
        except Exception as exc:  # a failed query is counted, not fatal
            errors.setdefault(q.key, f"{type(exc).__name__}: {exc}"[:200])
            latencies.append(None)
            continue
        t1 = clock()
        latencies.append(t1 - t0)
        text = q.canon(result)
        output_bytes += len(text.encode())
        digests.add(q.key, text)
        checking += clock() - t1
    busy = clock() - loop_start - checking
    return latencies, digests.result(), errors, output_bytes, busy


def check(digests, errors, refs):
    """Keys whose queries raised or whose outputs differ from the reference."""
    bad = dict(errors)
    for key, d in digests.items():
        if key not in bad and refs.get(key) != d:
            bad[key] = f"output digest {d} != reference {refs.get(key)}"
    return bad


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    queries = workloads.BUILDERS[args.workload](args.seed)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    latencies, digests, errors, output_bytes, busy = run_queries(queries, tracer)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    bad = check(digests, errors, workloads.load_refs(args.workload))
    per_key = Counter(q.key for q in queries)
    fingerprint = hashlib.sha256(
        json.dumps(sorted(digests.items())).encode()).hexdigest()
    doc = {
        "ready": ready,
        "attempted": len(queries),
        "failed": sum(per_key[key] for key in bad),
        "failures": sorted(bad.items())[:5],
        "latencies": latencies,
        "busy_s": busy,
        "output_bytes": output_bytes,
        "rss_kb": rss_kb,
        "fingerprint": fingerprint,
    }
    if tracer is not None:
        doc["layers"] = tracer.summary()
        doc["hit_ratio"] = tracer.hit_ratios()
        if args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
