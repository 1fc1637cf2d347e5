"""Write the reference digests of every query a seed can draw.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Run it only on a commit whose outputs are trusted, and only when a
workload's universe changes: the references are what later commits are
checked against.  Writes perfbench/refs/<workload>.json.gz, mapping query key
to the digest of its canonical output.
"""

import gzip
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from worker import run_queries  # noqa: E402


def main(names: list[str]) -> int:
    workloads.REFS_DIR.mkdir(exist_ok=True)
    for name in names or sorted(workloads.BUILDERS):
        queries = workloads.universe(name)
        _, digests, errors, _, busy = run_queries(queries)
        if errors:
            print(f"{name}: {len(errors)} queries raised, e.g. {next(iter(errors.items()))}",
                  file=sys.stderr)
            return 1
        text = json.dumps(dict(sorted(digests.items())), separators=(",", ":"))
        workloads.ref_path(name).write_bytes(gzip.compress(text.encode(), mtime=0))
        print(f"{name}: {len(digests)} references in {busy:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
