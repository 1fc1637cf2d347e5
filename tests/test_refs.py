"""Every schur-cold query of the benchmark still gives its recorded output.

perfbench/tests checks the references on a prefix of one seed's queries.
This runs the workload's whole universe against
perfbench/refs/schur-cold.json.gz: every tensor product, filtration quotient
and Schur complex term, and the restriction checks at all three gaps.
perfbench/workloads.py is loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_schur_cold_universe_matches_references():
    workloads = _load_workloads()
    queries = workloads.universe("schur-cold")
    digests = workloads.KeyDigests()
    for query in queries:
        digests.add(query.key, query.canon(query.call()))
    assert len(queries) == 393
    assert sum(q.key.startswith("rsc|") for q in queries) == 30
    assert sum(q.key.startswith("sct|") for q in queries) == 96
    assert digests.result() == workloads.load_refs("schur-cold")
