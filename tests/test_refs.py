"""Every query of the benchmark workloads still gives its recorded output.

perfbench/tests checks the references on a prefix of one seed's queries.
This runs each workload's whole universe against
perfbench/refs/<workload>.json.gz:

- schur-cold: every tensor product, filtration quotient and Schur complex
  term, and the restriction checks at all three gaps;
- threshold-sweep: every threshold with its certificates at the two gaps
  either side of it;
- cli-cohomology: every CLI cohomology call;
- g2-sweep: every CLI certificate on the two G2 varieties;
- bbw-large: every Bott-Borel-Weil result at n = 100..300.

perfbench/workloads.py is loaded from its file and only read.
"""

import functools
import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@functools.cache
def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_universe(name):
    """The workload's queries, and the digests of their outputs by key."""
    workloads = _load_workloads()
    queries = workloads.universe(name)
    digests = workloads.KeyDigests()
    for query in queries:
        digests.add(query.key, query.canon(query.call()))
    return queries, digests.result()


def test_schur_cold_universe_matches_references():
    queries, digests = _run_universe("schur-cold")
    assert len(queries) == 393
    assert sum(q.key.startswith("rsc|") for q in queries) == 30
    assert sum(q.key.startswith("sct|") for q in queries) == 96
    assert digests == _load_workloads().load_refs("schur-cold")


def test_threshold_sweep_universe_matches_references():
    queries, digests = _run_universe("threshold-sweep")
    # C and BD, 780 rank tuples, p = 1..10; a threshold and two certificates each
    assert len(digests) == 15_600
    assert len(queries) == 46_800
    assert digests == _load_workloads().load_refs("threshold-sweep")


def test_cli_cohomology_universe_matches_references():
    queries, digests = _run_universe("cli-cohomology")
    # 16 sizes n = 4..64, 80 weights each
    assert len(queries) == len(digests) == 1_280
    assert digests == _load_workloads().load_refs("cli-cohomology")


def test_g2_sweep_universe_matches_references():
    queries, digests = _run_universe("g2-sweep")
    # g2x and g2p, p = 1..10, gaps p .. p + 3
    assert len(queries) == len(digests) == 80
    assert digests == _load_workloads().load_refs("g2-sweep")


def test_bbw_large_universe_matches_references():
    queries, digests = _run_universe("bbw-large")
    # 11 sizes n = 100..300, 16 weights each
    assert len(queries) == len(digests) == 176
    assert digests == _load_workloads().load_refs("bbw-large")
