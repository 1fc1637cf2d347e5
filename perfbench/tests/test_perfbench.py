"""Tests of the benchmark's own machinery, and a probe of a known defect.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from np_atlas import bott, cli, syzygy
from tracer import CACHED_FUNCTIONS, LAYER_FUNCTIONS, Tracer
from worker import check, run_queries

SEEDS = (1, 2, 3)
# Enough queries of each workload to reach every layer it uses, yet quick.
PREFIX = {"threshold-sweep": 60, "cli-cohomology": 40, "g2-sweep": 4, "bbw-large": 3,
          "schur-cold": 80}


def test_self_time_of_nested_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    boom = tracer.wrap("boom", lambda: 1 / 0)
    outer()  # clock: outer 0, inner 1-2, inner 3-4, outer ends 5
    with pytest.raises(ZeroDivisionError):
        boom()  # clock: 6-7
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "self_s": 5 - 2, "errors": 0}
    assert summary["inner"] == {"calls": 2, "self_s": 2, "errors": 0}
    assert summary["boom"] == {"calls": 1, "self_s": 1, "errors": 1}
    assert list(tracer.parent) == [-1, 0, 0, -1]


def _pass(latencies, setup_s=0.1):
    return {"latencies": latencies, "setup_s": setup_s, "attempted": len(latencies),
            "failed": latencies.count(None), "rss_kb": 1024, "output_bytes": 10}


def test_end_to_end_times_each_query_by_its_best_pass():
    # three queries; the second pass is slowed throughout, the third only on
    # query 0, and query 2 raises once
    passes = [_pass([1.0, 2.0, 4.0]), _pass([1.5, 3.0, 6.0], 0.3),
              _pass([0.5, 2.0, None], 0.2)]
    metrics, _ = run.end_to_end(passes)
    assert metrics["queries_per_s"] == (3 / (0.5 + 2.0 + 4.0), "1/s")
    assert metrics["query_p50_ms"] == (2000.0, "ms")
    assert metrics["setup_s"] == (0.2, "s")
    assert metrics["failed_ratio"] == (1 / 9, "ratio")
    # fewer than TAIL_MIN_QUERIES queries: the tail pools all eight samples,
    # too few for any percentile but the lowest
    assert metrics["query_tail_ms"] == (2000.0, "ms")


def test_end_to_end_tail_of_many_queries_uses_best_latencies():
    n = run.TAIL_MIN_QUERIES
    fast = [float(i) for i in range(n)]
    metrics, notes = run.end_to_end([_pass(fast), _pass([x + 1000 for x in fast])])
    # p90 of 100 best latencies leaves 10 above it
    assert metrics["query_tail_ms"] == (89.0 * 1e3, "ms")
    assert notes["query_tail_ms"].startswith("p90 of 100 samples")


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_traced_outputs_match_untraced_and_references(name):
    n = PREFIX[name]
    queries = workloads.BUILDERS[name](1)[:n]
    _, plain, plain_errors, _, _ = run_queries(queries)
    original = syzygy.np_threshold
    tracer = Tracer()
    tracer.install()
    try:
        # fresh queries: a threshold-sweep entry keeps state between its calls
        _, traced, traced_errors, _, _ = run_queries(workloads.BUILDERS[name](1)[:n], tracer)
    finally:
        tracer.uninstall()
    assert syzygy.np_threshold is original
    assert not plain_errors and not traced_errors
    assert traced == plain
    # a key cut by the prefix has only part of its outputs, so leave it out
    whole = {k: d for k, d in plain.items() if k != queries[-1].key}
    assert not check(whole, {}, workloads.load_refs(name))
    summary = tracer.summary()
    assert set(LAYER_FUNCTIONS) <= set(summary)
    assert set(tracer.hit_ratios()) == set(CACHED_FUNCTIONS)
    assert summary["query"]["calls"] == n


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_references_cover_every_seeded_query(name):
    refs = workloads.load_refs(name)
    for seed in SEEDS:
        assert {q.key for q in workloads.BUILDERS[name](seed)} <= refs.keys()


def test_check_reports_wrong_and_missing_outputs():
    bad = check({"a": "00000000", "b": "11111111", "c": "22222222"},
                {"d": "ValueError: x"}, {"a": "00000000", "b": "99999999"})
    assert sorted(bad) == ["b", "c", "d"]


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(workloads.REFS_DIR.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "g2-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_cli_cohomology_prints_bbw_large_dimension():
    """Expected failure: the n=200 dimension has about 10k digits, more than
    Python's int->str limit of 4300, so the CLI exits 2 instead of printing."""
    argv = workloads.cohomology_argv(workloads.bbw_weight(200, 0))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == cli.EXIT_USAGE and "Exceeds the limit (4300 digits)" in err.getvalue():
        pytest.xfail("known defect: np-atlas cohomology cannot print a dimension "
                     "of more than 4300 digits")
    assert code == cli.EXIT_OK, err.getvalue()
    assert '"degree"' in out.getvalue()
