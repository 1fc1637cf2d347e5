import pytest

from np_atlas.verify import (
    run_suite,
    suite_bound_dominance,
    suite_serre_duality,
    suite_threshold_oracle,
)


def test_threshold_oracle():
    summary = suite_threshold_oracle()
    assert summary["pass"], summary["failures"]
    # C and BD, 340 rank tuples of length <= 4 with parts <= 4, p = 1..10
    assert summary["checked"] == 2 * 340 * 10


def test_seeded_suites_reject_zero_cases():
    for suite in (suite_serre_duality, suite_bound_dominance):
        with pytest.raises(ValueError, match="--cases must be at least 1"):
            suite(cases=0)


def test_run_suite_unknown_name():
    with pytest.raises(ValueError, match="unknown verification suite 'no-such-suite'"):
        run_suite("no-such-suite")
