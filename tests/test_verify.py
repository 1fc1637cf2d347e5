import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from np_atlas import cli, verify
from np_atlas.bott import BlockedWeight, InversionBoundReport, bbw_cohomology, flag_dimension
from np_atlas.geometry import FlagShape, quotient_ranks
from np_atlas.syzygy import np_threshold
from np_atlas.verify import (
    run_suite,
    serre_dual,
    suite_bound_dominance,
    suite_serre_duality,
    suite_threshold_oracle,
)


def test_threshold_oracle_checks_every_row(monkeypatch):
    thr = np_threshold("C", (2, 1), 3)
    assert thr.per_s == ((1, (1, 0), 3), (2, (1, 1), Fraction(3, 2)), (3, (2, 1), Fraction(2, 3)))
    min_sq = {1: 1, 2: 2, 3: 5}
    assert verify._rows_hold("C", (2, 1), 3, thr.per_s, min_sq)
    first, second, third = thr.per_s
    bad = [
        (first, third),  # row 2 missing
        (second, first, third),  # out of order
        (first, (2, (2, 0), Fraction(3, 2)), third),  # not the least square sum
        (first, second, (3, (1, 2), Fraction(2, 3))),  # past a rank cap
        (first, second, (3, (2, 1, 0), Fraction(2, 3))),  # a config of the wrong length
        (first, (2, (1, 1), Fraction(5, 2)), third),  # a value off the expression
    ]
    for per_s in bad:
        assert not verify._rows_hold("C", (2, 1), 3, per_s, min_sq), per_s

    # the suite reads every row: one wrong non-maximal row fails it
    def wrong_last_row(family, ranks, p):
        thr = np_threshold(family, ranks, p)
        s, config, value = thr.per_s[-1]
        return thr._replace(per_s=thr.per_s[:-1] + ((s, config, value + 1),))

    monkeypatch.setattr(verify, "np_threshold", wrong_last_row)
    summary = suite_threshold_oracle()
    assert summary["pass"] is False and summary["checked"] == 2 * 340 * 10


def test_seeded_suites_reject_zero_cases():
    for suite in (suite_serre_duality, suite_bound_dominance):
        with pytest.raises(ValueError, match="cases must be >= 1, got 0"):
            suite(cases=0)
        for kwargs in ({"cases": 2.5}, {"cases": True}, {"seed": 1.5}, {"seed": False}):
            with pytest.raises(ValueError, match="must be an int"):
                suite(**kwargs)


def test_bound_dominance_reports_violations(monkeypatch, capsys):
    real = verify.inversion_bound

    def exceeds_bound(*args):
        report = real(*args)
        if report.exact_inversions is None:
            return report
        return InversionBoundReport(report.bound + 1, report.bound, report.witness_config)

    monkeypatch.setattr(verify, "inversion_bound", exceeds_bound)
    summary = suite_bound_dominance(cases=5, seed=7)
    assert summary["pass"] is False
    assert len(summary["violations"]) == 5
    assert cli.main(["verify", "bound-dominance", "--cases", "5"]) == cli.EXIT_NOT_CERTIFIED
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False and len(doc["violations"]) == 5


def test_run_suite_unknown_name():
    with pytest.raises(ValueError, match="unknown verification suite 'no-such-suite'"):
        run_suite("no-such-suite")


@pytest.mark.parametrize("name", [["plethysm-dims"], {"lr-oracle": None}])
def test_run_suite_refuses_a_name_that_is_not_a_string(name):
    with pytest.raises(ValueError, match=re.escape(f"unknown verification suite {name!r}")):
        run_suite(name)


@st.composite
def shape_and_weight(draw):
    """A flag shape with n <= 7 and k <= 3, and a blocked weight with entries in -4..4."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, min(3, n - 1)))
    dims = draw(st.lists(st.integers(1, n - 1), min_size=k, max_size=k, unique=True))
    shape = FlagShape(n, tuple(sorted(dims, reverse=True)))
    blocks = tuple(
        tuple(sorted(draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r)), reverse=True))
        for r in quotient_ranks(shape)
    )
    return shape, BlockedWeight(blocks)


@given(shape_and_weight())
def test_serre_duality(case):
    shape, w = case
    res, res_dual = bbw_cohomology(w), bbw_cohomology(serre_dual(w, shape))
    assert res.vanishes == res_dual.vanishes
    if not res.vanishes:
        assert res.degree + res_dual.degree == flag_dimension(quotient_ranks(shape))
        assert res.dimension == res_dual.dimension
