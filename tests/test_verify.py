import pytest
from hypothesis import given, strategies as st

from np_atlas.bott import BlockedWeight, bbw_cohomology, flag_dimension
from np_atlas.geometry import FlagShape, quotient_ranks
from np_atlas.verify import (
    run_suite,
    serre_dual,
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
