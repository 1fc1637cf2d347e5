import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, strategies as st

from np_atlas.bott import (
    BlockedWeight,
    CohomologyResult,
    _degree,
    bbw_cohomology,
    flag_dimension,
    inversion_bound,
)
from np_atlas.partitions import normalize, pad, weyl_dimension


def test_blocked_weight_validation():
    with pytest.raises(ValueError):
        BlockedWeight(((1, 2),))
    with pytest.raises(ValueError):
        BlockedWeight(((1,), ()))
    w = BlockedWeight(((2, 1), (0,)))
    assert w.ranks == (2, 1)
    assert w.n == 3
    assert w.concat() == (2, 1, 0)


def test_blocked_weight_rejects_non_int_entries():
    for blocks in [((2.9,), (0.5,)), ((True,), (0,))]:
        with pytest.raises(ValueError, match="weight entry must be an int"):
            BlockedWeight(blocks)


def test_degree_examples():
    # one entry per block: the degree is the inversion count of the sequence
    assert _degree([1, -1], (1, 1)) == 0
    assert _degree([-1, 1], (1, 1)) == 1
    assert _degree([3, 2, 1], (1, 1, 1)) == 0
    assert _degree([-1, 0, 2], (1, 1, 1)) == 3
    # blocks strictly decrease, so only pairs across blocks count
    assert _degree([0, -1, 2, 1], (2, 2)) == 4
    assert _degree([0, -3, -1], (2, 1)) == 1
    assert _degree([0, -1, 0], (2, 1)) is None
    assert _degree([], ()) == 0


def test_zero_block_weight():
    assert bbw_cohomology(BlockedWeight(())) == CohomologyResult(False, 0, (), 1)


_BLOCK = st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(
    lambda b: tuple(sorted(b, reverse=True)))


@given(st.lists(_BLOCK, min_size=1, max_size=4).map(lambda bs: BlockedWeight(tuple(bs))))
@example(BlockedWeight(((0,), (1,))))  # shifted (-1, -1): vanishes
@example(BlockedWeight(((0,), (3,))))
def test_bbw_cohomology_matches_double_loop(w):
    # the shift-sort-count recipe, restated with a double loop over all pairs
    n = w.n
    shifted = [x - i for i, x in enumerate(w.concat(), 1)]
    res = bbw_cohomology(w)
    if len(set(shifted)) < n:
        assert res == CohomologyResult(vanishes=True)
        return
    degree = sum(1 for i in range(n) for j in range(i + 1, n) if shifted[i] < shifted[j])
    weight = tuple(x + i for i, x in enumerate(sorted(shifted, reverse=True), 1))
    assert res == CohomologyResult(False, degree, weight, weyl_dimension(weight, n))


def test_flag_dimension():
    assert flag_dimension((1, 1)) == 1
    assert flag_dimension((2, 5)) == 10
    assert flag_dimension((5, 1, 1)) == 11
    assert flag_dimension((6, 1, 2, 3)) == 6 + 12 + 18 + 2 + 3 + 6
    assert flag_dimension((0, 3)) == 0
    for ranks in ((-1, 2), (2, -2, 1)):
        with pytest.raises(ValueError, match="rank must be >= 0, got -"):
            flag_dimension(ranks)


def test_bbw_line_bundles_on_p1():
    for d in range(6):
        res = bbw_cohomology(BlockedWeight(((d,), (0,))))
        assert (res.degree, res.weight, res.dimension) == (0, (d, 0), d + 1)
    assert bbw_cohomology(BlockedWeight(((0,), (1,)))).vanishes
    res = bbw_cohomology(BlockedWeight(((0,), (3,))))
    assert (res.degree, res.weight, res.dimension) == (1, (2, 1), 2)


def nef_shapes(max_n):
    for n in range(2, max_n + 1):
        for k in range(1, n):
            for dims in combinations(range(1, n), k):
                yield n, tuple(sorted(dims, reverse=True))


def ranks_of(n, dims):
    chain = (n,) + dims + (0,)
    return tuple(chain[i] - chain[i + 1] for i in range(len(chain) - 1))


def test_borel_weil_nef_consistency():
    # nef line bundles: sections only, dimension from the dominant weight
    for n, dims in nef_shapes(6):
        ranks = ranks_of(n, dims)
        k = len(dims)
        for chain in product(range(4), repeat=k):
            if any(a < b for a, b in zip(chain, chain[1:])):
                continue
            coeffs = chain + (0,)
            w = BlockedWeight(tuple((c,) * r for c, r in zip(coeffs, ranks)))
            res = bbw_cohomology(w)
            assert not res.vanishes and res.degree == 0
            assert res.dimension == weyl_dimension(w.concat(), n)


def test_kodaira_ample_degree_zero():
    for n, dims in nef_shapes(6):
        ranks = ranks_of(n, dims)
        k = len(dims)
        for chain in combinations(range(5, 0, -1), k):
            coeffs = chain + (0,)
            w = BlockedWeight(tuple((c,) * r for c, r in zip(coeffs, ranks)))
            res = bbw_cohomology(w)
            assert not res.vanishes and res.degree == 0


def test_inversion_bound_examples():
    report = inversion_bound(((3,),), (1, 1), (1,), 1)
    assert (report.exact_inversions, report.bound, report.witness_config) == (1, 1, (1,))
    report = inversion_bound(((),), (1, 1), (5,), 5)
    assert (report.exact_inversions, report.bound, report.witness_config) == (0, 0, (0,))


def test_inversion_bound_matches_product_maximum():
    # reference: the first maximal config over the whole product, as the bound
    # was computed before it was maximised block by block
    rng = random.Random(20)
    for _ in range(2000):
        tail = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        ranks = (rng.randint(1, 3), *tail)
        alpha = tuple(normalize(sorted((rng.randint(0, 5) for _ in range(r)), reverse=True))
                      for r in tail)
        l = rng.randint(1, 3)
        steps = [l + rng.randint(0, 1) for _ in tail]  # gaps of at least l
        coeffs = tuple(sum(steps[i:]) for i in range(len(tail)))
        padded = [pad(part, r) for part, r in zip(alpha, tail)]

        def value(config):
            return (sum(sum(part[:s]) for part, s in zip(padded, config))
                    - l * sum(config) - sum(s * s for s in config))

        best = max(product(*(range(r + 1) for r in tail)), key=value)
        report = inversion_bound(alpha, ranks, coeffs, l)
        assert (report.bound, report.witness_config) == (value(best), best), (alpha, ranks, l)


def test_inversion_bound_gap_hypothesis():
    with pytest.raises(ValueError):
        inversion_bound(((),), (1, 1), (1,), 2)
    with pytest.raises(ValueError):
        inversion_bound(((), ()), (1, 1, 1), (3, 2), 2)
    with pytest.raises(ValueError):
        inversion_bound(((),), (1, 1), (0,), 0)


def test_inversion_bound_shape_errors():
    # one partition per tail block and one coefficient per block but the last
    with pytest.raises(ValueError, match="block count mismatch"):
        inversion_bound(((1,),), (1, 1, 1), (3, 1), 1)
    with pytest.raises(ValueError, match="block count mismatch"):
        inversion_bound(((1,), ()), (1, 1, 1), (3,), 1)
    # a partition longer than its block's rank
    with pytest.raises(ValueError, match=r"partition \(1, 1\) longer than ambient length 1"):
        inversion_bound(((1, 1),), (1, 1), (1,), 1)


def test_inversion_bound_vanishing_instance():
    # alpha chosen so the shifted sequence repeats
    report = inversion_bound(((2,),), (1, 1), (1,), 1)
    assert report.exact_inversions is None


def test_l_must_be_an_int():
    for l in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="l must be an int"):
            inversion_bound(((),), (1, 1), (2,), l)
