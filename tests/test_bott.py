from itertools import combinations, product

import pytest

from np_atlas.bott import (
    BlockedWeight,
    bbw_cohomology,
    flag_dimension,
    inversion_bound,
    inversion_count,
    rho_shift,
    twisted_vanishing_threshold,
)
from np_atlas.partitions import weyl_dimension


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


def test_rho_shift_examples():
    assert rho_shift(BlockedWeight(((2,), (0,)))) == (1, -2)
    assert rho_shift(BlockedWeight(((0,), (3,)))) == (-1, 1)
    assert rho_shift(BlockedWeight(((1, 1), (0,)))) == (0, -1, -3)


def test_inversion_count_examples():
    assert inversion_count((1, -1)) == 0
    assert inversion_count((-1, 1)) == 1
    assert inversion_count((3, 2, 1)) == 0
    assert inversion_count((-1, 0, 2)) == 3


def test_flag_dimension():
    assert flag_dimension((1, 1)) == 1
    assert flag_dimension((2, 5)) == 10
    assert flag_dimension((5, 1, 1)) == 11
    assert flag_dimension((6, 1, 2, 3)) == 6 + 12 + 18 + 2 + 3 + 6


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


def test_inversion_bound_gap_hypothesis():
    with pytest.raises(ValueError):
        inversion_bound(((),), (1, 1), (1,), 2)
    with pytest.raises(ValueError):
        inversion_bound(((), ()), (1, 1, 1), (3, 2), 2)
    with pytest.raises(ValueError):
        inversion_bound(((),), (1, 1), (0,), 0)


def test_inversion_bound_vanishing_instance():
    # alpha chosen so the shifted sequence repeats
    report = inversion_bound(((2,),), (1, 1), (1,), 1)
    assert report.exact_inversions is None


def test_twisted_vanishing_threshold_examples():
    assert twisted_vanishing_threshold(((), ()), (1, 2), 1) == 0
    assert twisted_vanishing_threshold(((3,),), (1,), 1) == 1
    assert twisted_vanishing_threshold(((3,),), (1,), 3) == 0


def test_twisted_vanishing_threshold_monotone():
    betas = [((3,), (2, 1)), ((4, 2), ()), ((1,), (1, 1))]
    ranks = (2, 2)
    for beta in betas:
        values = [twisted_vanishing_threshold(beta, ranks, l) for l in range(1, 6)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        grown = tuple(tuple(x + 1 for x in b) if b else (1,) for b in beta)
        for l in range(1, 6):
            assert twisted_vanishing_threshold(grown, ranks, l) >= \
                twisted_vanishing_threshold(beta, ranks, l)


def test_twisted_vanishing_threshold_length_check():
    with pytest.raises(ValueError):
        twisted_vanishing_threshold(((1, 1),), (1,), 1)
