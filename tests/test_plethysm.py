from math import comb

import pytest

from np_atlas.partitions import conjugate, pad, weyl_dimension
from np_atlas.plethysm import (
    SYM2,
    WEDGE2,
    leading_sum_bound,
    wedge_of_sym2,
    wedge_of_wedge2,
)
from np_atlas.schur import filtration_quotients


def test_wedge_of_wedge2_examples():
    assert wedge_of_wedge2(0, 5) == [()]
    assert wedge_of_wedge2(1, 2) == [(1, 1)]
    assert wedge_of_wedge2(2, 4) == [(2, 1, 1)]
    assert wedge_of_wedge2(3, 6) == [(2, 2, 2), (3, 1, 1, 1)]


def test_wedge_of_sym2_examples():
    assert wedge_of_sym2(1, 1) == [(2,)]
    assert wedge_of_sym2(2, 2) == [(3, 1)]
    assert wedge_of_sym2(3, 3) == [(3, 3), (4, 1, 1)]


def test_length_filter():
    assert wedge_of_wedge2(2, 2) == []  # (2,1,1) needs three rows
    assert (3, 3) in wedge_of_sym2(3, 2)
    assert (4, 1, 1) not in wedge_of_sym2(3, 2)


def test_conjugate_duality():
    for j in range(7):
        assert sorted(wedge_of_sym2(j, None)) == sorted(
            conjugate(s) for s in wedge_of_wedge2(j, None)
        )


def test_dimension_identity_small():
    for n in range(2, 7):
        for j in range(5):
            total = sum(weyl_dimension(pad(s, n), n) for s in wedge_of_wedge2(j, n))
            assert total == comb(n * (n - 1) // 2, j)
            total = sum(weyl_dimension(pad(s, n), n) for s in wedge_of_sym2(j, n))
            assert total == comb(n * (n + 1) // 2, j)


def test_leading_sum_bound_examples():
    assert leading_sum_bound(WEDGE2, 2, 1) == 2
    assert leading_sum_bound(SYM2, 2, 1) == 3
    assert leading_sum_bound(WEDGE2, 3, 2) == 4
    assert leading_sum_bound(WEDGE2, 2, 2) == 3
    assert leading_sum_bound(SYM2, 1, 1) == 2
    assert leading_sum_bound(WEDGE2, 0, 3) == 3
    with pytest.raises(ValueError):
        leading_sum_bound("other", 1, 1)


def test_bound_saturation():
    # every constituent respects the bound; each family attains it at s = 1
    for kind, gen in ((WEDGE2, wedge_of_wedge2), (SYM2, wedge_of_sym2)):
        for j in range(1, 7):
            attained = False
            for shape in gen(j, None):
                for s in range(1, len(shape) + 1):
                    assert sum(shape[:s]) <= leading_sum_bound(kind, j, s), (
                        kind,
                        j,
                        shape,
                        s,
                    )
            for shape in gen(j, None):
                if shape[0] == leading_sum_bound(kind, j, 1):
                    attained = True
            assert attained, (kind, j)


def compositions_up_to(total_cap, length_cap):
    out = []

    def rec(acc, remaining):
        if len(acc) >= 2:
            out.append(tuple(acc))
        if len(acc) == length_cap:
            return
        for r in range(1, remaining + 1):
            rec(acc + [r], remaining - r)

    rec([], total_cap)
    return out


def test_leading_sum_bound_on_filtration_quotients():
    # any s entries across a quotient tuple of a wedge2 constituent obey the bound
    for j in range(4):
        for alpha in wedge_of_wedge2(j, None):
            for ranks in compositions_up_to(6, 3):
                if len(alpha) > sum(ranks):
                    continue
                for summand in filtration_quotients(alpha, ranks):
                    entries = sorted(
                        (x for rho in summand.shape for x in rho), reverse=True
                    )
                    for s in range(1, len(entries) + 1):
                        assert sum(entries[:s]) <= leading_sum_bound(WEDGE2, j, s), (
                            j,
                            alpha,
                            ranks,
                            summand,
                        )
