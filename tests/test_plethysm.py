from np_atlas.partitions import conjugate
from np_atlas.plethysm import wedge_of_sym2, wedge_of_wedge2
from np_atlas.schur import filtration_quotients, partitions_of, schur_character


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
    # a partition of 2j has at most 2j rows, so n = 2j keeps every constituent
    for j in range(7):
        assert sorted(wedge_of_sym2(j, 2 * j)) == sorted(
            conjugate(s) for s in wedge_of_wedge2(j, 2 * j)
        )


def test_wedge_of_wedge2_is_every_shape_with_legs_one_past_arms():
    # the rule from the other side: among all partitions of 2j, the constituents
    # are those whose Frobenius legs exceed their arms by one, that is whose
    # column i is one cell longer than row i for each i below the Durfee size
    for j in range(11):
        expected = []
        for shape in partitions_of(2 * j):
            columns = conjugate(shape)
            durfee = sum(1 for i, row in enumerate(shape) if row > i)
            if all(columns[i] == shape[i] + 1 for i in range(durfee)):
                expected.append(shape)
        assert wedge_of_wedge2(j, 2 * j) == sorted(expected), j


def test_one_constituent_of_2j_cells_per_strict_partition():
    # the number of strict partitions of j is the coefficient of x^j in
    # prod (1 + x^k); j = 28 is the first with seven distinct parts.  n = j + 1
    # keeps every shape: (mu - 1 | mu) has mu_1 + 1 rows and its conjugate mu_1
    top = 30
    strict = [1] + [0] * top
    for k in range(1, top + 1):
        for m in range(top, k - 1, -1):
            strict[m] += strict[m - k]
    for j in range(top + 1):
        for family in (wedge_of_wedge2, wedge_of_sym2):
            shapes = family(j, j + 1)
            assert len(shapes) == strict[j], (family, j)
            assert all(sum(shape) == 2 * j for shape in shapes), (family, j)


def elementary_of_monomials(j, monomials, n):
    """e_j of the given monomials (exponent vectors in n variables), as
    {exponent vector: coefficient}: the degree-j part of prod (1 + t m)."""
    layers = [{(0,) * n: 1}] + [{} for _ in range(j)]
    for m in monomials:
        for k in range(j, 0, -1):
            for expo, c in layers[k - 1].items():
                key = tuple(x + y for x, y in zip(expo, m))
                layers[k][key] = layers[k].get(key, 0) + c
    return layers[j]


def test_wedge_powers_match_character_oracle():
    # the character of wedge^j(wedge^2 V) is e_j of the x_a x_b with a < b, and
    # that of wedge^j(S^2 V) is e_j of those with a <= b; j runs past comb(n, 2)
    # and comb(n + 1, 2), where both sides are zero
    cases = 0
    for n in range(1, 6):
        unit = [tuple(int(i == a) for i in range(n)) for a in range(n)]
        pairs = {
            wedge_of_wedge2: [(a, b) for a in range(n) for b in range(a + 1, n)],
            wedge_of_sym2: [(a, b) for a in range(n) for b in range(a, n)],
        }
        for family, ab in pairs.items():
            monomials = [tuple(x + y for x, y in zip(unit[a], unit[b])) for a, b in ab]
            for j in range(7):
                total = {}
                for shape in family(j, n):
                    for expo, c in schur_character(shape, n).items():
                        total[expo] = total.get(expo, 0) + c
                assert total == elementary_of_monomials(j, monomials, n), (family, n, j)
                cases += 1
    assert cases == 70


def leading_sums(sign, j, s):
    """j + s(s - 1)/2 (sign -1, wedge^2) or j + s(s + 1)/2 (sign +1, sym^2): the
    largest sum of s rows of a constituent of the j-th wedge power."""
    return j + s * (s + sign) // 2


def test_bound_saturation():
    # every constituent respects the bound; each family attains it at s = 1
    for sign, gen in ((-1, wedge_of_wedge2), (1, wedge_of_sym2)):
        for j in range(1, 7):
            attained = False
            for shape in gen(j, 2 * j):
                for s in range(1, len(shape) + 1):
                    assert sum(shape[:s]) <= leading_sums(sign, j, s), (
                        sign,
                        j,
                        shape,
                        s,
                    )
            for shape in gen(j, 2 * j):
                if shape[0] == leading_sums(sign, j, 1):
                    attained = True
            assert attained, (sign, j)


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


def test_wedge2_leading_sums_on_filtration_quotients():
    # any s entries across a quotient tuple of a wedge2 constituent obey the bound
    for j in range(4):
        for alpha in wedge_of_wedge2(j, 2 * j):
            for ranks in compositions_up_to(6, 3):
                if len(alpha) > sum(ranks):
                    continue
                for summand in filtration_quotients(alpha, ranks):
                    entries = sorted(
                        (x for rho in summand.shape for x in rho), reverse=True
                    )
                    for s in range(1, len(entries) + 1):
                        assert sum(entries[:s]) <= leading_sums(-1, j, s), (
                            j,
                            alpha,
                            ranks,
                            summand,
                        )
