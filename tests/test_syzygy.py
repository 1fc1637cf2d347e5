import hashlib
import json
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from np_atlas import syzygy
from np_atlas.bott import BlockedWeight, _degree, bbw_cohomology, flag_dimension
from np_atlas.geometry import (
    Family,
    FlagShape,
    _g2_twists,
    parse_variety,
    quotient_ranks,
)
from np_atlas.partitions import conjugate, normalize
from np_atlas.plethysm import wedge_of_sym2, wedge_of_wedge2
from np_atlas.schur import (
    SchurSummand,
    filtration_quotients,
    partitions_of,
    skew_decompose,
    tensor_decompose,
)
from np_atlas.syzygy import (
    CERTIFIED,
    NOT_CERTIFIED,
    SCHEMA_VERSION,
    _clause_for,
    g2_np_certify,
    np_certify,
    np_threshold,
    schur_complex_term,
)


def _piece(shape, a, level):
    """The twist of the level-th kernel piece and the set of |rho| + |nu| over its
    Schur complex terms of degrees 1-4: each summand weighs |alpha|."""
    terms = [schur_complex_term(shape, a, level, j) for j in range(1, 5)]
    assert len({t.twist for t in terms}) == 1
    return terms[0].twist, {sum(rho) + sum(nu) for t in terms for (rho, nu), _ in t.summands}


def test_kernel_filtration_trivial_bundle():
    for level in (1, 2):
        assert _piece(FlagShape(5, (2, 1)), (0, 0), level) == ((0, 0), set())


def test_kernel_filtration_grassmannian():
    shape = FlagShape(6, (2,))
    assert _piece(shape, (3,), 1) == ((3,), {12})
    # alpha = (3, 3, 3, 3): the degree-1 term removes one box from it
    term = schur_complex_term(shape, (3,), 1, 1)
    assert [(s.shape, s.multiplicity) for s in term.summands] == [(((1,), (3, 3, 3, 2)), 1)]


def test_kernel_filtration_two_step():
    shape = FlagShape(5, (2, 1))
    assert _piece(shape, (3, 1), 1) == ((3, 1), {6})
    assert _piece(shape, (3, 1), 2) == ((1, 1), {10})
    # alpha = (2, 2, 2) at level 1 and (3, 3, 3, 1) at level 2
    assert [s.shape for s in schur_complex_term(shape, (3, 1), 1, 1).summands] == [
        ((1,), (2, 2, 1))]
    assert [s.shape for s in schur_complex_term(shape, (3, 1), 2, 1).summands] == [
        ((1,), (3, 3, 2, 1)), ((1,), (3, 3, 3))]


def test_kernel_filtration_requires_nef():
    with pytest.raises(ValueError, match="is not nef"):
        schur_complex_term(FlagShape(5, (2, 1)), (1, 3), 1, 1)


def test_schur_complex_term_refuses_a_level_below_1_before_reading_the_shape():
    # no message may read shape.k before the shape is known to be a FlagShape
    for shape in ("x", None, 3, (6, (3, 1))):
        for level in (0, -1):
            with pytest.raises(ValueError, match=f"level must be >= 1, got {level}"):
                schur_complex_term(shape, (3, 1), level, 1)
    with pytest.raises(ValueError, match=r"level 3 outside 1\.\.2"):
        schur_complex_term(FlagShape(6, (3, 1)), (3, 1), 3, 1)


def test_schur_complex_term_euler_sequence():
    term = schur_complex_term(FlagShape(2, (1,)), (3,), 1, 1)
    assert [(s.shape, s.multiplicity) for s in term.summands] == [(((1,), (2,)), 1)]
    term = schur_complex_term(FlagShape(2, (1,)), (3,), 1, 2)
    assert term.summands == ()


def test_schur_complex_term_two_step_flag():
    term = schur_complex_term(FlagShape(4, (2, 1)), (2, 1), 1, 1)
    assert term.summands
    for (rho, nu), mult in term.summands:
        assert mult >= 1
        assert sum(rho) + sum(nu) == 2  # alpha = (1, 1)
    with pytest.raises(ValueError):
        schur_complex_term(FlagShape(4, (2, 1)), (2, 1), 3, 1)
    with pytest.raises(ValueError):
        schur_complex_term(FlagShape(4, (2, 1)), (2, 1), 1, 0)


def test_kernel_filtration_and_schur_complex_term_validate_inputs():
    shape = FlagShape(5, (2, 1))
    for a, match in (((3, 2, 1), "expected 2 line-bundle coefficients"),
                     ((3,), "expected 2 line-bundle coefficients"),
                     ((3.0, 1), "line-bundle coefficient must be an int")):
        with pytest.raises(ValueError, match=match):
            schur_complex_term(shape, a, 1, 1)
    for level, j in ((True, 1), (1.0, 1), (1, True), (1, 1.5)):
        with pytest.raises(ValueError, match="must be an int"):
            schur_complex_term(shape, (3, 1), level, j)


def test_schur_complex_weight_balance():
    # |alpha| of each kernel piece: 6 and 10 on Fl(2,1;5), 6 on Gr(3,6)
    for shape, a, level, total in [(FlagShape(5, (2, 1)), (3, 1), 1, 6),
                                   (FlagShape(5, (2, 1)), (3, 1), 2, 10),
                                   (FlagShape(6, (3,)), (2,), 1, 6)]:
        for j in range(1, 5):
            term = schur_complex_term(shape, a, level, j)
            for (rho, nu), _ in term.summands:
                assert sum(rho) == j
                assert sum(nu) == total - j


def test_np_threshold_remark_values():
    for p in range(1, 11):
        assert np_threshold("C", (1, 2, 3), p).value == Fraction(p)
    thr = np_threshold("C", (1, 1, 1, 1, 1, 1), 1)
    assert thr.value == Fraction(11, 6)
    assert thr.witness_config == (1, 1, 1, 1, 1, 1)
    # s = 1 and s = 4 tie at 1: the witness is the first maximal row
    thr = np_threshold("C", (1, 1, 1, 1), 1)
    assert thr.value == 1
    assert thr.witness_config == (1, 0, 0, 0)


def test_np_threshold_bd_small_picard():
    for ranks in [(1,), (3,), (1, 2), (4, 1)]:
        for p in range(1, 6):
            assert np_threshold("BD", ranks, p).value == Fraction(p + 1)
            assert np_threshold("C", ranks, p).value == Fraction(p)


def _p0(ranks):
    """The least p from which np_threshold is p + shift for every larger p.

    Row s = 1 is exactly p + shift, and row s is at most p + shift iff
    p(s - 1) >= 1 + s(s - 1)/2 - sq_min(s), with sq_min(s) the least square
    sum of a configuration of total s: the square sum of row s's config,
    which depends on the ranks alone.
    """
    rows = np_threshold("C", ranks, 1).per_s
    return max([1] + [-(-(1 + s * (s - 1) // 2 - sum(x * x for x in config)) // (s - 1))
                      for s, config, _ in rows if s >= 2])


def test_threshold_is_p_plus_shift_from_p0_on():
    # every tail-rank tuple of length <= 4 with parts <= 5, C and BD, p = 1..40
    counts = {}
    for length in range(1, 5):
        for ranks in product(range(1, 6), repeat=length):
            p0 = _p0(ranks)
            for family, shift in (("C", 0), ("BD", 1)):
                exact = [p for p in range(1, 41) if np_threshold(family, ranks, p).value == p + shift]
                assert exact == list(range(p0, 41)), (family, ranks)
            counts[p0] = counts.get(p0, 0) + 1
    assert counts == {1: 133, 2: 299, 3: 228, 4: 105, 5: 15}
    # the README's table
    assert {_p0(r) for L in (1, 2) for r in product(range(1, 6), repeat=L)} == {1}
    assert [r for r in product(range(1, 4), repeat=3) if _p0(r) > 1] == [(3, 3, 3)]
    examples = {(3, 3, 3): 2, (4, 4, 4): 2, (5, 5, 5): 3, (2, 2, 2, 2): 2, (1,) * 6: 2,
                (3, 3, 3, 3): 3, (5, 5, 5, 5): 5, (1, 2, 3): 1}
    assert {r: _p0(r) for r in examples} == examples


def test_np_threshold_validation():
    with pytest.raises(ValueError):
        np_threshold("E", (1,), 1)
    with pytest.raises(ValueError):
        np_threshold("C", (1,), 0)
    with pytest.raises(ValueError):
        np_threshold("C", (), 1)


def test_np_threshold_cache_sits_behind_the_checks():
    # the valid calls come first, so a cache in front of the checks would
    # answer the float and bool look-alikes from these entries
    first = np_threshold("C", (2,), 1)
    np_threshold("C", (2,), 2)
    np_threshold("BD", (1,), 1)
    for family, ranks, p in [("C", (2.0,), 1), ("C", (2,), True), ("C", (2,), 1.0),
                             ("BD", (True,), 1)]:
        with pytest.raises(ValueError, match="must be an int"):
            np_threshold(family, ranks, p)
    assert np_threshold("C", (2,), 1) == first
    assert np_threshold("C", [2], 1) == first


def _clause_by_fractions(family, n1, k, l, p):
    """The clause picked with the bounds written as Fractions: the oracle."""
    if family == "C":
        if k <= 2 and l >= p:
            return "C:pic-rank-le-2"
        if l >= p and Fraction(p) >= Fraction(n1, 2) - 1:
            return "C:large-p"
        if Fraction(l) >= max(Fraction(p), Fraction(p + 1, n1) + Fraction(n1 - 3, 2)):
            return "C:general-bound"
        return "C:config-max"
    if k <= 2 and l >= p + 1:
        return "BD:pic-rank-le-2"
    if l >= p + 1 and Fraction(p + 1) >= Fraction(n1, 2) - 1:
        return "BD:large-p"
    if Fraction(l) >= max(Fraction(p + 1), Fraction(p + 1, n1) + Fraction(n1 - 1, 2)):
        return "BD:general-bound"
    return "BD:config-max"


def test_np_threshold_is_the_configuration_bound_on_the_filtration_pieces():
    """np_threshold rebuilt from the constituents of the Koszul terms.

    The j-th Koszul term of the defining square (wedge^2 for C, S^2 for BD) has
    the constituents S^alpha, alpha in wedges(j, n1); S^alpha of the tail
    bundle is filtered with graded pieces rho, one partition per tail block.
    The threshold is the maximum, over j >= 0, alpha, rho and every non-zero
    configuration 0 <= s_b <= r_b, of
    (p + 1 + sum_b sum(rho_b[:s_b]) - j - sum_b s_b^2) / s, as a Fraction.
    """
    for family, wedges, shift in (("C", wedge_of_wedge2, 0), ("BD", wedge_of_sym2, 1)):
        for length in range(1, 4):
            for ranks in product(range(1, 4), repeat=length):
                n1 = sum(ranks)
                if n1 > 5:
                    continue
                configs = [c for c in product(*(range(r + 1) for r in ranks)) if any(c)]
                # the p-free part, maximal per (s, sum of squares)
                best = {}
                for j in range(comb(n1 + shift, 2) + 1):
                    for alpha in wedges(j, n1):
                        for piece in filtration_quotients(alpha, ranks):
                            for config in configs:
                                key = (sum(config), sum(s * s for s in config))
                                gain = sum(sum(rho[:s]) for rho, s in zip(piece.shape, config))
                                best[key] = max(best.get(key, gain - j), gain - j)
                for p in range(1, 11):
                    rebuilt = max(Fraction(p + 1 + top - sq, s) for (s, sq), top in best.items())
                    assert rebuilt == np_threshold(family, ranks, p).value, (family, ranks, p)


def test_clause_integer_tests_match_fractions():
    # _clause_for names the clause of a certified query, whose gap is at least
    # the threshold's s = 1 row p + shift (criterion 7 checks that premise)
    for family, shift in (("C", 0), ("BD", 1)):
        for n1 in range(1, 25):
            for k in range(1, 6):
                for p in range(1, 20):
                    for l in range(p + shift, 30):
                        assert _clause_for(family, n1, k, l, p) == _clause_by_fractions(
                            family, n1, k, l, p), (family, n1, k, l, p)


def test_np_certify_remark_case():
    spec = parse_variety("sfl(6,5,3;12)")
    for p in range(1, 4):
        cert = np_certify(spec, (3 * p, 2 * p, p), p)
        assert cert.verdict == CERTIFIED
        assert cert.threshold == Fraction(p)


def test_np_certify_full_symplectic_flag():
    spec = parse_variety("sfl(6,5,4,3,2,1;12)")
    cert = np_certify(spec, (6, 5, 4, 3, 2, 1), 1)
    assert cert.verdict == NOT_CERTIFIED
    assert cert.clause == "none"
    assert cert.threshold == Fraction(11, 6)
    cert = np_certify(spec, (12, 10, 8, 6, 4, 2), 1)
    assert cert.verdict == CERTIFIED


def test_np_certify_type_a():
    spec = parse_variety("fl(2,1;5)")
    assert np_certify(spec, (4, 2), 2).verdict == CERTIFIED
    assert np_certify(spec, (2, 1), 2).verdict == NOT_CERTIFIED


def test_np_certify_monotone():
    spec = parse_variety("sfl(3,2,1;8)")
    for p in range(2, 5):
        for l in range(1, 5):
            cert = np_certify(spec, (3 * l, 2 * l, l), p)
            if cert.certified:
                assert np_certify(spec, (3 * (l + 1), 2 * (l + 1), l + 1), p).certified
                assert np_certify(spec, (3 * l, 2 * l, l), p - 1).certified


def suffix_sums(xs):
    return tuple(sum(xs[i:]) for i in range(len(xs)))


@st.composite
def bcd_query(draw):
    """A C or BD catalog variety with at most 3 tail quotient ranks, the gaps
    of an ample chain on it, and p <= 4."""
    dims = suffix_sums(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    if draw(st.booleans()):
        token = f"sfl({','.join(map(str, dims))};{2 * dims[0] + draw(st.sampled_from([0, 2]))})"
    else:
        token = f"ofl({','.join(map(str, dims))};{2 * dims[0] + draw(st.integers(0, 3))})"
    gaps = draw(st.lists(st.integers(1, 4), min_size=len(dims), max_size=len(dims)))
    return parse_variety(token), gaps, draw(st.integers(1, 4))


@given(bcd_query())
def test_np_certify_monotone_in_gap(query):
    spec, gaps, p = query
    cert = np_certify(spec, suffix_sums(gaps), p)
    assert cert.gap == min(gaps)
    if cert.certified:
        assert np_certify(spec, suffix_sums([g + 1 for g in gaps]), p).certified


def _assert_verdicts_monotone(spec, l, p, shift):
    """With L = l (k, k-1, ..., 1), of gap l: a verdict certified at (l, p) has
    l >= p + shift and stays certified at (l + 1, p) and at (l, p - 1)."""
    k = spec.shape.k

    def certified(l, p):
        return np_certify(spec, tuple(l * (k - i) for i in range(k)), p).certified

    if certified(l, p):
        assert l >= p + shift
        assert certified(l + 1, p)
        if p >= 2:
            assert certified(l, p - 1)


@given(bcd_query(), st.integers(1, 6))
def test_bcd_verdicts_are_monotone(query, l):
    # C never certifies below l = p, and B/D never below l = p + 1, the
    # threshold's s = 1 row
    spec, _, p = query
    _assert_verdicts_monotone(spec, l, p, spec.family is not Family.C)


@st.composite
def schur_piece_query(draw):
    """A C or BD catalog variety with n <= 10, a nef chain on it, a level of
    its kernel filtration and a homological degree j <= 7."""
    dims = suffix_sums(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                            .filter(lambda xs: sum(xs) <= 5)))
    if draw(st.booleans()):
        family, n = "sfl", 2 * dims[0] + 2 * draw(st.integers(0, 5 - dims[0]))
    else:
        family, n = "ofl", 2 * dims[0] + draw(st.integers(0, 10 - 2 * dims[0]))
    token = f"{family}({','.join(map(str, dims))};{n})"
    gaps = draw(st.lists(st.integers(0, 3), min_size=len(dims), max_size=len(dims)))
    return (parse_variety(token).shape, suffix_sums(gaps),
            draw(st.integers(1, len(dims))), draw(st.integers(1, 7)))


@given(schur_piece_query())
# alpha = (1, 1, 1): the conjugate (2, 1) of rho = (2, 1) has few enough rows
# but does not fit, and walking alpha over it anyway would count a tableau
@example((parse_variety("sfl(3;6)").shape, (1,), 1, 3))
def test_schur_complex_term_is_the_sorted_skew_decompositions(query):
    # the terms restated from the docstring: S^rho (x) S^nu for every rho of
    # j with at most ranks[level] rows and every nu in the skew Schur function
    # of alpha over the conjugate of rho, sorted by (rho, nu)
    shape, a, level, j = query
    ranks = quotient_ranks(shape)
    coeffs = a + (0,)
    alpha = normalize([coeffs[t] - coeffs[level] for t in range(level) for _ in range(ranks[t])])
    rhos = list(partitions_of(j, max_length=ranks[level]))
    expected = sorted((((rho, nu), mult) for rho in rhos
                       for nu, mult in skew_decompose(alpha, conjugate(rho)).items()),
                      key=lambda item: item[0])
    term = schur_complex_term(shape, a, level, j)
    assert term.twist == (a[level - 1],) * level + a[level:]
    assert [(s.shape, s.multiplicity) for s in term.summands] == expected
    # every producer of Schur summands returns SchurSummand records
    rho = rhos[0]
    records = (term.summands + tuple(tensor_decompose(rho, conjugate(rho), len(rho) + rho[0]))
               + tuple(filtration_quotients(rho, ranks)))
    assert all(type(s) is SchurSummand for s in records)


@st.composite
def a_or_g2_query(draw):
    """A type-A flag with at most 3 quotient ranks past the first, G2_X or
    G2_P, and p <= 4."""
    token = draw(st.sampled_from(["fl", "g2x", "g2p"]))
    if token == "fl":
        dims = suffix_sums(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        token = f"fl({','.join(map(str, dims))};{dims[0] + draw(st.integers(1, 3))})"
    return parse_variety(token), draw(st.integers(1, 4))


@given(a_or_g2_query(), st.integers(1, 6))
def test_a_and_g2_verdicts_are_monotone(query, l):
    # A and G2 never certify below l = p
    spec, p = query
    _assert_verdicts_monotone(spec, l, p, 0)


def test_g2_verdict_is_gap_at_least_p():
    # the exhaustive sweep is the proof; on this grid it certifies exactly l >= p
    for token in ("g2x", "g2p"):
        spec = parse_variety(token)
        for p in range(1, 6):
            for l in range(1, 8):
                a = (l,) if token == "g2x" else (2 * l, l)
                assert g2_np_certify(spec, a, p).certified == (l >= p), (token, p, l)


@st.composite
def g2_tailed_twist(draw):
    """G2_X with a = (a0,), or G2_P with a0 > a1 >= 1; a twist j in 0..5; and a
    tail as g2_np_certify adds it, weakly decreasing on G2_X."""
    g2x = draw(st.booleans())
    a0 = draw(st.integers(1 if g2x else 2, 14))
    a = (a0,) if g2x else (a0, draw(st.integers(1, a0 - 1)))
    first = draw(st.integers(0, 20))
    tail = (first, draw(st.integers(0, first if g2x else 20)))
    return parse_variety("g2x" if g2x else "g2p"), a, draw(st.integers(0, 5)), tail


@given(g2_tailed_twist())
def test_g2_degree_has_a_window_form(query):
    # after the shift by (1, ..., 7) the rank-5 block of twist j is the interval
    # [a0 - j - 5, a0 - j] without a0 - 2j, so a tail entry e past it adds one
    # inversion per block entry below e; G2_P's rank-1 blocks add [e6 < e7]
    spec, a, j, tail = query
    g2p = spec.family is Family.G2_P
    w = _g2_twists(spec, a)[j]
    *head, e6, e7 = (x - i for i, x in enumerate(w.concat(), 1))
    e6, e7 = e6 + tail[0], e7 + tail[1]
    a0 = a[0]
    lo, hole = a0 - j - 5, a0 - 2 * j
    if e6 == e7 or any(lo <= e <= a0 - j and e != hole for e in (e6, e7)):
        window = None
    else:
        window = sum(min(max(e - lo, 0), 6) - (e > hole) for e in (e6, e7)) + (g2p and e6 < e7)
    assert _degree(head + [e6, e7], w.ranks) == window


def test_certificate_trace_is_the_rows_within_one_of_the_threshold():
    """The trace rule, restated with Fraction arithmetic, read cold (both caches
    cleared, the certificate first) and warm."""
    for family, token, odd in (("C", "sfl", 0), ("BD", "ofl", 1)):
        for length in range(1, 4):
            for ranks in product(range(1, 4), repeat=length):
                dims = suffix_sums(ranks)
                spec = parse_variety(f"{token}({','.join(map(str, dims))};{2 * dims[0] + odd})")
                a = tuple(range(len(dims), 0, -1))
                for p in range(1, 11):
                    syzygy._threshold.cache_clear()
                    syzygy._row_value.cache_clear()
                    for _ in ("cold", "warm"):
                        trace = np_certify(spec, a, p).trace
                        thr = np_threshold(family, ranks, p)
                        assert list(trace) == [
                            (s, c, v.numerator, v.denominator)
                            for s, c, v in thr.per_s if v > thr.value - 1], (family, ranks, p)
                        for row in trace:
                            assert type(row) is tuple and type(row[1]) is tuple
                            assert all(type(x) is int for x in (row[0], *row[1], *row[2:]))


@st.composite
def catalog_query(draw):
    """A type A, C, B/D, G2_X or G2_P catalog variety, an ample chain of k - 1,
    k or k + 1 coefficients for its Picard rank k, and p <= 2."""
    token = draw(st.sampled_from(["fl", "sfl", "ofl", "g2x", "g2p"]))
    if token in ("fl", "sfl", "ofl"):
        dims = suffix_sums(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        n = {"fl": dims[0] + draw(st.integers(1, 3)),
             "sfl": 2 * dims[0] + draw(st.sampled_from([0, 2])),
             "ofl": 2 * dims[0] + draw(st.integers(0, 3))}[token]
        token = f"{token}({','.join(map(str, dims))};{n})"
    spec = parse_variety(token)
    arity = spec.shape.k + draw(st.integers(-1, 1))
    gaps = draw(st.lists(st.integers(1, 4), min_size=arity, max_size=arity))
    return spec, suffix_sums(gaps), draw(st.integers(1, 2))


@given(catalog_query())
def test_certified_line_bundle_has_picard_rank_arity(query):
    spec, a, p = query
    try:
        cert = np_certify(spec, a, p)
    except ValueError as exc:
        assert "line-bundle coefficients" in str(exc) and len(a) != spec.shape.k
        return
    if cert.certified:
        assert len(cert.line_bundle) == spec.shape.k


def test_np_certify_validation():
    spec = parse_variety("sfl(2;6)")
    with pytest.raises(ValueError, match=r"line bundle \(0,\) is not ample"):
        np_certify(spec, (0,), 1)
    with pytest.raises(ValueError, match="p must be >= 1, got 0"):
        np_certify(spec, (1,), 0)
    with pytest.raises(ValueError, match="expected 1 line-bundle coefficients"):
        np_certify(spec, (2, 1), 1)
    for ranks, message in (((0,), "rank must be >= 1, got 0"), ((), "ranks must be non-empty")):
        with pytest.raises(ValueError, match=message):
            np_threshold("C", ranks, 1)


def test_certificate_json_schema():
    cert = np_certify(parse_variety("sfl(6,5,3;12)"), (3, 2, 1), 1)
    doc = json.loads(json.dumps(cert.to_json_dict(), sort_keys=True))
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["verdict"] == "certified"
    assert doc["threshold"] == {"num": 1, "den": 1}
    assert Fraction(doc["threshold"]["num"], doc["threshold"]["den"]) == cert.threshold
    assert set(doc) == {
        "schema_version", "query", "verdict", "clause", "threshold",
        "witness_config", "trace",
    }


def test_g2_certify_examples():
    gx = parse_variety("g2x")
    gp = parse_variety("g2p")
    assert g2_np_certify(gx, (1,), 1).certified
    assert g2_np_certify(gp, (2, 1), 1).certified
    cert = g2_np_certify(gx, (1,), 3)
    assert cert.trace  # exhaustive sweep is always recorded
    with pytest.raises(ValueError):
        g2_np_certify(gx, (1,), 0)
    with pytest.raises(ValueError, match=r"line bundle \(1, 1\) is not ample"):
        g2_np_certify(gp, (1, 1), 1)
    with pytest.raises(ValueError):
        g2_np_certify(parse_variety("sfl(2;6)"), (1,), 1)


def test_np_certify_routes_g2():
    cert = np_certify(parse_variety("g2x"), (2,), 2)
    assert cert.certified
    assert cert.clause == "G2:exhaustive-bbw"


# sha256 of the canonical certificate JSON, keyed by (variety, p, l): pins every
# trace row of the exhaustive sweep, not just the verdict; gap 1 at p = 3 and
# p = 10 is not certified, so violation rows are pinned as well
G2_CERTIFICATE_DIGESTS = {
    ("g2x", 1, 1): "4e65b4b5002ec2dc50f0d1702f8e3cf10f7a65b875eb77fbf0047124b9845024",
    ("g2x", 1, 2): "a6e362d1437daa693112b7cdaf82fa1442a36267c816dd3b43ae69d28cd4d727",
    ("g2x", 2, 2): "48f884efef314f9b79f21df9cb6017b386c145ea2aba71fdcf94129fba7d8f95",
    ("g2x", 2, 3): "0c6af686ba99286bd9b63aaf65cb746d8319437fa3695fc88a1b43e3903944db",
    ("g2x", 3, 3): "344bab5163a9d8fce60b5db3e9ff0dd087ff327d3c08f515bac032e971efa7b0",
    ("g2x", 3, 4): "cd810906d1e0b14ac4ec33bdfbf31611024178d7554067d082b557d6b115238d",
    ("g2x", 3, 1): "22432c92496cf8a67f25c405ba6816cd75dceac6b786a79eebb1544d045f47b2",
    ("g2x", 10, 1): "3fd2efb42cbb0afef98d60dee3de486af0d6496ee1bac4b10381c293a5bf6ccf",
    ("g2x", 10, 10): "e93ab9ffa2f0f28bff6c0dfc0b4e0439a93fe1317306885981832b445e3d57a5",
    ("g2p", 1, 1): "68a936d9513883466d65a11eb37361b04d8db80d87d49463799f46bb02319ebe",
    ("g2p", 1, 2): "70cfa93a49d24170b41a344d56e782a9150e79e6aaea82401fa6798a07962400",
    ("g2p", 2, 2): "162fdb28c380ccecfa98363c51d1db55e60c54c92d64025cdec93ec54557fd07",
    ("g2p", 2, 3): "938ea9b03a767a75297a4aabc09c3e37ac2ff45102a4a770772a0d4f3634b70a",
    ("g2p", 3, 3): "afcfcf24ea32c50410ec86a4e4cd5d6c1cd9fc5e24ac10d06a6216e9e02bf7a7",
    ("g2p", 3, 4): "96e7a58d5ac5207751d2bee54e05b37e0b8a7644dc4e178e0b0057fa3543a599",
    ("g2p", 3, 1): "1dfa0a8552a9d41fe87f38f1746fb9d140db8e95be878978c8fcc080df82885e",
    ("g2p", 10, 1): "8a18995f060b71114af06e83ad0b89a330a4703da4dcd1346a8001e4492ece00",
    ("g2p", 10, 10): "42a237ff2055866fdbade875b45fd1e332cdbae8fcc4d5d21b7ce4fa557e7514",
}


def test_g2_certificates_pinned():
    for (token, p, l), digest in G2_CERTIFICATE_DIGESTS.items():
        spec = parse_variety(token)
        cert = g2_np_certify(spec, (l,) if token == "g2x" else (2 * l, l), p)
        text = json.dumps(cert.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (token, p, l)


def test_g2_sweep_evaluates_each_twist_once(monkeypatch):
    for token, a, calls in (("g2x", (1,), 1170), ("g2p", (2, 1), 2430)):
        twists = []

        def counted(shifted, ranks, twists=twists):
            twists.append((tuple(shifted), ranks))
            return _degree(shifted, ranks)

        monkeypatch.setattr(syzygy, "_degree", counted)
        g2_np_certify(parse_variety(token), a, 10)
        assert len(twists) == len(set(twists)) == calls, token


def _g2_rows(spec, a, j, i, totals):
    """Trace rows (j, i, tail total t) of the G2 sweep, restated row by row.

    Each row's weight is the j-th twist's rank-5 block, the length-j column
    shifted by a[0] - j, followed by its own tail: on G2_X the rank-2 block
    (a1, t - a1), on G2_P the blocks (a[1] + t - s,) and (s,).
    """
    block1 = (a[0] - j + 1,) * j + (a[0] - j,) * (5 - j)
    rows = []
    for t in totals:
        d = j - i + t
        if spec.family is Family.G2_X:
            for a1 in range((t + 1) // 2, t + 1):
                res = bbw_cohomology(BlockedWeight((block1, (a1, t - a1))))
                ok = res.vanishes or res.degree != d + 1
                rows.append((j, i, t, a1, t - a1, d + 1, "ok" if ok else "violation"))
        else:
            for s in range(t + 1):
                res = bbw_cohomology(BlockedWeight((block1, (a[1] + t - s,), (s,))))
                ok = res.vanishes or res.degree <= d
                rows.append((j, i, s, t - s, d, "ok" if ok else "violation"))
    return rows


def test_g2_rows_past_the_sweep_are_vacuous():
    # the restated rows match the certificate inside the sweep, and every row
    # whose tail total is past i + dim + 5 holds, at gaps 1 and 3 alike
    for token in ("g2x", "g2p"):
        spec = parse_variety(token)
        dim = flag_dimension(quotient_ranks(spec.shape))
        for l in (1, 3):
            a = (l,) if token == "g2x" else (2 * l, l)
            for p in (1, 2, 3):
                inside, past = [], []
                for j in range(6):
                    for i in range(1, p + 2):
                        inside += _g2_rows(spec, a, j, i, range(i, i + dim + 6))
                        past += _g2_rows(spec, a, j, i, range(i + dim + 6, i + dim + 9))
                assert inside == list(g2_np_certify(spec, a, p).trace), (token, l, p)
                assert all(row[-1] == "ok" for row in past), (token, l, p)


def test_g2_trace_size_grows_with_p_squared():
    # 6 twists, then i = 1..p+1, then tail totals t = i..i+dim+5, each with
    # m(t) tails: t = a1 + a2 with a1 >= a2 on G2_X (dim 10), t = s + (t - s)
    # on G2_P (dim 11).  The count does not depend on the line bundle
    for token, a, dim, m in (("g2x", (1,), 10, lambda t: t // 2 + 1),
                             ("g2p", (2, 1), 11, lambda t: t + 1)):
        spec = parse_variety(token)
        for p in range(1, 9):
            rows = 6 * sum(m(t) for i in range(1, p + 2) for t in range(i, i + dim + 6))
            assert len(g2_np_certify(spec, a, p).trace) == rows, (token, p)


# sha256 of the canonical certificate JSON, keyed by (variety, p, gap l): l is
# ceil(threshold) and the positive gap just below it, so both verdicts and the
# trace rows within 1 of the threshold are pinned
BCD_CERTIFICATE_DIGESTS = {
    ("sfl(6,5,3;12)", 1, 1): "31857701575cc5368199e4679b53efca990bc9b3806fc8d656c304c3c2c477f4",
    ("sfl(6,5,3;12)", 2, 1): "2ec28261ea4ef5365a93089d730749a374dc86a21a74cce3d1e59c73e98e3e31",
    ("sfl(6,5,3;12)", 2, 2): "ba5830b7df771739c9b15583b95802c907278a9001146324d6be6432d7088478",
    ("sfl(6,5,3;12)", 3, 2): "31817f6cc36f55836a40dfcffb7be41a45bb62fce4022c753f87bd6070d40632",
    ("sfl(6,5,3;12)", 3, 3): "7ed4415065b9abf23134a0c8722a180ef6aa826cca3d18c044573a50e7a0aebd",
    ("sfl(6,5,3;12)", 4, 3): "7a00e365ab5369525cef0c9d32ddbd200b50ed8cf7237289f5afe51179fdf211",
    ("sfl(6,5,3;12)", 4, 4): "b0b239c47e3dbf4ce3febb845e0f4cd467b579041770ef67e66ce7024dc4a9b9",
    ("sfl(3,2,1;8)", 1, 1): "a3aa2f231a1e0c3750699ca1b532b9d2ff3c3aca2ad810a230a72de2b85df6bc",
    ("sfl(3,2,1;8)", 2, 1): "02e30395e42e6f28e8c1101a186d929cf857f933496e9c88c68e061c475e33cf",
    ("sfl(3,2,1;8)", 2, 2): "ad6efec19baeac8452931c35edf6e7966604d628f8ad3296842da6edcf04c717",
    ("sfl(3,2,1;8)", 3, 2): "7e91100bbef046b7be1efe1cfcf003303b55e297a72bb07661aeb2e102f6531c",
    ("sfl(3,2,1;8)", 3, 3): "b383b237bf10caae00d73a982b4b144fc5e8c4896196e89a0c57ec7970d01c08",
    ("sfl(3,2,1;8)", 4, 3): "221b98689a898912f7bc7e7d67d1e365dd2d10a2369b05515eb254b439c7eda2",
    ("sfl(3,2,1;8)", 4, 4): "3220a750059947db21a798fc127943b64037f0611b521174af0c7fe8e78c7f7d",
    ("ofl(2,1;7)", 1, 1): "f104635efd123d8086586643bc7d7233bc37e7204f631c21c490d782a44318ce",
    ("ofl(2,1;7)", 1, 2): "20345679e40f86876885531432d58d176286734a9d70ebfd81218b0869fdb242",
    ("ofl(2,1;7)", 2, 2): "3a811043ec072bbaed7b99321123401105c9667513187cc4414950a5d2d97137",
    ("ofl(2,1;7)", 2, 3): "5330124a8767129487b3a9d683528ad1fcbb1761cce9ed7540fd7500c7d3a078",
    ("ofl(2,1;7)", 3, 3): "8821fe91cd2362149f784d66ff6a32bd51457a448418a98e97fde99d29386fde",
    ("ofl(2,1;7)", 3, 4): "ee6dc009a41b0f6d54567aca9e80c685245390dcd5f28588cb5fe2cceb6c6ba4",
    ("ofl(2,1;7)", 4, 4): "366c85cf294307cadd8908e834f428f77c7a797f7a52edb9e7b8e9f58c6d26ea",
    ("ofl(2,1;7)", 4, 5): "02bd0dea06af3a4833b0647e93e9ecba6ab1e6f198e409ad2e0150fcda1a7a59",
    ("ofl(3,1;9)", 1, 1): "98ef7b916f2e8f49f08d082b5d7c6488508c2b80dfd15902a3388c9246f8c3e0",
    ("ofl(3,1;9)", 1, 2): "0a2894584d90a58de1ab293691b15b979b2dfef4a11a3ebb512e1c7efaa7005a",
    ("ofl(3,1;9)", 2, 2): "556bcc172f49f2abb1fafd2292e1ab4ebf520125829c71839e7cea466c961ca4",
    ("ofl(3,1;9)", 2, 3): "b8993d8f1c2cb51382b276720f69c613a67e21f13a041fa7833c19ad17562e94",
    ("ofl(3,1;9)", 3, 3): "6253211bb6919744e7a7495d5878c09c6eaa6480c9a38d75b0ff5c57f9f3e6da",
    ("ofl(3,1;9)", 3, 4): "dcce0030177579ce515e16521a3d91fe5bbad995eb5ccb2a25f42a41b91942cd",
    ("ofl(3,1;9)", 4, 4): "d348cd1a9bffcd69cfceded278727bd2ef6bc2b63e6793b2061e030c7a001758",
    ("ofl(3,1;9)", 4, 5): "16d448f1baef566383faa3eb7c409a920556fb6e826ebcb825c924ca417e698e",
}


def test_bcd_certificates_pinned():
    for (token, p, l), digest in BCD_CERTIFICATE_DIGESTS.items():
        spec = parse_variety(token)
        k = spec.shape.k
        cert = np_certify(spec, tuple(l * (k - i) for i in range(k)), p)
        text = json.dumps(cert.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (token, p, l)


def test_integer_inputs_only():
    spec = parse_variety("sfl(3,2,1;8)")
    gx = parse_variety("g2x")
    for p in (1.5, True):
        with pytest.raises(ValueError, match="p must be an int"):
            np_threshold("C", (2,), p)
        with pytest.raises(ValueError, match="p must be an int"):
            np_certify(spec, (3, 2, 1), p)
        with pytest.raises(ValueError, match="p must be an int"):
            g2_np_certify(gx, (1,), p)
    with pytest.raises(ValueError, match="rank must be an int"):
        np_threshold("C", (2.0,), 1)
    for l in (1.0, True):
        with pytest.raises(ValueError, match="line-bundle coefficient must be an int"):
            g2_np_certify(gx, (l,), 1)
    with pytest.raises(ValueError, match="line-bundle coefficient must be an int"):
        np_certify(spec, (3, 2, 1.0), 1)
