from math import comb

import pytest

from np_atlas.bott import bbw_cohomology, flag_dimension
from np_atlas.geometry import (
    AMPLE,
    Family,
    FlagShape,
    NEF_NOT_AMPLE,
    NOT_NEF,
    W_G2,
    W_NONE,
    W_SYM2,
    W_WEDGE2,
    VarietySpec,
    canonical_weight,
    check_line_bundle,
    decompose_ample,
    g2_koszul_twist_weight,
    grassmannian_pushforward,
    koszul_terms,
    line_bundle_weight,
    parse_shape,
    parse_variety,
    picard_restriction,
    positivity,
    quotient_ranks,
    restriction_surjectivity_check,
    w_rank,
)
from np_atlas.partitions import pad, weyl_dimension
from np_atlas.schur import SchurSummand


def test_flag_shape_validation():
    with pytest.raises(ValueError):
        FlagShape(4, (1, 2))
    with pytest.raises(ValueError):
        FlagShape(4, (4,))
    with pytest.raises(ValueError):
        FlagShape(4, ())
    assert FlagShape(4, (2, 1)).k == 2


def test_flag_shape_rejects_non_int_entries():
    with pytest.raises(ValueError, match="dim must be an int"):
        FlagShape(8, (3.7,))
    with pytest.raises(ValueError, match="dim must be an int"):
        FlagShape(8, (3, True))
    with pytest.raises(ValueError, match="n must be an int"):
        FlagShape(8.5, (3,))


def test_quotient_ranks_examples():
    assert quotient_ranks(FlagShape(2, (1,))) == (1, 1)
    assert quotient_ranks(FlagShape(12, (6, 5, 3))) == (6, 1, 2, 3)
    assert quotient_ranks(FlagShape(7, (2, 1))) == (5, 1, 1)
    for n in range(2, 9):
        for d in range(1, n):
            assert sum(quotient_ranks(FlagShape(n, (d,)))) == n


def test_positivity_examples():
    assert positivity((3, 1)) == AMPLE
    assert positivity((1, 1)) == NEF_NOT_AMPLE
    assert positivity((0, 1)) == NOT_NEF
    assert positivity((0,)) == NEF_NOT_AMPLE
    assert positivity((2, 1, 0)) == NEF_NOT_AMPLE
    assert positivity((2, 0, 1)) == NOT_NEF
    assert positivity((1, -1)) == NOT_NEF


def test_decompose_ample_examples():
    assert decompose_ample((3, 1)) == 1
    for p in range(1, 6):
        assert decompose_ample((2 * p, p)) == p
    assert decompose_ample((1,)) == 1
    with pytest.raises(ValueError):
        decompose_ample((1, 1))


def test_canonical_weight_projective_spaces():
    for n in range(1, 7):
        w = canonical_weight(FlagShape(n + 1, (1,)))
        # O(-n-1) on P^n: constant -n on the rank-n block, +n... check via blocks
        assert w.blocks == ((-1,) * n, (n,))
        res = bbw_cohomology(w)
        assert not res.vanishes and res.degree == n and res.dimension == 1


def test_canonical_weight_grassmannians():
    # K = O(-n) in Pluecker degree on Gr(r, n): top cohomology one-dimensional
    for n in range(2, 9):
        for r in range(1, n):
            shape = FlagShape(n, (r,))
            res = bbw_cohomology(canonical_weight(shape))
            assert not res.vanishes
            assert res.degree == flag_dimension(quotient_ranks(shape))
            assert res.dimension == 1
    w = canonical_weight(FlagShape(4, (2,)))
    assert w.blocks == ((-2, -2), (2, 2))


def test_line_bundle_weight():
    w = line_bundle_weight(FlagShape(4, (2, 1)), (3, 1))
    assert w.blocks == ((3, 3), (1,), (0,))
    with pytest.raises(ValueError):
        line_bundle_weight(FlagShape(4, (2, 1)), (3,))


def test_variety_spec_validation():
    with pytest.raises(ValueError):
        VarietySpec(Family.C, FlagShape(7, (2,)), W_WEDGE2)  # odd ambient
    with pytest.raises(ValueError):
        VarietySpec(Family.B, FlagShape(8, (2,)), W_SYM2)  # even ambient
    with pytest.raises(ValueError):
        VarietySpec(Family.C, FlagShape(6, (4,)), W_WEDGE2)  # not isotropic
    with pytest.raises(ValueError):
        VarietySpec(Family.G2_X, FlagShape(7, (3,)), W_G2)
    VarietySpec(Family.A, FlagShape(5, (2,)), W_NONE)


def test_parse_variety_catalog():
    spec = parse_variety("sfl(6,5,3;12)")
    assert spec.family is Family.C and spec.w_kind == W_WEDGE2
    assert spec.shape == FlagShape(12, (6, 5, 3))
    assert parse_variety("fl(2,1;5)").family is Family.A
    assert parse_variety("ofl(2;7)").family is Family.B
    assert parse_variety("ofl(2;8)").family is Family.D_SUB
    assert parse_variety("ofl(3;8)").family is Family.D_MIXED
    assert parse_variety("ofl(4;8)").family is Family.D_SPINOR
    assert parse_variety("g2x").family is Family.G2_X
    assert parse_variety("g2p").family is Family.G2_P
    assert parse_variety("g2q").family is Family.G2_Q
    with pytest.raises(ValueError):
        parse_variety("xfl(1;2)")
    with pytest.raises(ValueError):
        parse_variety("fl(1,2)")


def test_parse_shape():
    assert parse_shape("fl(2,1; 5)") == FlagShape(5, (2, 1))
    with pytest.raises(ValueError):
        parse_shape("sfl(2;6)")


def test_picard_restriction():
    assert picard_restriction(parse_variety("sfl(2;6)")).index == 1
    assert picard_restriction(parse_variety("ofl(2;7)")).index == 1
    assert picard_restriction(parse_variety("ofl(3;7)")).index == 2
    assert picard_restriction(parse_variety("ofl(4;8)")).index == 2
    assert picard_restriction(parse_variety("ofl(3;8)")).index == "corank-1-quotient"
    assert picard_restriction(parse_variety("ofl(2;8)")).index == 1


def test_w_rank_and_koszul_terms():
    c = parse_variety("sfl(3;8)")
    b = parse_variety("ofl(3;7)")
    assert w_rank(c) == 3
    assert w_rank(b) == 6
    assert [s.shape for s in koszul_terms(c, 1)] == [(1, 1)]
    assert [s.shape for s in koszul_terms(b, 1)] == [(2,)]
    assert [s.shape for s in koszul_terms(c, 2)] == [(2, 1, 1)]
    assert koszul_terms(c, 0) == [SchurSummand((), 1)]
    with pytest.raises(ValueError):
        koszul_terms(c, 4)
    with pytest.raises(ValueError):
        koszul_terms(parse_variety("fl(1;2)"), 1)


def test_koszul_dimension_identity():
    for token in ("sfl(3;8)", "ofl(3;7)", "sfl(2,1;6)"):
        spec = parse_variety(token)
        n1 = spec.shape.dims[0]
        for j in range(w_rank(spec) + 1):
            total = sum(
                s.multiplicity * weyl_dimension(pad(s.shape, n1), n1)
                for s in koszul_terms(spec, j)
            )
            assert total == comb(w_rank(spec), j)


def test_grassmannian_pushforward_examples():
    shape = FlagShape(5, (2, 1))
    assert grassmannian_pushforward(shape, (7, 3)) == (3, 0)
    assert grassmannian_pushforward(shape, (4, 0)) == (0, 0)
    assert grassmannian_pushforward(FlagShape(12, (6, 5, 3)), (9, 2, 1)) == (
        2, 1, 1, 0, 0, 0,
    )
    with pytest.raises(ValueError):
        grassmannian_pushforward(FlagShape(12, (6, 5, 3)), (9, 1, 2))


def test_g2_koszul_twist_weight():
    gx = parse_variety("g2x")
    w = g2_koszul_twist_weight(gx, (4,), 2)
    assert w.blocks == ((3, 3, 2, 2, 2), (0, 0))
    w = g2_koszul_twist_weight(gx, (4,), 2, (3, 1))
    assert w.blocks == ((3, 3, 2, 2, 2), (3, 1))
    gp = parse_variety("g2p")
    w = g2_koszul_twist_weight(gp, (3, 1), 1)
    assert w.blocks == ((3, 2, 2, 2, 2), (1,), (0,))
    w = g2_koszul_twist_weight(gp, (3, 1), 1, (2, 5))
    assert w.blocks == ((3, 2, 2, 2, 2), (3,), (5,))
    with pytest.raises(ValueError):
        g2_koszul_twist_weight(parse_variety("sfl(2;6)"), (1,), 1)


def test_restriction_surjectivity_small_cases():
    report = restriction_surjectivity_check(parse_variety("sfl(2;6)"), (1,))
    assert report.ok
    report = restriction_surjectivity_check(parse_variety("ofl(2;7)"), (1,))
    assert report.ok
    with pytest.raises(ValueError):
        restriction_surjectivity_check(parse_variety("sfl(2;6)"), (0,))
    with pytest.raises(ValueError):
        restriction_surjectivity_check(parse_variety("fl(2;6)"), (1,))


def test_line_bundle_arity():
    assert check_line_bundle(FlagShape(12, (6, 5, 3)), [3, 2, 1]) == (3, 2, 1)
    for token, a, k in (("sfl(2,1;6)", (2,), 2), ("g2x", (2, 1), 1), ("g2p", (3,), 2)):
        with pytest.raises(ValueError, match=f"expected {k} line-bundle coefficients"):
            restriction_surjectivity_check(parse_variety(token), a)
    with pytest.raises(ValueError, match="expected 1 line-bundle coefficients"):
        g2_koszul_twist_weight(parse_variety("g2x"), (2, 1), 1)
