import copy
import pickle
import re
from math import comb

import pytest
from hypothesis import given, strategies as st

from np_atlas import geometry

from np_atlas.bott import BlockedWeight, bbw_cohomology, flag_dimension, inversion_bound
from np_atlas.geometry import (
    Family,
    FlagShape,
    VarietySpec,
    _g2_twists,
    canonical_weight,
    check_line_bundle,
    parse_shape,
    parse_variety,
    quotient_ranks,
    restriction_surjectivity_check,
)
from np_atlas.partitions import pad, weyl_dimension
from np_atlas.plethysm import wedge_of_sym2, wedge_of_wedge2
from np_atlas.schur import schur_character
from np_atlas.syzygy import g2_np_certify, np_certify, schur_complex_term
from np_atlas.verify import RESTRICTION_CATALOG


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


def test_variety_spec_validation():
    with pytest.raises(ValueError):
        VarietySpec(Family.C, FlagShape(7, (2,)))  # odd ambient
    with pytest.raises(ValueError):
        VarietySpec(Family.B, FlagShape(8, (2,)))  # even ambient
    with pytest.raises(ValueError):
        VarietySpec(Family.C, FlagShape(6, (4,)))  # not isotropic
    with pytest.raises(ValueError):
        VarietySpec(Family.G2_X, FlagShape(7, (3,)))
    VarietySpec(Family.A, FlagShape(5, (2,)))


def test_variety_spec_rejects_non_family():
    for family in ("C", None, 2):
        with pytest.raises(ValueError, match="family must be a Family"):
            VarietySpec(family, FlagShape(6, (2,)))


def test_variety_spec_rejects_a_shape_that_is_not_a_flag_shape():
    for shape in ((6, (3, 1)), "fl(3,1;6)", None):
        with pytest.raises(ValueError, match="shape must be a FlagShape"):
            VarietySpec(Family.C, shape)


# each validating record: one valid instance, one field, a bad value for it and
# the message its constructor refuses that value with
VALIDATING_RECORDS = [
    (FlagShape(6, (3, 1)), "dims", (3.0, 1), "dim must be an int"),
    (VarietySpec(Family.C, FlagShape(6, (3, 1))), "family", "C", "family must be a Family"),
    (BlockedWeight(((2, 1), (0,))), "blocks", ((1, 2),), "not weakly decreasing"),
]


@pytest.mark.parametrize("record, field, bad, message", VALIDATING_RECORDS,
                         ids=[type(case[0]).__name__ for case in VALIDATING_RECORDS])
def test_validating_records_check_every_construction_path(record, field, bad, message):
    cls = type(record)
    values = tuple(bad if name == field else v for name, v in zip(cls._fields, record))
    forged = tuple.__new__(cls, values)  # a bad instance, built past the checks
    with pytest.raises(ValueError, match=message):
        cls._make(values)
    with pytest.raises(ValueError, match=message):
        record._replace(**{field: bad})
    with pytest.raises(ValueError, match=message):
        pickle.loads(pickle.dumps(forged))
    with pytest.raises(ValueError, match=message):
        copy.copy(forged)
    if hasattr(copy, "replace"):  # Python 3.13 and later
        with pytest.raises(ValueError, match=message):
            copy.replace(record, **{field: bad})
    # the good paths keep the type and the value
    assert cls(**record._asdict()) == record
    for rebuilt in (cls._make(record), record._replace(), pickle.loads(pickle.dumps(record)),
                    copy.copy(record)):
        assert type(rebuilt) is cls and rebuilt == record
    with pytest.raises(AttributeError):
        setattr(record, field, bad)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_variety_spec_orthogonal_family_follows_shape():
    # OG(2,10) is D_sub: mislabelled as a spinor variety it must not be built
    with pytest.raises(ValueError, match="make D_sub, not D_spinor"):
        VarietySpec(Family.D_SPINOR, FlagShape(10, (2,)))
    orthogonal = (Family.B, Family.D_SUB, Family.D_MIXED, Family.D_SPINOR)
    for n in range(3, 13):
        for n1 in range(1, n // 2 + 1):
            shape = FlagShape(n, (n1,))
            parsed = parse_variety(f"ofl({n1};{n})").family
            for fam in orthogonal:
                if fam is parsed:
                    VarietySpec(fam, shape)
                else:
                    with pytest.raises(ValueError):
                        VarietySpec(fam, shape)


def test_parse_variety_catalog():
    spec = parse_variety("sfl(6,5,3;12)")
    assert spec.family is Family.C
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
    with pytest.raises(ValueError, match=r"expected 'sfl\(n1,...,nk; n\)', got 'sfl 2;6'"):
        parse_variety("sfl 2;6")
    with pytest.raises(ValueError, match=r"bad integer token in shape 'ofl\(2,x;7\)'"):
        parse_variety("ofl(2,x;7)")


def test_parse_shape():
    assert parse_shape("fl(2,1; 5)") == FlagShape(5, (2, 1))
    with pytest.raises(ValueError):
        parse_shape("sfl(2;6)")


# one catalog entry per family, with the square of its defining bundle: wedge^2
# for C, S^2 for the orthogonal families and G2_Q, and none for A (no defining
# bundle) or for G2_X and G2_P (the G2 Koszul twist)
SQUARES = {
    "fl(2,1;5)": None, "sfl(3,1;8)": wedge_of_wedge2, "ofl(3;7)": wedge_of_sym2,
    "ofl(2;8)": wedge_of_sym2, "ofl(3;8)": wedge_of_sym2, "ofl(4,2;8)": wedge_of_sym2,
    "g2q": wedge_of_sym2, "g2x": None, "g2p": None,
}


def test_defining_square_follows_family():
    specs = {token: parse_variety(token) for token in SQUARES}
    assert {spec.family for spec in specs.values()} == set(Family)
    for token, square in SQUARES.items():
        spec = specs[token]
        a = tuple(range(spec.shape.k, 0, -1))
        if spec.family is Family.A:
            with pytest.raises(ValueError, match="A has no wedge- or sym-square defining bundle"):
                restriction_surjectivity_check(spec, a)
            continue
        entries = restriction_surjectivity_check(spec, a).entries
        pairs = {(e.degree_required, e.beta) for e in entries}
        if square is None:  # the G2 Koszul twist: one column per degree
            assert pairs == {(j, (1,) * j + (0,) * (5 - j)) for j in range(1, 6)}
            continue
        n1 = spec.shape.dims[0]
        # the rank is the dimension of the square's one first wedge power
        (first,) = square(1, n1)
        rank = weyl_dimension(pad(first, n1), n1)
        assert rank == comb(n1 + (square is wedge_of_sym2), 2)
        assert pairs == {(i, s) for i in range(1, rank + 1) for s in square(i, n1)}


def test_restriction_entries_come_in_order():
    for token in RESTRICTION_CATALOG:
        spec = parse_variety(token)
        for gap in (1, 2, 3):
            a = tuple(gap * (spec.shape.k - i) for i in range(spec.shape.k))
            keys = [(e.degree_required, e.beta, e.beta_prime)
                    for e in restriction_surjectivity_check(spec, a).entries]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_degrees_and_ranks_must_be_ints():
    spec = parse_variety("sfl(3;6)")
    calls = [
        lambda: wedge_of_wedge2(1.5, 3),
        lambda: wedge_of_wedge2(2, 3.5),
        lambda: wedge_of_sym2(True, 3),
        lambda: wedge_of_sym2(1, 2.0),
        lambda: weyl_dimension((1, 0), 2.0),
        lambda: weyl_dimension((1,), True),
        lambda: inversion_bound(((),), (1.0, 1), (1,), 1),
        lambda: inversion_bound(((),), (1, True), (1,), 1),
        lambda: flag_dimension((1.5, 2)),
        lambda: schur_character((1,), 2.0),
        lambda: schur_character((1,), True),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must be an int"):
            call()
    for j, n in ((2, -3), (0, -1), (-1, 3)):
        for gen in (wedge_of_wedge2, wedge_of_sym2):
            with pytest.raises(ValueError, match="must be >= 0, got -"):
                gen(j, n)


def test_g2_twists():
    for token, a, tail in (("g2x", (4,), ((0, 0),)), ("g2p", (3, 1), ((1,), (0,)))):
        assert [w.blocks for w in _g2_twists(parse_variety(token), a)] == [
            ((a[0] - j + 1,) * j + (a[0] - j,) * (5 - j),) + tail for j in range(6)]
    assert _g2_twists(parse_variety("g2x"), (4,))[2].blocks == ((3, 3, 2, 2, 2), (0, 0))
    assert _g2_twists(parse_variety("g2p"), (3, 1))[1].blocks == ((3, 2, 2, 2, 2), (1,), (0,))


def test_restriction_surjectivity_small_cases():
    report = restriction_surjectivity_check(parse_variety("sfl(2;6)"), (1,))
    assert report.ok
    report = restriction_surjectivity_check(parse_variety("ofl(2;7)"), (1,))
    assert report.ok
    with pytest.raises(ValueError, match=r"line bundle \(0,\) is not ample"):
        restriction_surjectivity_check(parse_variety("sfl(2;6)"), (0,))
    with pytest.raises(ValueError, match="A has no wedge- or sym-square defining bundle"):
        restriction_surjectivity_check(parse_variety("fl(2;6)"), (1,))


def test_line_bundle_arity():
    assert check_line_bundle(FlagShape(12, (6, 5, 3)), [3, 2, 1]) == ((3, 2, 1), 1)
    for token, a, k in (("sfl(2,1;6)", (2,), 2), ("g2x", (2, 1), 1), ("g2p", (3,), 2)):
        with pytest.raises(ValueError, match=f"expected {k} line-bundle coefficients"):
            restriction_surjectivity_check(parse_variety(token), a)


def _least_gap_by_loop(a):
    """min(a_i - a_{i+1}, a_k), read off a + (0,) one neighbour pair at a time."""
    c = a + (0,)
    gap = c[0] - c[1]
    for i in range(1, len(a)):
        if c[i] - c[i + 1] < gap:
            gap = c[i] - c[i + 1]
    return gap


LEAST_GAP_TOKENS = ("sfl(2,1;6)", "ofl(2;7)", "fl(2,1;4)", "g2x", "g2p")


@st.composite
def spec_and_bundle(draw):
    spec = parse_variety(draw(st.sampled_from(LEAST_GAP_TOKENS)))
    a = tuple(draw(st.lists(st.integers(-3, 6), min_size=spec.shape.k, max_size=spec.shape.k)))
    return spec, a


@given(spec_and_bundle())
def test_ample_and_nef_follow_the_least_gap(query):
    # np_certify and the restriction check refuse exactly the gaps below 1,
    # schur_complex_term exactly the gaps below 0
    spec, a = query
    gap = _least_gap_by_loop(a)
    if gap < 1:
        with pytest.raises(ValueError, match=re.escape(f"line bundle {a} is not ample")):
            np_certify(spec, a, 1)
    else:
        assert np_certify(spec, a, 1).gap == gap
    if spec.family is not Family.A:
        if gap < 1:
            with pytest.raises(ValueError, match=re.escape(f"line bundle {a} is not ample")):
                restriction_surjectivity_check(spec, a)
        else:
            restriction_surjectivity_check(spec, a)
    if gap < 0:
        with pytest.raises(ValueError, match=re.escape(f"line bundle {a} is not nef")):
            schur_complex_term(spec.shape, a, 1, 1)
    else:
        schur_complex_term(spec.shape, a, 1, 1)


def test_each_line_bundle_is_checked_once(monkeypatch):
    calls = []
    check_ints = geometry.check_ints

    def counted(what, values):
        calls.append(what)
        return check_ints(what, values)

    monkeypatch.setattr(geometry, "check_ints", counted)
    for call in (lambda: schur_complex_term(FlagShape(6, (3, 1)), (3, 1), 1, 1),
                 lambda: restriction_surjectivity_check(parse_variety("sfl(2,1;6)"), (2, 1)),
                 lambda: g2_np_certify(parse_variety("g2x"), (1,), 1),
                 lambda: g2_np_certify(parse_variety("g2p"), (2, 1), 1),
                 lambda: restriction_surjectivity_check(parse_variety("g2x"), (1,)),
                 lambda: restriction_surjectivity_check(parse_variety("g2p"), (2, 1))):
        calls.clear()
        call()
        assert calls.count("line-bundle coefficient") == 1
