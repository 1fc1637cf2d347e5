import hashlib
import itertools
from math import prod

import pytest
from hypothesis import given, strategies as st

from np_atlas.geometry import parse_variety
from np_atlas.partitions import contains, normalize, pad, weyl_dimension
from np_atlas.schur import (
    SchurSummand,
    character_product,
    filtration_quotients,
    lr_coefficient,
    partitions_of,
    schur_character,
    skew_decompose,
    tensor_decompose,
)
from np_atlas.syzygy import schur_complex_term


def all_shapes(max_weight):
    shapes = [()]
    for w in range(1, max_weight + 1):
        shapes.extend(partitions_of(w))
    return shapes


def test_lr_examples():
    assert lr_coefficient((2, 1), (2,), (1,)) == 1
    assert lr_coefficient((2, 1), (1,), (1,)) == 0  # weight mismatch
    assert lr_coefficient((2, 2), (2,), (1,)) == 0


def test_lr_symmetry_small():
    shapes = all_shapes(4)
    for mu in shapes:
        for nu in shapes:
            assert tensor_decompose(mu, nu, 8) == tensor_decompose(nu, mu, 8)


def test_tensor_decompose_examples():
    assert tensor_decompose((1,), (1,), 4) == [
        SchurSummand((1, 1), 1),
        SchurSummand((2,), 1),
    ]
    for lam in [(3, 1), (2, 2, 1), ()]:
        assert tensor_decompose((), lam, 6) == [SchurSummand(lam, 1)]
    assert tensor_decompose((2, 1), (1,), 4) == [
        SchurSummand((2, 1, 1), 1),
        SchurSummand((2, 2), 1),
        SchurSummand((3, 1), 1),
    ]


def test_tensor_decompose_length_cap():
    out = tensor_decompose((1, 1), (1, 1), 2)
    assert all(len(s.shape) <= 2 for s in out)
    assert SchurSummand((2, 2), 1) in out


def test_schur_character_examples():
    assert schur_character((1,), 2) == {(1, 0): 1, (0, 1): 1}
    assert schur_character((1, 1), 2) == {(1, 1): 1}
    assert schur_character((2, 1), 2) == {(2, 1): 1, (1, 2): 1}
    assert schur_character((1, 1, 1), 2) == {}
    assert schur_character((), 3) == {(0, 0, 0): 1}


def test_character_symmetry():
    poly = schur_character((3, 1), 3)
    for expo, coeff in poly.items():
        for perm in [(1, 0, 2), (2, 1, 0), (0, 2, 1)]:
            assert poly[tuple(expo[i] for i in perm)] == coeff


def test_character_product_unit():
    one = schur_character((), 3)
    a = schur_character((2, 1), 3)
    assert character_product(one, a) == a


def test_skew_decompose_examples():
    assert skew_decompose((2, 1), (1,)) == {(2,): 1, (1, 1): 1}
    assert skew_decompose((3, 2, 1), (2, 1)) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    assert skew_decompose((2, 2), (2, 2)) == {(): 1}
    assert skew_decompose((2,), (1, 1)) == {}


def test_skew_decompose_matches_tensor_decompose():
    # two walks over different skew shapes: lam/mu, and the disconnected
    # shape of mu beside nu; criterion 4 ties the second to the character oracle
    for lam in all_shapes(6):
        for mu in all_shapes(sum(lam)):
            if not contains(lam, mu):
                continue
            skew = skew_decompose(lam, mu)
            for nu in partitions_of(sum(lam) - sum(mu)):
                product = dict(tensor_decompose(mu, nu, len(lam)))
                assert skew.get(nu, 0) == product.get(lam, 0), (lam, mu, nu)
            assert all(sum(nu) == sum(lam) - sum(mu) for nu in skew), (lam, mu)


@st.composite
def lr_triple(draw):
    """lam, then mu and nu whose weights add up to that of lam."""
    lam = draw(st.lists(st.integers(0, 4), max_size=4).map(
        lambda xs: normalize(sorted(xs, reverse=True))))
    k = draw(st.integers(0, sum(lam)))
    mu = draw(st.sampled_from(list(partitions_of(k))))
    nu = draw(st.sampled_from(list(partitions_of(sum(lam) - k))))
    return lam, mu, nu


@given(lr_triple())
def test_lr_coefficient_symmetric_in_factors(triple):
    lam, mu, nu = triple
    assert lr_coefficient(lam, mu, nu) == lr_coefficient(lam, nu, mu)


def test_malformed_schur_input_rejected():
    with pytest.raises(ValueError, match="partition entries must be ints"):
        tensor_decompose((1.9,), (1,), 2)
    with pytest.raises(ValueError, match="max_length must be a non-negative int"):
        tensor_decompose((1,), (1,), -1)
    with pytest.raises(ValueError, match="block ranks must be non-negative ints"):
        filtration_quotients((1,), (-1, 2))


def test_filtration_quotients_examples():
    assert filtration_quotients((1,), (1, 1)) == [
        SchurSummand(((), (1,)), 1),
        SchurSummand(((1,), ()), 1),
    ]
    assert filtration_quotients((1, 1), (1, 1)) == [SchurSummand(((1,), (1,)), 1)]
    assert filtration_quotients((2,), (1, 1)) == [
        SchurSummand(((), (2,)), 1),
        SchurSummand(((1,), (1,)), 1),
        SchurSummand(((2,), ()), 1),
    ]


def block_character(shapes, ranks):
    """Product of the schur_character(rho_b, r_b) in disjoint variables; a rank-0 block gives 1."""
    poly = {(): 1}
    for rho, r in zip(shapes, ranks):
        factor = schur_character(rho, r) if r else {(): 1}
        poly = {a + b: ca * cb for a, ca in poly.items() for b, cb in factor.items()}
    return poly


def test_filtration_quotients_match_character_oracle():
    # the branching of S^alpha checked against the semistandard-tableau oracle;
    # weight 6 is the first with an LR coefficient above 1
    cases = 0
    for alpha in all_shapes(6):
        for length in range(1, 4):
            for ranks in itertools.product(range(4), repeat=length):
                if not 1 <= sum(ranks) <= 5 or len(alpha) > sum(ranks):
                    continue
                restricted = {}
                for s in filtration_quotients(alpha, ranks):
                    for expo, c in block_character(s.shape, ranks).items():
                        restricted[expo] = restricted.get(expo, 0) + s.multiplicity * c
                assert restricted == schur_character(alpha, sum(ranks)), (alpha, ranks)
                cases += 1
    assert cases == 1358


def rank_tuples(total_cap, length_cap):
    out = []

    def rec(acc, remaining):
        if acc and len(acc) >= 2:
            out.append(tuple(acc))
        if len(acc) == length_cap:
            return
        for r in range(1, remaining + 1):
            rec(acc + [r], remaining - r)

    rec([], total_cap)
    return out


def test_filtration_quotients_dimension_additivity():
    # graded pieces of a filtered bundle carry the same total dimension
    for alpha in all_shapes(5):
        for ranks in rank_tuples(5, 3):
            if len(alpha) > sum(ranks):
                continue
            total = sum(
                s.multiplicity
                * prod(weyl_dimension(pad(rho, r), r) for rho, r in zip(s.shape, ranks))
                for s in filtration_quotients(alpha, ranks)
            )
            assert total == weyl_dimension(pad(alpha, sum(ranks)), sum(ranks)), (
                alpha,
                ranks,
            )


def test_filtration_quotients_weight_six_spot_checks():
    for alpha, ranks in [((3, 2, 1), (2, 2, 2)), ((2, 2, 1, 1), (3, 3)), ((6,), (1, 5))]:
        n = sum(ranks)
        total = 0
        for s in filtration_quotients(alpha, ranks):
            prod = s.multiplicity
            for rho, r in zip(s.shape, ranks):
                prod *= weyl_dimension(pad(rho, r), r)
            total += prod
        assert total == weyl_dimension(pad(alpha, n), n)


# sha256 of the repr of schur_complex_term at gap 5 (levels of each variety,
# j = 1..6) and of filtration_quotients over the partitions of 7 that fit,
# recorded from the code that counted one LR triple at a time
SCHUR_COMPLEX_DIGESTS = {
    ("sfl(3,2,1;8)", 1): "8fe74ebf4411a1eedfc7649fac9e4c141e638336ff7bdb6c06ac543ccc97b7a8",
    ("sfl(3,2,1;8)", 2): "41b678618d661aae2b03f86664dfe925ab4fabee2c5e00af967e631ad55a89ea",
    ("sfl(3,2,1;8)", 3): "3e91fc81d3c84c4397c2d3da70d286965ad24ff792e3db02ff9a1b42fbb35b35",
    ("ofl(3,1;9)", 1): "920073e088252ea307244b8ecb1ec0c245a4b2f180b629e33b5d01d9df96a703",
    ("ofl(3,1;9)", 2): "3bbc9b228631155631de9757f0cc3b0bf4bb0eebf8d043083d82406dffd6e068",
    ("sfl(4;10)", 1): "d688732baf8b626ee58758380408d64400e75ebe16dbae953db05e59af9b0fdf",
}
FILTRATION_DIGESTS = {
    (2, 2, 2): "a667e7757256b9880bc98e94318ecdde9bf0dd085c2de3ec72508d06516a3dbe",
    (3, 2, 2): "1853b0fe70c0b893332a612c778c4787e177c04e293f5371f2aa51261caea401",
}
# sha256 of the repr of every (alpha, ranks, quotients or ("ValueError", message))
# for alpha of weight <= 6 and rank tuples of length <= 4 with entries 0..3, ()
# included, recorded from the code that listed every tuple of block shapes
FILTRATION_SWEEP_DIGEST = "924fec60c839ff2172b9ac8b33f9be6b53dda974d0e90abf800923494ccad4df"


def sha256_of_repr(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_schur_layer_pinned():
    for (token, level), digest in SCHUR_COMPLEX_DIGESTS.items():
        shape = parse_variety(token).shape
        a = tuple(5 * (shape.k - i) for i in range(shape.k))
        terms = [schur_complex_term(shape, a, level, j) for j in range(1, 7)]
        assert sha256_of_repr(terms) == digest, (token, level)
    for ranks, digest in FILTRATION_DIGESTS.items():
        quotients = [filtration_quotients(alpha, ranks)
                     for alpha in partitions_of(7) if len(alpha) <= sum(ranks)]
        assert sha256_of_repr(quotients) == digest, ranks


def test_filtration_quotients_sweep_pinned():
    records = []
    for alpha in all_shapes(6):
        for length in range(5):
            for ranks in itertools.product(range(4), repeat=length):
                try:
                    result = filtration_quotients(alpha, ranks)
                except ValueError as exc:
                    result = ("ValueError", str(exc))
                records.append((alpha, ranks, result))
    assert len(records) == 10230
    assert sha256_of_repr(records) == FILTRATION_SWEEP_DIGEST
