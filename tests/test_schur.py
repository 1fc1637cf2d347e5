import gc
import hashlib
import itertools
from math import prod

import pytest
from hypothesis import given, strategies as st

from np_atlas.geometry import parse_variety, restriction_surjectivity_check
from np_atlas.partitions import contains, normalize, pad, weyl_dimension
from np_atlas.schur import (
    SchurSummand,
    _lr_fillings,
    _lr_skeleton,
    _mult_in_product,
    _partitions,
    _schur_character,
    _sub_diagrams,
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
    for m in (0, -1):
        with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
            schur_character((1,), m)


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
                assert lr_coefficient(lam, mu, nu) == product.get(lam, 0), (lam, mu, nu)
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
    assert lr_coefficient((2,), (1,), (1,)) == 1  # a warm int call answers no float
    for lam, mu, nu in (((2.0,), (1,), (1,)), ((2,), (True,), (1,)), ((2,), (1,), (1.0,))):
        with pytest.raises(ValueError, match="partition entry must be an int"):
            lr_coefficient(lam, mu, nu)
    with pytest.raises(ValueError, match="partition entry must be an int"):
        tensor_decompose((1.9,), (1,), 2)
    with pytest.raises(ValueError, match="max_length must be >= 0, got -1"):
        tensor_decompose((1,), (1,), -1)
    with pytest.raises(ValueError, match="block rank must be >= 0, got -1"):
        filtration_quotients((1,), (-1, 2))
    # refused at the call, before any next()
    for n, max_length, message in ((True, None, "n must be an int"),
                                   (2.5, None, "n must be an int"),
                                   (-1, None, "n must be >= 0, got -1"),
                                   (3, 1.5, "max_length must be an int"),
                                   (3, True, "max_length must be an int"),
                                   (3, -1, "max_length must be >= 0, got -1")):
        with pytest.raises(ValueError, match=message):
            partitions_of(n, max_length=max_length)


def _lr_fillings_plain(lam, mu, max_length=None):
    """Reference: the LR walk over every cell of lam/mu, forced rows included."""
    rows = len(lam)
    mu = pad(mu, rows)
    cells = [(i, j) for i in range(rows) for j in range(lam[i] - 1, mu[i] - 1, -1)]
    top = rows if max_length is None else min(rows, max_length)
    grid = [[0] * r for r in lam]
    counts = [0] * top
    out = {}

    def rec(pos):
        if pos == len(cells):
            content = tuple(c for c in counts if c)
            out[content] = out.get(content, 0) + 1
            return
        i, j = cells[pos]
        hi = min(i + 1, top, grid[i][j + 1]) if j + 1 < lam[i] else min(i + 1, top)
        lo = grid[i - 1][j] + 1 if i > 0 and j >= mu[i - 1] else 1
        for v in range(lo, hi + 1):
            if v > 1 and counts[v - 1] >= counts[v - 2]:
                continue
            grid[i][j] = v
            counts[v - 1] += 1
            rec(pos + 1)
            counts[v - 1] -= 1

    rec(0)
    return out


def test_lr_walk_matches_plain_walk():
    # max_length 0..4 puts forced rows past the cap, with and without cells
    cases = 0
    for lam in all_shapes(10):
        for mu in _sub_diagrams(lam, len(lam)):
            for max_length in (None, 0, 1, 2, 3, 4):
                assert _lr_fillings.__wrapped__(lam, mu, max_length) == \
                    _lr_fillings_plain(lam, mu, max_length), (lam, mu, max_length)
                cases += 1
    assert cases == 17328


def test_lr_walk_matches_plain_walk_on_product_shapes():
    # the shapes tensor_decompose walks for mu of 9 and nu of 5: weight 14,
    # forced blocks of up to 9 rows, and caps that fall inside them; the
    # contents must also come in the same order
    cases = 0
    for mu in partitions_of(9):
        for nu in partitions_of(5):
            lam = tuple(m + nu[0] for m in mu) + nu
            inner = (nu[0],) * len(mu)
            for max_length in range(len(mu) + len(nu) + 1):
                assert list(_lr_fillings.__wrapped__(lam, inner, max_length).items()) == \
                    list(_lr_fillings_plain(lam, inner, max_length).items()), (lam, max_length)
                cases += 1
    assert cases == 1706


def _skeleton_key(lam, mu, max_length):
    """The key of lam/mu's compiled slot tables, or None when a forced row needs a
    value past max_length and the walk stops before compiling."""
    mu = pad(mu, len(lam))
    forced = mu.count(mu[0])  # mu is weakly decreasing, so its mu[0] entries lead
    top = len(lam) if max_length is None else min(len(lam), max_length)
    if forced > top and lam[top] > mu[0]:
        return None
    return lam[forced:], mu[forced - 1:], forced, top


def test_shapes_sharing_a_skeleton_walk_alike():
    # shapes that differ only in their forced rows share one compiled skeleton;
    # each must still give the plain walk's contents, in its order, whether it
    # compiles the skeleton or reads the other shape's
    groups = {}
    for lam in all_shapes(8)[1:]:  # () has no forced row
        for mu in _sub_diagrams(lam, len(lam)):
            for max_length in (None, 1, 2, 3):
                key = _skeleton_key(lam, mu, max_length)
                if key is not None:
                    groups.setdefault(key, []).append((lam, mu, max_length))
    pairs = [(key, members[:2]) for key, members in groups.items() if len(members) > 1]
    for _, pair in pairs:
        for order in (pair, pair[::-1]):
            _lr_fillings.cache_clear()
            _lr_skeleton.cache_clear()
            for lam, mu, max_length in order:
                assert list(_lr_fillings(lam, mu, max_length).items()) == \
                    list(_lr_fillings_plain(lam, mu, max_length).items()), (lam, mu, max_length)
            assert _lr_skeleton.cache_info().misses == 1, order
    assert len(pairs) == 651
    # caps inside the forced rows, and caps that cut the walked rows
    assert any(top < forced for (_, _, forced, top), _ in pairs)
    assert any(forced < top < forced + len(walked) for (walked, _, forced, top), _ in pairs)


def test_products_share_skeletons():
    # the 210 products of tensor_decompose over partitions of 9 and 5 walk 210
    # shapes uncached, so the walk cache stays empty; the 7 walked nu and 9
    # forced-row counts still give 63 skeletons
    _lr_fillings.cache_clear()
    _lr_skeleton.cache_clear()
    for mu in partitions_of(9):
        for nu in partitions_of(5):
            tensor_decompose(mu, nu, len(mu) + len(nu))
    info = _lr_fillings.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    assert _lr_skeleton.cache_info().misses == 63


# sha256 of the repr of every (mu, nu, m, tensor_decompose(mu, nu, m)) for mu and
# nu of weight <= 5, () included, and m = 0..len(mu) + len(nu), recorded from the
# code that cached every product walk
TENSOR_DIGEST = "c71d9dcd66ffc196ce7a6992c336aa5f41f4b4da187003ffec1e4e2f21ed0495"
# sha256 of the repr of every (outer, cap, sub-diagrams in order) for outer of
# weight <= 8 and caps 0..4, recorded from the generator that _sub_diagrams was
SUB_DIAGRAMS_DIGEST = "54fb93f1b5f8c0679c233802327c0d968d7264095fe8711d609d2ef7926b8bc6"


def test_tensor_decompose_pinned():
    # the uncached product walk, with every truncation to m rows
    records = [(mu, nu, m, tensor_decompose(mu, nu, m))
               for mu in all_shapes(5) for nu in all_shapes(5)
               for m in range(len(mu) + len(nu) + 1)]
    assert len(records) == 1957
    assert sha256_of_repr(records) == TENSOR_DIGEST


def test_sub_diagrams_are_the_contained_partitions():
    records = []
    for outer in all_shapes(8):
        for cap in range(5):
            subs = _sub_diagrams(outer, cap)
            assert type(subs) is tuple, (outer, cap)  # shared by every caller
            assert len(subs) == len(set(subs)), (outer, cap)
            expected = {rho for w in range(sum(outer) + 1)
                        for rho in partitions_of(w, max_length=cap) if contains(outer, rho)}
            assert set(subs) == expected, (outer, cap)
            records.append((outer, cap, subs))
    assert len(records) == 335
    assert sha256_of_repr(records) == SUB_DIAGRAMS_DIGEST


def test_cached_partitions_match_partitions_of():
    for n in range(13):
        for m in range(n + 1):
            cached = _partitions(n, m)
            assert type(cached) is tuple, (n, m)  # shared by every caller
            assert cached == tuple(partitions_of(n, max_length=m)), (n, m)
            assert _partitions(n, m) is cached


def test_schur_layer_leaves_no_cyclic_garbage():
    # each call frees everything it allocates by reference counting alone, so
    # with the collector off it finds nothing afterwards; the caches are cleared
    # first, so every call does its work
    spec = parse_variety("sfl(3,1;8)")
    shape = parse_variety("sfl(3,2,1;8)").shape
    calls = [
        lambda: list(partitions_of(6, max_length=3)),
        lambda: _sub_diagrams((3, 2, 1), 2),
        lambda: schur_character((3, 1), 3),
        lambda: filtration_quotients((3, 2, 1), (2, 2, 2)),
        lambda: restriction_surjectivity_check(spec, (2, 1)),
        lambda: tensor_decompose((3, 1), (2, 1), 4),
        lambda: schur_complex_term(shape, (15, 10, 5), 2, 3),
    ]
    for cache in (_lr_fillings, _lr_skeleton, _mult_in_product, _partitions,
                  _schur_character, _sub_diagrams):
        cache.cache_clear()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    found = []
    try:
        for call in calls:
            call()
            found.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert found == [0] * len(calls)


def test_filtration_walks_each_skew_shape_once():
    # the uncached walk ran 1,265 times here: once per (target, rho) peeled,
    # however often the same shape came back
    _lr_fillings.cache_clear()
    _mult_in_product.cache_clear()
    for ranks in ((2, 2, 2), (3, 3), (2, 3, 1), (3, 2, 2)):
        for alpha in partitions_of(7):
            if len(alpha) <= sum(ranks):
                filtration_quotients(alpha, ranks)
    assert _lr_fillings.cache_info().misses == 381


def test_shared_walk_result_is_not_exposed():
    # filtration_quotients((3, 2, 1), (1, 2)) reads the cached walk of
    # (3, 2, 1)/(1,); tensor_decompose((2, 1), (1,), 4) walks (3, 2, 1)/(1, 1)
    skew = {(3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1}
    returned = skew_decompose((3, 2, 1), (1,))
    assert returned == skew
    returned.clear()
    assert skew_decompose((3, 2, 1), (1,)) == skew
    assert tensor_decompose((2, 1), (1,), 4) == [
        SchurSummand((2, 1, 1), 1),
        SchurSummand((2, 2), 1),
        SchurSummand((3, 1), 1),
    ]
    _mult_in_product.cache_clear()  # so the quotients re-read the cached walks
    assert filtration_quotients((3, 2, 1), (1, 2)) == [
        SchurSummand(((1,), (3, 2)), 1),
        SchurSummand(((2,), (2, 2)), 1),
        SchurSummand(((2,), (3, 1)), 1),
        SchurSummand(((3,), (2, 1)), 1),
    ]
    assert skew_decompose((3, 1), (1,)) == {(3,): 1, (2, 1): 1}
    with pytest.raises(ValueError, match="partition entry must be an int"):
        skew_decompose((3.0, 1), (1,))


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
