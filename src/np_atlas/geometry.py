"""Flag shapes, the least-gap rule for ample and nef line bundles, and the
isotropic-variety catalog.

Everything geometric happens on an ambient type-A flag variety: the isotropic
varieties of types B/C/D and the G2 family are carried as a shape plus the
defining bundle of their embedding, and all cohomology is computed upstairs.
Line bundles are always written in the determinant basis of the ambient
quotient bundles.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import comb
from operator import le, sub
from typing import NamedTuple

from .bott import BlockedWeight, CohomologyResult, bbw_cohomology
from .partitions import check_int, check_ints, check_type, pad
from .plethysm import wedge_of_sym2, wedge_of_wedge2
from .schur import tensor_decompose


class Family(Enum):
    A = "A"
    C = "C"
    B = "B"
    D_SUB = "D_sub"
    D_SPINOR = "D_spinor"
    D_MIXED = "D_mixed"
    G2_Q = "G2_Q"
    G2_X = "G2_X"
    G2_P = "G2_P"


_ORTHOGONAL = (Family.B, Family.D_SUB, Family.D_SPINOR, Family.D_MIXED)

# The two defining squares of the tautological sub-bundle of rank n1, by the
# family name np_threshold takes: wedge^2 ("C") and S^2 ("BD").  An entry is
# the generator of the square's wedge powers and the shift in its rank
# comb(n1 + shift, 2), the same shift that lifts a BD threshold row over C's.
_SQUARES = {"C": (wedge_of_wedge2, 0), "BD": (wedge_of_sym2, 1)}
# the square that cuts out each family: C by wedge^2, the orthogonal families
# and G2_Q by S^2
_DEFINING_SQUARE = {Family.C: "C", **dict.fromkeys(_ORTHOGONAL + (Family.G2_Q,), "BD")}
# the two G2 varieties cut out by the G2 Koszul twist; A has no defining bundle
G2_TWISTED = (Family.G2_X, Family.G2_P)

# each G2 family lives on a fixed flag of 7-space
G2_DIMS = {Family.G2_X: (2,), Family.G2_P: (2, 1), Family.G2_Q: (1,)}


class FlagShape(namedtuple("FlagShape", "n dims")):
    """Ambient flag variety: strictly decreasing subspace dimensions inside n-space."""

    __slots__ = ()
    # the base _make skips __new__, and _replace and copy.replace call _make
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, n: int, dims: tuple[int, ...]):
        check_int("n", n)
        dims = check_ints("dim", dims)
        if not dims or any(map(le, dims, dims[1:])):
            raise ValueError(f"dims must be strictly decreasing and non-empty: {dims}")
        if dims[-1] < 1 or dims[0] >= n:
            raise ValueError(f"dims out of range for n={n}: {dims}")
        return tuple.__new__(cls, (n, dims))

    @property
    def k(self) -> int:
        return len(self.dims)


def quotient_ranks(shape: FlagShape) -> tuple[int, ...]:
    """Ranks (r_1..r_{k+1}) of the successive tautological quotients."""
    dims = (check_type("shape", shape, FlagShape).n,) + shape.dims + (0,)
    return tuple(map(sub, dims, dims[1:]))


def _orthogonal_family(shape: FlagShape) -> Family:
    """The orthogonal family of a flag of isotropic subspaces in n-space.

    Odd n gives type B.  For even n = 2m the largest subspace dimension n1
    decides the type-D subtype: n1 <= m - 2, n1 = m - 1, or n1 = m.
    """
    n, n1 = shape.n, shape.dims[0]
    if n % 2:
        return Family.B
    m = n // 2
    if n1 <= m - 2:
        return Family.D_SUB
    if n1 == m - 1:
        return Family.D_MIXED
    return Family.D_SPINOR


class VarietySpec(namedtuple("VarietySpec", "family shape")):
    """A catalog entry: family tag and ambient shape; the family fixes the defining bundle."""

    __slots__ = ()
    # the base _make skips __new__, and _replace and copy.replace call _make
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, family: Family, shape: FlagShape):
        check_type("family", family, Family)
        check_type("shape", shape, FlagShape)
        n, n1 = shape.n, shape.dims[0]
        if family is Family.C and n % 2:
            raise ValueError("type C needs even ambient dimension")
        if (family is Family.C or family in _ORTHOGONAL) and n1 > n // 2:
            raise ValueError("isotropic subspaces cannot exceed half the ambient dimension")
        if family in _ORTHOGONAL and family is not _orthogonal_family(shape):
            raise ValueError(f"isotropic {n1}-dimensional subspaces of {n}-space make "
                             f"{_orthogonal_family(shape).value}, not {family.value}")
        if family in G2_DIMS and (n != 7 or shape.dims != G2_DIMS[family]):
            raise ValueError(f"{family.value} lives on Fl{G2_DIMS[family]} in 7-space")
        return tuple.__new__(cls, (family, shape))


def check_line_bundle(shape: FlagShape, a: tuple[int, ...],
                      kind: str = "ample") -> tuple[tuple[int, ...], int]:
    """The integer coefficients as a tuple, once their count is the Picard rank
    k, and their least gap min(a_i - a_{i+1}, a_k): the largest l with
    L = H^l (x) M, H ample and M nef.  kind "ample" refuses a gap below 1,
    and kind "nef" one below 0.
    """
    a = check_ints("line-bundle coefficient", a)
    if len(a) != shape.k:
        raise ValueError(f"expected {shape.k} line-bundle coefficients, got {len(a)}: {a}")
    gap = min(map(sub, a, a[1:] + (0,)))
    if gap < (1 if kind == "ample" else 0):
        raise ValueError(f"line bundle {a} is not {kind}")
    return a, gap


def canonical_weight(shape: FlagShape) -> BlockedWeight:
    """Blocked weight of the canonical bundle of the flag variety."""
    ranks = quotient_ranks(shape)
    blocks = []
    for i, r in enumerate(ranks):
        c = sum(ranks[:i]) - sum(ranks[i + 1:])
        blocks.append((c,) * r)
    return BlockedWeight(tuple(blocks))


def _g2_column(j: int) -> tuple[int, ...]:
    """The length-j column of the j-th G2 Koszul term, padded to the rank-5 block."""
    return pad((1,) * j, 5)


def _g2_twists(spec: VarietySpec, a: tuple[int, ...]) -> list[BlockedWeight]:
    """Blocked weights of the G2 Koszul twists j = 0..5 tensored with the line
    bundle, for a G2_X or G2_P spec and a line bundle its caller has checked."""
    tail = ((0, 0),) if spec.family is Family.G2_X else ((a[1],), (0,))
    return [BlockedWeight((tuple(x + a[0] - j for x in _g2_column(j)),) + tail)
            for j in range(6)]


class SurjectivityEntry(NamedTuple):
    """One required vanishing and the cohomology actually found."""

    degree_required: int
    beta: tuple[int, ...]
    beta_prime: tuple[int, ...]
    multiplicity: int
    result: CohomologyResult
    ok: bool


class SurjectivityReport(NamedTuple):
    ok: bool
    entries: tuple[SurjectivityEntry, ...]


def restriction_surjectivity_check(spec: VarietySpec, a: tuple[int, ...]) -> SurjectivityReport:
    """Verify that ambient sections of an ample bundle restrict onto the subvariety.

    Runs the full Koszul sweep: every wedge power of the defining bundle,
    twisted by the line bundle, must have no cohomology in the matching
    degree.  The trace lists every Bott-Borel-Weil evaluation performed.
    """
    a, _ = check_line_bundle(check_type("spec", spec, VarietySpec).shape, a)

    if spec.family in G2_TWISTED:
        rows = ((j, _g2_column(j), _g2_column(j), 1, w)
                for j, w in enumerate(_g2_twists(spec, a)[1:], 1))
    else:
        if spec.family not in _DEFINING_SQUARE:
            raise ValueError(f"{spec.family.value} has no wedge- or sym-square defining bundle")
        wedges, shift = _SQUARES[_DEFINING_SQUARE[spec.family]]
        n1 = spec.shape.dims[0]
        ranks = quotient_ranks(spec.shape)
        # the pushforward of the tail twist to the Grassmannian of n1-planes: a is
        # ample, so its tail coefficients repeated by their ranks form a partition
        tilde = tuple(c for c, r in zip(a[1:], ranks[1:]) for _ in range(r))
        first = (a[0],) * ranks[0]
        # the constituents of the i-th Koszul term are wedges(i, n1)
        rows = ((i, beta, beta_prime, mult, BlockedWeight((first, pad(beta_prime, n1))))
                for i in range(1, comb(n1 + shift, 2) + 1)
                for beta in wedges(i, n1)
                for beta_prime, mult in tensor_decompose(beta, tilde, n1))

    # rows come in (degree_required, beta, beta_prime) order
    entries = []
    for deg, beta, beta_prime, mult, w in rows:
        res = bbw_cohomology(w)
        ok = res.vanishes or res.degree != deg
        entries.append(SurjectivityEntry(deg, beta, beta_prime, mult, res, ok))
    return SurjectivityReport(all(e.ok for e in entries), tuple(entries))


_SHAPE_TOKENS = {"fl": Family.A, "sfl": Family.C}
_G2_TOKENS = {
    "g2x": Family.G2_X,
    "g2q": Family.G2_Q,
    "g2p": Family.G2_P,
}


def _token(what: str, text: str) -> str:
    """text stripped and lower-cased; anything but a string is a ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"{what} must be a string, got {text!r}")
    return text.strip().lower()


def _parse_shape_body(text: str, token: str) -> FlagShape:
    body = text[len(token):].strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"expected '{token}(n1,...,nk; n)', got {text!r}")
    inner = body[1:-1]
    if ";" not in inner:
        raise ValueError(f"missing ambient dimension in {text!r}")
    dims_part, n_part = inner.split(";", 1)
    try:
        dims = tuple(int(tok) for tok in dims_part.split(","))
        n = int(n_part)
    except ValueError:
        raise ValueError(f"bad integer token in shape {text!r}") from None
    return FlagShape(n, dims)


def parse_variety(text: str) -> VarietySpec:
    """Parse catalog syntax: fl(...), sfl(...), ofl(...), g2x, g2q, g2p."""
    s = _token("variety", text)
    if s in _G2_TOKENS:
        fam = _G2_TOKENS[s]
        return VarietySpec(fam, FlagShape(7, G2_DIMS[fam]))
    for token in ("sfl", "ofl", "fl"):
        if s.startswith(token):
            shape = _parse_shape_body(s, token)
            fam = _orthogonal_family(shape) if token == "ofl" else _SHAPE_TOKENS[token]
            return VarietySpec(fam, shape)
    raise ValueError(f"unrecognized variety token {text!r}")


def parse_shape(text: str) -> FlagShape:
    """Parse a bare type-A shape "fl(n1,...,nk; n)"."""
    s = _token("shape", text)
    if not s.startswith("fl"):
        raise ValueError(f"expected fl(...), got {text!r}")
    return _parse_shape_body(s, "fl")
