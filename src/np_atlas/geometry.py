"""Flag shapes, line-bundle positivity, and the isotropic-variety catalog.

Everything geometric happens on an ambient type-A flag variety: the isotropic
varieties of types B/C/D and the G2 family are carried as a shape plus the
defining bundle of their embedding, and all cohomology is computed upstairs.
Line bundles are always written in the determinant basis of the ambient
quotient bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bott import BlockedWeight, CohomologyResult, bbw_cohomology
from .partitions import check_int, normalize, pad
from .plethysm import SYM2, WEDGE2, wedge_of_sym2, wedge_of_wedge2
from .schur import SchurSummand, tensor_decompose


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


W_NONE = "none"
W_WEDGE2 = "wedge2_sub"
W_SYM2 = "sym2_sub"
W_G2 = "g2_twist"

# each G2 family lives on a fixed flag of 7-space
G2_DIMS = {Family.G2_X: (2,), Family.G2_P: (2, 1), Family.G2_Q: (1,)}


@dataclass(frozen=True)
class FlagShape:
    """Ambient flag variety: strictly decreasing subspace dimensions inside n-space."""

    n: int
    dims: tuple[int, ...]

    def __post_init__(self):
        check_int("n", self.n)
        dims = tuple(check_int("dim", d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims or any(a <= b for a, b in zip(dims, dims[1:])):
            raise ValueError(f"dims must be strictly decreasing and non-empty: {dims}")
        if dims[-1] < 1 or dims[0] >= self.n:
            raise ValueError(f"dims out of range for n={self.n}: {dims}")

    @property
    def k(self) -> int:
        return len(self.dims)


def quotient_ranks(shape: FlagShape) -> tuple[int, ...]:
    """Ranks (r_1..r_{k+1}) of the successive tautological quotients."""
    dims = (shape.n,) + shape.dims + (0,)
    return tuple(dims[i] - dims[i + 1] for i in range(len(dims) - 1))


@dataclass(frozen=True)
class VarietySpec:
    """A catalog entry: ambient shape, family tag, and defining-bundle kind."""

    family: Family
    shape: FlagShape
    w_kind: str

    def __post_init__(self):
        n, n1 = self.shape.n, self.shape.dims[0]
        fam, w = self.family, self.w_kind
        if fam is Family.A and w != W_NONE:
            raise ValueError("type A carries no defining bundle")
        if fam is Family.C and (n % 2 or w != W_WEDGE2):
            raise ValueError("type C needs even ambient dimension and a wedge-square bundle")
        if fam is Family.B and (n % 2 == 0 or w != W_SYM2):
            raise ValueError("type B needs odd ambient dimension and a sym-square bundle")
        if fam in (Family.D_SUB, Family.D_SPINOR, Family.D_MIXED) and (n % 2 or w != W_SYM2):
            raise ValueError("type D needs even ambient dimension and a sym-square bundle")
        if fam in G2_DIMS and (n != 7 or self.shape.dims != G2_DIMS[fam]):
            raise ValueError(f"{fam.value} lives on Fl{G2_DIMS[fam]} in 7-space")
        if (fam in (Family.C, Family.B, Family.D_SUB, Family.D_SPINOR, Family.D_MIXED)
                and n1 > n // 2):
            raise ValueError("isotropic subspaces cannot exceed half the ambient dimension")


@dataclass(frozen=True)
class PicardRestriction:
    """How the ambient Picard lattice restricts to the subvariety."""

    injective: bool
    index: object  # 1, 2, or "corank-1-quotient"


def picard_restriction(spec: VarietySpec) -> PicardRestriction:
    fam = spec.family
    n, n1 = spec.shape.n, spec.shape.dims[0]
    if fam is Family.B and n1 == (n - 1) // 2:
        return PicardRestriction(True, 2)
    if fam is Family.D_SPINOR:
        return PicardRestriction(True, 2)
    if fam is Family.D_MIXED:
        return PicardRestriction(True, "corank-1-quotient")
    return PicardRestriction(True, 1)


AMPLE = "ample"
NEF_NOT_AMPLE = "nef_not_ample"
NOT_NEF = "not_nef"


def positivity(a: tuple[int, ...]) -> str:
    """Classify a line bundle by its coefficient chain in the det-quotient basis."""
    a = tuple(a)
    if all(x > y for x, y in zip(a, a[1:])) and (a[-1] if a else 0) > 0:
        return AMPLE
    if all(x >= y for x, y in zip(a, a[1:])) and (a[-1] if a else 0) >= 0:
        return NEF_NOT_AMPLE
    return NOT_NEF


def decompose_ample(a: tuple[int, ...]) -> int:
    """Largest l with L = H^l (x) M, H ample and M nef."""
    a = tuple(a)
    if positivity(a) != AMPLE:
        raise ValueError(f"line bundle {a} is not ample")
    gaps = [x - y for x, y in zip(a, a[1:])] + [a[-1]]
    return min(gaps)


def check_line_bundle(shape: FlagShape, a: tuple[int, ...]) -> tuple[int, ...]:
    """The integer coefficients as a tuple, once their count is the Picard rank k."""
    a = tuple(check_int("line-bundle coefficient", x) for x in a)
    if len(a) != shape.k:
        raise ValueError(f"expected {shape.k} line-bundle coefficients, got {len(a)}: {a}")
    return a


def line_bundle_weight(shape: FlagShape, a: tuple[int, ...]) -> BlockedWeight:
    """Constant-block weight of the line bundle with the given coefficients."""
    ranks = quotient_ranks(shape)
    coeffs = check_line_bundle(shape, a) + (0,)
    return BlockedWeight(tuple((c,) * r for c, r in zip(coeffs, ranks)))


def canonical_weight(shape: FlagShape) -> BlockedWeight:
    """Blocked weight of the canonical bundle of the flag variety."""
    ranks = quotient_ranks(shape)
    blocks = []
    for i, r in enumerate(ranks):
        c = sum(ranks[:i]) - sum(ranks[i + 1:])
        blocks.append((c,) * r)
    return BlockedWeight(tuple(blocks))


def w_rank(spec: VarietySpec) -> int:
    """Rank of the defining bundle of the embedding."""
    n1 = spec.shape.dims[0]
    if spec.w_kind == W_WEDGE2:
        return n1 * (n1 - 1) // 2
    if spec.w_kind == W_SYM2:
        return n1 * (n1 + 1) // 2
    if spec.w_kind == W_G2:
        return 5
    raise ValueError("variety has no defining bundle")


def koszul_terms(spec: VarietySpec, j: int) -> list[SchurSummand]:
    """Schur constituents (on the tautological sub-bundle) of the j-th Koszul term.

    For the G2 twist kind the single shape is the length-j column, carried
    with an implicit Pluecker twist by -j; see g2_koszul_twist_weight.
    """
    if spec.w_kind == W_NONE:
        raise ValueError("variety has no defining bundle")
    if not 0 <= j <= w_rank(spec):
        raise ValueError(f"j={j} outside 0..{w_rank(spec)}")
    if j == 0:
        return [SchurSummand((), 1)]
    n1 = spec.shape.dims[0]
    if spec.w_kind == W_WEDGE2:
        return [SchurSummand(s, 1) for s in wedge_of_wedge2(j, n1)]
    if spec.w_kind == W_SYM2:
        return [SchurSummand(s, 1) for s in wedge_of_sym2(j, n1)]
    return [SchurSummand((1,) * j, 1)]


def grassmannian_pushforward(shape: FlagShape, a: tuple[int, ...]) -> tuple[int, ...]:
    """Partition of length n_1 presenting the pushforward of the tail twist.

    Requires the tail coefficients (a_2..a_k) to form a relatively nef chain.
    """
    tail = check_line_bundle(shape, a)[1:]
    if any(x < y for x, y in zip(tail, tail[1:])) or (tail and tail[-1] < 0):
        raise ValueError(f"tail coefficients {tail} are not relatively nef")
    ranks = quotient_ranks(shape)
    out: list[int] = []
    for coeff, r in zip(tail, ranks[1:]):
        out.extend([coeff] * r)
    return pad(tuple(out), shape.dims[0])


def _g2_column(j: int) -> tuple[int, ...]:
    """The length-j column of the j-th G2 Koszul term, padded to the rank-5 block."""
    return pad((1,) * j, 5)


def g2_koszul_twist_weight(spec: VarietySpec, a: tuple[int, ...], j: int,
                           tail: tuple[int, int] = (0, 0)) -> BlockedWeight:
    """Blocked weight of the j-th G2 Koszul twist tensored with the line bundle.

    tail twists the blocks after the rank-5 one: on G2_X it is the rank-2
    block (a1, a2) itself; on G2_P, (t, s) adds t to the second coefficient's
    block and makes s the last block.
    """
    if spec.w_kind != W_G2:
        raise ValueError("not a G2 catalog entry")
    if not 0 <= j <= 5:
        raise ValueError("G2 Koszul terms exist for 0 <= j <= 5")
    a = check_line_bundle(spec.shape, a)
    block1 = tuple(x + a[0] - j for x in _g2_column(j))
    x, y = tail
    if spec.family is Family.G2_X:
        return BlockedWeight((block1, (x, y)))
    return BlockedWeight((block1, (a[1] + x,), (y,)))


@dataclass(frozen=True)
class SurjectivityEntry:
    """One required vanishing and the cohomology actually found."""

    degree_required: int
    beta: tuple[int, ...]
    beta_prime: tuple[int, ...]
    multiplicity: int
    result: CohomologyResult
    ok: bool


@dataclass(frozen=True)
class SurjectivityReport:
    ok: bool
    entries: tuple[SurjectivityEntry, ...]

    def nonvanishing_degrees(self) -> set[int]:
        return {e.result.degree for e in self.entries if not e.result.vanishes}


def restriction_surjectivity_check(spec: VarietySpec, a: tuple[int, ...]) -> SurjectivityReport:
    """Verify that ambient sections of an ample bundle restrict onto the subvariety.

    Runs the full Koszul sweep: every wedge power of the defining bundle,
    twisted by the line bundle, must have no cohomology in the matching
    degree.  The trace lists every Bott-Borel-Weil evaluation performed.
    """
    if spec.w_kind == W_NONE:
        raise ValueError("variety has no defining bundle")
    a = check_line_bundle(spec.shape, a)
    if positivity(a) != AMPLE:
        raise ValueError(f"line bundle {a} is not ample")

    tasks: list[tuple[int, tuple[int, ...], tuple[int, ...], int, BlockedWeight]] = []
    if spec.w_kind == W_G2:
        for j in range(1, 6):
            column = _g2_column(j)
            tasks.append((j, column, column, 1, g2_koszul_twist_weight(spec, a, j)))
    else:
        n1 = spec.shape.dims[0]
        r1 = quotient_ranks(spec.shape)[0]
        tilde = grassmannian_pushforward(spec.shape, a)
        for i in range(1, w_rank(spec) + 1):
            for beta, _ in koszul_terms(spec, i):
                for beta_prime, mult in tensor_decompose(beta, normalize(tilde), n1):
                    w = BlockedWeight(((a[0],) * r1, pad(beta_prime, n1)))
                    tasks.append((i, beta, beta_prime, mult, w))

    entries = []
    for deg, beta, beta_prime, mult, w in tasks:
        res = bbw_cohomology(w)
        ok = res.vanishes or res.degree != deg
        entries.append(SurjectivityEntry(deg, beta, beta_prime, mult, res, ok))
    entries.sort(key=lambda e: (e.degree_required, e.beta, e.beta_prime))
    return SurjectivityReport(all(e.ok for e in entries), tuple(entries))


_SHAPE_TOKENS = {"fl": Family.A, "sfl": Family.C, "ofl": None}
_G2_TOKENS = {
    "g2x": Family.G2_X,
    "g2q": Family.G2_Q,
    "g2p": Family.G2_P,
}


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
    s = text.strip().lower()
    if s in _G2_TOKENS:
        fam = _G2_TOKENS[s]
        shape = FlagShape(7, G2_DIMS[fam])
        kind = W_SYM2 if fam is Family.G2_Q else W_G2
        return VarietySpec(fam, shape, kind)
    for token in ("sfl", "ofl", "fl"):
        if s.startswith(token):
            shape = _parse_shape_body(s, token)
            if token == "fl":
                return VarietySpec(Family.A, shape, W_NONE)
            if token == "sfl":
                return VarietySpec(Family.C, shape, W_WEDGE2)
            n, n1 = shape.n, shape.dims[0]
            if n % 2:
                return VarietySpec(Family.B, shape, W_SYM2)
            m = n // 2
            if n1 <= m - 2:
                return VarietySpec(Family.D_SUB, shape, W_SYM2)
            if n1 == m - 1:
                return VarietySpec(Family.D_MIXED, shape, W_SYM2)
            return VarietySpec(Family.D_SPINOR, shape, W_SYM2)
    raise ValueError(f"unrecognized variety token {text!r}")


def parse_shape(text: str) -> FlagShape:
    """Parse a bare type-A shape "fl(n1,...,nk; n)"."""
    s = text.strip().lower()
    if not s.startswith("fl"):
        raise ValueError(f"expected fl(...), got {text!r}")
    return _parse_shape_body(s, "fl")
