"""Kernel-bundle filtrations and exact-rational certification of Property (N_p).

The B/C/D certifier evaluates a closed-form rational threshold: the maximum,
over block configurations, of (p+1)/s + (s-1)/2 - sum(s_j^2)/s in the
symplectic case and the analogue with (s+1)/2 in the orthogonal case.  The
gap l of the queried bundle certifies (N_p) exactly when l is at least the
threshold.  Each row is an integer numerator over 2s and comparisons
cross-multiply integers, so the arithmetic stays exact and never uses floats.
The G2 certifier replaces closed forms with an exhaustive Bott-Borel-Weil
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bott import bbw_cohomology, flag_dimension
from .geometry import (
    AMPLE,
    Family,
    FlagShape,
    NEF_NOT_AMPLE,
    VarietySpec,
    check_line_bundle,
    decompose_ample,
    g2_koszul_twist_weight,
    positivity,
    quotient_ranks,
)
from .partitions import check_int, conjugate, normalize, weight
from .schur import SchurSummand, partitions_of, skew_decompose

CERTIFIED = "certified"
NOT_CERTIFIED = "not_certified"

SCHEMA_VERSION = 1

TYPE_C = "C"
TYPE_BD = "BD"


@dataclass(frozen=True)
class KernelFiltrationLevel:
    """One graded piece of the evaluation-kernel filtration."""

    level: int
    truncated_weight: tuple[int, ...]  # flat partition on blocks 1..level+1
    twist: tuple[int, ...]  # line-bundle coefficients


def kernel_filtration(shape: FlagShape, a: tuple[int, ...]) -> list[KernelFiltrationLevel]:
    """Filtration data of the kernel of the evaluation map of a nef bundle."""
    if positivity(a) not in (AMPLE, NEF_NOT_AMPLE):
        raise ValueError(f"line bundle {a} is not nef")
    ranks = quotient_ranks(shape)
    coeffs = tuple(a) + (0,)
    levels = []
    for i in range(1, shape.k + 1):
        parts: list[int] = []
        for t in range(i):
            parts.extend([coeffs[t] - coeffs[i]] * ranks[t])
        parts.extend([0] * ranks[i])
        twist = tuple(coeffs[i - 1] if t < i else coeffs[t] for t in range(shape.k))
        levels.append(KernelFiltrationLevel(i, tuple(parts), twist))
    return levels


@dataclass(frozen=True)
class SchurComplexTerm:
    """One homological term of the resolution of a filtration quotient."""

    level: int
    homological_degree: int
    twist: tuple[int, ...]
    summands: tuple[SchurSummand, ...]  # shapes are (rho, nu) pairs


def schur_complex_term(shape: FlagShape, a: tuple[int, ...], level: int,
                       j: int) -> SchurComplexTerm:
    """Terms of the Schur complex resolving the level-th filtration quotient."""
    if not 1 <= level <= shape.k:
        raise ValueError(f"level {level} outside 1..{shape.k}")
    if j < 1:
        raise ValueError("homological degree must be >= 1")
    ranks = quotient_ranks(shape)
    filt = kernel_filtration(shape, a)[level - 1]
    alpha = normalize(filt.truncated_weight)
    total = weight(alpha)
    summands = []
    if j <= total:
        for rho in partitions_of(j, max_length=ranks[level]):
            for nu, mult in skew_decompose(alpha, conjugate(rho)).items():
                summands.append(SchurSummand((rho, nu), mult))
    summands.sort(key=lambda s: s.shape)
    return SchurComplexTerm(level, j, filt.twist, tuple(summands))


def _min_square_configs(ranks: tuple[int, ...]) -> list[tuple[int, tuple[int, ...], int]]:
    """For each total s, a config minimizing sum(s_j^2) under the rank caps.

    Spreading units as evenly as the caps allow minimizes the square sum, so
    the maximum of the threshold expression over all configurations is
    attained on one of these.  Units are placed level by level: level L adds
    one unit to each block of rank above L, in index order.  That is the
    greedy choice of the least-filled open block, lowest index on ties, and
    each unit raises the square sum by 2L + 1.
    """
    config = [0] * len(ranks)
    out = []
    s = sq = 0
    for level in range(max(ranks)):
        for i, r in enumerate(ranks):
            if r > level:
                config[i] += 1
                s += 1
                sq += 2 * level + 1
                out.append((s, tuple(config), sq))
    return out


@dataclass(frozen=True)
class ThresholdResult:
    """Exact rational gap threshold with a maximizing configuration."""

    value: Fraction
    witness_config: tuple[int, ...]
    per_s: tuple[tuple[int, tuple[int, ...], Fraction], ...]


def np_threshold(family: str, ranks: tuple[int, ...], p: int) -> ThresholdResult:
    """Gap threshold for (N_p) on a variety with tail quotient ranks (r_2..r_{k+1}).

    family is "C" (symplectic) or "BD" (orthogonal).  The returned value is
    the exact maximum over all configurations 0 <= s_i <= r_i with s >= 1.
    """
    if family not in (TYPE_C, TYPE_BD):
        raise ValueError(f"unknown family {family!r}")
    if check_int("p", p) < 1:
        raise ValueError("p must be >= 1")
    ranks = tuple(check_int("rank", r) for r in ranks)
    if not ranks or any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    sign = -1 if family == TYPE_C else 1
    table = []
    best = None  # (num, den, value, config) of the first maximal row
    for s, config, sq in _min_square_configs(ranks):
        # (p+1)/s + (s+sign)/2 - sq/s over the common denominator 2s
        num, den = 2 * (p + 1) + s * (s + sign) - 2 * sq, 2 * s
        value = Fraction(num, den)
        table.append((s, config, value))
        if best is None or num * best[1] > best[0] * den:
            best = (num, den, value, config)
    assert best is not None
    return ThresholdResult(best[2], best[3], tuple(table))


@dataclass(frozen=True)
class NpCertificate:
    """One-sided syzygy certificate: not-certified never asserts failure."""

    query: dict
    verdict: str
    clause: str
    threshold: Fraction
    witness_config: tuple[int, ...]
    trace: tuple

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "query": self.query,
            "verdict": self.verdict,
            "clause": self.clause,
            "threshold": {
                "num": self.threshold.numerator,
                "den": self.threshold.denominator,
            },
            "witness_config": list(self.witness_config),
            "trace": [list(t) for t in self.trace],
        }


def _clause_for(family: str, spec: VarietySpec, l: int, p: int, certified: bool) -> str:
    if not certified:
        return "none"
    n1 = spec.shape.dims[0]
    k = spec.shape.k
    if family == TYPE_C:
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


def _query(spec: VarietySpec, a: tuple[int, ...], l: int, p: int) -> dict:
    return {
        "family": spec.family.value,
        "shape": {"n": spec.shape.n, "dims": list(spec.shape.dims)},
        "line_bundle": list(a),
        "gap": l,
        "p": p,
    }


def np_certify(spec: VarietySpec, a: tuple[int, ...], p: int) -> NpCertificate:
    """Certify Property (N_p) for an ample pullback bundle on a catalog variety."""
    if spec.family in (Family.G2_X, Family.G2_P):
        return g2_np_certify(spec, p, a=a)
    if check_int("p", p) < 1:
        raise ValueError("p must be >= 1")
    a = check_line_bundle(spec.shape, a)
    l = decompose_ample(a)
    query = _query(spec, a, l, p)

    if spec.family is Family.A:
        certified = l >= p
        return NpCertificate(
            query,
            CERTIFIED if certified else NOT_CERTIFIED,
            "A:gap-at-least-p" if certified else "none",
            Fraction(p),
            (),
            (),
        )

    family = TYPE_C if spec.family is Family.C else TYPE_BD
    tail_ranks = quotient_ranks(spec.shape)[1:]
    thr = np_threshold(family, tail_ranks, p)
    thr_num, thr_den = thr.value.numerator, thr.value.denominator
    certified = l * thr_den >= thr_num
    # rows within 1 of the threshold, value > thr - 1, cross-multiplied
    trace = tuple(
        (s, list(config), value.numerator, value.denominator)
        for s, config, value in thr.per_s
        if value.numerator * thr_den > (thr_num - thr_den) * value.denominator
    )
    return NpCertificate(
        query,
        CERTIFIED if certified else NOT_CERTIFIED,
        _clause_for(family, spec, l, p, certified),
        thr.value,
        thr.witness_config,
        trace,
    )


def g2_np_certify(spec: VarietySpec, p: int, l: int | None = None,
                  a: tuple[int, ...] | None = None) -> NpCertificate:
    """Exhaustively certify (N_p) on the two nontrivial G2 varieties.

    The sufficient vanishings behind the certification are finite once
    degrees above the ambient dimension are discarded; every required
    Bott-Borel-Weil evaluation is run and recorded in the trace.
    """
    if check_int("p", p) < 1:
        raise ValueError("p must be >= 1")
    if spec.family not in (Family.G2_X, Family.G2_P):
        raise ValueError("exhaustive certification covers only the two G2 varieties")
    if l is not None and a is not None:
        raise ValueError("give either a gap l or coefficients a, not both")
    if a is None:
        if l is None or check_int("gap l", l) < 1:
            raise ValueError("need a gap l >= 1 or explicit coefficients")
        a = (l,) if spec.family is Family.G2_X else (2 * l, l)
    a = check_line_bundle(spec.shape, a)
    l = decompose_ample(a)

    dim = flag_dimension(quotient_ranks(spec.shape))
    trace = []
    violations = 0
    for j in range(6):
        for i in range(1, p + 2):
            if spec.family is Family.G2_X:
                for t in range(i, i + dim + 6):
                    required = 1 + j - i + t
                    for a1 in range((t + 1) // 2, t + 1):
                        a2 = t - a1
                        res = bbw_cohomology(g2_koszul_twist_weight(spec, a, j, (a1, a2)))
                        ok = res.vanishes or res.degree != required
                        if not ok:
                            violations += 1
                        trace.append((j, i, t, a1, a2, required,
                                      "ok" if ok else "violation"))
            else:
                for total in range(i, i + dim + 6):
                    for s in range(total + 1):
                        t = total - s
                        bound = j - i + s + t
                        res = bbw_cohomology(g2_koszul_twist_weight(spec, a, j, (t, s)))
                        ok = res.vanishes or res.degree <= bound
                        if not ok:
                            violations += 1
                        trace.append((j, i, s, t, bound,
                                      "ok" if ok else "violation"))

    certified = violations == 0
    return NpCertificate(
        _query(spec, a, l, p),
        CERTIFIED if certified else NOT_CERTIFIED,
        "G2:exhaustive-bbw" if certified else "none",
        Fraction(p),
        (),
        tuple(trace),
    )
