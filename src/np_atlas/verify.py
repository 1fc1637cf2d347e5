"""Named verification suites behind the command-line `verify` subcommand.

Each suite re-derives a structural identity from scratch (binomial counts,
Serre-duality involution, randomized bound dominance, exhaustive sweeps) and
reports a deterministic pass/fail summary.  Randomized suites are seeded.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb

from .bott import (
    BlockedWeight,
    bbw_cohomology,
    flag_dimension,
    inversion_bound,
)
from .geometry import (
    FlagShape,
    canonical_weight,
    g2_koszul_twist_weight,
    parse_variety,
    quotient_ranks,
    restriction_surjectivity_check,
)
from .partitions import pad, weyl_dimension
from .plethysm import wedge_of_sym2, wedge_of_wedge2
from .schur import character_product, partitions_of, schur_character, tensor_decompose
from .syzygy import TYPE_BD, TYPE_C, np_threshold

DEFAULT_SEED = 7


def _random_shape(rng: random.Random, max_n: int) -> FlagShape:
    n = rng.randint(2, max_n)
    k = rng.randint(1, min(3, n - 1))
    return FlagShape(n, tuple(sorted(rng.sample(range(1, n), k), reverse=True)))


def _check_cases(cases: int) -> None:
    if cases < 1:
        raise ValueError(f"--cases must be at least 1, got {cases}")


def suite_plethysm_dims() -> dict:
    """Dimension identities: constituent dimensions sum to binomial counts."""
    failures = []
    for n in range(2, 9):
        for j in range(7):
            total = sum(
                weyl_dimension(pad(s, n), n) for s in wedge_of_wedge2(j, n)
            )
            if total != comb(n * (n - 1) // 2, j):
                failures.append(("wedge2", n, j, total))
    for n in range(1, 7):
        for j in range(7):
            total = sum(
                weyl_dimension(pad(s, n), n) for s in wedge_of_sym2(j, n)
            )
            if total != comb(n * (n + 1) // 2, j):
                failures.append(("sym2", n, j, total))
    return {"suite": "plethysm-dims", "pass": not failures, "failures": failures}


def serre_dual(w: BlockedWeight, shape: FlagShape) -> BlockedWeight:
    """Blockwise reversal-negation plus the canonical weight of the shape."""
    canon = [b[0] for b in canonical_weight(shape).blocks]
    blocks = tuple(
        tuple(-x + c for x in reversed(b))
        for b, c in zip(w.blocks, canon)
    )
    return BlockedWeight(blocks)


def suite_serre_duality(cases: int = 500, seed: int = DEFAULT_SEED) -> dict:
    """bbw(w) sits in degree d iff bbw(dual of w) sits in degree dim - d."""
    _check_cases(cases)
    rng = random.Random(seed)
    failures = []
    for _ in range(cases):
        shape = _random_shape(rng, 7)
        ranks = quotient_ranks(shape)
        blocks = tuple(
            tuple(sorted((rng.randint(-4, 4) for _ in range(r)), reverse=True))
            for r in ranks
        )
        w = BlockedWeight(blocks)
        dual = serre_dual(w, shape)
        res, res_dual = bbw_cohomology(w), bbw_cohomology(dual)
        dim = flag_dimension(ranks)
        if res.vanishes != res_dual.vanishes:
            failures.append((blocks, "vanishing mismatch"))
        elif not res.vanishes:
            if res.degree + res_dual.degree != dim or res.dimension != res_dual.dimension:
                failures.append((blocks, res.degree, res_dual.degree))
    return {
        "suite": "serre-duality",
        "pass": not failures,
        "cases": cases,
        "seed": seed,
        "failures": failures[:5],
    }


def suite_g2_lemma() -> dict:
    """Koszul-twist cohomology on the G2 Grassmannian sits only in degrees 0 or 10."""
    spec = parse_variety("g2x")
    degrees = set()
    required_ok = True
    for l in range(1, 11):
        for j in range(6):
            res = bbw_cohomology(g2_koszul_twist_weight(spec, (l,), j))
            if not res.vanishes:
                degrees.add(res.degree)
                if 1 <= j <= 5 and res.degree == j:
                    required_ok = False
    ok = required_ok and degrees <= {0, 10}
    return {
        "suite": "g2-lemma",
        "pass": ok,
        "nonvanishing_degrees": sorted(degrees),
    }


RESTRICTION_CATALOG = ("sfl(2;6)", "sfl(2,1;6)", "ofl(2;7)", "ofl(2,1;7)")


def suite_restriction_surjectivity(gaps: tuple[int, ...] = (1, 2, 3)) -> dict:
    """Ambient sections surject for ample pullbacks across the small catalog."""
    failures = []
    checked = 0
    for token in RESTRICTION_CATALOG:
        spec = parse_variety(token)
        k = spec.shape.k
        for l in gaps:
            coeffs = tuple(l * (k - i) for i in range(k))
            report = restriction_surjectivity_check(spec, coeffs)
            checked += 1
            if not report.ok:
                failures.append((token, l))
    return {
        "suite": "restriction-surjectivity",
        "pass": not failures,
        "checked": checked,
        "failures": failures,
    }


def suite_bound_dominance(cases: int = 1000, seed: int = DEFAULT_SEED) -> dict:
    """Randomized dominance of the config bound over exact inversion counts."""
    _check_cases(cases)
    rng = random.Random(seed)
    ok = 0
    violations = []
    attempts = 0
    while ok < cases and attempts < cases * 50:
        attempts += 1
        shape = _random_shape(rng, 8)
        ranks = quotient_ranks(shape)
        k = shape.k
        l = rng.randint(1, 3)
        coeffs = [l + rng.randint(0, 2)]
        for _ in range(k - 1):
            coeffs.append(coeffs[-1] + l + rng.randint(0, 2))
        coeffs = tuple(reversed(coeffs))
        alpha = tuple(
            tuple(sorted((rng.randint(0, 4) for _ in range(r)), reverse=True))
            for r in ranks[1:]
        )
        report = inversion_bound(alpha, ranks, coeffs, l)
        if report.exact_inversions is None:
            continue  # repeated shifted entries: outside the hypothesis
        ok += 1
        if report.exact_inversions > report.bound:
            violations.append((shape.n, shape.dims, coeffs, alpha))
    return {
        "suite": "bound-dominance",
        "pass": ok >= cases and not violations,
        "cases": ok,
        "seed": seed,
        "violations": violations,
    }


def suite_lr_oracle(max_weight: int = 4, max_vars: int = 3) -> dict:
    """Tableau-counting LR coefficients agree with the character-polynomial oracle."""
    shapes = [()]
    for w in range(1, max_weight + 1):
        shapes.extend(partitions_of(w))
    failures = []
    for mu in shapes:
        for nu in shapes:
            expansion = tensor_decompose(mu, nu, max_length=max_weight * 2)
            for m in range(1, max_vars + 1):
                lhs = character_product(schur_character(mu, m), schur_character(nu, m))
                rhs: dict = {}
                for lam, mult in expansion:
                    for expo, coeff in schur_character(lam, m).items():
                        rhs[expo] = rhs.get(expo, 0) + mult * coeff
                rhs = {k: v for k, v in rhs.items() if v}
                if lhs != rhs:
                    failures.append((mu, nu, m))
    return {"suite": "lr-oracle", "pass": not failures, "failures": failures}


def _threshold_expression(family: str, p: int, s: int, sq: int) -> Fraction:
    """(p+1)/s + (s-1)/2 - sq/s for C, with (s+1)/2 for BD; sq is sum(s_j^2)."""
    half = Fraction(s - 1 if family == TYPE_C else s + 1, 2)
    return Fraction(p + 1, s) + half - Fraction(sq, s)


def suite_threshold_oracle() -> dict:
    """np_threshold is the maximum of its expression over every configuration.

    Brute force over all 0 <= s_i <= r_i with s >= 1, for rank tuples of
    length <= 4 with parts <= 4 and p = 1..10: an independent check on the
    minimal-square configurations np_threshold searches instead.
    """
    failures = []
    checked = 0
    for length in range(1, 5):
        for ranks in product(range(1, 5), repeat=length):
            configs = {c for c in product(*(range(r + 1) for r in ranks)) if any(c)}
            # the expression sees a configuration only through s and sum(s_j^2),
            # and for a fixed s it falls as the square sum grows
            min_sq: dict[int, int] = {}
            for c in configs:
                s, sq = sum(c), sum(x * x for x in c)
                min_sq[s] = min(sq, min_sq.get(s, sq))
            for family in (TYPE_C, TYPE_BD):
                for p in range(1, 11):
                    best = max(_threshold_expression(family, p, s, sq)
                               for s, sq in min_sq.items())
                    thr = np_threshold(family, ranks, p)
                    w = thr.witness_config
                    at_witness = _threshold_expression(family, p, sum(w), sum(x * x for x in w))
                    checked += 1
                    if thr.value != best or at_witness != best or w not in configs:
                        failures.append((family, ranks, p))
    return {
        "suite": "threshold-oracle",
        "pass": not failures,
        "checked": checked,
        "failures": failures[:5],
    }


SUITES = {
    "plethysm-dims": suite_plethysm_dims,
    "serre-duality": suite_serre_duality,
    "g2-lemma": suite_g2_lemma,
    "restriction-surjectivity": suite_restriction_surjectivity,
    "bound-dominance": suite_bound_dominance,
    "lr-oracle": suite_lr_oracle,
    "threshold-oracle": suite_threshold_oracle,
}


def run_suite(name: str, cases: int | None = None, seed: int | None = None) -> dict:
    """Run a suite; only the seeded suites take cases and seed."""
    if name not in SUITES:
        raise ValueError(f"unknown verification suite {name!r}")
    kwargs = {k: v for k, v in (("cases", cases), ("seed", seed)) if v is not None}
    if kwargs and name not in ("serre-duality", "bound-dominance"):
        raise ValueError(f"suite {name!r} takes no --cases or --seed")
    return SUITES[name](**kwargs)
