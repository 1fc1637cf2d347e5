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
    _SQUARES,
    _g2_twists,
    canonical_weight,
    parse_variety,
    quotient_ranks,
    restriction_surjectivity_check,
)
from .partitions import check_int, pad, weyl_dimension
from .schur import character_product, partitions_of, schur_character, tensor_decompose
from .syzygy import np_threshold

DEFAULT_SEED = 7


def _random_shape(rng: random.Random, max_n: int) -> FlagShape:
    n = rng.randint(2, max_n)
    k = rng.randint(1, min(3, n - 1))
    return FlagShape(n, tuple(sorted(rng.sample(range(1, n), k), reverse=True)))


def _check_cases_and_seed(cases: int, seed: int) -> None:
    check_int("cases", cases, 1)
    check_int("seed", seed)


def suite_plethysm_dims() -> dict:
    """Dimension identities: for each defining square of an n-space, of rank
    comb(n + shift, 2), the constituents of its j-th wedge power have
    dimensions summing to comb(rank, j)."""
    failures = []
    for square, (wedges, shift) in _SQUARES.items():
        for n in range(1, 9):
            for j in range(7):
                total = sum(weyl_dimension(pad(s, n), n) for s in wedges(j, n))
                if total != comb(comb(n + shift, 2), j):
                    failures.append((square, n, j, total))
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
    _check_cases_and_seed(cases, seed)
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
        for j, w in enumerate(_g2_twists(spec, (l,))):
            res = bbw_cohomology(w)
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


def suite_restriction_surjectivity() -> dict:
    """Ambient sections surject for ample pullbacks across the small catalog."""
    failures = []
    checked = 0
    for token in RESTRICTION_CATALOG:
        spec = parse_variety(token)
        k = spec.shape.k
        for l in (1, 2, 3):
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
    _check_cases_and_seed(cases, seed)
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
    half = Fraction(s - 1 if family == "C" else s + 1, 2)
    return Fraction(p + 1, s) + half - Fraction(sq, s)


def _rows_hold(family: str, ranks: tuple[int, ...], p: int, per_s, min_sq: dict) -> bool:
    """Each per_s row is row s = 1..sum(ranks) in order, with a config of total
    s within the rank caps, of the least square sum for s, and the value of
    the threshold expression there."""
    if [row[0] for row in per_s] != list(range(1, sum(ranks) + 1)):
        return False
    for s, config, value in per_s:
        sq = sum(x * x for x in config)
        if (len(config) != len(ranks) or sum(config) != s or sq != min_sq[s]
                or not all(0 <= x <= r for x, r in zip(config, ranks))
                or value != _threshold_expression(family, p, s, sq)):
            return False
    return True


def suite_threshold_oracle() -> dict:
    """np_threshold is the maximum of its expression over every configuration.

    Brute force over all 0 <= s_i <= r_i with s >= 1, for rank tuples of
    length <= 4 with parts <= 4 and p = 1..10: an independent check on the
    minimal-square configurations np_threshold searches instead.  Every row
    it reports is checked too, so its greedy placement of units is checked
    against the brute-force least square sum of each total s.
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
            for family in ("C", "BD"):
                for p in range(1, 11):
                    best = max(_threshold_expression(family, p, s, sq)
                               for s, sq in min_sq.items())
                    thr = np_threshold(family, ranks, p)
                    w = thr.witness_config
                    at_witness = _threshold_expression(family, p, sum(w), sum(x * x for x in w))
                    checked += 1
                    if (thr.value != best or at_witness != best or w not in configs
                            or not _rows_hold(family, ranks, p, thr.per_s, min_sq)):
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
    if not isinstance(name, str) or name not in SUITES:
        raise ValueError(f"unknown verification suite {name!r}")
    kwargs = {k: v for k, v in (("cases", cases), ("seed", seed)) if v is not None}
    if kwargs and name not in ("serre-duality", "bound-dominance"):
        raise ValueError(f"suite {name!r} takes no --cases or --seed")
    return SUITES[name](**kwargs)
