"""Kernel-bundle filtrations and exact-rational certification of Property (N_p).

The B/C/D certifier evaluates a closed-form rational threshold: the maximum,
over block configurations, of (p+1)/s + (s-1)/2 + shift - sum(s_j^2)/s, where
the shift is 0 in the symplectic case (wedge^2, of rank comb(n1, 2)) and 1 in
the orthogonal case (S^2, of rank comb(n1 + 1, 2)).  Both come from geometry:
one table names each square "C" or "BD" with its shift, and one maps each
catalog family to its square's name.  The gap l of the queried bundle
certifies (N_p) exactly when l is at least the threshold.  Each row is an
integer numerator over 2s and comparisons cross-multiply integers, so the
arithmetic stays exact and never uses floats.  One loop builds a threshold:
it places the units of the least-square configs level by level, builds each
row as its unit is placed, and keeps the first maximal row as it goes.
A process builds each distinct row value once, from a bounded cache keyed by
its integer numerator and denominator, and each threshold once per
(family, ranks, p), together with its certificate trace: the rows within 1 of
it, as all-int tuples.  The certificates that ask for that threshold read both
from the one cached entry, so the two sides of a gap share one trace.  One
clause rule, read with the same shift, names the clause of a certified C or BD
query, again by cross-multiplied integer tests.  A certificate validates its
input once, at its own boundary: the spec must be a VarietySpec, p is checked
there, and one call checks the line bundle and returns its gap; the tail
ranks are the differences of the FlagShape's dims, with 0 after the last,
which that record's checks already make positive ints, so it reads the
cached threshold without np_threshold's checks of p and the ranks.
Threshold and certificate records are built in C from their field tuples,
with no Python frame per record.
The G2 certifier replaces closed forms with an exhaustive Bott-Borel-Weil
sweep: it builds the six Koszul twists once per checked line bundle, sweeps
them one at a time, and evaluates each distinct tailed twist once.  It reads
only the twist's degree from the kernel in bott, on plain ints: no weight
record and no dimension.  One builder makes every certificate, of type A, B/C/D or G2: it
names a clause exactly when the query is certified.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import count
from operator import sub
from typing import NamedTuple

from .bott import _degree, flag_dimension
from .geometry import (
    G2_TWISTED,
    Family,
    FlagShape,
    VarietySpec,
    _DEFINING_SQUARE,
    _SQUARES,
    _g2_twists,
    check_line_bundle,
    quotient_ranks,
)
from .partitions import _conjugate, check_int, check_ints, check_type, contains
from .schur import SchurSummand, _lr_fillings, _partitions, _sorted_summands

CERTIFIED = "certified"
NOT_CERTIFIED = "not_certified"

SCHEMA_VERSION = 1


class SchurComplexTerm(NamedTuple):
    """One homological term of the resolution of a filtration quotient."""

    level: int
    homological_degree: int
    twist: tuple[int, ...]
    summands: tuple[SchurSummand, ...]  # shapes are (rho, nu) pairs


def schur_complex_term(shape: FlagShape, a: tuple[int, ...], level: int,
                       j: int) -> SchurComplexTerm:
    """Terms of the Schur complex resolving the level-th filtration quotient.

    With c = a + (0,), that quotient of the kernel of the evaluation map of
    the nef bundle a is S^alpha of the quotients 0..level, twisted by a with
    a[:level] replaced by a[level - 1]; alpha repeats c[t] - c[level] over
    the rank of each quotient t < level.
    """
    if check_int("level", level, 1) > check_type("shape", shape, FlagShape).k:
        raise ValueError(f"level {level} outside 1..{shape.k}")
    check_int("homological degree j", j, 1)
    a, _ = check_line_bundle(shape, a, "nef")
    ranks = quotient_ranks(shape)
    coeffs = a + (0,)
    # a is nef, so coeffs falls weakly and the zero parts of alpha are its last ones
    alpha = tuple(coeffs[t] - coeffs[level] for t in range(level)
                  if coeffs[t] > coeffs[level] for _ in range(ranks[t]))
    twist = (a[level - 1],) * level + a[level:]
    items = []
    if j <= sum(alpha):
        for rho in _partitions(j, ranks[level]):
            # skew_decompose's walk, read behind this function's own checks
            inner = _conjugate(rho)
            if contains(alpha, inner):
                items += [((rho, nu), mult) for nu, mult in _lr_fillings(alpha, inner).items()]
    return SchurComplexTerm(level, j, twist, tuple(_sorted_summands(items)))


class ThresholdResult(NamedTuple):
    """Exact rational gap threshold with a maximizing configuration."""

    value: Fraction
    witness_config: tuple[int, ...]
    per_s: tuple[tuple[int, tuple[int, ...], Fraction], ...]


def np_threshold(family: str, ranks: tuple[int, ...], p: int) -> ThresholdResult:
    """Gap threshold for (N_p) on a variety with tail quotient ranks (r_2..r_{k+1}).

    family is "C" (symplectic) or "BD" (orthogonal).  The returned value is
    the exact maximum over all configurations 0 <= s_i <= r_i with s >= 1.
    """
    if not isinstance(family, str) or family not in _SQUARES:
        raise ValueError(f"unknown family {family!r}")
    check_int("p", p, 1)
    ranks = check_ints("rank", ranks, 1)
    if not ranks:
        raise ValueError("ranks must be non-empty")
    return _threshold(family, ranks, p)[0]


# Row values repeat across thresholds: the 15,600 (family, ranks, p) entries
# of the benchmark's threshold-sweep universe have 624 distinct ones.  The
# keys are ints computed behind the callers' checks.
@functools.lru_cache(maxsize=1024)
def _row_value(num: int, den: int) -> Fraction:
    return Fraction(num, den)


# Builds a threshold from its (value, witness_config, per_s) triple in C, where
# the NamedTuple's __new__ runs a Python frame per record.
_threshold_result = functools.partial(tuple.__new__, ThresholdResult)


# Behind np_threshold's checks, or np_certify's p check and a FlagShape's tail
# ranks, so 2.0 and True never reach the cache, where they would hash like 2
# and 1.  A certificate asks for the threshold its caller has usually just
# computed; every part of the entry is immutable, so sharing it is safe.
@functools.lru_cache(maxsize=256)
def _threshold(family: str, ranks: tuple[int, ...], p: int) -> tuple[ThresholdResult, tuple]:
    """The threshold and its certificate trace: the rows whose value is above
    the threshold minus 1, as (s, config, num, den) in lowest terms.

    Row s holds a config of total s with the least square sum sum(s_j^2)
    under the rank caps.  The expression falls as the square sum grows, so
    the maximum over all configurations is attained on one of these rows.
    Spreading units as evenly as the caps allow gives that least sum.  The
    units are placed level by level: level L adds one unit to each block of
    rank above L, in index order.  That is the greedy choice of the
    least-filled open block, lowest index on ties, and each unit raises the
    square sum by 2L + 1.  Each row is built as its unit is placed, and the
    first maximal row is kept by cross-multiplying integers.
    """
    shift = _SQUARES[family][1]
    config = [0] * len(ranks)
    per_s = []
    nums = []
    s = sq = 0
    base, lift = 2 * (p + 1), 2 * shift - 1
    # the s = 1 row, (p + shift) / 1, is positive, so it replaces this start
    thr_num, thr_den = 0, 1
    for level in range(max(ranks)):
        step = 2 * level + 1
        for i, r in enumerate(ranks):
            if r > level:
                config[i] += 1
                s += 1
                sq += step
                # (p+1)/s + (s-1)/2 + shift - sq/s over the common denominator 2s
                num, den = base + s * (s + lift) - 2 * sq, 2 * s
                row = (s, tuple(config), _row_value(num, den))
                per_s.append(row)
                nums.append(num)
                if num * thr_den > thr_num * den:
                    best, thr_num, thr_den = row, num, den
    below = thr_num - thr_den  # value > thr - 1, cross-multiplied
    trace = tuple((s, config, value.numerator, value.denominator)
                  for (s, config, value), num in zip(per_s, nums)
                  if num * thr_den > below * 2 * s)
    return _threshold_result((best[2], best[1], tuple(per_s))), trace


class NpCertificate(NamedTuple):
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
        # one unpacking and one ratio call read every field; the query's dicts
        # and lists are copied, so the caller owns every container it gets
        query, verdict, clause, threshold, witness_config, trace = self
        num, den = threshold.as_integer_ratio()
        shape = query["shape"]
        return {
            "schema_version": SCHEMA_VERSION,
            "query": dict(query, shape=dict(shape, dims=shape["dims"][:]),
                          line_bundle=query["line_bundle"][:]),
            "verdict": verdict,
            "clause": clause,
            "threshold": {"num": num, "den": den},
            "witness_config": list(witness_config),
            "trace": list(trace),
        }


# Builds a certificate from its six fields in C, as _threshold_result does.
_np_certificate = functools.partial(tuple.__new__, NpCertificate)


def _clause_for(family: str, n1: int, k: int, l: int, p: int) -> str:
    """The clause that certifies gap l at p, for a certified B/C/D query.

    n1 is the first dimension of the flag and k its Picard rank.  A certified
    gap is at least the threshold's s = 1 row, p + shift, so every clause
    holds l >= p + shift.  The bounds p + shift >= n1/2 - 1 and
    l >= (p+1)/n1 + (n1-3+2*shift)/2 are compared multiplied out by 2 and by
    2*n1 (n1 >= 1), so no Fraction is built.
    """
    shift = _SQUARES[family][1]
    if k <= 2:
        return f"{family}:pic-rank-le-2"
    if 2 * (p + shift) >= n1 - 2:
        return f"{family}:large-p"
    if 2 * n1 * l >= 2 * (p + 1) + n1 * (n1 - 3 + 2 * shift):
        return f"{family}:general-bound"
    return f"{family}:config-max"


def _certificate(spec: VarietySpec, a: tuple[int, ...], l: int, p: int, clause: str | None,
                 threshold: Fraction, witness_config: tuple[int, ...],
                 trace: tuple) -> NpCertificate:
    """The certificate of a query: clause names the rule that certified it, or is None."""
    query = {
        "family": spec.family.value,
        "shape": {"n": spec.shape.n, "dims": list(spec.shape.dims)},
        "line_bundle": list(a),
        "gap": l,
        "p": p,
    }
    verdict = NOT_CERTIFIED if clause is None else CERTIFIED
    return _np_certificate((query, verdict, clause or "none", threshold, witness_config, trace))


def np_certify(spec: VarietySpec, a: tuple[int, ...], p: int) -> NpCertificate:
    """Certify Property (N_p) for an ample pullback bundle on a catalog variety."""
    if check_type("spec", spec, VarietySpec).family in G2_TWISTED:
        return g2_np_certify(spec, a, p)
    check_int("p", p, 1)
    a, l = check_line_bundle(spec.shape, a)
    family = _DEFINING_SQUARE.get(spec.family)
    if family is None:  # past the G2 varieties, only type A has no defining square
        return _certificate(spec, a, l, p, "A:gap-at-least-p" if l >= p else None,
                            Fraction(p), (), ())

    # p is checked above, and a FlagShape's dims are strictly decreasing
    # positive ints, so its tail ranks dims[i] - dims[i+1] (with 0 after the
    # last) are positive ints
    dims = spec.shape.dims
    thr, trace = _threshold(family, tuple(map(sub, dims, dims[1:] + (0,))), p)
    value, witness_config, _ = thr
    num, den = value.as_integer_ratio()
    clause = _clause_for(family, dims[0], len(dims), l, p) if l * den >= num else None
    return _certificate(spec, a, l, p, clause, value, witness_config, trace)


def g2_np_certify(spec: VarietySpec, a: tuple[int, ...], p: int) -> NpCertificate:
    """Exhaustively certify (N_p) on the two nontrivial G2 varieties.

    Row (j, i, t, tail) reads the Bott-Borel-Weil degree of the j-th Koszul
    twist with a tail of total t >= i: G2_X forbids degree 1 + j - i + t and
    G2_P any degree above j - i + t.  A tail twists the blocks after the
    rank-5 one: on G2_X it is the rank-2 block itself; on G2_P, (t, s) adds t
    to the a[1] block and makes s the last block.  A degree counts inversions
    between blocks, so it is at most the ambient dimension dim.  Past
    t = i + dim + 5 the G2_X degree is >= j + dim + 7 and the G2_P bound
    >= j + dim + 6, both above dim, so the rows there are vacuous and the
    sweep stops.  The six twists j = 0..5 are built once per line bundle and
    swept one at a time, each tailed twist evaluated once.
    """
    check_int("p", p, 1)
    if check_type("spec", spec, VarietySpec).family not in G2_TWISTED:
        raise ValueError("exhaustive certification covers only the two G2 varieties")
    a, l = check_line_bundle(spec.shape, a)

    dim = flag_dimension(quotient_ranks(spec.shape))
    g2x = spec.family is Family.G2_X
    totals = range(1, p + dim + 7)  # row totals reach i + dim + 5, with i <= p + 1
    tails = {t: [(a1, t - a1) for a1 in range((t + 1) // 2, t + 1)] if g2x
             else [(t - s, s) for s in range(t + 1)] for t in totals}
    # the trace is ordered by j first, so each twist's rows follow its own
    # degrees.  A degree depends on (j, tail) and not on i, and a tail adds to
    # the last two entries of the twist: shift those once per twist and add
    # each tail to them
    trace = []
    for j, w in enumerate(_g2_twists(spec, a)):
        ranks = w.ranks
        *head, e6, e7 = map(sub, w.concat(), count(1))
        degrees = {tail: _degree(head + [e6 + tail[0], e7 + tail[1]], ranks)
                   for t in totals for tail in tails[t]}
        for i in range(1, p + 2):
            for t in range(i, i + dim + 6):
                d = j - i + t  # G2_X forbids degree d + 1, G2_P allows up to d
                for tail in tails[t]:
                    deg = degrees[tail]
                    if g2x:
                        ok = deg is None or deg != d + 1
                        row = (j, i, t, *tail, d + 1)
                    else:
                        ok = deg is None or deg <= d
                        row = (j, i, tail[1], tail[0], d)
                    trace.append(row + ("ok" if ok else "violation",))

    clause = "G2:exhaustive-bbw" if all(row[-1] == "ok" for row in trace) else None
    return _certificate(spec, a, l, p, clause, Fraction(p), (), tuple(trace))
