"""Littlewood-Richardson coefficients and Schur-power combinatorics.

Two genuinely different algorithms live here on purpose.  LR coefficients,
skew decompositions and tensor products all come from one walk over the
lattice skew tableaux of a shape, which returns every content at once;
schur_character sums over semistandard tableaux and serves as an independent
cross-check of the whole tensor calculus.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .partitions import contains, normalize, pad, weight


class SchurSummand(NamedTuple):
    """One irreducible constituent with its multiplicity."""

    shape: tuple
    multiplicity: int


def partitions_of(n: int, max_part: int | None = None,
                  max_length: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n subject to optional part/length caps."""
    if max_part is None:
        max_part = n
    if max_length is None:
        max_length = n

    def rec(remaining, cap, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(n, max_part, max_length)


def _lr_fillings(lam: tuple[int, ...], mu: tuple[int, ...], cap: tuple[int, ...] | None = None,
                 max_length: int | None = None) -> dict[tuple[int, ...], int]:
    """Count LR skew tableaux of shape lam/mu (mu inside lam), binned by content.

    Cells are filled in reading order (top row to bottom, right to left
    within a row) so the lattice-word condition can be enforced on the fly;
    it keeps the value counts weakly decreasing, so each content is a
    partition.  An entry in row i (0-based) is at most i + 1 and at most
    max_length; with cap, value v is used at most cap[v - 1] times.  The
    walk follows the skew-tableau iterator of Buch's lrcalc
    (https://sites.math.rutgers.edu/~asbuch/lrcalc/).
    """
    rows = len(lam)
    mu = pad(mu, rows)
    cells = [(i, j) for i in range(rows) for j in range(lam[i] - 1, mu[i] - 1, -1)]
    top = rows if max_length is None else min(rows, max_length)
    if cap is not None:
        top = min(top, len(cap))
    grid = [[0] * r for r in lam]
    counts = [0] * top
    out: dict[tuple[int, ...], int] = {}

    def rec(pos: int) -> None:
        if pos == len(cells):
            content = tuple(c for c in counts if c)
            out[content] = out.get(content, 0) + 1
            return
        i, j = cells[pos]
        hi = min(i + 1, top, grid[i][j + 1]) if j + 1 < lam[i] else min(i + 1, top)
        lo = grid[i - 1][j] + 1 if i > 0 and j >= mu[i - 1] else 1
        for v in range(lo, hi + 1):
            if v > 1 and counts[v - 1] >= counts[v - 2]:
                continue  # lattice condition: prefix counts stay weakly decreasing
            if cap is not None and counts[v - 1] >= cap[v - 1]:
                continue
            grid[i][j] = v
            counts[v - 1] += 1
            rec(pos + 1)
            counts[v - 1] -= 1

    rec(0)
    return out


@lru_cache(maxsize=None)
def lr_coefficient(lam: tuple[int, ...], mu: tuple[int, ...],
                   nu: tuple[int, ...]) -> int:
    """Multiplicity of S^lam inside S^mu (x) S^nu."""
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    if weight(lam) != weight(mu) + weight(nu):
        return 0
    if not contains(lam, mu) or not contains(lam, nu):
        return 0
    return _lr_fillings(lam, mu, cap=nu).get(nu, 0)


def skew_decompose(lam: tuple[int, ...], mu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The skew Schur function s_{lam/mu} as {nu: c^lam_{mu,nu}}, from one walk."""
    lam, mu = normalize(lam), normalize(mu)
    if not contains(lam, mu):
        return {}
    return _lr_fillings(lam, mu)


def tensor_decompose(mu: tuple[int, ...], nu: tuple[int, ...],
                     max_length: int) -> list[SchurSummand]:
    """Complete decomposition of S^mu (x) S^nu into Schur summands.

    Only shapes of length <= max_length are reported.  s_mu * s_nu is the
    skew Schur function of the disconnected shape (mu + nu_1^len(mu), nu)
    over (nu_1^len(mu)), so one walk over that shape finds every summand.
    """
    mu, nu = normalize(mu), normalize(nu)
    if type(max_length) is not int or max_length < 0:
        raise ValueError(f"max_length must be a non-negative int, got {max_length!r}")
    shift = nu[0] if nu else 0
    lam = tuple(m + shift for m in mu) + nu
    fillings = _lr_fillings(lam, (shift,) * len(mu), max_length=max_length)
    return sorted(SchurSummand(shape, c) for shape, c in fillings.items())


@lru_cache(maxsize=None)
def schur_character(lam: tuple[int, ...], m: int) -> dict[tuple[int, ...], int]:
    """The Schur polynomial s_lam(x_1..x_m) as {exponent vector: coefficient}.

    Independent oracle: direct sum over semistandard tableaux.  Returns the
    zero polynomial when lam has more than m rows.
    """
    lam = normalize(lam)
    if m < 1:
        raise ValueError("need at least one variable")
    if len(lam) > m:
        return {}
    poly: dict[tuple[int, ...], int] = {}
    rows = len(lam)
    tableau = [[0] * r for r in lam]

    def rec(i: int, j: int, expo: list[int]) -> None:
        if i == rows:
            key = tuple(expo)
            poly[key] = poly.get(key, 0) + 1
            return
        ni, nj = (i, j + 1) if j + 1 < lam[i] else (i + 1, 0)
        lo = tableau[i][j - 1] if j > 0 else 1
        for v in range(lo, m + 1):
            if i > 0 and j < lam[i - 1] and v <= tableau[i - 1][j]:
                continue
            tableau[i][j] = v
            expo[v - 1] += 1
            rec(ni, nj, expo)
            expo[v - 1] -= 1

    if rows:
        rec(0, 0, [0] * m)
    else:
        poly[(0,) * m] = 1
    return dict(poly)


def character_product(a: dict[tuple[int, ...], int],
                      b: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _mult_in_product(target: tuple[int, ...],
                     ranks: tuple[int, ...]) -> dict[tuple[tuple[int, ...], ...], int]:
    """Branching of S^target from GL(sum(ranks)) to the product of the GL(r), r in ranks.

    Returns {(rho_1, ..., rho_k): multiplicity of S^target in S^rho_1 (x)
    ... (x) S^rho_k}, one entry per product with a nonzero multiplicity,
    where rho_b has length <= ranks[b].  target is a normalized partition
    and ranks a tuple of ints.  Peels the first block: S^target restricted
    to GL(ranks[0]) x GL(rest) is the sum of c^target_{rho,nu} S^rho (x)
    S^nu, so each rho inside target costs one skew walk.  The cached dict is
    shared by every caller and must not be mutated.
    """
    if len(ranks) <= 1:  # zero blocks hold only (), one block holds target if it fits
        return {(target,) * len(ranks): 1} if len(target) <= sum(ranks) else {}
    rest = ranks[1:]
    room = sum(rest)
    out: dict[tuple[tuple[int, ...], ...], int] = {}
    for w in range(weight(target) + 1):
        for rho in partitions_of(w, max_length=ranks[0]):
            if not contains(target, rho):
                continue
            for nu, c in skew_decompose(target, rho).items():
                if len(nu) <= room:
                    for tail, m in _mult_in_product(nu, rest).items():
                        key = (rho,) + tail
                        out[key] = out.get(key, 0) + c * m
    return out


def filtration_quotients(alpha: tuple[int, ...],
                         ranks: tuple[int, ...]) -> list[SchurSummand]:
    """Graded pieces of S^alpha of a bundle filtered with quotient ranks.

    Returns SchurSummand entries whose shape is a tuple of partitions, one
    per block, with the multiplicity of S^alpha in their tensor product.
    """
    alpha = normalize(alpha)
    ranks = tuple(ranks)
    if any(type(r) is not int or r < 0 for r in ranks):
        raise ValueError(f"block ranks must be non-negative ints: {ranks}")
    if len(alpha) > sum(ranks):
        raise ValueError(f"partition {alpha} too long for total rank {sum(ranks)}")
    return sorted(SchurSummand(shapes, c) for shapes, c in _mult_in_product(alpha, ranks).items())
