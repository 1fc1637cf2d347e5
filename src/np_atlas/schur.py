"""Littlewood-Richardson coefficients and Schur-power combinatorics.

Two genuinely different algorithms live here on purpose.  LR coefficients,
skew decompositions and tensor products all come from one walk over the
lattice skew tableaux of a shape, which returns every content at once;
schur_character sums over semistandard tableaux and serves as an independent
cross-check of the whole tensor calculus.  Each distinct walk runs once per
process (the walk is cached behind the callers' input checks), and its forced
top rows are filled in rather than walked.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .partitions import check_int, contains, normalize, pad


class SchurSummand(NamedTuple):
    """One irreducible constituent with its multiplicity."""

    shape: tuple
    multiplicity: int


def partitions_of(n: int, *, max_length: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n, with at most max_length parts when given.

    Bad input is refused at the call, not at the first next().
    """
    if check_int("n", n) < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if max_length is None:
        max_length = n
    elif check_int("max_length", max_length) < 0:
        raise ValueError(f"max_length must be non-negative, got {max_length}")

    def rec(remaining, cap, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    return rec(n, n, max_length)


def _sub_diagrams(outer: tuple[int, ...], max_length: int) -> Iterator[tuple[int, ...]]:
    """Every partition inside the partition outer with at most max_length parts."""
    rows = min(len(outer), max_length)

    def rec(i, cap):
        yield ()
        if i < rows:
            for first in range(min(cap, outer[i]), 0, -1):
                for rest in rec(i + 1, first):
                    yield (first,) + rest

    return rec(0, outer[0] if outer else 0)


# cached behind the callers' checks (normalize, or an exact-int max_length):
# 2.0 and True hash like 2 and 1, so no float or bool may reach this cache.
# The cached dict is shared by every caller and must not be mutated.
@lru_cache(maxsize=None)
def _lr_fillings(lam: tuple[int, ...], mu: tuple[int, ...],
                 max_length: int | None = None) -> dict[tuple[int, ...], int]:
    """Count LR skew tableaux of shape lam/mu (mu inside lam), binned by content.

    Cells are filled in reading order (top row to bottom, right to left
    within a row) so the lattice-word condition can be enforced on the fly;
    it keeps the value counts weakly decreasing, so each content is a
    partition.  An entry in row i (0-based) is at most i + 1 and at most
    max_length.  The walk follows the skew-tableau iterator of Buch's lrcalc
    (https://sites.math.rutgers.edu/~asbuch/lrcalc/).

    The top rows, those with mu[i] == mu[0], are forced: row 0 holds only
    1s, and every cell of a later such row i sits below a cell of row i - 1,
    so it holds exactly i + 1; the lattice condition holds since lam is
    weakly decreasing.  Those rows are filled in, and the walk starts below
    them.
    """
    rows = len(lam)
    mu = pad(mu, rows)
    top = rows if max_length is None else min(rows, max_length)
    grid = [[0] * r for r in lam]
    counts = [0] * top
    forced = 0
    while forced < rows and mu[forced] == mu[0]:
        width = lam[forced] - mu[0]
        if width:
            if forced >= top:
                return {}  # this row needs the value forced + 1 > max_length
            grid[forced][mu[0]:] = [forced + 1] * width
            counts[forced] = width
        forced += 1
    cells = [(i, j) for i in range(forced, rows) for j in range(lam[i] - 1, mu[i] - 1, -1)]
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
            grid[i][j] = v
            counts[v - 1] += 1
            rec(pos + 1)
            counts[v - 1] -= 1

    rec(0)
    return out


def lr_coefficient(lam: tuple[int, ...], mu: tuple[int, ...],
                   nu: tuple[int, ...]) -> int:
    """Multiplicity of S^lam inside S^mu (x) S^nu."""
    return skew_decompose(lam, mu).get(normalize(nu), 0)


def skew_decompose(lam: tuple[int, ...], mu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The skew Schur function s_{lam/mu} as {nu: c^lam_{mu,nu}}, from one walk."""
    lam, mu = normalize(lam), normalize(mu)
    if not contains(lam, mu):
        return {}
    return dict(_lr_fillings(lam, mu))


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


def schur_character(lam: tuple[int, ...], m: int) -> dict[tuple[int, ...], int]:
    """The Schur polynomial s_lam(x_1..x_m) as {exponent vector: coefficient}.

    Independent oracle: direct sum over semistandard tableaux.  Returns the
    zero polynomial when lam has more than m rows.
    """
    lam = normalize(lam)
    if check_int("m", m) < 1:
        raise ValueError("need at least one variable")
    return _schur_character(lam, m)


# cached behind the checks: 2.0 and True hash like 2 and 1, so a cache in
# front of them would answer a float or bool that an int call cached
@lru_cache(maxsize=None)
def _schur_character(lam: tuple[int, ...], m: int) -> dict[tuple[int, ...], int]:
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
    S^nu over the rho inside target, with one cached walk per distinct
    (target, rho).  The cached dict is shared by every caller and must not
    be mutated.
    """
    if len(ranks) <= 1:  # zero blocks hold only (), one block holds target if it fits
        return {(target,) * len(ranks): 1} if len(target) <= sum(ranks) else {}
    rest = ranks[1:]
    room = sum(rest)
    out: dict[tuple[tuple[int, ...], ...], int] = {}
    for rho in _sub_diagrams(target, ranks[0]):
        for nu, c in _lr_fillings(target, rho).items():
            # filtered, not capped: a room cap splits the shared walk keys (997 walks, not 381)
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
