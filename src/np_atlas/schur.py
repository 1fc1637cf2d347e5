"""Littlewood-Richardson coefficients and Schur-power combinatorics.

Two genuinely different algorithms live here on purpose.  LR coefficients,
skew decompositions and tensor products all come from one walk over the
lattice skew tableaux of a shape, which returns every content at once;
schur_character sums over semistandard tableaux and serves as an independent
cross-check of the whole tensor calculus.  Each distinct skew walk runs once
per process (the walk is cached behind the callers' input checks), since the
branching behind filtration quotients and Schur-complex terms peels the same
shapes again and again; a product's disconnected shape is walked on every
call, since a product is rarely asked for twice (a schur-cold benchmark pass
walks 248 products and none of them again) and a cached one would only keep
its dict alive.  The forced top rows of a walk are filled in rather than
walked: they only set the value counts the walk starts from.  The rows below
them are compiled into flat slot tables once per skeleton (the walked rows,
the inner shape from the last forced row on, the number of forced rows and
the value cap), so shapes that differ only in their forced rows share one
compile.  An iterative odometer fills the tables, one loop step per value
tried and no call per cell, and counts the values of the last cell at once.
The producers build their SchurSummand records from (shape, multiplicity)
pairs in C, with no Python frame per record.  The enumerations that are read
again, the sub-diagrams of a branching target and the partitions of a
Schur-complex degree, are cached tuples; partitions_of stays a lazy
generator.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Iterator, NamedTuple

from .partitions import check_int, check_ints, contains, normalize, pad


class SchurSummand(NamedTuple):
    """One irreducible constituent with its multiplicity."""

    shape: tuple
    multiplicity: int


# Builds a summand from its (shape, multiplicity) pair in C, where _make runs
# a Python frame per record.  Every pair the producers pass has two entries.
_summand = partial(tuple.__new__, SchurSummand)


def _sorted_summands(items) -> list[SchurSummand]:
    """The summands of (shape, multiplicity) pairs with distinct shapes, by shape.

    A summand compares as its pair, so with distinct shapes this is the order
    of the sorted pairs.
    """
    return sorted(map(_summand, items))


def partitions_of(n: int, *, max_length: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n, with at most max_length parts when given.

    Bad input is refused at the call, not at the first next().  The
    partitions come lazily: p(80) alone is 15,796,476 of them.
    """
    check_int("n", n, 0)
    if max_length is None:
        max_length = n
    else:
        check_int("max_length", max_length, 0)
    return _partitions_below(n, n, max_length)


# The enumerators recurse through module-level functions, not through a
# closure that calls itself: such a closure and its cell form a cycle that
# every call leaves for the cyclic collector.
def _partitions_below(remaining: int, cap: int, slots: int) -> Iterator[tuple[int, ...]]:
    """The partitions of remaining with parts at most cap and at most slots parts."""
    if remaining == 0:
        yield ()
        return
    if slots == 0:
        return
    for first in range(min(cap, remaining), 0, -1):
        for rest in _partitions_below(remaining - first, first, slots - 1):
            yield (first,) + rest


# cached behind the callers' checks (exact ints n and max_length); the tuple
# is shared by every caller, who cannot mutate it
@lru_cache(maxsize=None)
def _partitions(n: int, max_length: int) -> tuple[tuple[int, ...], ...]:
    """partitions_of(n, max_length=max_length), in its order, as one tuple."""
    return tuple(_partitions_below(n, n, max_length))


# cached behind the callers' checks (a normalized outer and an exact-int
# max_length); the tuple is shared by every caller, who cannot mutate it
@lru_cache(maxsize=None)
def _sub_diagrams(outer: tuple[int, ...], max_length: int) -> tuple[tuple[int, ...], ...]:
    """Every partition inside the partition outer with at most max_length parts.

    () comes first, then each first part from outer[0] down to 1, followed
    by the sub-diagrams of the rows below it capped at that part.
    """
    subs = [()]
    if outer and max_length:
        for first in range(outer[0], 0, -1):
            below = tuple(min(row, first) for row in outer[1:max_length])
            subs += [(first,) + rest for rest in _sub_diagrams(below, max_length - 1)]
    return tuple(subs)


# cached behind the callers' checks (normalize, or an exact-int max_length):
# 2.0 and True hash like 2 and 1, so no float or bool may reach this cache.
# The cached dict is shared by every caller and must not be mutated.
@lru_cache(maxsize=None)
def _lr_fillings(lam: tuple[int, ...], mu: tuple[int, ...],
                 max_length: int | None = None) -> dict[tuple[int, ...], int]:
    """Count LR skew tableaux of shape lam/mu (mu inside lam), binned by content.

    Each distinct skew walk runs once per process: the branching behind
    filtration_quotients and schur_complex_term peels the same (target,
    rho) shapes again and again.  A product's disconnected shape is walked
    on every call, through __wrapped__: a product is rarely asked for twice,
    so caching one would only keep its dict alive.

    Cells are filled in reading order (top row to bottom, right to left
    within a row) so the lattice-word condition can be enforced on the fly;
    it keeps the value counts weakly decreasing, so each content is a
    partition.  An entry in row i (0-based) is at most i + 1 and at most
    max_length.  The walk follows the skew-tableau iterator of Buch's lrcalc
    (https://sites.math.rutgers.edu/~asbuch/lrcalc/).

    The top rows, those with mu[i] == mu[0], are forced: row 0 holds only
    1s, and every cell of a later such row i sits below a cell of row i - 1,
    so it holds exactly i + 1; the lattice condition holds since lam is
    weakly decreasing.  Those rows are filled in: they give only the value
    counts the walk starts from.  The walk starts below them, on slot tables
    compiled once per skeleton (see _lr_skeleton), which one explicit-stack
    odometer fills in one flat value list, with no Python call per cell.
    Every value left for the last cell completes a tableau, so whenever the
    odometer reaches that cell it counts those values at once; a shape with
    one walked cell is that count alone.  The lattice condition keeps the
    value counts a partition, so each leaf's content is the prefix of the
    counts up to a sentinel 0.
    """
    rows = len(lam)
    mu = pad(mu, rows)
    top = rows if max_length is None else min(rows, max_length)
    # counts[v] is how often v has been written, for v = 1..top; counts[0]
    # exceeds every count, so 1 always passes the lattice test, and the
    # sentinel counts[top + 1] == 0 ends the content
    counts = [sum(lam) + 1] + [0] * (top + 1)
    forced = 0
    while forced < rows and mu[forced] == mu[0]:
        width = lam[forced] - mu[0]
        if width:
            if forced >= top:
                return {}  # this row needs the value forced + 1 > max_length
            counts[forced + 1] = width
        forced += 1
    template, right, above = _lr_skeleton(lam[forced:], mu[forced - 1:], forced, top)
    if not right:  # no cell below the forced rows
        return {tuple(counts[1:counts.index(0)]): 1}
    vals = list(template)
    out: dict[tuple[int, ...], int] = {}
    last = len(right) - 1  # the cell that is counted, not walked
    floor, cap = above[last], right[last]
    pos = 0
    vals[0] = vals[above[0]]
    while True:
        if pos == last:  # count the last cell's values, then step back
            for v in range(vals[floor] + 1, vals[cap] + 1):
                if counts[v] < counts[v - 1]:  # lattice condition
                    counts[v] += 1
                    content = tuple(counts[1:counts.index(0)])
                    out[content] = out.get(content, 0) + 1
                    counts[v] -= 1
        else:
            hi = vals[right[pos]]
            v = vals[pos] + 1
            while v <= hi and counts[v] >= counts[v - 1]:
                v += 1  # lattice condition: the counts stay weakly decreasing
            if v <= hi:
                vals[pos] = v
                counts[v] += 1
                pos += 1
                vals[pos] = vals[above[pos]]  # one below the first value to try
                continue
        if not pos:  # this cell is done: step back and advance the cell before it
            return out
        pos -= 1
        counts[vals[pos]] -= 1


# Shapes that differ only in their forced rows share a skeleton: the 210
# products of partitions of 9 and 5 compile 63 of them.  The keys are tuples
# of ints that _lr_fillings derived from its own checked key.
@lru_cache(maxsize=None)
def _lr_skeleton(walked: tuple[int, ...], inner: tuple[int, ...], forced: int,
                 top: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Slot tables for the walked rows of an LR walk, below `forced` forced rows.

    walked is lam[forced:], inner is mu[forced - 1:] (mu's last forced entry,
    then the walked rows' entries) and top the value cap.  The n walked
    cells take slots 0..n-1 of the value list in reading order, slot n holds
    0, slot n + 1 the value of the last forced row, and slot n + 2 + i the
    cap min(i + 1, top) of row i.  Cell k then takes the values
    vals[above[k]] + 1 .. vals[right[k]]: above[k] is the slot of the cell
    above it, or n when there is none, and right[k] the slot of its right
    neighbour, or its row's cap at the end of a row.  Returns the value list
    as a template, right and above; right is empty when no cell is walked.
    """
    n = sum(walked) - sum(inner[1:])
    rows = forced + len(walked)
    template = (0,) * n + (0, forced, *range(1, top + 1)) + (top,) * (rows - top)
    right: list[int] = []
    above: list[int] = []
    start = prev = 0  # the first slots of rows i and i - 1
    for w, row in enumerate(walked):  # row i = forced + w; forced >= 1, so row i - 1 exists
        width = row - inner[w + 1]
        if not width:
            continue  # and row i + 1 has no cell under row i
        right += [n + 2 + forced + w, *range(start, start + width - 1)]
        under = max(0, row - inner[w])  # the first under cells have a cell above
        if not w:
            above += [n + 1] * under
        else:  # the cell above the first one of row i is lam[i - 1] - lam[i] into row i - 1
            first = prev + walked[w - 1] - row
            above += range(first, first + under)
        above += [n] * (width - under)
        prev, start = start, start + width
    return template, tuple(right), tuple(above)


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
    check_int("max_length", max_length, 0)
    shift = nu[0] if nu else 0
    lam = tuple(m + shift for m in mu) + nu
    # walked uncached: see _lr_fillings
    return _sorted_summands(_lr_fillings.__wrapped__(lam, (shift,) * len(mu), max_length).items())


def schur_character(lam: tuple[int, ...], m: int) -> dict[tuple[int, ...], int]:
    """The Schur polynomial s_lam(x_1..x_m) as {exponent vector: coefficient}.

    Independent oracle: direct sum over semistandard tableaux.  Returns the
    zero polynomial when lam has more than m rows.
    """
    lam = normalize(lam)
    check_int("m", m, 1)
    return dict(_schur_character(lam, m))


# cached behind the checks: 2.0 and True hash like 2 and 1, so a cache in
# front of them would answer a float or bool that an int call cached
@lru_cache(maxsize=None)
def _schur_character(lam: tuple[int, ...], m: int) -> dict[tuple[int, ...], int]:
    if len(lam) > m:
        return {}
    poly: dict[tuple[int, ...], int] = {}
    if lam:
        _fill_tableaux(lam, m, [[0] * r for r in lam], 0, 0, [0] * m, poly)
    else:
        poly[(0,) * m] = 1
    return poly


def _fill_tableaux(lam: tuple[int, ...], m: int, tableau: list[list[int]], i: int, j: int,
                   expo: list[int], poly: dict[tuple[int, ...], int]) -> None:
    """Add to poly the exponent vector of every semistandard filling of lam with
    values 1..m that extends the cells of tableau before cell (i, j)."""
    if i == len(lam):
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
        _fill_tableaux(lam, m, tableau, ni, nj, expo, poly)
        expo[v - 1] -= 1


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
    (target, rho), and branches each S^nu over the rest the same way, down
    to one block, which holds S^nu alone.  The cached dict is shared by
    every caller and must not be mutated.
    """
    if len(ranks) <= 1:  # zero blocks hold only (), one block holds target if it fits
        return {(target,) * len(ranks): 1} if len(target) <= sum(ranks) else {}
    rest = ranks[1:]
    room = sum(rest)
    out: dict[tuple[tuple[int, ...], ...], int] = {}
    for rho in _sub_diagrams(target, ranks[0]):
        for nu, c in _lr_fillings(target, rho).items():
            # filtered, not capped: a room cap splits the shared walk keys (997 walks, not 381)
            if len(nu) > room:
                continue
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
    ranks = check_ints("block rank", ranks, 0)
    if len(alpha) > sum(ranks):
        raise ValueError(f"partition {alpha} too long for total rank {sum(ranks)}")
    return _sorted_summands(_mult_in_product(alpha, ranks).items())
