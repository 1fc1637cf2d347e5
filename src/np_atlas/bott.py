"""The Bott-Borel-Weil engine for GL weights on type-A flag varieties.

A blocked weight lists one weakly decreasing integer vector per tautological
quotient block.  Cohomology is computed by the shift-sort-count recipe:
subtract (1,2,...,n) from the concatenation, vanish on repeated entries,
otherwise the single nonzero degree is the inversion count of the shifted
sequence and the representation is read off from its descending sort.
One kernel, _degree, holds the vanishing and degree rule for every caller,
bbw_cohomology and the G2 sweep alike; it counts only pairs across blocks,
since each shifted block strictly decreases.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable
from itertools import chain, count, repeat
from operator import add, lt, sub
from typing import NamedTuple

from .partitions import _shifted_dimension, check_int, check_ints, check_type, normalize, pad


class BlockedWeight(namedtuple("BlockedWeight", "blocks")):
    """One integer vector per quotient block; block i must be weakly decreasing."""

    __slots__ = ()
    # the base _make skips __new__, and _replace and copy.replace call _make
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, blocks: tuple[tuple[int, ...], ...]):
        try:
            blocks = tuple([check_ints("weight entry", b) for b in blocks])
        except TypeError:
            raise ValueError(f"blocks must come as a sequence, got {blocks!r}") from None
        for b in blocks:
            if any(map(lt, b, b[1:])):
                raise ValueError(f"block not weakly decreasing: {b}")
            if not b:
                raise ValueError("empty block")
        return tuple.__new__(cls, (blocks,))

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @property
    def n(self) -> int:
        return sum(self.ranks)

    def concat(self) -> tuple[int, ...]:
        return tuple(x for b in self.blocks for x in b)


class CohomologyResult(NamedTuple):
    """Either everything vanishes, or one nonzero group with its data."""

    vanishes: bool
    degree: int | None = None
    weight: tuple[int, ...] | None = None
    dimension: int | None = None

    def to_json_dict(self) -> dict:
        if self.vanishes:
            return {"status": "vanishes"}
        return {
            "status": "nonzero",
            "degree": self.degree,
            "weight": list(self.weight),
            "dimension": self.dimension,
        }


def _degree(shifted: list[int], ranks: Iterable[int]) -> int | None:
    """The one nonzero cohomological degree of a shifted weight, or None.

    shifted is the concatenated weight minus (1, 2, ..., n), cut into blocks
    of the given ranks.  Everything vanishes on a repeated entry; otherwise
    the degree is the number of pairs i < j with shifted[i] < shifted[j].
    Each block strictly decreases, so only pairs across blocks count: each
    block is counted against the sorted entries of the blocks before it.
    """
    if len(set(shifted)) != len(shifted):
        return None
    ranks = iter(ranks)
    start = next(ranks, 0)
    seen = sorted(shifted[:start])
    degree = 0
    for r in ranks:
        block = shifted[start:start + r]
        degree += sum(map(bisect_left, repeat(seen, r), block))
        seen += block
        seen.sort()
        start += r
    return degree


def flag_dimension(ranks: tuple[int, ...]) -> int:
    """Dimension of the flag variety with the given quotient ranks."""
    ranks = check_ints("rank", ranks, 0)
    return sum(r * sum(ranks[i + 1:]) for i, r in enumerate(ranks))


def bbw_cohomology(w: BlockedWeight) -> CohomologyResult:
    """All cohomology of the Schur-power bundle attached to a blocked weight."""
    blocks = check_type("weight", w, BlockedWeight).blocks
    shifted = list(map(sub, chain.from_iterable(blocks), count(1)))
    degree = _degree(shifted, map(len, blocks))
    if degree is None:
        return CohomologyResult(vanishes=True)
    shifted.sort(reverse=True)
    # sorted, shifted is the dominant weight's l_i = w_i - i, up to a constant
    return CohomologyResult(False, degree, tuple(map(add, shifted, count(1))),
                            _shifted_dimension(shifted))


class InversionBoundReport(NamedTuple):
    """Exact inversion data against the configuration-maximum upper bound.

    An exact count above the bound is kept, not refused: the bound-dominance
    suite compares the two and reports it as a violation.
    """

    exact_inversions: int | None  # None means all cohomology vanishes
    bound: int
    witness_config: tuple[int, ...]


def inversion_bound(alpha: tuple[tuple[int, ...], ...], ranks: tuple[int, ...],
                    coeffs: tuple[int, ...], l: int) -> InversionBoundReport:
    """Bound the cohomological degree of a twisted Schur-power bundle.

    alpha lists the partitions on blocks 2..k+1; ranks is the full rank tuple
    (r_1..r_{k+1}); coeffs are the line-bundle exponents (a_1..a_k), with the
    convention a_{k+1} = 0.  Requires the gap hypothesis a_i - a_{i+1} >= l
    for i < k, a_k >= l > 0.  The exported bound is the maximum of the
    configuration expression over all admissible (s_2..s_{k+1}).
    """
    ranks = check_ints("rank", ranks)
    coeffs = check_ints("line-bundle coefficient", coeffs) + (0,)
    try:
        alpha = tuple(alpha)
    except TypeError:
        raise ValueError(f"alpha must come as a sequence of partitions, got {alpha!r}") from None
    if len(alpha) != len(ranks) - 1 or len(coeffs) != len(ranks):
        raise ValueError("block count mismatch")
    check_int("l", l, 1)
    for a, b in zip(coeffs, coeffs[1:]):
        if a - b < l:
            raise ValueError(
                f"gap hypothesis violated: consecutive coefficients {a},{b} differ by < {l}"
            )

    padded = [pad(normalize(part), r) for part, r in zip(alpha, ranks[1:])]
    blocks = [(coeffs[0],) * ranks[0]]
    blocks += [tuple(x + a for x in part) for part, a in zip(padded, coeffs[1:])]
    result = bbw_cohomology(BlockedWeight(tuple(blocks)))
    exact = None if result.vanishes else result.degree

    # a config's value sums sum(part[:s]) - l*s - s*s over the tail blocks, so
    # it is maximal block by block; each block's first maximal s gives the
    # first maximal config, 0 <= s_i <= r_i, in lexicographic order
    bound, best = 0, []
    for part, r in zip(padded, ranks[1:]):
        values = [sum(part[:s]) - l * s - s * s for s in range(r + 1)]
        top = max(values)
        bound += top
        best.append(values.index(top))
    return InversionBoundReport(exact, bound, tuple(best))
