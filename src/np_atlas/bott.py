"""The Bott-Borel-Weil engine for GL weights on type-A flag varieties.

A blocked weight lists one weakly decreasing integer vector per tautological
quotient block.  Cohomology is computed by the shift-sort-count recipe:
subtract (1,2,...,n) from the concatenation, vanish on repeated entries,
otherwise the single nonzero degree is the inversion count of the shifted
sequence and the representation is read off from its descending sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .partitions import check_int, normalize, pad, weyl_dimension


@dataclass(frozen=True)
class BlockedWeight:
    """One integer vector per quotient block; block i must be weakly decreasing."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(check_int("weight entry", x) for x in b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        for b in blocks:
            if any(x < y for x, y in zip(b, b[1:])):
                raise ValueError(f"block not weakly decreasing: {b}")
            if not b:
                raise ValueError("empty block")

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @property
    def n(self) -> int:
        return sum(self.ranks)

    def concat(self) -> tuple[int, ...]:
        return tuple(x for b in self.blocks for x in b)


@dataclass(frozen=True)
class CohomologyResult:
    """Either everything vanishes, or one nonzero group with its data."""

    vanishes: bool
    degree: int | None = None
    weight: tuple[int, ...] | None = None
    dimension: int | None = None

    @staticmethod
    def zero() -> "CohomologyResult":
        return CohomologyResult(vanishes=True)

    @staticmethod
    def nonzero(degree: int, weight: tuple[int, ...], dimension: int) -> "CohomologyResult":
        return CohomologyResult(False, degree, weight, dimension)

    def to_json_dict(self) -> dict:
        if self.vanishes:
            return {"status": "vanishes"}
        return {
            "status": "nonzero",
            "degree": self.degree,
            "weight": list(self.weight),
            "dimension": self.dimension,
        }


def rho_shift(w: BlockedWeight) -> tuple[int, ...]:
    """Concatenated weight minus (1, 2, ..., n)."""
    seq = w.concat()
    return tuple(x - (i + 1) for i, x in enumerate(seq))


def inversion_count(seq: tuple[int, ...]) -> int:
    """Number of pairs i < j with seq[i] < seq[j]."""
    return sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] < seq[j]
    )


def flag_dimension(ranks: tuple[int, ...]) -> int:
    """Dimension of the flag variety with the given quotient ranks."""
    total = 0
    for i in range(len(ranks)):
        for j in range(i + 1, len(ranks)):
            total += ranks[i] * ranks[j]
    return total


def bbw_cohomology(w: BlockedWeight) -> CohomologyResult:
    """All cohomology of the Schur-power bundle attached to a blocked weight."""
    shifted = rho_shift(w)
    if len(set(shifted)) != len(shifted):
        return CohomologyResult.zero()
    degree = inversion_count(shifted)
    dominant = tuple(
        x + (i + 1) for i, x in enumerate(sorted(shifted, reverse=True))
    )
    return CohomologyResult.nonzero(degree, dominant, weyl_dimension(dominant, w.n))


@dataclass(frozen=True)
class InversionBoundReport:
    """Exact inversion data against the configuration-maximum upper bound."""

    exact_inversions: int | None  # None means all cohomology vanishes
    bound: int
    witness_config: tuple[int, ...]

    def __post_init__(self):
        if self.exact_inversions is not None and self.exact_inversions > self.bound:
            raise AssertionError("exact inversion count exceeds its bound")


def _config_values(blocks: tuple[tuple[int, ...], ...], ranks: tuple[int, ...],
                   l: int):
    """Yield (config, value) for every 0 <= s_i <= r_i over the tail blocks."""
    padded = [pad(normalize(b), r) for b, r in zip(blocks, ranks)]
    for config in product(*(range(r + 1) for r in ranks)):
        value = (
            sum(sum(p[:s]) for p, s in zip(padded, config))
            - l * sum(config)
            - sum(s * s for s in config)
        )
        yield config, value


def inversion_bound(alpha: tuple[tuple[int, ...], ...], ranks: tuple[int, ...],
                    coeffs: tuple[int, ...], l: int) -> InversionBoundReport:
    """Bound the cohomological degree of a twisted Schur-power bundle.

    alpha lists the partitions on blocks 2..k+1; ranks is the full rank tuple
    (r_1..r_{k+1}); coeffs are the line-bundle exponents (a_1..a_k), with the
    convention a_{k+1} = 0.  Requires the gap hypothesis a_i - a_{i+1} >= l
    for i < k, a_k >= l > 0.  The exported bound is the maximum of the
    configuration expression over all admissible (s_2..s_{k+1}).
    """
    ranks = tuple(ranks)
    coeffs = tuple(coeffs) + (0,)
    if len(alpha) != len(ranks) - 1 or len(coeffs) != len(ranks):
        raise ValueError("block count mismatch")
    if l <= 0:
        raise ValueError("l must be positive")
    for a, b in zip(coeffs, coeffs[1:]):
        if a - b < l:
            raise ValueError(
                f"gap hypothesis violated: consecutive coefficients {a},{b} differ by < {l}"
            )

    blocks = [(coeffs[0],) * ranks[0]]
    for part, r, a in zip(alpha, ranks[1:], coeffs[1:]):
        blocks.append(tuple(x + a for x in pad(normalize(part), r)))
    result = bbw_cohomology(BlockedWeight(tuple(blocks)))
    exact = None if result.vanishes else result.degree

    best_value = None
    best_config = None
    for config, value in _config_values(tuple(alpha), ranks[1:], l):
        if best_value is None or value > best_value:
            best_value, best_config = value, config
    return InversionBoundReport(exact, best_value, best_config)


def twisted_vanishing_threshold(beta: tuple[tuple[int, ...], ...],
                                ranks: tuple[int, ...], l: int) -> int:
    """Largest degree that can carry cohomology after an ample gap-l twist.

    beta lists partitions on blocks 2..k+1 with ranks (r_2..r_{k+1}).  Every
    degree above the returned value vanishes for every nef-Schur-power twist
    of the bundle; the all-zero configuration floors the result at 0.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    ranks = tuple(ranks)
    for part, r in zip(beta, ranks):
        if len(normalize(part)) > r:
            raise ValueError(f"partition {part} longer than block rank {r}")
    return max(value for _, value in _config_values(tuple(beta), ranks, l))
