"""Acceptance gate: nine end-to-end criteria, each with a pinned time budget.

Every comparison is exact (integers or rationals); the budgets are generous
wall-clock caps meant to catch algorithmic regressions, not to benchmark.
"""

import time
from fractions import Fraction
from itertools import product
from math import comb

from np_atlas.bott import BlockedWeight, bbw_cohomology
from np_atlas.geometry import parse_variety
from np_atlas.syzygy import g2_np_certify, np_certify, np_threshold
from np_atlas.verify import (
    suite_bound_dominance,
    suite_g2_lemma,
    suite_lr_oracle,
    suite_plethysm_dims,
    suite_restriction_surjectivity,
    suite_serre_duality,
)


def report(number, label, elapsed, budget):
    assert elapsed < budget, f"criterion {number} overran its budget: {elapsed:.2f}s"
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_1_projective_space_line_bundles():
    start = time.perf_counter()
    for n in range(1, 6):
        for d in range(-10, 11):
            res = bbw_cohomology(BlockedWeight(((d,) * n, (0,))))
            h0 = comb(n + d, n) if n + d >= 0 else 0
            hn = comb(-d - 1, n) if -d - 1 >= 0 else 0
            if h0 > 0:
                assert (res.vanishes, res.degree, res.dimension) == (False, 0, h0), (n, d)
            elif hn > 0:
                assert (res.vanishes, res.degree, res.dimension) == (False, n, hn), (n, d)
            else:
                assert res.vanishes, (n, d)
    report(1, "projective-space line bundles match closed forms",
           time.perf_counter() - start, 1)


def test_criterion_2_serre_duality():
    start = time.perf_counter()
    summary = suite_serre_duality(cases=500, seed=7)
    assert summary["pass"], summary
    report(2, "Serre-duality involution on 500 seeded weights",
           time.perf_counter() - start, 10)


def test_criterion_3_plethysm_dimensions():
    start = time.perf_counter()
    summary = suite_plethysm_dims()
    assert summary["pass"], summary
    report(3, "plethysm dimension identities", time.perf_counter() - start, 10)


def test_criterion_4_lr_oracle_equivalence():
    start = time.perf_counter()
    summary = suite_lr_oracle(max_weight=5, max_vars=4)
    assert summary["pass"], summary["failures"][:5]
    report(4, "tableau LR coefficients match the character oracle",
           time.perf_counter() - start, 30)


def test_criterion_5_bound_dominance():
    start = time.perf_counter()
    summary = suite_bound_dominance(cases=1000, seed=7)
    assert summary["pass"], summary
    report(5, "config bound dominates exact inversion counts (1000 cases)",
           time.perf_counter() - start, 10)


def test_criterion_6_remark_threshold():
    start = time.perf_counter()
    for p in range(1, 11):
        assert np_threshold("C", (1, 2, 3), p).value == Fraction(p)
    spec = parse_variety("sfl(6,5,3;12)")
    for p in range(1, 11):
        assert np_certify(spec, (3 * p, 2 * p, p), p).certified
    report(6, "three-step symplectic flag certified at l = p",
           time.perf_counter() - start, 1)


def test_criterion_7_threshold_clause_consistency():
    start = time.perf_counter()
    bad = []
    for length in range(1, 6):
        for ranks in product(range(1, 6), repeat=length):
            n1 = sum(ranks)
            for p in range(1, 11):
                tc = np_threshold("C", ranks, p).value
                tbd = np_threshold("BD", ranks, p).value
                cap_c = max(Fraction(p), Fraction(p + 1, n1) + Fraction(n1 - 3, 2))
                cap_bd = max(Fraction(p + 1), Fraction(p + 1, n1) + Fraction(n1 - 1, 2))
                if tc > cap_c or tbd > cap_bd:
                    bad.append((ranks, p))
                # the s = 1 row floors every threshold: a certified gap is >= p + shift
                if tc < p or tbd < p + 1:
                    bad.append((ranks, p, "floor"))
    assert not bad, bad[:5]
    report(7, "closed-form caps dominate and p, p+1 floor every rank tuple (len<=5, p<=10)",
           time.perf_counter() - start, 30)


def test_criterion_7b_small_picard_equality():
    start = time.perf_counter()
    for ranks in list(product(range(1, 6), repeat=1)) + list(product(range(1, 6), repeat=2)):
        # k <= 2 means at most two tail blocks
        for p in range(1, 11):
            assert np_threshold("C", ranks, p).value == Fraction(p), (ranks, p)
            assert np_threshold("BD", ranks, p).value == Fraction(p + 1), (ranks, p)
    report(7, "thresholds collapse to p and p+1 for Picard rank <= 2",
           time.perf_counter() - start, 30)


def test_criterion_8_g2():
    start = time.perf_counter()
    summary = suite_g2_lemma()
    assert summary["pass"], summary
    assert set(summary["nonvanishing_degrees"]) <= {0, 10}
    gx = parse_variety("g2x")
    gp = parse_variety("g2p")
    for p in range(1, 4):
        for l in range(p, 6):
            assert g2_np_certify(gx, (l,), p).certified, ("g2x", p, l)
            assert g2_np_certify(gp, (2 * l, l), p).certified, ("g2p", p, l)
    report(8, "G2 vanishing pattern and exhaustive certification (l >= p, p <= 3)",
           time.perf_counter() - start, 60)


def test_criterion_9_restriction_surjectivity():
    start = time.perf_counter()
    summary = suite_restriction_surjectivity()
    assert summary["pass"], summary
    assert summary["checked"] == 12
    report(9, "restriction surjectivity across the small isotropic catalog",
           time.perf_counter() - start, 60)
