import hashlib
import json
from fractions import Fraction

import pytest

from np_atlas.geometry import FlagShape, parse_variety
from np_atlas.syzygy import (
    CERTIFIED,
    NOT_CERTIFIED,
    SCHEMA_VERSION,
    g2_np_certify,
    kernel_filtration,
    np_certify,
    np_threshold,
    schur_complex_term,
)


def test_kernel_filtration_trivial_bundle():
    levels = kernel_filtration(FlagShape(5, (2, 1)), (0, 0))
    assert all(set(lv.truncated_weight) == {0} for lv in levels)
    assert all(set(lv.twist) == {0} for lv in levels)


def test_kernel_filtration_grassmannian():
    levels = kernel_filtration(FlagShape(6, (2,)), (3,))
    assert len(levels) == 1
    assert levels[0].truncated_weight == (3, 3, 3, 3, 0, 0)
    assert levels[0].twist == (3,)


def test_kernel_filtration_two_step():
    levels = kernel_filtration(FlagShape(5, (2, 1)), (3, 1))
    assert levels[0].truncated_weight == (2, 2, 2, 0)
    assert levels[0].twist == (3, 1)
    assert levels[1].truncated_weight == (3, 3, 3, 1, 0)
    assert levels[1].twist == (1, 1)


def test_kernel_filtration_requires_nef():
    with pytest.raises(ValueError):
        kernel_filtration(FlagShape(5, (2, 1)), (1, 3))


def test_schur_complex_term_euler_sequence():
    term = schur_complex_term(FlagShape(2, (1,)), (3,), 1, 1)
    assert [(s.shape, s.multiplicity) for s in term.summands] == [(((1,), (2,)), 1)]
    term = schur_complex_term(FlagShape(2, (1,)), (3,), 1, 2)
    assert term.summands == ()


def test_schur_complex_term_two_step_flag():
    term = schur_complex_term(FlagShape(4, (2, 1)), (2, 1), 1, 1)
    assert term.summands
    for (rho, nu), mult in term.summands:
        assert mult >= 1
        assert sum(rho) + sum(nu) == sum(
            kernel_filtration(FlagShape(4, (2, 1)), (2, 1))[0].truncated_weight
        )
    with pytest.raises(ValueError):
        schur_complex_term(FlagShape(4, (2, 1)), (2, 1), 3, 1)
    with pytest.raises(ValueError):
        schur_complex_term(FlagShape(4, (2, 1)), (2, 1), 1, 0)


def test_schur_complex_weight_balance():
    for shape, a in [(FlagShape(5, (2, 1)), (3, 1)), (FlagShape(6, (3,)), (2,))]:
        for level in range(1, shape.k + 1):
            for j in range(1, 5):
                term = schur_complex_term(shape, a, level, j)
                for (rho, nu), _ in term.summands:
                    assert sum(rho) == j
                    total = sum(
                        kernel_filtration(shape, a)[level - 1].truncated_weight
                    )
                    assert sum(nu) == total - j


def test_np_threshold_remark_values():
    for p in range(1, 11):
        assert np_threshold("C", (1, 2, 3), p).value == Fraction(p)
    thr = np_threshold("C", (1, 1, 1, 1, 1, 1), 1)
    assert thr.value == Fraction(11, 6)
    assert thr.witness_config == (1, 1, 1, 1, 1, 1)


def test_np_threshold_bd_small_picard():
    for ranks in [(1,), (3,), (1, 2), (4, 1)]:
        for p in range(1, 6):
            assert np_threshold("BD", ranks, p).value == Fraction(p + 1)
            assert np_threshold("C", ranks, p).value == Fraction(p)


def test_np_threshold_validation():
    with pytest.raises(ValueError):
        np_threshold("E", (1,), 1)
    with pytest.raises(ValueError):
        np_threshold("C", (1,), 0)
    with pytest.raises(ValueError):
        np_threshold("C", (), 1)


def test_np_certify_remark_case():
    spec = parse_variety("sfl(6,5,3;12)")
    for p in range(1, 4):
        cert = np_certify(spec, (3 * p, 2 * p, p), p)
        assert cert.verdict == CERTIFIED
        assert cert.threshold == Fraction(p)


def test_np_certify_full_symplectic_flag():
    spec = parse_variety("sfl(6,5,4,3,2,1;12)")
    cert = np_certify(spec, (6, 5, 4, 3, 2, 1), 1)
    assert cert.verdict == NOT_CERTIFIED
    assert cert.clause == "none"
    assert cert.threshold == Fraction(11, 6)
    cert = np_certify(spec, (12, 10, 8, 6, 4, 2), 1)
    assert cert.verdict == CERTIFIED


def test_np_certify_type_a():
    spec = parse_variety("fl(2,1;5)")
    assert np_certify(spec, (4, 2), 2).verdict == CERTIFIED
    assert np_certify(spec, (2, 1), 2).verdict == NOT_CERTIFIED


def test_np_certify_monotone():
    spec = parse_variety("sfl(3,2,1;8)")
    for p in range(2, 5):
        for l in range(1, 5):
            cert = np_certify(spec, (3 * l, 2 * l, l), p)
            if cert.certified:
                assert np_certify(spec, (3 * (l + 1), 2 * (l + 1), l + 1), p).certified
                assert np_certify(spec, (3 * l, 2 * l, l), p - 1).certified


def test_np_certify_validation():
    spec = parse_variety("sfl(2;6)")
    with pytest.raises(ValueError):
        np_certify(spec, (0,), 1)
    with pytest.raises(ValueError):
        np_certify(spec, (1,), 0)


def test_certificate_json_schema():
    cert = np_certify(parse_variety("sfl(6,5,3;12)"), (3, 2, 1), 1)
    doc = json.loads(json.dumps(cert.to_json_dict(), sort_keys=True))
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["verdict"] == "certified"
    assert doc["threshold"] == {"num": 1, "den": 1}
    assert Fraction(doc["threshold"]["num"], doc["threshold"]["den"]) == cert.threshold
    assert set(doc) == {
        "schema_version", "query", "verdict", "clause", "threshold",
        "witness_config", "trace",
    }


def test_g2_certify_examples():
    gx = parse_variety("g2x")
    gp = parse_variety("g2p")
    assert g2_np_certify(gx, 1, l=1).certified
    assert g2_np_certify(gp, 1, a=(2, 1)).certified
    cert = g2_np_certify(gx, 3, l=1)
    assert cert.trace  # exhaustive sweep is always recorded
    with pytest.raises(ValueError):
        g2_np_certify(gx, 0, l=1)
    with pytest.raises(ValueError):
        g2_np_certify(gp, 1, a=(1, 1))
    with pytest.raises(ValueError):
        g2_np_certify(parse_variety("sfl(2;6)"), 1, l=1)


def test_np_certify_routes_g2():
    cert = np_certify(parse_variety("g2x"), (2,), 2)
    assert cert.certified
    assert cert.clause == "G2:exhaustive-bbw"


# sha256 of the canonical certificate JSON, keyed by (variety, p, l): pins every
# trace row of the exhaustive sweep, not just the verdict
G2_CERTIFICATE_DIGESTS = {
    ("g2x", 1, 1): "4e65b4b5002ec2dc50f0d1702f8e3cf10f7a65b875eb77fbf0047124b9845024",
    ("g2x", 1, 2): "a6e362d1437daa693112b7cdaf82fa1442a36267c816dd3b43ae69d28cd4d727",
    ("g2x", 2, 2): "48f884efef314f9b79f21df9cb6017b386c145ea2aba71fdcf94129fba7d8f95",
    ("g2x", 2, 3): "0c6af686ba99286bd9b63aaf65cb746d8319437fa3695fc88a1b43e3903944db",
    ("g2x", 3, 3): "344bab5163a9d8fce60b5db3e9ff0dd087ff327d3c08f515bac032e971efa7b0",
    ("g2x", 3, 4): "cd810906d1e0b14ac4ec33bdfbf31611024178d7554067d082b557d6b115238d",
    ("g2p", 1, 1): "68a936d9513883466d65a11eb37361b04d8db80d87d49463799f46bb02319ebe",
    ("g2p", 1, 2): "70cfa93a49d24170b41a344d56e782a9150e79e6aaea82401fa6798a07962400",
    ("g2p", 2, 2): "162fdb28c380ccecfa98363c51d1db55e60c54c92d64025cdec93ec54557fd07",
    ("g2p", 2, 3): "938ea9b03a767a75297a4aabc09c3e37ac2ff45102a4a770772a0d4f3634b70a",
    ("g2p", 3, 3): "afcfcf24ea32c50410ec86a4e4cd5d6c1cd9fc5e24ac10d06a6216e9e02bf7a7",
    ("g2p", 3, 4): "96e7a58d5ac5207751d2bee54e05b37e0b8a7644dc4e178e0b0057fa3543a599",
}


def test_g2_certificates_pinned():
    for (token, p, l), digest in G2_CERTIFICATE_DIGESTS.items():
        spec = parse_variety(token)
        if token == "g2x":
            cert = g2_np_certify(spec, p, l=l)
        else:
            cert = g2_np_certify(spec, p, a=(2 * l, l))
        text = json.dumps(cert.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (token, p, l)
