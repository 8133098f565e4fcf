"""End-to-end acceptance checks.

Each test drives the CLI exactly the way a user would, at the full stated
grid and order, and asserts zero coefficient discrepancy (identities are
exact; only the growth check is a tolerance test).  First-run outputs are
cached so the final determinism check can replay every suite and compare
bytes.
"""

import io
import json
import time
from contextlib import redirect_stdout

import pytest

from qchar.bivariate import (
    coeff_z,
    fock_char_product,
    inverse_product_sides,
    jacobi_triple_sides,
)
from qchar.characters import fock_sector_char
from qchar.cli import main
from qchar.identities import check

# -- suite registry ------------------------------------------------------
#
# Every CLI invocation the criteria need, in one place: the per-criterion
# tests consume these and the determinism check replays all of them.

VERIFY_SUITES = {
    "mirror-pair": ("verify", "--family", "lemma11a",
                    "--m", "2..6", "--s", "0..6", "--order", "200"),
    "reflection": ("verify", "--family", "lemma11b",
                   "--m", "2..6", "--s", "0..6", "--order", "200"),
    "closed-form": ("verify", "--family", "prop12",
                    "--m", "2..4", "--k", "0..4", "--order", "200"),
    "recurrence": ("verify", "--family", "recurrence",
                   "--m", "2..4", "--k", "0..4", "--order", "200"),
    "basic-forms": ("verify", "--family", "thm13a",
                    "--m", "2..6", "--order", "300"),
    "family-sector": ("verify", "--family", "thm13b",
                      "--m", "2..4", "--k=-3..3", "--order", "200"),
    "quasiparticle": ("verify", "--family", "prop21",
                      "--m", "2..4", "--s=-3..4", "--order", "120"),
    "graded-rows": ("verify", "--family", "fockprod",
                    "--m", "2..3", "--order", "60", "--zwin", "4"),
    "vacuum": ("verify", "--family", "cor22", "--m", "2..6", "--order", "300"),
    "triple-product": ("verify", "--family", "jtp",
                       "--order", "100", "--zwin", "10"),
    "inverse-product": ("verify", "--family", "kp",
                        "--order", "80", "--zwin", "8"),
    "triangular": ("verify", "--family", "gauss", "--order", "400"),
}

ORACLE_SUITES = tuple(
    ("oracle", "--m", str(m), "--s", str(s), "--qbound", "30")
    for m in (2, 3, 4) for s in range(-3, 5)
)

ASYMPT_SUITES = (
    ("asympt", "--m", "2", "--nmax", "4001"),
    ("asympt", "--m", "3", "--nmax", "4001"),
)

ALL_SUITES = tuple(VERIFY_SUITES.values()) + ORACLE_SUITES + ASYMPT_SUITES

_FIRST = {}


def invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    out = buf.getvalue()
    _FIRST.setdefault(tuple(argv), out)
    return code, out


def assert_suite_passes(argv, count, order_u):
    code, out = invoke(argv)
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == count
    assert all(r["verdict"] == "pass" for r in reports)
    assert all(r["order_u"] == order_u for r in reports)
    return reports


# -- criteria ------------------------------------------------------------


@pytest.mark.acceptance("01", "mirror pair of sector characters sums to the "
                              "paired product, q-order 200")
def test_a01_mirror_pair_suite():
    assert_suite_passes(VERIFY_SUITES["mirror-pair"], count=35, order_u=400)
    # the stated budget is per grid point, so time each case on its own
    for m in range(2, 7):
        for s in range(0, 7):
            t0 = time.perf_counter()
            reports = check("lemma11a", 400, None, {"m": m, "s": s})
            elapsed = time.perf_counter() - t0
            assert all(r.passed() for r in reports)
            assert elapsed < 2.0, (m, s, elapsed)


@pytest.mark.acceptance("02", "sector characters are symmetric under charge "
                              "reflection, q-order 200")
def test_a02_reflection_suite():
    assert_suite_passes(VERIFY_SUITES["reflection"], count=35, order_u=400)


@pytest.mark.acceptance("03", "closed form matches both sectors and the "
                              "k-fold recurrence, q-order 200")
def test_a03_closed_form_and_recurrence():
    # two reports per grid point: closed form against each sector charge
    assert_suite_passes(VERIFY_SUITES["closed-form"], count=30, order_u=400)
    assert_suite_passes(VERIFY_SUITES["recurrence"], count=15, order_u=400)


@pytest.mark.acceptance("04", "basic-module character equals the product "
                              "form and both sector forms, q-order 300")
def test_a04_basic_module_three_forms():
    reports = assert_suite_passes(VERIFY_SUITES["basic-forms"],
                                  count=15, order_u=600)
    forms = {r["params"]["form"] for r in reports}
    assert forms == {"product", "vacuum-sector", "mirror-sector"}


@pytest.mark.acceptance("05", "family characters match shifted sector "
                              "characters in both sign cases, q-order 200")
def test_a05_family_vs_sector():
    reports = assert_suite_passes(VERIFY_SUITES["family-sector"],
                                  count=21, order_u=400)
    ks = {r["params"]["k"] for r in reports}
    assert ks == set(range(-3, 4))


@pytest.mark.acceptance("06", "quasiparticle sum = sector character = state "
                              "enumeration, q-orders 120 and 30")
def test_a06_three_way_with_oracle():
    assert_suite_passes(VERIFY_SUITES["quasiparticle"], count=24, order_u=240)
    for argv in ORACLE_SUITES:
        t0 = time.perf_counter()
        code, out = invoke(argv)
        elapsed = time.perf_counter() - t0
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["verdict"] == "pass"
        assert reports[0]["order_u"] == 60
        assert elapsed < 60.0, (argv, elapsed)


@pytest.mark.acceptance("07", "vacuum-sector product identity, q-order 300")
def test_a07_vacuum_product_identity():
    assert_suite_passes(VERIFY_SUITES["vacuum"], count=5, order_u=600)


@pytest.mark.acceptance("08", "bivariate triple-product identity on "
                              "z-window [-10,10], q-order 100")
def test_a08_bivariate_triple_product():
    assert_suite_passes(VERIFY_SUITES["triple-product"], count=1, order_u=200)
    lhs, rhs = jacobi_triple_sides(200, (-10, 10))
    assert lhs.window() == rhs.window() == (-10, 10)
    for d in range(-10, 11):
        assert coeff_z(lhs, d).first_diff(coeff_z(rhs, d)) is None


@pytest.mark.acceptance("09", "bivariate inverse-product identity on "
                              "z-window [-8,8], q-order 80")
def test_a09_bivariate_inverse_product():
    assert_suite_passes(VERIFY_SUITES["inverse-product"], count=1, order_u=160)
    lhs, rhs = inverse_product_sides(160, (-8, 8))
    assert lhs.window() == rhs.window() == (-8, 8)
    for d in range(-8, 9):
        assert coeff_z(lhs, d).first_diff(coeff_z(rhs, d)) is None


@pytest.mark.acceptance("10", "graded-product rows match the sector "
                              "characters, q-order 60")
def test_a10_graded_product_rows():
    assert_suite_passes(VERIFY_SUITES["graded-rows"], count=2, order_u=120)
    for m in (2, 3):
        prod = fock_char_product(m, 120, (-4, 4))
        for s in range(-4, 5):
            row = coeff_z(prod, s)
            assert row.first_diff(fock_sector_char(m, s, 120)) is None, (m, s)


@pytest.mark.acceptance("11", "triangular-number sum equals the product "
                              "side, q-order 400")
def test_a11_triangular_sum_identity():
    assert_suite_passes(VERIFY_SUITES["triangular"], count=1, order_u=800)


@pytest.mark.acceptance("12", "coefficient growth ratio approaches the "
                              "analytic estimate through n = 4000")
def test_a12_growth_ratio_tracks_estimate():
    t0 = time.perf_counter()
    for argv in ASYMPT_SUITES:
        code, out = invoke(argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,a_n,log_ratio"
        assert len(lines) == 4002  # header + rows n = 0..4000
        ratio = {}
        for line in lines[1:]:
            n_text, _, ratio_text = line.split(",")
            ratio[int(n_text)] = float(ratio_text)
        assert 0.95 <= ratio[4000] <= 1.05
        deviations = [abs(ratio[n] - 1.0) for n in (400, 1000, 2000, 4000)]
        assert all(a > b for a, b in zip(deviations, deviations[1:])), deviations
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.acceptance("13", "byte-identical JSON across two consecutive "
                              "runs of every suite")
def test_a13_byte_identical_reruns():
    for argv in ALL_SUITES:
        key = tuple(argv)
        if key not in _FIRST:
            invoke(argv)
        first = _FIRST[key]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        assert buf.getvalue() == first, argv
