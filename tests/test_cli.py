import csv
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qchar import bivariate, characters, cli, identities, oracle
from qchar.characters import IdentityReport
from qchar.errors import InvalidParameter
from qchar.cli import main, parse_range
from qchar.qseries import MAX_WINDOW, QSeries, euler_phi

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# -- grids ---------------------------------------------------------------


def test_parse_range():
    assert parse_range("2..4") == [2, 3, 4]
    assert parse_range("-3..1") == [-3, -2, -1, 0, 1]
    assert parse_range("5") == [5]
    with pytest.raises(ValueError):
        parse_range("4..2")


def test_bad_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "cor22", "--m", "4..2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "gauss", "--order", "0"),
    ("verify", "--family", "lemma11a", "--m", "2", "--s", "0", "--order", "0"),
    ("series", "--expr", "gauss()", "--order", "0"),
    ("oracle", "--m", "2", "--s", "0", "--qbound", "0"),
    ("oracle", "--m", "2", "--s", "0", "--qbound", "-5"),
    ("verify", "--family", "fockprod", "--zwin", "-1"),
    ("verify", "--family", "jtp", "--zwin", "-1"),
    ("verify", "--family", "kp", "--zwin", "-1"),
    ("verify", "--family", "gauss", "--jobs", "0"),
    ("oracle", "--m", "2", "--s", "0", "--qbound", "5", "--max-nodes", "0"),
    ("asympt", "--m", "2", "--nmax", "0"),
])
def test_bad_number_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "gauss", "--m", "2..7", "--s=-8..8", "--k=-5..5"),
    ("verify", "--family", "jtp", "--m", "2"),
    ("verify", "--family", "kp", "--m", "2"),
    ("verify", "--family", "lemma11b", "--k", "1"),
    ("verify", "--family", "thm13a", "--zwin", "2"),
])
def test_named_family_rejects_undeclared_axis(capsys, argv):
    code, out, err = run(capsys, *argv, "--order", "5")
    assert code == 2
    assert out == ""
    assert "does not take" in err


def test_family_all_applies_each_axis_where_declared(capsys):
    code, out, _ = run(capsys, "verify", "--family", "all", "--m", "2..3",
                       "--s", "0", "--k", "1", "--zwin", "1", "--order", "5")
    assert code == 0
    reports = json.loads(out)
    counts = Counter(r["identity"] for r in reports)
    # families without an m axis run once, the others once per m
    assert counts["jtp"] == counts["kp"] == counts["gauss"] == 1
    assert counts["lemma11a"] == counts["thm13b"] == counts["fockprod"] == 2
    for r in reports:
        axes = identities.FAMILIES[r["identity"]].axes
        assert set(axes) <= set(r["params"])
        assert r["params"].get("s", 0) == 0 and r["params"].get("k", 1) == 1


# -- series --------------------------------------------------------------


def test_series_expr_basic_module(capsys):
    code, out, _ = run(capsys, "series", "--expr", "L0(2)", "--order", "5")
    assert code == 0
    assert out.splitlines() == [
        "1 · q^{0}", "2 · q^{1}", "4 · q^{2}", "8 · q^{3}", "14 · q^{4}",
    ]


def test_series_gauss(capsys):
    code, out, _ = run(capsys, "series", "--expr", "gauss()", "--order", "7")
    assert code == 0
    assert out.splitlines() == ["1 · q^{0}", "1 · q^{1}", "1 · q^{3}", "1 · q^{6}"]


def test_series_sector(capsys):
    code, out, _ = run(capsys, "series", "--expr", "fs(2,0)", "--order", "3")
    assert code == 0
    assert out.splitlines() == ["1 · q^{0}", "2 · q^{1}", "5 · q^{2}"]


def test_series_json_round_trips(capsys):
    code, out, _ = run(capsys, "series", "--expr", "phi(2)",
                       "--order", "10", "--format", "json")
    assert code == 0
    back = QSeries.from_json_dict(json.loads(out))
    assert back == euler_phi(2, 20)


def test_series_csv(capsys):
    code, out, _ = run(capsys, "series", "--expr", "q^(-1/2) + q",
                       "--order", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["u_exp,coeff", "-1,1", "2,1"]


@pytest.mark.parametrize("name", ["hs", "fs"])
def test_series_far_charge_is_bounded(capsys, name):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "series", "--expr", f"{name}(2,-4000000)",
                       "--order", "1")
    assert time.perf_counter() - t0 < 0.5
    assert code == 0
    assert out.strip() == "0"


def test_series_huge_power_is_quick(capsys):
    # about 27 squarings, where n - 1 products in a row would run for minutes
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "series", "--expr", "phi(1)^99999999",
                       "--order", "2")
    assert time.perf_counter() - t0 < 0.5
    assert code == 0
    assert out.splitlines() == ["1 · q^{0}", "-99999999 · q^{1}"]


def test_series_needs_expr(capsys):
    code, out, err = run(capsys, "series", "--order", "5")
    assert code == 2
    assert out == ""
    assert "--expr" in err


def test_series_parse_error_renders_position(capsys):
    code, _, err = run(capsys, "series", "--expr", "phi(1] + 2", "--order", "5")
    assert code == 2
    assert "1:6:" in err


@pytest.mark.parametrize("text", [
    "(" * 3000 + "1" + ")" * 3000,
    "+".join(["1"] * 3000),
])
def test_series_deep_expression_is_usage_error(capsys, text):
    code, out, err = run(capsys, "series", "--expr", text, "--order", "5")
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err and "Traceback" not in err


def test_series_window_past_the_bound_is_resource_limit(capsys):
    # q^-N alone claims a window of about 4N coefficients
    code, out, err = run(capsys, "series", "--expr", "q^-100000000",
                         "--order", "5")
    assert code == 3
    assert out == ""
    assert "coefficients" in err and "Traceback" not in err


def test_series_builtin_window_past_the_bound_is_resource_limit(capsys):
    # qp(m, s) builds at u-order order + s m: refused before it is built
    code, out, err = run(capsys, "series", "--expr", "qp(2,4000000)",
                         "--order", "1")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "coefficients" in err


def test_series_domain_error_is_usage(capsys):
    code, _, err = run(capsys, "series", "--expr", "L0(1)", "--order", "5")
    assert code == 2
    assert "m >= 2" in err


# -- verify --------------------------------------------------------------


def test_verify_family_json_reports(capsys):
    code, out, _ = run(capsys, "verify", "--family", "lemma11b",
                       "--m", "2..3", "--s", "0..2", "--order", "30")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 6
    assert all(r["verdict"] == "pass" for r in reports)
    assert all(r["order_u"] == 60 for r in reports)
    assert reports[0]["params"] == {"m": 2, "s": 0}


def test_verify_text_format_summarizes(capsys):
    code, out, _ = run(capsys, "verify", "--family", "gauss",
                       "--order", "50", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS gauss")
    assert lines[-1] == "1/1 passed"


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--family", "cor22", "--m", "2",
                       "--order", "20", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("identity,params,")
    assert lines[1].startswith("cor22,")


def test_verify_all_families_small_order(capsys):
    code, out, _ = run(capsys, "verify", "--family", "all", "--order", "20")
    assert code == 0
    reports = json.loads(out)
    names = {r["identity"] for r in reports}
    assert names == set(identities.FAMILIES)
    assert all(r["verdict"] == "pass" for r in reports)


def test_verify_failure_sets_exit_code(capsys, monkeypatch):
    # perturb one side so the harness sees a genuine mismatch
    real = identities.sector_pair_product

    def skewed(m, order):
        return real(m, order) + QSeries.monomial(10, order)

    monkeypatch.setattr(identities, "sector_pair_product", skewed)
    code, out, _ = run(capsys, "verify", "--family", "lemma11a",
                       "--m", "2", "--s", "0..1", "--order", "30")
    assert code == 1
    reports = json.loads(out)
    assert {r["verdict"] for r in reports} == {"fail"}
    assert reports[0]["first_diff_u_exp"] == 10


@pytest.fixture
def fresh_caches():
    """Clear the cached characters before and after a test that patches what
    they are built from, so a cached value neither hides the patch nor
    outlives it."""
    def clear():
        characters._charge_buckets.cache_clear()
        characters._boson_pair_base.cache_clear()
        characters._BUILDS.clear()  # every other shared build

    clear()
    yield
    clear()


@pytest.mark.usefixtures("fresh_caches")
def test_thm13a_product_form_can_fail(capsys, monkeypatch):
    # a dist product off by q^3 reaches basic_char but not the pentagonal
    # quotient, so the product form must catch it
    real = characters.dist_product

    def skewed(j, order):
        return real(j, order) + QSeries.monomial(6, order)

    monkeypatch.setattr(characters, "dist_product", skewed)
    code, out, _ = run(capsys, "verify", "--family", "thm13a", "--m", "2",
                       "--order", "20")
    assert code == 1
    verdicts = {r["params"]["form"]: r["verdict"] for r in json.loads(out)}
    assert verdicts["product"] == "fail"


@pytest.mark.usefixtures("fresh_caches")
def test_thm13a_and_gauss_share_one_dist_square(capsys, monkeypatch):
    # the square (-q;q)^2 does not depend on m: one build serves the five
    # basic characters and gauss's right side at the same order
    built = []
    real = characters.dist_product

    def spy(j, order):
        built.append(order)
        return real(j, order)

    monkeypatch.setattr(characters, "dist_product", spy)
    for family, *axes in (("thm13a", "--m", "2..6"), ("gauss",)):
        code, _, _ = run(capsys, "verify", "--family", family, *axes,
                         "--order", "60")
        assert code == 0
    assert built == [120]


@pytest.mark.usefixtures("fresh_caches")
def test_prop21_fails_with_a_skewed_boson_pair_base(capsys, monkeypatch):
    # the sector character's denominator is built apart from the
    # quasiparticle sum's 1/(q^m;q^m)^2, so skewing the latter by q^3
    # must show
    real = characters._boson_pair_base

    def skewed(m, nu):
        return real(m, nu) + (1 << 8 * characters._digit_bytes(nu) * 3)

    monkeypatch.setattr(characters, "_boson_pair_base", skewed)
    code, out, _ = run(capsys, "verify", "--family", "prop21", "--m", "2",
                       "--s", "1", "--order", "40")
    assert code == 1
    assert [r["verdict"] for r in json.loads(out)] == ["fail"]


@pytest.mark.usefixtures("fresh_caches")
def test_a_skewed_euler_phi_4_fails_only_the_quasiparticle_families(
        capsys, monkeypatch):
    # the quasiparticle sum divides by 1/(q^m;q^m)^2 with packed_geometric,
    # apart from euler_phi, and every other family's two sides read
    # euler_phi(4) alike: for m >= 4 prop21 and cor22 are the only checks
    # of euler_phi(m), so the boson-pair base must stay built that way
    real = euler_phi

    def skewed(j, order):
        phi = real(j, order)
        return phi + QSeries.monomial(16, order) if j == 4 else phi

    for module in (characters, identities, bivariate):
        monkeypatch.setattr(module, "euler_phi", skewed)
    failed = []
    for name in identities.FAMILIES:
        code, out, _ = run(capsys, "verify", "--family", name, "--order", "30")
        assert code in (0, 1) and out
        if code:
            failed.append(name)
    assert failed == ["prop21", "cor22"]


@pytest.mark.usefixtures("fresh_caches")
def test_a_builder_that_breaks_a_digit_rule_is_an_internal_error(
        capsys, monkeypatch):
    # euler_phi(1) skewed by 3 q^3 turns a q-digit of the shared inverse
    # denominator negative, which its unsigned packing cannot hold. That is
    # a bug in a builder, so exit 4 with one line: not a failing identity
    # (exit 1), which the families that never pack it report, and not bad
    # input (exit 2)
    real = euler_phi

    def skewed(j, order):
        phi = real(j, order)
        return phi + QSeries.monomial(6, order, 3) if j == 1 else phi

    for module in (characters, identities, bivariate):
        monkeypatch.setattr(module, "euler_phi", skewed)
    code, out, err = run(capsys, "verify", "--family", "lemma11a", "--order", "30")
    assert (code, out) == (4, "")
    assert err.startswith("qchar: internal error: ValueError: digit ")
    assert len(err.splitlines()) == 1 and "outside [0, 256^" in err
    for name in ("cor22", "jtp", "kp", "gauss"):
        code, out, _ = run(capsys, "verify", "--family", name, "--order", "30")
        assert code == 1 and "fail" in {r["verdict"] for r in json.loads(out)}, name


@pytest.mark.usefixtures("fresh_caches")
def test_prop21_fails_with_a_skewed_shared_bucket(capsys, monkeypatch):
    # a bucket skewed by q^3 in the build a longer point made must fail a
    # later, shorter point that only restricts that build
    real = characters._charge_buckets
    built = []

    def skewed(nu):
        built.append(nu)
        nb = characters._digit_bytes(nu)
        return tuple((g, x + (1 << 8 * nb * 3) if g == 1 else x)
                     for g, x in real(nu))

    monkeypatch.setattr(characters, "_charge_buckets", skewed)
    for order in ("40", "20"):
        code, out, _ = run(capsys, "verify", "--family", "prop21", "--m", "2",
                           "--s", "1", "--order", order)
        assert code == 1
        assert [r["verdict"] for r in json.loads(out)] == ["fail"]
    assert built == [88, 88]  # u-order 82 rounded up to four bits


def test_prop21_grid_runs_longest_first_and_reports_in_grid_order(
        capsys, monkeypatch):
    # the same bytes with one job and with two, and the reports in grid
    # order, whatever order the points ran in
    outs = [run(capsys, "verify", "--family", "prop21", "--order", "40",
                "--jobs", jobs) for jobs in ("1", "2")]
    assert outs[0] == outs[1] and outs[0][0] == 0
    points = [(r["params"]["m"], r["params"]["s"]) for r in json.loads(outs[0][1])]
    assert points == [(m, s) for m in range(2, 5) for s in range(-3, 5)]
    ran = []

    def sides(nu, half, m, s):
        # the window of the quasiparticle sum or, if wider, of the sector
        ran.append(nu - min(-s * m, characters.sector_window(m, nu)[0]))
        return iter(())

    fam = identities.FAMILIES["prop21"]._replace(sides=sides)
    monkeypatch.setitem(identities.FAMILIES, "prop21", fam)
    assert run(capsys, "verify", "--family", "prop21", "--order", "40")[0] == 0
    assert ran == sorted(ran, reverse=True) and len(ran) == 24


@pytest.mark.parametrize("name,point,length", [
    ("prop21", {"m": 3, "s": 2}, 86),
    ("prop21", {"m": 2, "s": -3}, 80),
    ("prop21", {"m": 4, "s": -3}, 82),
    ("cor22", {"m": 5}, 80),
    ("recurrence", {"m": 2, "k": 1}, 84),
    ("lemma11a", {"m": 2, "s": 3}, 80),
    ("lemma11a", {"m": 5, "s": -1}, 84),
    ("thm13b", {"m": 3, "k": -2}, 93),
    ("gauss", {}, 80),
])
def test_check_domain_returns_the_length_built(name, point, length):
    # order - lo of the family's window(), else nu
    assert identities.check_domain(name, 80, None, point) == length
    lo, order = identities.FAMILIES[name].window(80, None, **point)
    assert order - lo == length


def test_domain_error_names_family_and_point(capsys):
    code, out, err = run(capsys, "verify", "--family", "prop12", "--k=-5..5")
    assert code == 2
    assert out == ""
    assert err == "qchar: prop12 m=2 k=-5: need k >= 0, got -5\n"


def _counting(monkeypatch, name):
    """Replace family `name`'s sides by a stub that records the u-order of
    each call and yields no report."""
    calls = []

    def sides(nu, half, **point):
        calls.append(nu)
        return iter(())

    fam = identities.FAMILIES[name]._replace(sides=sides)
    monkeypatch.setitem(identities.FAMILIES, name, fam)
    return calls


def test_domain_is_checked_on_the_whole_grid_first(capsys, monkeypatch):
    # lemma11a runs before prop12, so it must not run at all
    calls = _counting(monkeypatch, "lemma11a")
    code, out, err = run(capsys, "verify", "--family", "all", "--k=-1..4",
                         "--order", "20")
    assert code == 2
    assert out == ""
    assert err == "qchar: prop12 m=2 k=-1: need k >= 0, got -1\n"
    assert calls == []


@pytest.mark.parametrize("name,axes,where", [
    ("recurrence", ("--m", "4", "--k", "1000"), "m=4 k=1000: the window u^-2.."),
    ("prop21", ("--m", "2", "--s", "1000000"),
     "m=2 s=1000000: the window u^-2000000.."),
    # lemma11a builds within u^0..u^2, but claims a side at u^(2 + |s| m)
    ("lemma11a", ("--m", "2", "--s", "1000000"),
     "m=2 s=1000000: the window u^0..u^2000002 "),
])
def test_family_window_past_the_bound_is_resource_limit(capsys, monkeypatch,
                                                        name, axes, where):
    calls = _counting(monkeypatch, name)
    code, out, err = run(capsys, "verify", "--family", name, *axes,
                         "--order", "1")
    assert (code, out, calls) == (3, "", [])
    assert err.startswith(f"qchar: {name} {where}")
    assert len(err.splitlines()) == 1 and "coefficients" in err


def test_fockprod_rows_past_their_bound_are_refused_first(capsys, monkeypatch):
    # m = 128 spans 2 + 2 * 4032 = 8066 packed digits at q-order 1, m = 129
    # spans 8194, past QP_MAX_ORDER; the whole grid is checked first
    calls = _counting(monkeypatch, "fockprod")
    for m, refused in (("1000", "1000"), ("128..129", "129")):
        code, out, err = run(capsys, "verify", "--family", "fockprod",
                             "--m", m, "--order", "1")
        assert (code, out, calls) == (3, "", [])
        assert err.startswith(f"qchar: fockprod m={refused}: the two-variable "
                              f"Fock character of m={refused} ")
        assert len(err.splitlines()) == 1 and "past its bound 8192" in err
    code, out, err = run(capsys, "verify", "--family", "fockprod", "--m", "128",
                         "--order", "1")
    assert (code, out, err, calls) == (0, "[]\n", "", [2])


@pytest.mark.parametrize("name,what", [("jtp", "triple product"),
                                       ("kp", "inverse pair product")])
def test_graded_spans_past_their_bound_are_refused_first(capsys, monkeypatch,
                                                         name, what):
    # q-order 4097 builds at u-order 8194, past QP_MAX_ORDER; 4096 is at it
    calls = _counting(monkeypatch, name)
    code, out, err = run(capsys, "verify", "--family", name, "--order", "4097")
    assert (code, out, calls) == (3, "", [])
    assert err == (f"qchar: {name}: the {what} at u-order 8194 has a span in "
                   "packed digits of 8194, past its bound 8192\n")
    code, out, err = run(capsys, "verify", "--family", name, "--order", "4096")
    assert (code, out, err, calls) == (0, "[]\n", "", [8192])


def test_prop12_sides_past_the_span_bound_are_refused_first(capsys,
                                                            monkeypatch):
    # the closed form would build the pair quotient at u-order 400000
    # before its sector sides were refused
    calls = _counting(monkeypatch, "prop12")
    code, out, err = run(capsys, "verify", "--family", "prop12", "--m", "2",
                         "--k", "0", "--order", "200000")
    assert (code, out, calls) == (3, "", [])
    assert err.startswith("qchar: prop12 m=2 k=0: the sector character ")
    assert len(err.splitlines()) == 1 and "past its bound 65536" in err


def test_prop12_pair_quotient_past_its_bound_is_refused_first(capsys,
                                                               monkeypatch):
    # at k = 100000 both sector sides lie above u^200000 and are zero, but
    # the closed form would build its pair quotient at u-order 200000
    calls = _counting(monkeypatch, "prop12")
    code, out, err = run(capsys, "verify", "--family", "prop12", "--m", "2",
                         "--k", "100000", "--order", "100000")
    assert (code, out, calls) == (3, "", [])
    assert err == ("qchar: prop12 m=2 k=100000: the pair quotient of m=2 is "
                   "built at u-order 200000, past its bound 65536\n")


def test_pair_quotient_expression_past_its_bound_builds_nothing(capsys,
                                                                monkeypatch):
    # q-order 32768 builds at u-order 65536, the bound, in about 2 s; one
    # more is refused before the quotient is built. A store of its own
    # keeps the long build out of the shared one
    built = []
    real = characters._built_pair_quotient

    def spy(m, n):
        built.append((m, n))
        return real(m, n)

    monkeypatch.setattr(characters, "_built_pair_quotient", spy)
    monkeypatch.setattr(characters, "_BUILDS", {})
    code, out, err = run(capsys, "series", "--expr", "cor22lhs(2)",
                         "--order", "32769")
    assert (code, out, built) == (3, "", [])
    assert err == ("qchar: the pair quotient of m=2 is built at u-order "
                   "65538, past its bound 65536\n")
    code, out, err = run(capsys, "series", "--expr", "cor22lhs(2)",
                         "--order", "32768", "--format", "json")
    assert (code, err, built) == (0, "", [(2, 65536)])
    assert json.loads(out)["order_u"] == 65536


def test_thm13b_basic_bound_is_refused_before_any_sector_build(capsys,
                                                                monkeypatch):
    def refuse(*args):
        raise AssertionError("a sector character was built")

    monkeypatch.setattr(characters, "_sector_build", refuse)
    code, out, err = run(capsys, "verify", "--family", "thm13b", "--m", "2",
                         "--k", "0", "--order", "8193")
    assert (code, out) == (3, "")
    assert err == ("qchar: thm13b m=2 k=0: the basic character of m=2 is "
                   "built at u-order 16386, past its bound 16384\n")


def test_lemma11b_spans_past_their_bound_are_refused_first(capsys, monkeypatch):
    # at m = 1000 every sector lies within MAX_WINDOW, but the sides of
    # s = 71 and up span more than SECTOR_MAX_SPAN u-powers; the whole grid
    # is checked before any point runs
    calls = _counting(monkeypatch, "lemma11b")
    code, out, err = run(capsys, "verify", "--family", "lemma11b", "--m", "1000",
                         "--s", "0..500", "--order", "1")
    assert (code, out, calls) == (3, "", [])
    assert err.startswith("qchar: lemma11b m=1000 s=71:")
    assert len(err.splitlines()) == 1 and "past its bound 65536" in err


@pytest.mark.parametrize("argv,where", [
    (("thm13b", "--m", "100000", "--k", "1"), "m=100000 k=1: the window u^-2499950000.."),
    (("lemma11b", "--m", "100000", "--s", "50000"),
     "m=100000 s=50000: the window u^-2499950000.."),
])
def test_sector_window_past_the_bound_is_refused_first(capsys, monkeypatch,
                                                      argv, where):
    # every sector of m lies above u^-pad(m), pad(100000) = 49999 * 50000;
    # refused before any point builds its Euler products
    calls = _counting(monkeypatch, argv[0])
    code, out, err = run(capsys, "verify", "--family", *argv, "--order", "1")
    assert (code, out, calls) == (3, "", [])
    assert err.startswith(f"qchar: {argv[0]} {where}")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_far_sector_character_is_zero_not_refused(capsys):
    # fs(1000, 1499) lies above u^-pad(1000) = u^-249500, not u^(-s m), and
    # holds nothing below u^2
    code, out, err = run(capsys, "series", "--expr", "fs(1000,1499)",
                         "--order", "1")
    assert (code, out, err) == (0, "0\n", "")


@pytest.fixture
def builds(monkeypatch):
    """The (name, args) of every build of the four shared series from here
    on, from an empty store: each builder is swapped for a recording one,
    and the two lru-cached ones get an empty cache of their own."""
    made = []
    for name in ("_inverse_denominator", "_built_pair_quotient",
                 "_charge_buckets", "_boson_pair_base"):
        builder = getattr(characters, name)
        raw = getattr(builder, "__wrapped__", builder)

        def build(*args, name=name, raw=raw):
            made.append((name, args))
            return raw(*args)
        if raw is not builder:
            build = lru_cache(maxsize=64)(build)
        monkeypatch.setattr(characters, name, build)
    characters._BUILDS.clear()
    yield made
    characters._BUILDS.clear()


@pytest.mark.parametrize("order", ["100", "400"])
def test_verify_all_makes_one_build_per_key(capsys, builds, order):
    # longest point first, each build rounded up: one build per key
    assert run(capsys, "verify", "--family", "all", "--order", order)[0] == 0
    per_key = Counter((name, None if name == "_charge_buckets" else args[0])
                      for name, args in builds)
    assert set(per_key.values()) == {1}


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 12), s=st.integers(-12, 12),
       nu=st.sampled_from([1, 7, 40, 200]))
def test_lemma11a_sides_stay_within_the_window_they_declare(m, s, nu):
    # the charge -|s| side, claimed at nu + |s| m, starts at or above
    # u^(|s| m): no inverse denominator is asked past nu + pad(m)
    asked = []
    real = characters._shared

    def record(key, n, *rest):
        if key[0] == "inverse":
            asked.append(n)
        return real(key, n, *rest)

    fam = identities.FAMILIES["lemma11a"]
    characters._BUILDS.clear()  # so each example builds both sides cold
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(characters, "_shared", record)
        list(fam.sides(nu, None, m=m, s=s))
    lo, order = fam.window(nu, None, m=m, s=s)
    assert order - lo == nu - characters.sector_window(m, 0)[0]
    assert asked and max(asked) <= order - lo


@pytest.mark.parametrize("m,order", [(2, 30), (2, 60), (2, 120), (3, 30),
                                     (3, 60), (3, 120), (5, 40)])
def test_a_fockprod_point_makes_one_denominator_build(capsys, builds, m, order):
    # the rows' lengths peak at charge (m - 1) / 2, whose row goes first
    code, _, _ = run(capsys, "verify", "--family", "fockprod", "--m", str(m),
                     "--order", str(order))
    assert code == 0
    assert [name for name, _ in builds].count("_inverse_denominator") == 1


def test_fockprod_at_the_row_bound_passes(capsys):
    # m = 128 at q-order 1 pads its rows by 4032 digits on either side,
    # of which the per-row u-windows keep about 4%; the bytes printed are
    # those of the rows packed in full
    code, out, err = run(capsys, "verify", "--family", "fockprod", "--m", "128",
                         "--order", "1", "--format", "text")
    assert (code, out, err) == (0, "PASS fockprod m=128 order_u=2\n1/1 passed\n", "")
    code, out, err = run(capsys, "verify", "--family", "fockprod", "--m", "128",
                         "--order", "1")
    assert (code, err) == (0, "")
    assert out == (
        '[\n  {\n    "first_diff_u_exp": null,\n    "identity": "fockprod",\n'
        '    "lhs_coeff": null,\n    "ms": 0.0,\n    "order_u": 2,\n'
        '    "params": {\n      "m": 128\n    },\n    "rhs_coeff": null,\n'
        '    "verdict": "pass"\n  }\n]\n')


@pytest.fixture
def nothing_built(monkeypatch):
    """Record every quasiparticle digit width and every oracle state count
    that gets built."""
    built = []
    monkeypatch.setattr(characters, "_digit_bytes",
                        lambda *args: built.append(args))
    monkeypatch.setattr(oracle, "_full_charge_dp",
                        lambda *args: built.append(args))
    return built


@pytest.mark.parametrize("argv,where", [
    (("verify", "--family", "prop21", "--m", "1000000", "--s", "1",
      "--order", "1"), "prop21 m=1000000 s=1: "),
    (("verify", "--family", "cor22", "--m", "2",
      "--order", str(characters.QP_MAX_ORDER // 2 + 1)), "cor22 m=2: "),
    (("series", "--expr", "qp(2,100000)", "--order", "1"), ""),
    (("oracle", "--m", "2", "--s", "5000", "--qbound", "1"), ""),
])
def test_quasiparticle_past_its_bound_is_resource_limit(capsys, nothing_built,
                                                        argv, where):
    # each window fits under MAX_WINDOW; the sum's own bound refuses it
    code, out, err = run(capsys, *argv)
    assert (code, out, nothing_built) == (3, "", [])
    assert err.startswith(f"qchar: {where}the quasiparticle sum of charge ")
    assert len(err.splitlines()) == 1 and "past its bound 8192" in err


def test_quasiparticle_bound_is_checked_on_the_whole_grid_first(
        capsys, monkeypatch):
    # at q-order 1 and m = 2, s = 4095 builds at u-order 8192, the bound
    calls = _counting(monkeypatch, "prop21")
    code, out, err = run(capsys, "verify", "--family", "prop21", "--m", "2",
                         "--s=4094..4096", "--order", "1")
    assert (code, out, calls) == (3, "", [])
    assert err.startswith("qchar: prop21 m=2 s=4096: ")
    code, out, err = run(capsys, "verify", "--family", "prop21", "--m", "2",
                         "--s=4094..4095", "--order", "1")
    assert (code, out, err, calls) == (0, "[]\n", "", [2, 2])


def test_family_window_is_checked_on_the_whole_grid_first(capsys, monkeypatch):
    # recurrence builds at u-order nu + 2k(k+1) for m = 2; only the last k
    # of the grid is too wide
    k = 0
    while 2 + 2 * (k + 1) * (k + 2) <= MAX_WINDOW:
        k += 1
    identities.check_domain("recurrence", 2, None, {"m": 2, "k": k})
    calls = _counting(monkeypatch, "recurrence")
    code, out, err = run(capsys, "verify", "--family", "recurrence",
                         "--m", "2", f"--k=0..{k + 1}", "--order", "1")
    assert (code, out, calls) == (3, "", [])
    assert err.startswith(f"qchar: recurrence m=2 k={k + 1}: the window u^0..")


@pytest.mark.parametrize("name,point", [
    ("recurrence", {"m": 3, "k": 2}),
    ("prop21", {"m": 3, "s": 2}),
    ("prop21", {"m": 2, "s": -3}),
    ("prop21", {"m": 5, "s": 0}),
    ("lemma11a", {"m": 5, "s": -1}),
    ("lemma11a", {"m": 3, "s": 2}),
    ("lemma11b", {"m": 5, "s": 2}),
    ("prop12", {"m": 5, "k": 1}),
    ("thm13a", {"m": 5}),
    ("thm13b", {"m": 3, "k": -2}),
])
def test_family_window_covers_what_its_sides_build(monkeypatch, name, point):
    widths = []
    for builder in ("fock_sector_char", "quasiparticle_char"):
        def spy(m, s, order, real=getattr(identities, builder)):
            built = real(m, s, order)
            widths.append(built.order - built.min_exp)
            return built
        monkeypatch.setattr(identities, builder, spy)
    identities.check(name, 20, None, point)
    lo, order = identities.FAMILIES[name].window(20, None, **point)
    assert widths and max(widths) <= order - lo


# every axis floor a builder has: m >= 2 wherever m is an axis, k >= 0 for
# the closed form's families only, as thm13b takes negative k
FLOORS = [(name, "m", 2) for name in ("lemma11a", "lemma11b", "prop12",
                                      "recurrence", "thm13a", "thm13b",
                                      "prop21", "fockprod", "cor22")] + \
    [("prop12", "k", 0), ("recurrence", "k", 0)]


def test_floor_table_names_every_m_family():
    assert sorted(name for name, axis, _ in FLOORS if axis == "m") == \
        sorted(name for name, fam in identities.FAMILIES.items()
               if "m" in fam.axes)


@pytest.mark.parametrize("name,axis,floor", FLOORS)
def test_floor_matches_the_builders_error(name, axis, floor):
    # one below the floor, the builders raise what check_domain raises
    fam = identities.FAMILIES[name]
    point = {a: lo for a, (lo, _) in fam.axes.items()}
    point[axis] = floor - 1
    with pytest.raises(InvalidParameter) as early:
        identities.check_domain(name, 0, fam.zwin, point)
    with pytest.raises(InvalidParameter) as late:
        identities.check(name, 20, fam.zwin, point)
    assert str(early.value) == str(late.value)
    assert str(early.value).endswith(f"need {axis} >= {floor}, "
                                     f"got {point[axis]}")


# q-orders at the window bound and one past it
AT_BOUND = MAX_WINDOW // 2
PAST_BOUND = AT_BOUND + 1


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "gauss", "--order", str(PAST_BOUND)),
    ("oracle", "--m", "2", "--s", "0", "--qbound", str(PAST_BOUND)),
    ("asympt", "--m", "2", "--nmax", str(PAST_BOUND)),
])
def test_order_past_the_window_bound_is_resource_limit(capsys, monkeypatch,
                                                       argv):
    calls = _counting(monkeypatch, "gauss")
    monkeypatch.setattr(oracle, "oracle_vs_quasiparticle", calls.append)
    monkeypatch.setattr(cli, "growth_report", calls.append)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "coefficients" in err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("asympt", "--m", "2", "--nmax", str(characters.BASIC_MAX_ORDER // 2 + 1)),
    ("asympt", "--m", "2", "--nmax", "500000"),
    ("series", "--expr", "L0(2)", "--order", "500000"),
    ("verify", "--family", "gauss", "--order", "8193"),
])
def test_basic_character_past_its_bound_is_resource_limit(capsys, monkeypatch,
                                                          argv):
    # inside MAX_WINDOW, refused by _dist_square before anything is built
    monkeypatch.setattr(characters, "dist_product", None)
    monkeypatch.setattr(identities, "gauss_sum", None)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and "past its bound 16384" in err


def test_order_at_the_window_bound_runs(capsys, monkeypatch):
    # the builders are stubbed: only the bound is under test
    seen = _counting(monkeypatch, "gauss")

    def threeway(m, s, order, max_nodes):
        seen.append(order)
        return IdentityReport("oracle-threeway", {"m": m, "s": s}, order, "pass")

    monkeypatch.setattr(oracle, "oracle_vs_quasiparticle", threeway)

    def growth(m, n_max):
        seen.append(2 * n_max + 2)
        return []

    monkeypatch.setattr(cli, "growth_report", growth)
    for argv in (("verify", "--family", "gauss", "--order", str(AT_BOUND)),
                 ("oracle", "--m", "2", "--s", "0", "--qbound", str(AT_BOUND)),
                 ("asympt", "--m", "2", "--nmax", str(AT_BOUND))):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
    assert seen == [MAX_WINDOW] * 3


def test_verify_short_order_is_not_a_pass(capsys, monkeypatch):
    # both sides agree, but only below u^(nu - 2)
    def short_sides(nu, half):
        side = QSeries.one(nu - 2)
        yield {}, side, side

    fam = identities.FAMILIES["gauss"]._replace(sides=short_sides)
    monkeypatch.setitem(identities.FAMILIES, "gauss", fam)
    code, out, _ = run(capsys, "verify", "--family", "gauss", "--order", "5")
    assert code == 1
    reports = json.loads(out)
    assert [(r["verdict"], r["order_u"]) for r in reports] == [("short", 8)]
    code, out, _ = run(capsys, "verify", "--family", "gauss", "--order", "5",
                       "--format", "text")
    assert code == 1
    assert out == "SHORT gauss order_u=8\n0/1 passed\n"


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken_sides(nu, half):
        raise IndexError("row out of range")
        yield

    fam = identities.FAMILIES["gauss"]._replace(sides=broken_sides)
    monkeypatch.setitem(identities.FAMILIES, "gauss", fam)
    code, out, err = run(capsys, "verify", "--family", "gauss", "--order", "5")
    assert code == 4
    assert out == ""
    assert err == "qchar: internal error: IndexError: row out of range\n"


def test_closed_stdout_exits_141_quietly():
    # ~120 kB of rows, far more than a pipe buffers, so writes outlive the
    # reader
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with subprocess.Popen(
            [sys.executable, "-m", "qchar.cli", "asympt", "--m", "2",
             "--nmax", "2000"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"n,a_n,log_ratio\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")


def _verdicts(fmt, out):
    """The verdict of every report printed in format fmt."""
    if fmt == "json":
        return [r["verdict"] for r in json.loads(out)]
    if fmt == "csv":
        return [r["verdict"] for r in csv.DictReader(io.StringIO(out))]
    *lines, summary = out.splitlines()
    verdicts = [line.split()[0].lower() for line in lines]
    assert summary == f"{verdicts.count('pass')}/{len(verdicts)} passed"
    return verdicts


_DIFF_FIELDS = ("order_u", "first_diff_u_exp", "lhs_coeff", "rhs_coeff")


def _diff_fields(fmt, out):
    """(order_u, first_diff_u_exp, lhs_coeff, rhs_coeff) of every report
    printed in format fmt, as strings, "" where a field is empty."""
    if fmt == "json":
        rows = json.loads(out)
    elif fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
    else:
        rows = []
        for line in out.splitlines()[:-1]:
            bits = dict(bit.split("=", 1) for bit in line.split() if "=" in bit)
            rows.append({"order_u": bits["order_u"],
                         "first_diff_u_exp": bits.get("first_diff", "u^")[2:],
                         "lhs_coeff": bits.get("lhs"),
                         "rhs_coeff": bits.get("rhs")})
    return [tuple("" if row[key] is None else str(row[key])
                  for key in _DIFF_FIELDS) for row in rows]


def _skew_point(nu, half, m, s, sides):
    # the real reports, with the s = 1 point made to fail or to fall short
    for extra, lhs, rhs in identities._reflection(nu, half, m, s):
        if s == 1:
            lhs, rhs = sides(nu, lhs, rhs)
        yield extra, lhs, rhs


_SKEWS = {
    "none": None,
    "fail": lambda nu, lhs, rhs: (lhs, rhs + QSeries.monomial(6, nu)),
    "short": lambda nu, lhs, rhs: (lhs.restricted(nu - 2),
                                   rhs.restricted(nu - 2)),
}


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("skew", sorted(_SKEWS))
def test_verify_exit_one_only_with_a_report_not_passing(capsys, monkeypatch,
                                                        fmt, skew):
    if _SKEWS[skew] is not None:
        def sides(nu, half, m, s):
            return _skew_point(nu, half, m, s, _SKEWS[skew])

        fam = identities.FAMILIES["lemma11b"]._replace(sides=sides)
        monkeypatch.setitem(identities.FAMILIES, "lemma11b", fam)
    code, out, _ = run(capsys, "verify", "--family", "lemma11b", "--m", "2..3",
                       "--s", "0..1", "--order", "20", "--format", fmt)
    verdicts = _verdicts(fmt, out)
    expect = "pass" if skew == "none" else skew
    assert verdicts == ["pass", expect, "pass", expect]
    assert code in (0, 1)
    assert (code == 1) == any(v != "pass" for v in verdicts)


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("side", [None, "quasiparticle_char", "fock_sector_char"])
def test_oracle_exit_one_only_with_a_failing_report(capsys, monkeypatch,
                                                    fmt, side):
    if side is not None:
        real = getattr(oracle, side)

        def skewed(m, s, order):
            return real(m, s, order) + QSeries.monomial(4, order)

        monkeypatch.setattr(oracle, side, skewed)
    code, out, _ = run(capsys, "oracle", "--m", "2", "--s", "0",
                       "--qbound", "6", "--format", fmt)
    verdicts = _verdicts(fmt, out)
    assert verdicts == ["pass" if side is None else "fail"]
    assert code in (0, 1)
    assert (code == 1) == any(v != "pass" for v in verdicts)
    # the state count has 5 states at u^4, the skewed side one more
    diff = ("", "", "") if side is None else ("4", "5", "6")
    assert _diff_fields(fmt, out) == [("12", *diff)]


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_oracle_fail_claims_the_least_order_of_the_three(capsys, monkeypatch,
                                                         fmt):
    # the quasiparticle sum fails at u^4 against the state count, both
    # claimed below u^12; the lattice-sum character only below u^10
    real_qp, real_fs = oracle.quasiparticle_char, oracle.fock_sector_char
    monkeypatch.setattr(oracle, "quasiparticle_char", lambda m, s, order:
                        real_qp(m, s, order) + QSeries.monomial(4, order))
    monkeypatch.setattr(oracle, "fock_sector_char", lambda m, s, order:
                        real_fs(m, s, order).restricted(order - 2))
    code, out, _ = run(capsys, "oracle", "--m", "2", "--s", "0",
                       "--qbound", "6", "--format", fmt)
    assert (code, _verdicts(fmt, out)) == (1, ["fail"])
    assert _diff_fields(fmt, out) == [("10", "4", "5", "6")]


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_oracle_short_side_is_not_a_pass(capsys, monkeypatch, fmt):
    # all three sides agree, but the quasiparticle sum only below u^(nu - 2)
    real = oracle.quasiparticle_char

    def short(m, s, order):
        return real(m, s, order).restricted(order - 2)

    monkeypatch.setattr(oracle, "quasiparticle_char", short)
    code, out, _ = run(capsys, "oracle", "--m", "2", "--s", "0",
                       "--qbound", "6", "--format", fmt)
    assert code == 1
    assert _verdicts(fmt, out) == ["short"]
    if fmt == "text":
        assert out == "SHORT oracle-threeway m=2 s=0 order_u=10\n0/1 passed\n"


def test_verify_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "nonsense"])
    assert exc.value.code == 2


def test_verify_jobs_pool_matches_serial(capsys):
    code, out1, _ = run(capsys, "verify", "--family", "prop21",
                        "--m", "2..3", "--s=-1..1", "--order", "25",
                        "--jobs", "2")
    code2, out2, _ = run(capsys, "verify", "--family", "prop21",
                         "--m", "2..3", "--s=-1..1", "--order", "25")
    assert code == code2 == 0
    assert out1 == out2


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every worker pool asked for from here on; each
    pool is a stand-in that runs its points in this process."""
    import concurrent.futures

    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            return map(fn, *columns)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return sizes


@pytest.mark.parametrize("points,jobs,sizes", [
    (("--family", "gauss"), "2", []),  # one point: no pool
    (("--family", "gauss"), str(cli.MAX_JOBS), []),
    (("--family", "lemma11b", "--m", "2", "--s", "0..2"), "2", [2]),
    (("--family", "lemma11b", "--m", "2", "--s", "0..2"), "3", [3]),
    (("--family", "lemma11b", "--m", "2", "--s", "0..2"), str(cli.MAX_JOBS), [3]),
])
def test_verify_jobs_asks_for_at_most_one_worker_per_point(capsys, pool_sizes,
                                                           points, jobs, sizes):
    serial = run(capsys, "verify", *points, "--order", "10")
    assert serial[0] == 0 and pool_sizes == []
    assert run(capsys, "verify", *points, "--order", "10", "--jobs", jobs) == serial
    assert pool_sizes == sizes


@pytest.mark.parametrize("jobs", [str(cli.MAX_JOBS + 1), "1099511627776"])
def test_verify_jobs_past_the_bound_is_usage_error(capsys, pool_sizes, jobs):
    code, out, err = run(capsys, "verify", "--family", "all", "--jobs", jobs)
    assert (code, out, pool_sizes) == (2, "", [])
    assert f"must be <= {cli.MAX_JOBS}, got {jobs}" in err


@pytest.mark.parametrize("argv,out", [
    (("verify", "--family", "cor22", "--m", str(1 << 40), "--order", "39",
      "--format", "text"), f"PASS cor22 m={1 << 40} order_u=78\n1/1 passed\n"),
    (("series", "--expr", f"qp({1 << 40},0)", "--order", "3"),
     "1 · q^{0}\n2 · q^{1}\n3 · q^{2}\n"),
])
def test_quasiparticle_sum_at_a_huge_m(capsys, argv, out):
    # q^(mk) lies past the window for every k >= 1, so no bucket is
    # shifted by it, which would take 2^40 bytes and more
    assert run(capsys, *argv) == (0, out, "")


def test_verify_double_run_byte_identical(capsys):
    args = ("verify", "--family", "thm13b", "--m", "2", "--k=-2..2",
            "--order", "40")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.usefixtures("fresh_caches")
def test_verify_all_prints_the_same_bytes_whatever_ran_before(capsys):
    # from cold stores, then reading the longer builds of an --order 200
    # run, then in two workers
    args = ("verify", "--family", "all", "--order", "100")
    cold = run(capsys, *args)
    assert cold[0] == 0
    assert run(capsys, "verify", "--family", "all", "--order", "200")[0] == 0
    assert run(capsys, *args) == cold
    assert run(capsys, *args, "--jobs", "2") == cold


def test_verify_timings_flag(capsys):
    code, out, _ = run(capsys, "verify", "--family", "gauss", "--order", "40",
                       "--timings")
    assert code == 0
    assert json.loads(out)[0]["ms"] > 0.0
    code, out, _ = run(capsys, "verify", "--family", "gauss", "--order", "40")
    assert json.loads(out)[0]["ms"] == 0.0


def test_verify_timings_per_report(capsys):
    # each form is timed on its own, so together they fit in the call
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--family", "thm13a", "--m", "2",
                       "--order", "200", "--timings")
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 3
    assert all(r["ms"] > 0.0 for r in reports)
    assert sum(r["ms"] for r in reports) <= elapsed_ms


# -- oracle --------------------------------------------------------------


def test_oracle_pass(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "2", "--s", "0",
                       "--qbound", "12")
    assert code == 0
    assert json.loads(out)[0]["verdict"] == "pass"


@pytest.mark.parametrize("name", ["fockprod", "jtp", "kp"])
def test_zwin_past_the_row_bound_is_resource_limit(capsys, name):
    # 2 * 32768 + 1 z-rows, one more than the bound 2^16 allows
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--family", name, "--order", "5",
                         "--zwin", "32768")
    assert time.perf_counter() - t0 < 0.5
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "row count of 65537, past its bound 65536" in err


def test_zwin_past_the_row_bound_is_refused_before_any_family_runs(
        capsys, monkeypatch):
    # fockprod, the first graded family, declares 80001 z-rows; no family,
    # graded or not, runs a point
    calls = {name: _counting(monkeypatch, name) for name in identities.FAMILIES}
    code, out, err = run(capsys, "verify", "--family", "all", "--order", "1600",
                         "--zwin", "40000")
    assert (code, out) == (3, "")
    assert err == ("qchar: fockprod m=2: the z-window of the two-variable Fock "
                   "character of m=2 has a row count of 80001, past its bound "
                   "65536\n")
    assert all(ran == [] for ran in calls.values())


def test_oracle_negative_charge(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "2", "--s", "-2",
                       "--qbound", "10")
    assert code == 0


def test_oracle_resource_limit_exit_code(capsys):
    code, _, err = run(capsys, "oracle", "--m", "2", "--s", "0",
                       "--qbound", "12", "--max-nodes", "3")
    assert code == 3
    assert "nodes" in err


# -- cold start ----------------------------------------------------------


def _fresh(code):
    """Stdout of `code` run by a new interpreter without site packages."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def _loaded_by(module):
    """Modules a fresh `import module` adds to sys.modules."""
    return json.loads(_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"))


def test_cli_import_loads_only_what_every_subcommand_runs():
    loaded = _loaded_by("qchar.cli")
    assert "qchar.cli" in loaded
    lazy = {"concurrent.futures", "multiprocessing", "dataclasses", "inspect",
            "qchar.expr", "qchar.oracle"}
    assert lazy.isdisjoint(loaded)


def test_oracle_import_loads_no_state_classes_or_parser():
    # the oracle counts states without building them, and needs no parser
    loaded = _loaded_by("qchar.oracle")
    assert "qchar.oracle" in loaded
    assert {"dataclasses", "qchar.expr"}.isdisjoint(loaded)


def test_expr_import_loads_no_dataclasses():
    # the AST nodes are plain slotted classes and Token a NamedTuple
    loaded = _loaded_by("qchar.expr")
    assert "qchar.expr" in loaded
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


def test_expr_names_load_on_first_use():
    out = _fresh(
        "import qchar, qchar.cli\n"
        "import sys\n"
        "print('qchar.expr' in sys.modules)\n"
        "star = {}\n"
        "exec('from qchar import *', star)\n"
        "from qchar import evaluate, parse, format_expr, eval_expr\n"
        "from qchar import expr\n"
        "names = ('evaluate', 'parse', 'format_expr', 'eval_expr')\n"
        "print(all(star[n] is getattr(expr, n) for n in names))\n"
        "print((evaluate, parse, format_expr, eval_expr)\n"
        "      == tuple(getattr(expr, n) for n in names))\n"
        "try:\n"
        "    qchar.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n")
    assert out.split() == ["False", "True", "True", "AttributeError"]


# -- asympt --------------------------------------------------------------


def test_asympt_row_count_and_first_rows(capsys):
    code, out, _ = run(capsys, "asympt", "--m", "2", "--nmax", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,a_n,log_ratio"
    assert len(lines) == 101  # header + one row per n in 0..99
    assert lines[1] == "0,1,0.0"
    assert lines[2].startswith("1,2,")


def test_asympt_json(capsys):
    code, out, _ = run(capsys, "asympt", "--m", "3", "--nmax", "5",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert rows[0] == {"n": 0, "a_n": "1", "log_ratio": 0.0}
    assert all(isinstance(r["a_n"], str) for r in rows)


def test_asympt_rejects_nonpositive_nmax(capsys):
    code, _, err = run(capsys, "asympt", "--m", "2", "--nmax", "0")
    assert code == 2
