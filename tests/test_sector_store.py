"""Differential tests of the sector characters read from their shared builds.

`characters._SECTORS` keeps one packed build per (m, s), made at exactly
the longest u-order asked so far, and every call reads it restricted to
its own order. The reference below is the per-call route the store
replaced: each call walks its own lattice rows, takes their least
exponent as the window's start, and builds from them at exactly its own
order. Both must give the same window and coefficients whatever was
asked before, and the store must record nothing for a refused request
or one with no rows. The closed form sector_char_window gives that start
by is pinned to the walk here too. The packed route's values are pinned
apart from this, by the division reference of test_sector_reference.py
and the schoolbook one of test_qseries.py.
"""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qchar import characters, identities
from qchar.characters import SECTOR_MAX_SPAN, fock_sector_char, sector_char_window
from qchar.cli import main
from qchar.errors import ResourceLimit, check_work
from qchar.qseries import QSeries


def walked_rows(m, s, order):
    """The lattice rows of sector s below u^order and lo, their least
    exponent or order if none, found by walking them; ResourceLimit if
    order - lo passes SECTOR_MAX_SPAN."""
    rows = list(characters._lattice_rows(m, s, order))
    # each row's least exponent is that of its P = max(t, 0)
    lo = min((max(t, 0) * (max(t, 0) + 1) - shift for _, shift, _, _, t in rows),
             default=order)
    check_work(order - lo, SECTOR_MAX_SPAN,
               f"the sector character of m={m}, charge {s} at u-order {order} "
               "has a span in u-powers of")
    return rows, lo


def ref_fock_sector_char(m, s, order):
    """fock_sector_char(m, s, order) built for this call alone."""
    rows, lo = walked_rows(m, s, order)
    if not rows:
        return QSeries.zero(order)
    nb, x = characters._sector_build(m, rows, lo, order)
    return QSeries.from_qdigits(lo, order, x, nb, True)


def parts(qs):
    return qs.min_exp, qs.order, qs.coeffs


# far charges and huge m: (1000, 1499) holds no row below u^2, the others
# pass SECTOR_MAX_SPAN
EMPTY = [(1000, 1499, 2), (2, 60, 5), (3, -40, 0)]
REFUSED = [(1000, 499, 2), (1000, 500, 2), (2, 0, SECTOR_MAX_SPAN + 1)]


def check_requests(requests):
    """From an empty store, read each (m, s, order) and check it against
    the reference, and what the store then holds."""
    characters._SECTORS.clear()
    longest = {}
    for m, s, order in requests:
        before = list(characters._SECTORS.items())
        try:
            rows, _ = walked_rows(m, s, order)
        except ResourceLimit as exc:
            with pytest.raises(ResourceLimit, match=re.escape(str(exc))):
                fock_sector_char(m, s, order)
            assert list(characters._SECTORS.items()) == before
            continue
        assert parts(fock_sector_char(m, s, order)) == \
            parts(ref_fock_sector_char(m, s, order)), (m, s, order)
        if rows or (m, s) in longest:
            longest[m, s] = max(order, longest.get((m, s), order))
            assert list(characters._SECTORS)[-1] == (m, s)
        else:
            assert list(characters._SECTORS.items()) == before
    assert {key: built[0] for key, built in characters._SECTORS.items()} == longest
    assert len(characters._SECTORS) <= 64


requests = st.lists(
    st.one_of(st.tuples(st.integers(2, 6), st.integers(-8, 9),
                        st.integers(-6, 300)),
              st.sampled_from(EMPTY + REFUSED)),
    min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(requests)
def test_shared_sector_builds_match_per_call_builds(reqs):
    check_requests(reqs)


@pytest.mark.parametrize("reqs", [
    [(2, 1, 300), (2, 1, 40)],  # long then short
    [(2, 1, 40), (2, 1, 300)],  # short then long
    [(4, 3, 120), (2, 0, 200), (4, 3, 119), (3, -2, 90), (2, 0, 10),
     (4, 3, 121), (3, -2, 91)],  # interleaved (m, s)
    [(5, 3, 100), (5, 3, 0), (5, 3, -3), (5, 3, -4), (2, 1, -2)],  # order <= 0
    [(5, 3, -4), (5, 3, 100)],  # the first read holds no row
    EMPTY + [(2, 60, 300), (2, 60, 5)],  # no rows, then rows, then none below
    [(1000, 499, 2), (2, 1, 50), (1000, 500, 2), (2, 1, 40)],  # refused spans
    [(3, 1, 513), (3, 1, 400), (3, 1, 512)],  # kept at 513, not rounded up
])
def test_shared_sector_builds_in_any_request_order(reqs):
    check_requests(reqs)


@pytest.fixture
def counted(monkeypatch):
    """Count the lattice-row walks and the shared-build requests."""
    calls = {"rows": 0, "shared": 0}
    rows, shared = characters._lattice_rows, characters._shared_build

    def count_rows(*args):
        calls["rows"] += 1
        return rows(*args)

    def count_shared(*args):
        calls["shared"] += 1
        return shared(*args)

    monkeypatch.setattr(characters, "_lattice_rows", count_rows)
    monkeypatch.setattr(characters, "_shared_build", count_shared)
    monkeypatch.setattr(characters, "_SECTORS", {})
    return calls


@pytest.mark.parametrize("m,s,orders", [
    (2, 1, (200, 200, 40, 1, -1)),
    (5, 3, (90, 89, 0, -4)),  # starts at u^-3: the last read is below it
])
def test_a_hit_finds_no_rows_and_asks_for_no_denominator(counted, m, s, orders):
    fock_sector_char(m, s, orders[0])
    assert counted == {"rows": 1, "shared": 1}
    for order in orders[1:]:
        assert parts(fock_sector_char(m, s, order)) == \
            parts(ref_fock_sector_char(m, s, order))
        counted.update(rows=0, shared=0)
        fock_sector_char(m, s, order)
        assert counted == {"rows": 0, "shared": 0}, order
    # a longer order is a miss: its rows once, its denominator once
    fock_sector_char(m, s, orders[0] + 1)
    assert counted == {"rows": 1, "shared": 1}


def test_the_store_keeps_at_most_64_keys(counted):
    # past 64 keys the least recently used goes; a key read again is the
    # newest and stays
    for m in range(3, 83):
        fock_sector_char(2, 0, 30)
        fock_sector_char(m, 0, 30)
        assert len(characters._SECTORS) <= 64
    assert list(characters._SECTORS) == \
        [(m, 0) for m in range(20, 82)] + [(2, 0), (82, 0)]
    counted.update(rows=0)
    fock_sector_char(19, 0, 30)  # built anew
    assert counted["rows"] == 1


# the CI refusals: spans of 249502 and 65890, a sector with no row below
# u^2, and two windows past MAX_WINDOW
@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(2, 60), st.sampled_from([100, 127, 128, 255, 1000]))
       .flatmap(lambda m: st.tuples(st.just(m), st.integers(-5 * m, 6 * m),
                                    st.integers(-20, 3000))))
@example((1000, 499, 2))
@example((1000, 71, 2))
@example((1000, 1499, 2))
@example((100000, 50000, 2))
@example((100000, -99999, 2 + 100000 * 99999))
@example((2, 0, SECTOR_MAX_SPAN + 1))
def test_the_closed_form_window_is_the_walks(point):
    # the same lo, and the same refusal, as walking the lattice rows
    m, s, order = point
    try:
        _, lo = walked_rows(m, s, order)
    except ResourceLimit as exc:
        with pytest.raises(ResourceLimit, match=re.escape(str(exc))):
            sector_char_window(m, s, order)
        return
    assert sector_char_window(m, s, order) == (lo, order)


@pytest.mark.parametrize("name,point", [
    ("lemma11a", {"m": 2, "s": 3}), ("lemma11a", {"m": 5, "s": 0}),
    ("lemma11b", {"m": 3, "s": 1}), ("lemma11b", {"m": 1000, "s": 499}),
    ("prop12", {"m": 4, "k": 2}),
])
def test_sizing_a_sector_point_walks_no_lattice(counted, name, point):
    try:
        identities.check_domain(name, 300, None, point)
    except ResourceLimit:
        pass
    assert counted["rows"] == 0


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("family,axes,key", [
    ("thm13b", ("--m", "2", "--k", "1"), (2, -1)),
    ("lemma11b", ("--m", "3", "--s", "0"), (3, 0)),
])
def test_a_skewed_build_fails_a_later_shorter_point(capsys, monkeypatch,
                                                     family, axes, key):
    # the lowest q-digit of a build made for a longer point, off by one,
    # must fail the shorter point that only reads it
    monkeypatch.setattr(characters, "_SECTORS", {})
    verify = ("verify", "--family", family, *axes, "--order")
    assert run(capsys, *verify, "60")[0] == 0
    order, nb, x = characters._SECTORS[key]
    lo = sector_char_window(*key, order)[0]
    mask = (1 << 8 * nb * ((order - lo + 1) // 2)) - 1
    characters._SECTORS[key] = order, nb, x + 1 & mask
    code, out = run(capsys, *verify, "30")
    assert code == 1 and {r["verdict"] for r in json.loads(out)} == {"fail"}
    assert characters._SECTORS[key][0] == order  # read, not rebuilt
    characters._SECTORS.clear()
    assert run(capsys, *verify, "30")[0] == 0
