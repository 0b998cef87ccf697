"""Unit tests for the abstract-interpretation engine itself."""

from __future__ import annotations

import pytest

from repro.lint.claims import ClaimError, parse_claims
from repro.lint.crash import crash_report
from repro.lint.dataflow import (
    Interval,
    StrSet,
    TOP,
    TupleVal,
    analyze_station,
    join,
    taint_of,
    value_of_concrete,
    widen,
)
from repro.lint.intervals import header_report, site_covered
from repro.lint.source import build_source_audits


# ----------------------------------------------------------------------
# Value lattice
# ----------------------------------------------------------------------


def test_interval_join_and_widen():
    a = Interval(frozenset(), 0, 3)
    b = Interval(frozenset(), 2, 5)
    joined = join(a, b)
    assert (joined.lo, joined.hi) == (0, 5)
    # Widening jumps moving bounds to infinity instead of crawling.
    widened = widen(a, join(a, Interval(frozenset(), 0, 9)))
    assert widened.hi == float("inf")
    assert widened.lo == 0


def test_join_mismatched_kinds_is_top():
    joined = join(
        Interval(frozenset(), 0, 1),
        StrSet(frozenset(), frozenset({"A"})),
    )
    assert joined == TOP


def test_taint_is_preserved_through_join():
    dirty = Interval(frozenset({("msg", "f.py", 3, "ident")}), 0, 1)
    clean = Interval(frozenset(), 5, 5)
    assert taint_of(join(dirty, clean)) == dirty.taint


def test_value_of_concrete_tuples_and_strings():
    value = value_of_concrete(("DATA", 3))
    assert isinstance(value, TupleVal)
    tag, seq = (item for item in value.items)
    assert isinstance(tag, StrSet) and tag.values == frozenset({"DATA"})
    assert isinstance(seq, Interval) and (seq.lo, seq.hi) == (3, 3)


# ----------------------------------------------------------------------
# Header coverage
# ----------------------------------------------------------------------


def test_site_covered_per_position_projection():
    space = frozenset({("DATA", 0), ("DATA", 1), ("ACK", 0), ("ACK", 1)})
    inside = TupleVal(
        frozenset(),
        (
            StrSet(frozenset(), frozenset({"DATA", "ACK"})),
            Interval(frozenset(), 0, 1),
        ),
    )
    assert site_covered(inside, space)
    escaping = TupleVal(
        frozenset(),
        (
            StrSet(frozenset(), frozenset({"DATA"})),
            Interval(frozenset(), 0, float("inf")),
        ),
    )
    assert not site_covered(escaping, space)


def test_site_covered_scalar_atoms():
    space = frozenset({"DATA", "ACK"})
    assert site_covered(StrSet(frozenset(), frozenset({"DATA"})), space)
    assert not site_covered(TOP, space)


# ----------------------------------------------------------------------
# Whole-station analysis on real protocols
# ----------------------------------------------------------------------


def _station(protocol, station="transmitter"):
    audits = build_source_audits(protocol)
    return next(a for a in audits if a.station == station)


def test_abp_header_sites_are_bounded():
    from repro.protocols import alternating_bit_protocol

    audit = _station(alternating_bit_protocol())
    report = header_report(audit)
    assert report.error is None
    assert report.declared and report.proven
    assert report.sites  # the analysis actually saw Packet sites


def test_stenning_counter_escapes():
    from repro.protocols import modulo_stenning_protocol, stenning_protocol

    # Plain Stenning declares an unbounded space: nothing to prove.
    unbounded = header_report(_station(stenning_protocol()))
    assert not unbounded.declared
    # Modulo-Stenning's outer ``% N`` reduction is provable.
    bounded = header_report(_station(modulo_stenning_protocol(4)))
    assert bounded.declared and bounded.proven


def test_analysis_is_cached_per_audit():
    from repro.protocols import alternating_bit_protocol

    audit = _station(alternating_bit_protocol())
    assert analyze_station(audit) is analyze_station(audit)


def test_crash_report_resolves_mode_flags():
    from repro.protocols import baratz_segall_protocol

    survivor = _station(baratz_segall_protocol(nonvolatile=True))
    report = crash_report(survivor)
    assert report.survivors, "nonvolatile BS must keep state"
    volatile = _station(baratz_segall_protocol(nonvolatile=False))
    report = crash_report(volatile)
    assert report.crashing, "volatile BS must lose everything"


# ----------------------------------------------------------------------
# Claims parsing
# ----------------------------------------------------------------------


def test_parse_claims_accepts_the_documented_shape():
    claims = parse_claims(
        {
            "message_independent": True,
            "bounded_headers": True,
            "crashing": True,
            "k_bounded": 1,
            "weakly_correct_over": ("fifo",),
            "tolerates_crashes": False,
        }
    )
    assert claims.k_bounded == 1
    assert claims.weakly_correct_over == ("fifo",)
    assert parse_claims(None) is None


@pytest.mark.parametrize(
    "raw",
    [
        "not a dict",
        {"unknown_key": True},
        {"message_independent": "yes"},
        {"k_bounded": 0},
        {"weakly_correct_over": ("carrier-pigeon",)},
        {"tolerates_crashes": 1},
    ],
)
def test_parse_claims_rejects_malformed(raw):
    with pytest.raises(ClaimError):
        parse_claims(raw)
