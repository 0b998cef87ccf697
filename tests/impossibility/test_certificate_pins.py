"""Golden pins of the certificates the refutation sweep constructs.

The victims are the 17 of the ``refute-sweep`` benchmark workload: nine
Theorem 8.5 victims (bounded headers) and eight Theorem 7.5 victims
(crashing).  Each certificate is pinned by a sha256 over its kind, its
violated properties, its stats, the ``repr`` of every behavior action
and its narrative, so a change to either engine that alters a single
event of a certificate fails here.  The boundary controls -- one
protocol outside each theorem's hypotheses -- must still be refused.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import protocols as zoo
from repro.impossibility import (
    EngineError,
    refute_bounded_headers,
    refute_crash_tolerance,
)


def certificate_digest(certificate) -> str:
    digest = hashlib.sha256()
    for part in (
        certificate.kind,
        repr(certificate.violated),
        repr(sorted(certificate.stats.items())),
    ):
        digest.update(part.encode())
        digest.update(b"\0")
    for action in certificate.behavior:
        digest.update(repr(action).encode())
        digest.update(b"\n")
    digest.update(b"\0")
    for line in certificate.narrative:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


#: (factory, behavior length, digest) for the Theorem 8.5 victims.
HEADER_PINS = {
    "modulo-stenning(N=16)": (
        lambda: zoo.modulo_stenning_protocol(16),
        37,
        "c8d6a99ac54bc93bb04914b7503fbdfae3cab6ce71680926dfe3217530864443",
    ),
    "modulo-stenning(N=32)": (
        lambda: zoo.modulo_stenning_protocol(32),
        69,
        "665d44c233d68665aec67203f6303670cc731982d291c71cfe2a756b2b73c337",
    ),
    "modulo-stenning(N=64)": (
        lambda: zoo.modulo_stenning_protocol(64),
        133,
        "61ef85bfee99890db23ef25c898beb22434e73a167d6165c8dc9835ce156f5a9",
    ),
    "modulo-stenning(N=128)": (
        lambda: zoo.modulo_stenning_protocol(128),
        261,
        "2e8aaba1288758c7f027fb80980289c77ca9047eaf1611facc923944863ffa6e",
    ),
    "sliding-window(w=8,N=9)": (
        lambda: zoo.sliding_window_protocol(8),
        21,
        "0f81223eddfa1549029aa0b8c9f0b326e09176d75254f9ed7013f1d0a559175f",
    ),
    "sliding-window(w=16,N=17)": (
        lambda: zoo.sliding_window_protocol(16),
        37,
        "88caf5d3fd3666bdb72e8cda712883d80a1330fed19a53a67449355a787af7eb",
    ),
    "sliding-window(w=32,N=33)": (
        lambda: zoo.sliding_window_protocol(32),
        69,
        "5cbccd5ef26ac7e4553c1f1d14ac8f1cbe7f6dbe5d95a602b468c9bcaf216821",
    ),
    "sliding-window(w=64,N=65)": (
        lambda: zoo.sliding_window_protocol(64),
        133,
        "1cc1354e19af950c332dabeb26fa1ccd559c16e3ed1577216c923728d50e84ee",
    ),
    "alternating-bit": (
        zoo.alternating_bit_protocol,
        10,
        "5792056a14da04d02e8a8461d472c55f361e26592b773213c7fcdd6bbfa37611",
    ),
}

#: The crash construction gives the five stop-and-wait-like victims the
#: same certificate: equal behavior, stats and narrative.
_STOP_AND_WAIT = (
    11,
    "3f0fa04cdd948f309a940ea8404fa9fa9c13ea24c518484f9698587fab268023",
)

#: (factory, behavior length, digest) for the Theorem 7.5 victims.
CRASH_PINS = {
    "alternating-bit": (zoo.alternating_bit_protocol, *_STOP_AND_WAIT),
    "sliding-window(w=1,N=2)": (
        lambda: zoo.sliding_window_protocol(1),
        *_STOP_AND_WAIT,
    ),
    "sliding-window(w=2,N=3)": (
        lambda: zoo.sliding_window_protocol(2),
        *_STOP_AND_WAIT,
    ),
    "sliding-window(w=4,N=5)": (
        lambda: zoo.sliding_window_protocol(4),
        *_STOP_AND_WAIT,
    ),
    "sliding-window(w=8,N=9)": (
        lambda: zoo.sliding_window_protocol(8),
        *_STOP_AND_WAIT,
    ),
    "stenning": (zoo.stenning_protocol, *_STOP_AND_WAIT),
    "baratz-segall(volatile)": (
        lambda: zoo.baratz_segall_protocol(nonvolatile=False),
        16,
        "eeb8993925a83e7a83ba0d375f09b8addbf8d9b66907610e6759b69e41a9f3d6",
    ),
    "naive-eager": (
        zoo.eager_protocol,
        6,
        "8ff99201d24d459c221cefa9261abcc1ee9e230e48663112a6bd80c8a9ad3dd9",
    ),
}


def _check(certificate, name, theorem, length, expected):
    assert certificate.protocol_name == name
    assert certificate.theorem == theorem
    assert certificate.validate()
    assert len(certificate.behavior) == length
    assert certificate_digest(certificate) == expected


@pytest.mark.parametrize("name", list(HEADER_PINS))
def test_header_certificate_pinned(name):
    factory, length, expected = HEADER_PINS[name]
    certificate = refute_bounded_headers(factory())
    _check(certificate, name, "theorem-8.5", length, expected)


@pytest.mark.parametrize("name", list(CRASH_PINS))
def test_crash_certificate_pinned(name):
    factory, length, expected = CRASH_PINS[name]
    certificate = refute_crash_tolerance(factory())
    _check(certificate, name, "theorem-7.5", length, expected)


@pytest.mark.parametrize(
    "refute,factory",
    [
        (refute_bounded_headers, zoo.stenning_protocol),
        (refute_crash_tolerance, zoo.baratz_segall_protocol),
    ],
    ids=["headers/stenning", "crash/baratz-segall-nonvolatile"],
)
def test_boundary_control_rejected(refute, factory):
    with pytest.raises(EngineError):
        refute(factory())
