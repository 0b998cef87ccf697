"""The cached structural hash of the run-state values.

Each value hashes its fields once and keeps the result; every way of
producing an equal value (constructor, ``dataclasses.replace``, message
renaming, unpickling) must hash like a freshly built one, and the cache
must never travel inside a pickle -- string hashes are per-process.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.alphabets import Message, Packet, rename_messages
from repro.channels.bounded import BoundedChannelState
from repro.channels.delivery_set import DeliverySet
from repro.channels.permissive import PermissiveChannelState
from repro.datalink.protocol import HostState
from repro.ioa.actions import Action

OLD, NEW = Message(1, "s"), Message(2, "s")


def permissive(message):
    return PermissiveChannelState(
        2, 1, (Packet("h", (message,), 1), Packet("h", (), 2)), DeliverySet((2,), 1)
    )


def bounded(message):
    return BoundedChannelState(1, 0, ((1, Packet(("seq", 0), (message,), 1)),))


#: name -> (build(message), (field, stand-in value) for ``replace``).
CASES = {
    "DeliverySet": (lambda message: DeliverySet((2, 3), 1), ("tail_offset", 5)),
    "Packet": (lambda message: Packet("h", (message,), 7), ("uid", 8)),
    "HostState": (lambda message: HostState(("core", message), 3), ("uid_counter", 4)),
    "Action": (
        lambda message: Action("send_pkt", ("t", "r"), Packet("h", (message,), 1)),
        ("name", "receive_pkt"),
    ),
    "PermissiveChannelState": (permissive, ("counter2", 0)),
    "BoundedChannelState": (bounded, ("dropped", 2)),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def hashed(value):
    """``value`` with its hash cache filled."""
    hash(value)
    return value


class TestEqualValuesHashEqual:
    def test_constructor(self, case):
        build, _ = case
        assert hashed(build(NEW)) == build(NEW)
        assert hash(build(NEW)) == hash(hashed(build(NEW)))

    def test_replace(self, case):
        build, (field, stand_in) = case
        expected = build(NEW)
        other = hashed(dataclasses.replace(build(NEW), **{field: stand_in}))
        restored = dataclasses.replace(other, **{field: getattr(expected, field)})
        assert restored == expected
        assert hash(restored) == hash(expected)

    def test_rename_messages(self, case):
        build, _ = case
        renamed = rename_messages(hashed(build(OLD)), {OLD: NEW})
        assert renamed == build(NEW)
        assert hash(renamed) == hash(build(NEW))

    def test_pickle_round_trip(self, case):
        build, _ = case
        loaded = pickle.loads(pickle.dumps(hashed(build(NEW))))
        assert loaded == build(NEW)
        assert hash(loaded) == hash(build(NEW))

    # A delivery set hashes a window of its slots instead
    # (``tests/channels/test_delivery_set.py::TestWindowHash``).  Like
    # the generated hash, it skips ``compare=False`` fields (a bounded
    # channel state's plan).
    @pytest.mark.parametrize("name", sorted(set(CASES) - {"DeliverySet"}))
    def test_hash_is_the_generated_field_hash(self, name):
        build, _ = CASES[name]
        value = build(NEW)
        fields = tuple(
            getattr(value, f.name) for f in dataclasses.fields(value) if f.compare
        )
        assert hash(value) == hash(fields)


class TestAction:
    """Every station memo probe hashes an action, so it hashes once."""

    def test_cached_hash_is_the_field_tuple_hash(self):
        action = Action("send_pkt", ("t", "r"), Packet("h", (NEW,), 1))
        expected = hash(("send_pkt", ("t", "r"), Packet("h", (NEW,), 1)))
        assert hash(action) == expected
        assert vars(action)["_cached_hash"] == expected
        assert hash(action) == expected

    def test_pickled_action_arrives_without_its_cache(self):
        action = hashed(Action("wake", ("t", "r")))
        loaded = pickle.loads(pickle.dumps(action))
        assert "_cached_hash" not in vars(loaded)
        assert loaded == action and hash(loaded) == hash(action)


class TestPickledBytes:
    def test_carry_no_cached_hash(self, case):
        build, _ = case
        value = hashed(build(NEW))
        assert b"_cached_hash" not in pickle.dumps(value)
        assert "_cached_hash" not in vars(pickle.loads(pickle.dumps(value)))


#: Builds the same composed value in the test process and in a child.
STATE = (
    "(HostState(('core', Message(1, 's')), 3),"
    " PermissiveChannelState(1, 0, (Packet('h', (Message(1, 's'),), 7),),"
    " DeliverySet((2, 3), 1)),"
    " BoundedChannelState(1, 0, ((1, Packet(('seq', 0), (), 1)),)))"
)

CHILD = f"""
import pickle, sys
from repro.alphabets import Message, Packet
from repro.channels.bounded import BoundedChannelState
from repro.channels.delivery_set import DeliverySet
from repro.channels.permissive import PermissiveChannelState
from repro.datalink.protocol import HostState
from repro.ioa.engine import InternTable

shipped = pickle.loads(sys.stdin.buffer.read())
table = InternTable()
print(hash("probe"), table.intern({STATE}), table.intern(shipped))
"""


def test_value_unpickled_under_another_hash_seed_interns_equal():
    local = eval(STATE)
    for value in local:
        hash(value)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(
        os.environ,
        PYTHONHASHSEED=seed,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
    )
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=pickle.dumps(local),
        capture_output=True,
        env=env,
        check=True,
    )
    probe, built, shipped = child.stdout.decode().split()
    assert int(probe) != hash("probe")  # the child really hashes differently
    assert built == shipped == "0"
