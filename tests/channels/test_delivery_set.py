"""Tests for delivery sets and the ``del`` surgery (paper 6.1, 6.3)."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.channels.delivery_set import (
    HASH_WINDOW,
    DeliverySet,
    DeliverySetError,
    random_lossy_fifo,
    random_reordering,
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def delivery_sets(draw, max_len: int = 12):
    """Arbitrary legal delivery sets with a short explicit prefix."""
    length = draw(st.integers(0, max_len))
    pool = draw(
        st.permutations(list(range(1, max_len * 2 + 1)))
    )
    prefix = tuple(pool[:length])
    floor = max(prefix) if prefix else 0
    tail_offset = draw(st.integers(0, 5)) + max(0, floor - length)
    return DeliverySet(prefix, tail_offset)


@st.composite
def monotone_delivery_sets(draw, max_len: int = 12):
    length = draw(st.integers(0, max_len))
    indices = draw(
        st.lists(
            st.integers(1, max_len * 3),
            min_size=length,
            max_size=length,
            unique=True,
        )
    )
    prefix = tuple(sorted(indices))
    floor = max(prefix) if prefix else 0
    tail_offset = draw(st.integers(0, 5)) + max(0, floor - length)
    return DeliverySet(prefix, tail_offset)


# ----------------------------------------------------------------------
# Construction and invariants
# ----------------------------------------------------------------------


class TestConstruction:
    def test_fifo_is_identity(self):
        fifo = DeliverySet.fifo()
        assert [fifo.source_of(j) for j in range(1, 6)] == [1, 2, 3, 4, 5]
        assert fifo.is_monotone()

    def test_duplicate_send_index_rejected(self):
        with pytest.raises(DeliverySetError):
            DeliverySet((1, 1), 1)

    def test_nonpositive_index_rejected(self):
        with pytest.raises(DeliverySetError):
            DeliverySet((0,), 1)

    def test_tail_collision_rejected(self):
        # prefix uses 5; first tail slot would be 2 + offset.
        with pytest.raises(DeliverySetError):
            DeliverySet((5,), 2)  # first tail index = 2+2 = 4 < 5

    def test_negative_tail_rejected(self):
        with pytest.raises(DeliverySetError):
            DeliverySet((), -1)

    def test_from_pairs(self):
        ds = DeliverySet.from_pairs([(2, 1), (1, 2), (3, 3)])
        assert ds.source_of(1) == 2
        assert ds.source_of(2) == 1
        assert ds.source_of(3) == 3

    def test_from_pairs_gap_rejected(self):
        with pytest.raises(DeliverySetError):
            DeliverySet.from_pairs([(1, 1), (3, 3)])

    def test_from_pairs_duplicate_slot_rejected(self):
        with pytest.raises(DeliverySetError):
            DeliverySet.from_pairs([(1, 1), (2, 1)])


class TestLookup:
    def test_slot_of_prefix(self):
        ds = DeliverySet((3, 1), 3)
        assert ds.slot_of(3) == 1
        assert ds.slot_of(1) == 2

    def test_slot_of_tail(self):
        ds = DeliverySet((3, 1), 3)
        # slot 3 -> 3+3 = 6
        assert ds.source_of(3) == 6
        assert ds.slot_of(6) == 3

    def test_lost_index(self):
        ds = DeliverySet((3, 1), 3)
        assert ds.is_lost(2)
        assert ds.lost_indices(6) == (2, 4, 5)

    def test_pairs_iteration(self):
        ds = DeliverySet((2,), 1)
        assert list(ds.pairs(3)) == [(2, 1), (3, 2), (4, 3)]

    def test_invalid_slot_rejected(self):
        with pytest.raises(DeliverySetError):
            DeliverySet.fifo().source_of(0)


class TestDeleteSurgery:
    def test_delete_prefix_slot(self):
        ds = DeliverySet((2, 1, 3), 0)
        deleted = ds.delete_slot(2)  # remove (1, 2)
        assert deleted.source_of(1) == 2
        assert deleted.source_of(2) == 3
        assert deleted.is_lost(1)

    def test_delete_shifts_tail(self):
        ds = DeliverySet((1,), 0)  # slots: 1->1, 2->2, 3->3 ...
        deleted = ds.delete_slot(2)  # remove (2, 2)
        assert deleted.source_of(2) == 3
        assert deleted.is_lost(2)

    def test_delete_tail_slot_materializes_prefix(self):
        ds = DeliverySet.fifo()
        deleted = ds.delete_slot(3)
        assert deleted.source_of(1) == 1
        assert deleted.source_of(2) == 2
        assert deleted.source_of(3) == 4
        assert deleted.is_lost(3)

    def test_delete_pair_validates(self):
        ds = DeliverySet.fifo()
        with pytest.raises(DeliverySetError):
            ds.delete_pair(5, 1)
        assert ds.delete_pair(1, 1).is_lost(1)

    def test_delete_slots_batch(self):
        ds = DeliverySet.fifo()
        deleted = ds.delete_slots([1, 3])
        # Original slots 1 and 3 (sends 1 and 3) are gone.
        assert deleted.is_lost(1)
        assert deleted.is_lost(3)
        assert deleted.source_of(1) == 2
        assert deleted.source_of(2) == 4


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------


class TestProperties:
    @given(delivery_sets())
    def test_slots_unique_per_send_index(self, ds):
        seen = {}
        for j in range(1, 30):
            i = ds.source_of(j)
            assert i not in seen, "send index delivered twice"
            seen[i] = j

    @given(delivery_sets())
    def test_slot_of_inverts_source_of(self, ds):
        for j in range(1, 20):
            assert ds.slot_of(ds.source_of(j)) == j

    @given(monotone_delivery_sets())
    def test_monotone_strategy_is_monotone(self, ds):
        assert ds.is_monotone()

    @given(monotone_delivery_sets(), st.integers(1, 15))
    def test_delete_preserves_monotonicity(self, ds, slot):
        # The paper notes: if S is monotone, so is del(S, X).
        assert ds.delete_slot(slot).is_monotone()

    @given(delivery_sets(), st.integers(1, 15))
    def test_delete_removes_and_shifts(self, ds, slot):
        deleted = ds.delete_slot(slot)
        victim = ds.source_of(slot)
        assert deleted.is_lost(victim)
        for j in range(1, slot):
            assert deleted.source_of(j) == ds.source_of(j)
        for j in range(slot, 20):
            assert deleted.source_of(j) == ds.source_of(j + 1)

    @given(delivery_sets(), st.integers(-1, 30))
    def test_sources_is_source_of_per_slot(self, ds, n):
        assert ds.sources(n) == tuple(ds.source_of(j) for j in range(1, n + 1))

    @given(delivery_sets())
    def test_totality(self, ds):
        # Every receive slot has a source: totality of the relation.
        for j in range(1, 50):
            assert ds.source_of(j) >= 1


class TestScriptedGenerators:
    def test_lossy_fifo_is_monotone(self):
        for seed in range(10):
            assert random_lossy_fifo(seed, 0.4, 50).is_monotone()

    def test_lossy_fifo_zero_loss_is_fifo(self):
        ds = random_lossy_fifo(0, 0.0, 50)
        assert [ds.source_of(j) for j in range(1, 51)] == list(
            range(1, 51)
        )

    def test_lossy_fifo_loses_roughly_at_rate(self):
        ds = random_lossy_fifo(42, 0.5, 1000)
        lost = len(ds.lost_indices(1000))
        assert 350 < lost < 650

    def test_lossy_fifo_deterministic(self):
        assert random_lossy_fifo(7, 0.3, 100) == random_lossy_fifo(
            7, 0.3, 100
        )

    def test_lossy_fifo_invalid_rate(self):
        with pytest.raises(DeliverySetError):
            random_lossy_fifo(0, 1.0, 10)

    def test_reordering_valid_delivery_set(self):
        for seed in range(10):
            ds = random_reordering(seed, 0.2, 4, 50)
            # Valid by construction; spot check invertibility.
            for j in range(1, 40):
                assert ds.slot_of(ds.source_of(j)) == j

    def test_reordering_actually_reorders(self):
        reordered = any(
            not random_reordering(seed, 0.0, 8, 64).is_monotone()
            for seed in range(10)
        )
        assert reordered

    def test_reordering_window_one_is_fifo(self):
        assert random_reordering(3, 0.0, 1, 50).is_monotone()

    def test_reordering_invalid_window(self):
        with pytest.raises(DeliverySetError):
            random_reordering(0, 0.0, 0, 10)

    @pytest.mark.parametrize("loss_rate", [-0.1, 1.0])
    def test_reordering_invalid_rate(self, loss_rate):
        # Once a negative rate acted as 0 and 1.0 lost every send up to
        # the horizon; both are rejected at call time, like lossy FIFO.
        with pytest.raises(DeliverySetError, match="loss_rate"):
            random_reordering(0, loss_rate, 4, 100_000)

    def test_negative_horizon_rejected_at_call_time(self):
        with pytest.raises(DeliverySetError, match="horizon"):
            random_lossy_fifo(0, 0.0, -1)
        with pytest.raises(DeliverySetError, match="horizon"):
            random_reordering(0, 0.0, 2, -1)


# ----------------------------------------------------------------------
# Seeded sets drawn on demand vs drawn up front
# ----------------------------------------------------------------------


def eager_lossy_fifo(seed, loss_rate, horizon):
    """Reference: every send index of the horizon drawn up front."""
    rng = random.Random(seed)
    prefix = tuple(
        i for i in range(1, horizon + 1) if rng.random() >= loss_rate
    )
    return DeliverySet(prefix, horizon - len(prefix))


def eager_reordering(seed, loss_rate, window, horizon):
    """Reference: every window of the horizon shuffled up front."""
    rng = random.Random(seed)
    order = []
    for start in range(1, horizon + 1, window):
        block = list(range(start, min(start + window, horizon + 1)))
        rng.shuffle(block)
        order.extend(i for i in block if rng.random() >= loss_rate)
    return DeliverySet(tuple(order), horizon - len(order))


@st.composite
def seeded_shapes(draw):
    """``(build_lazy, eager, horizon)`` over both generators."""
    seed = draw(st.integers(0, 2**32))
    loss = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    horizon = draw(st.integers(0, 600))
    if draw(st.booleans()):
        return (
            lambda: random_lossy_fifo(seed, loss, horizon),
            eager_lossy_fifo(seed, loss, horizon),
            horizon,
        )
    window = draw(st.integers(1, 9))
    return (
        lambda: random_reordering(seed, loss, window, horizon),
        eager_reordering(seed, loss, window, horizon),
        horizon,
    )


def is_drawn_in_full(delivery):
    """No generator state left: the attributes of a constructed set."""
    constructed = set(vars(DeliverySet((2,), 1)))
    assert constructed == {"prefix", "tail_offset", "_pending"}
    return (
        delivery._pending is None
        and set(vars(delivery)) - {"_cached_hash"} == constructed
    )


class TestDrawnOnDemand:
    @given(seeded_shapes(), st.data())
    def test_source_of_probes_in_random_order(self, shape, data):
        build, eager, horizon = shape
        lazy = build()
        probes = data.draw(st.lists(st.integers(1, horizon + 20), max_size=30))
        for j in probes:
            assert lazy.source_of(j) == eager.source_of(j)
        assert lazy == eager

    @given(seeded_shapes())
    def test_equality_both_directions(self, shape):
        build, eager, _ = shape
        assert build() == eager
        assert eager == build()
        assert build() == build()
        assert not build() != eager

    @given(seeded_shapes())
    def test_hash_prefix_tail_and_repr(self, shape):
        build, eager, _ = shape
        assert hash(build()) == hash(eager)
        assert build().prefix == eager.prefix
        assert build().tail_offset == eager.tail_offset
        assert repr(build()) == repr(eager)
        assert build().is_monotone() == eager.is_monotone()

    @given(seeded_shapes())
    def test_pickle_round_trip_carries_no_generator(self, shape):
        build, eager, _ = shape
        payload = pickle.dumps(build())
        assert b"Random" not in payload and b"_pending" not in payload
        loaded = pickle.loads(payload)
        assert loaded == eager
        assert set(vars(loaded)) == {"prefix", "tail_offset"}

    @given(seeded_shapes())
    def test_drawn_set_keeps_only_the_value(self, shape):
        build, eager, _ = shape
        finishers = (repr, lambda ds: ds.prefix, lambda ds: ds.slot_of(1))
        for finish in finishers:
            lazy = build()
            finish(lazy)
            assert is_drawn_in_full(lazy)
            assert vars(lazy)["prefix"] == eager.prefix

    def test_probe_draws_only_the_blocks_it_needs(self):
        lazy = random_reordering(5, 0.2, 4, 100_000)
        eager = eager_reordering(5, 0.2, 4, 100_000)
        assert lazy.source_of(3) == eager.source_of(3)
        assert len(lazy._pending.drawn) < 16

    @given(seeded_shapes(), st.integers(0, 700))
    def test_sources_agree_with_the_eager_set(self, shape, n):
        build, eager, _ = shape
        lazy = build()
        assert lazy.sources(n) == eager.sources(n)
        assert lazy == eager

    def test_sources_draw_only_the_blocks_they_need(self):
        lazy = random_reordering(5, 0.2, 4, 100_000)
        eager = eager_reordering(5, 0.2, 4, 100_000)
        assert lazy.sources(3) == eager.prefix[:3]
        assert len(lazy._pending.drawn) < 16

    def test_probe_past_the_horizon_finishes_the_set(self):
        lazy = random_lossy_fifo(2, 0.5, 40)
        eager = eager_lossy_fifo(2, 0.5, 40)
        assert lazy.source_of(100) == eager.source_of(100)
        assert is_drawn_in_full(lazy)

    def test_monotone_generators_answer_without_drawing(self):
        for lazy in (
            random_lossy_fifo(1, 0.3, 1024),
            random_reordering(1, 0.3, 1, 1024),
        ):
            assert lazy.is_monotone()
            assert lazy._pending is not None

    def test_one_type(self):
        assert type(random_reordering(0, 0.1, 3, 50)) is DeliverySet
        assert type(random_lossy_fifo(0, 0.1, 50)) is DeliverySet


# ----------------------------------------------------------------------
# The hash covers a window of the first receive slots
# ----------------------------------------------------------------------


def equal_forms(ds):
    """Sets equal to the whole set ``ds``, each built another way."""
    n = len(ds.prefix)
    return [
        DeliverySet(ds.prefix, ds.tail_offset),
        DeliverySet.from_pairs(ds.pairs(n), ds.tail_offset),
        pickle.loads(pickle.dumps(ds)),
    ]


def assert_equal_hash_equal(a, b):
    assert a == b
    assert hash(a) == hash(b)


class TestWindowHash:
    @given(delivery_sets())
    def test_equal_sets_hash_equal(self, ds):
        for other in equal_forms(ds):
            assert_equal_hash_equal(other, ds)

    @given(seeded_shapes(), st.booleans())
    def test_lazy_and_eager_sets_hash_equal(self, shape, hash_first):
        build, eager, _ = shape
        lazy = build()
        if hash_first:
            hash(lazy)  # while still drawing
        assert_equal_hash_equal(lazy, eager)
        for other in equal_forms(eager) + [build()]:
            assert_equal_hash_equal(other, lazy)

    @given(seeded_shapes(), st.booleans())
    def test_pickled_sets_hash_equal(self, shape, hash_first):
        build, eager, _ = shape
        lazy = build()
        if hash_first:
            hash(lazy)
        assert_equal_hash_equal(pickle.loads(pickle.dumps(lazy)), eager)

    @given(seeded_shapes(), st.lists(st.integers(1, 80), max_size=4))
    def test_surgered_sets_hash_equal(self, shape, slots):
        build, eager, _ = shape
        assert_equal_hash_equal(
            build().delete_slots(slots), eager.delete_slots(slots)
        )
        assert_equal_hash_equal(
            build().delete_slots(reversed(slots)), eager.delete_slots(slots)
        )
        if slots:
            assert_equal_hash_equal(
                build().delete_slot(slots[0]), eager.delete_slot(slots[0])
            )

    @given(delivery_sets(), st.integers(1, 15), st.integers(1, 15))
    def test_equal_surgeries_hash_equal(self, ds, a, b):
        # Deleting original slots a < b one at a time, the second in
        # the shifted numbering, is the batch surgery.
        a, b = sorted((a, b + 15))
        assert_equal_hash_equal(
            ds.delete_slot(a).delete_slot(b - 1), ds.delete_slots([b, a])
        )

    @given(
        st.permutations(range(1, HASH_WINDOW + 1)),
        st.permutations(range(HASH_WINDOW + 1, HASH_WINDOW + 5)),
        st.permutations(range(HASH_WINDOW + 1, HASH_WINDOW + 5)),
    )
    def test_sets_differing_past_the_window_collide_but_stay_apart(
        self, window, first, second
    ):
        a = DeliverySet(tuple(window) + tuple(first), 0)
        b = DeliverySet(tuple(window) + tuple(second), 0)
        assert hash(a) == hash(b)
        assert (a == b) == (first == second)
        table = {a: "a", b: "b"}
        assert len(table) == (1 if first == second else 2)
        assert table[b] == "b"

    @given(seeded_shapes(), st.integers(1, 40))
    def test_lazy_set_and_a_later_surgery_stay_apart(self, shape, past):
        build, eager, _ = shape
        lazy = build()
        other = eager.delete_slot(HASH_WINDOW + past)
        assert hash(lazy) == hash(other)
        assert lazy != other
        assert {lazy: 1, other: 2} == {eager: 1, other: 2}

    @given(
        st.integers(0, 2**32),
        st.sampled_from([0.0, 0.1, 0.5, 0.9]),
        st.integers(1, 9),
        st.booleans(),
    )
    def test_hash_draws_only_the_blocks_covering_the_window(
        self, seed, loss, window, fifo
    ):
        def build():
            if fifo:
                return random_lossy_fifo(seed, loss, 100_000)
            return random_reordering(seed, loss, window, 100_000)

        hashed, probed = build(), build()
        hash(hashed)
        probed.source_of(HASH_WINDOW)
        assert hashed._pending is not None
        assert "prefix" not in vars(hashed)
        assert hashed._pending.drawn == probed._pending.drawn
        assert len(hashed._pending.drawn) < 1_000
