"""Tests for the SlotMatrix columnar storage engine."""

import numpy as np
import pytest

from repro.cuckoo.buckets import EMPTY, SlotMatrix, is_power_of_two, next_power_of_two


class TestPowerOfTwoHelpers:
    def test_next_power_of_two(self):
        assert next_power_of_two(0) == 1
        assert next_power_of_two(1) == 1
        assert next_power_of_two(2) == 2
        assert next_power_of_two(3) == 4
        assert next_power_of_two(1024) == 1024
        assert next_power_of_two(1025) == 2048

    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(64)
        assert not is_power_of_two(0)
        assert not is_power_of_two(-4)
        assert not is_power_of_two(12)


class TestSlotMatrix:
    def test_requires_power_of_two_buckets(self):
        with pytest.raises(ValueError):
            SlotMatrix(3, 4)

    def test_requires_positive_bucket_size(self):
        with pytest.raises(ValueError):
            SlotMatrix(4, 0)

    def test_try_add_until_full(self):
        matrix = SlotMatrix(2, 3)
        assert matrix.try_add(0, 10) == 0
        assert matrix.try_add(0, 11) == 1
        assert matrix.try_add(0, 12) == 2
        assert matrix.is_full(0)
        assert matrix.try_add(0, 13) == -1
        assert matrix.count(0) == 3

    def test_rejects_negative_fingerprints(self):
        matrix = SlotMatrix(2, 2)
        with pytest.raises(ValueError):
            matrix.try_add(0, -1)
        with pytest.raises(ValueError):
            matrix.set_slot(0, 0, -5)

    def test_bucket_fps_preserve_slot_order(self):
        matrix = SlotMatrix(2, 3)
        matrix.try_add(1, 7)
        matrix.try_add(1, 9)
        assert matrix.bucket_fps(1) == [7, 9]

    def test_set_slot_accounting(self):
        matrix = SlotMatrix(2, 2)
        matrix.set_slot(0, 0, 5)
        assert matrix.filled == 1
        matrix.set_slot(0, 0, 6)  # overwrite: no change
        assert matrix.filled == 1
        matrix.clear_slot(0, 0)
        assert matrix.filled == 0
        assert matrix.count(0) == 0

    def test_bounds_checked(self):
        matrix = SlotMatrix(2, 2)
        with pytest.raises(IndexError):
            matrix.fp_at(2, 0)
        with pytest.raises(IndexError):
            matrix.fp_at(0, 2)
        with pytest.raises(IndexError):
            matrix.set_slot(-1, 0, 3)
        with pytest.raises(IndexError):
            matrix.try_add(2, 3)

    def test_remove_fp_first_match(self):
        matrix = SlotMatrix(2, 3)
        matrix.try_add(0, 5)
        matrix.try_add(0, 5)
        assert matrix.remove_fp(0, 5)
        assert matrix.count(0) == 1
        assert not matrix.remove_fp(0, 9)

    def test_holes_are_refilled_first(self):
        matrix = SlotMatrix(2, 3)
        for fp in (1, 2, 3):
            matrix.try_add(0, fp)
        matrix.clear_slot(0, 1)  # hole in the middle
        assert matrix.try_add(0, 9) == 1
        assert matrix.fps[0].tolist() == [1, 9, 3]

    def test_count_in_bucket(self):
        matrix = SlotMatrix(2, 4)
        for fp in (1, 2, 3, 2):
            matrix.try_add(0, fp)
        assert matrix.count_in_bucket(0, 2) == 2
        assert matrix.bucket_contains(0, 3)
        assert not matrix.bucket_contains(0, 7)

    def test_load_factor(self):
        matrix = SlotMatrix(2, 2)
        assert matrix.load_factor() == 0.0
        matrix.try_add(0, 1)
        assert matrix.load_factor() == pytest.approx(0.25)

    def test_capacity(self):
        assert SlotMatrix(8, 4).capacity == 32

    def test_iter_entries_bucket_major(self):
        matrix = SlotMatrix(2, 2)
        matrix.try_add(1, 8)
        matrix.try_add(0, 4)
        assert list(matrix.iter_entries()) == [(0, 0, 4, None), (1, 0, 8, None)]

    def test_iter_slots_skips_empty(self):
        matrix = SlotMatrix(2, 3)
        matrix.set_slot(0, 1, 42)
        assert list(matrix.iter_slots(0)) == [(1, 42, None)]

    def test_fps_matrix_is_live(self):
        matrix = SlotMatrix(2, 2)
        matrix.set_slot(1, 0, 33)
        assert matrix.fps[1, 0] == 33
        assert matrix.fps.ravel()[2] == 33  # bucket-major flat layout

    def test_payload_column(self):
        matrix = SlotMatrix(2, 2, with_payloads=True)
        payload = {"k": 1}
        matrix.set_slot(0, 1, 7, payload)
        assert list(matrix.iter_slots(0)) == [(1, 7, payload)]
        matrix.clear_slot(0, 1)
        assert matrix.payloads == [None] * 4

    def test_place_carries_payloads_along_the_path(self):
        """Home first, then kicks from the partner; payloads follow their
        fingerprints, and a chain out of kicks hands back the homeless one."""
        matrix = SlotMatrix(2, 1, with_payloads=True, fp_bits=8)
        names = {5: "a", 6: "b", 7: "c"}
        fp, placed, counter, path = matrix.place(5, 0, 1, 3, 11, 13, 0)
        assert (fp, placed, counter, path) == (5, True, 0, [(0, 0, matrix.empty)])
        assert matrix.carry_payloads(path, "a") is None
        fp, placed, counter, path = matrix.place(6, 0, 1, 3, 11, 13, counter)
        assert (placed, counter, path) == (True, 0, [(1, 0, matrix.empty)])
        assert matrix.carry_payloads(path, "b") is None
        fp, placed, counter, path = matrix.place(7, 0, 1, 3, 11, 13, counter)
        assert not placed and counter == 3 and len(path) == 3
        assert matrix.carry_payloads(path, "c") == names[fp]
        assert matrix.filled == 2
        for _bucket, _slot, stored, payload in matrix.iter_entries():
            assert payload == names[stored]

    def test_payloads_rejected_without_column(self):
        matrix = SlotMatrix(2, 2)
        with pytest.raises(ValueError):
            matrix.set_slot(0, 0, 1, object())

    def test_recount_after_bulk_write(self):
        matrix = SlotMatrix(4, 2)
        matrix.fps.ravel()[np.array([0, 3, 5])] = 9
        matrix.recount()
        assert matrix.filled == 3
        assert matrix.counts.tolist() == [1, 1, 1, 0]

    def test_counts_column_tracks_mutations(self):
        matrix = SlotMatrix(2, 3)
        matrix.try_add(0, 1)
        matrix.try_add(0, 2)
        matrix.remove_fp(0, 1)
        assert matrix.counts.tolist() == [1, 0]
        assert matrix.filled == 1
