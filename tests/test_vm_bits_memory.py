"""Unit and property tests for bit manipulation and the memory model."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.types import F32, F64, I1, I8, I16, I32, I64, pointer_to
from repro.vm.bits import (
    bits_to_value,
    flip_bit,
    float64_from_bits,
    float64_to_bits,
    hamming_distance,
    to_signed,
    to_unsigned,
    value_to_bits,
)
from repro.vm.errors import SegmentationFault
from repro.vm.memory import DataObject, Memory
from repro.workloads.registry import get_workload, workload_names


class TestBits:
    def test_float64_roundtrip_known(self):
        assert float64_from_bits(float64_to_bits(1.5)) == 1.5
        assert float64_to_bits(0.0) == 0
        assert float64_to_bits(-0.0) == 1 << 63

    def test_signed_unsigned(self):
        assert to_unsigned(-1, 8) == 255
        assert to_signed(255, 8) == -1
        assert to_signed(127, 8) == 127
        assert to_unsigned(-(2**63), 64) == 2**63

    @pytest.mark.parametrize("t", [I8, I16, I32, I64])
    def test_flip_bit_int_changes_value(self, t):
        assert flip_bit(0, 0, t) == 1
        assert flip_bit(0, t.bits - 1, t) == t.signed_min

    def test_flip_bit_float_sign(self):
        assert flip_bit(2.5, 63, F64) == -2.5

    def test_flip_bit_out_of_range(self):
        with pytest.raises(ValueError):
            flip_bit(1.0, 64, F64)
        with pytest.raises(ValueError):
            flip_bit(1, -1, I64)

    def test_hamming_distance(self):
        assert hamming_distance(0, 0b1011, I64) == 3
        assert hamming_distance(1.0, 1.0, F64) == 0

    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 63))
    @settings(max_examples=60)
    def test_flip_bit_is_involution_f64(self, value, bit):
        flipped = flip_bit(value, bit, F64)
        assert flip_bit(flipped, bit, F64) == value

    @given(st.integers(-(2**31), 2**31 - 1), st.integers(0, 31))
    @settings(max_examples=60)
    def test_flip_bit_is_involution_i32(self, value, bit):
        flipped = flip_bit(value, bit, I32)
        assert flip_bit(flipped, bit, I32) == value

    @given(st.integers(-(2**63), 2**63 - 1))
    @settings(max_examples=60)
    def test_value_bits_roundtrip_i64(self, value):
        assert bits_to_value(value_to_bits(value, I64), I64) == value

    @given(st.floats(width=32, allow_nan=False))
    @settings(max_examples=60)
    def test_value_bits_roundtrip_f32(self, value):
        assert bits_to_value(value_to_bits(value, F32), F32) == value


class TestDataObject:
    def test_addressing(self):
        memory = Memory()
        obj = memory.allocate("a", F64, 4, initial=[1, 2, 3, 4])
        assert obj.address_of(0) == obj.base
        assert obj.address_of(3) == obj.base + 24
        assert obj.index_of(obj.base + 16) == 2
        with pytest.raises(IndexError):
            obj.address_of(4)

    def test_misaligned_access(self):
        memory = Memory()
        obj = memory.allocate("a", F64, 4)
        with pytest.raises(SegmentationFault):
            obj.index_of(obj.base + 3)

    def test_get_set_types(self):
        memory = Memory()
        ints = memory.allocate("i", I64, 2)
        ints.set(0, -5)
        assert isinstance(ints.get(0), int) and ints.get(0) == -5
        floats = memory.allocate("f", F64, 2)
        floats.set(1, 2.5)
        assert isinstance(floats.get(1), float)

    def test_fill_from_shape_check(self):
        memory = Memory()
        obj = memory.allocate("a", F64, 3)
        with pytest.raises(ValueError):
            obj.fill_from([1.0, 2.0])


class TestMemory:
    def test_duplicate_name_rejected(self):
        memory = Memory()
        memory.allocate("a", F64, 1)
        with pytest.raises(ValueError):
            memory.allocate("a", F64, 1)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            Memory().allocate("a", F64, 0)

    def test_resolve_and_guard_gap(self):
        memory = Memory()
        a = memory.allocate("a", F64, 2)
        b = memory.allocate("b", F64, 2)
        obj, idx = memory.resolve(a.address_of(1))
        assert obj.name == "a" and idx == 1
        with pytest.raises(SegmentationFault):
            memory.resolve(a.end + 1)  # guard gap between objects
        with pytest.raises(SegmentationFault):
            memory.resolve(b.end + 1000)

    def test_load_store_roundtrip(self):
        memory = Memory()
        a = memory.allocate("a", F64, 3)
        memory.store(a.address_of(1), F64, 7.25)
        assert memory.load(a.address_of(1), F64) == 7.25

    def test_type_mismatch_is_fault(self):
        memory = Memory()
        a = memory.allocate("a", F64, 3)
        with pytest.raises(SegmentationFault):
            memory.load(a.base, I64)

    def test_flip_bit_at(self):
        memory = Memory()
        a = memory.allocate("a", F64, 1, initial=[1.0])
        memory.flip_bit_at(a.base, 63)
        assert a.get(0) == -1.0

    def test_stack_objects_excluded_from_data_objects(self):
        memory = Memory()
        memory.allocate("a", F64, 1)
        memory.allocate_stack("tmp", I64, 1)
        names = [o.name for o in memory.data_objects()]
        assert names == ["a"]
        assert len(memory.data_objects(include_stack=True)) == 2

    def test_release(self):
        memory = Memory()
        tmp = memory.allocate_stack("tmp", I64, 4)
        memory.release(tmp)
        with pytest.raises(SegmentationFault):
            memory.resolve(tmp.base)

    def test_snapshot_restore(self):
        memory = Memory()
        a = memory.allocate("a", F64, 3, initial=[1.0, 2.0, 3.0])
        snap = memory.snapshot()
        a.set(0, 99.0)
        memory.restore(snap)
        assert list(a.values()) == [1.0, 2.0, 3.0]

    def test_integer_wrapping_store(self):
        memory = Memory()
        a = memory.allocate("a", I8, 1)
        a.set(0, 200)  # wraps to signed 8-bit
        assert a.get(0) == to_signed(200, 8)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16))
    @settings(max_examples=40)
    def test_values_roundtrip_property(self, values):
        memory = Memory()
        obj = memory.allocate("a", F64, len(values), initial=values)
        assert np.allclose(obj.values(), np.asarray(values))


# --------------------------------------------------------------------- #
# constant-time resolution vs the property-chain reference
# --------------------------------------------------------------------- #
def _reference_resolve(memory, address):
    """``Memory.resolve`` as it was written over ``contains``/``index_of``
    and the ``element_type.size_bytes`` property chain."""
    position = bisect_right(memory._bases, address) - 1
    if position < 0:
        raise SegmentationFault(address)
    obj = memory._by_base[position]
    size = obj.element_type.size_bytes
    if not obj.base <= address < obj.base + obj.count * size:
        raise SegmentationFault(address)
    offset = address - obj.base
    if offset % size:
        raise SegmentationFault(address, f"misaligned access into {obj.name}")
    return obj, offset // size


def _reference_check_access(obj, value_type, address):
    if value_type.size_bytes != obj.element_type.size_bytes or (
        value_type.is_float != obj.element_type.is_float
    ):
        raise SegmentationFault(
            address,
            f"access of type {value_type} into {obj.name} "
            f"(element type {obj.element_type})",
        )


def _access(resolve, check, memory, address, value_type):
    try:
        obj, index = resolve(memory, address)
        check(obj, value_type, address)
    except SegmentationFault as exc:
        return type(exc), str(exc)
    return obj, index


def _probe_addresses(memory):
    objects = memory._by_base
    addresses = {0, objects[0].base - 1, objects[0].base - 8}
    for obj in objects:
        size = obj.element_type.size_bytes
        end = obj.base + obj.count * size
        addresses.update((
            obj.base, obj.base + 1, obj.base + size, obj.base + size // 2,
            end - size, end - 1, end, end + 1, end + Memory.GUARD_GAP // 2,
            end + Memory.GUARD_GAP - 1,
        ))
    return sorted(addresses)


ACCESS_TYPES = (I1, I8, I16, I32, I64, F32, F64, pointer_to(F64), pointer_to(I64))


@pytest.mark.parametrize("name", workload_names())
def test_resolution_matches_reference_on_workload_layouts(name):
    memory = get_workload(name).fresh_instance().memory
    # one extra object of every element type, so each size and floatness
    # is resolved whatever the workload allocates
    for element_type in (I1, I8, I16, I32, I64, F32, F64):
        memory.allocate_stack(element_type.name, element_type, 3)
    checked = 0
    for address in _probe_addresses(memory):
        for value_type in ACCESS_TYPES:
            got = _access(
                Memory.resolve, Memory._check_access_type, memory, address,
                value_type,
            )
            want = _access(
                _reference_resolve, _reference_check_access, memory, address,
                value_type,
            )
            assert got == want, (hex(address), value_type)
            checked += not isinstance(want[0], type)
    assert checked, "probe set must include successful accesses"
