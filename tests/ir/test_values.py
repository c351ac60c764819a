"""Unit tests for IR values, globals, and initializer encoding."""

import pytest

from repro.ir import (
    ArrayType,
    Constant,
    ConstantNull,
    ConstantPointer,
    GlobalVariable,
    StructType,
    I8,
    I16,
    I32,
    PointerType,
    array,
    encode_initializer,
    ptr,
)
from repro.ir.values import _pointer_field_offsets


def _offsets_by_element(type_, base=0):
    """Reference: one recursion per array element."""
    if isinstance(type_, PointerType):
        return [base]
    offsets = []
    if isinstance(type_, StructType):
        for i, (_, ftype) in enumerate(type_.fields):
            offsets.extend(
                _offsets_by_element(ftype, base + type_.offset_of(i)))
    elif isinstance(type_, ArrayType):
        for i in range(type_.count):
            offsets.extend(
                _offsets_by_element(type_.element, base + i * type_.stride))
    return offsets


class TestConstant:
    def test_wraps_to_width(self):
        assert Constant(0x1FF, I8).value == 0xFF
        assert Constant(-1, I32).value == 0xFFFFFFFF

    def test_requires_int_type(self):
        with pytest.raises(TypeError):
            Constant(1, ptr(I8))

    def test_short(self):
        assert Constant(42).short() == "42"


class TestConstantPointer:
    def test_address_masked(self):
        cp = ConstantPointer(0x1_4001_1000, ptr(I32))
        assert cp.address == 0x40011000

    def test_short_hex(self):
        assert ConstantPointer(0x40011004, ptr(I32)).short() == "0x40011004"


class TestGlobalVariable:
    def test_value_is_pointer_typed(self):
        g = GlobalVariable("g", I32, 5)
        assert g.type == ptr(I32)
        assert g.value_type == I32
        assert g.size == 4

    def test_pointer_field_offsets_scalar(self):
        assert GlobalVariable("g", I32).pointer_field_offsets == []
        assert GlobalVariable("p", ptr(I8)).pointer_field_offsets == [0]

    def test_pointer_field_offsets_nested(self):
        inner = StructType("inner", [("n", I32), ("link", ptr(I8))])
        outer = StructType("outer", [("head", ptr(I8)), ("pair", inner)])
        g = GlobalVariable("g", array(outer, 2))
        # outer: head at 0, pair.link at 8; stride 12
        assert g.pointer_field_offsets == [0, 8, 12, 20]

    def test_pointer_field_offsets_tile_array_elements(self):
        node = StructType("node", [("tag", I8), ("next", ptr(I8)),
                                   ("data", array(I16, 3)),
                                   ("slots", array(ptr(I32), 2))])
        holder = StructType("holder", [("count", I32),
                                       ("nodes", array(node, 3)),
                                       ("head", ptr(node))])
        types = [
            array(I8, 4096),
            array(array(I32, 4), 8),
            array(ptr(I8), 5),
            array(node, 4),
            array(array(node, 2), 3),
            holder,
            array(holder, 2),
            StructType("flat", [("a", I8), ("b", I32)]),
        ]
        for type_ in types:
            for base in (0, 12):
                assert _pointer_field_offsets(type_, base) == \
                    _offsets_by_element(type_, base), type_
        assert _pointer_field_offsets(array(I8, 4096)) == []
        # Element by element, field order within each element.
        assert _pointer_field_offsets(array(node, 2)) == \
            [4, 16, 20, 28, 40, 44]

    def test_sanitize_range_attribute(self):
        g = GlobalVariable("g", I32, 0, sanitize_range=(0, 1))
        assert g.sanitize_range == (0, 1)


class TestEncodeInitializer:
    def test_zero_fill(self):
        assert encode_initializer(None, array(I8, 4)) == b"\x00" * 4

    def test_int_little_endian(self):
        assert encode_initializer(0x01020304, I32) == b"\x04\x03\x02\x01"

    def test_int_for_aggregate_rejected(self):
        with pytest.raises(TypeError):
            encode_initializer(1, array(I32, 2))

    def test_bytes_padded(self):
        assert encode_initializer(b"ab", array(I8, 4)) == b"ab\x00\x00"

    def test_bytes_too_large(self):
        with pytest.raises(ValueError):
            encode_initializer(b"abcde", array(I8, 4))

    def test_list_of_ints_array(self):
        assert encode_initializer([1, 2], array(I16, 2)) == b"\x01\x00\x02\x00"

    def test_list_too_long(self):
        with pytest.raises(ValueError):
            encode_initializer([1, 2, 3], array(I32, 2))

    def test_struct_initializer(self):
        s = StructType("s", [("a", I8), ("b", I32)])
        blob = encode_initializer([0x11, 0x22334455], s)
        assert blob[0] == 0x11
        assert blob[4:8] == b"\x55\x44\x33\x22"
        assert len(blob) == s.size

    def test_nested_array_of_structs(self):
        s = StructType("s", [("a", I32)])
        blob = encode_initializer([[1], [2]], array(s, 3))
        assert blob == b"\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"

    def test_global_encode_matches(self):
        g = GlobalVariable("g", array(I8, 3), b"hi")
        assert g.encode_initializer() == b"hi\x00"
