"""First-class IR values: constants, globals, and parameters.

A :class:`Value` is anything an instruction can take as an operand.
Instructions themselves are values too (they produce a result); they
live in :mod:`repro.ir.instructions`.
"""

from __future__ import annotations

from typing import Optional, Union

from .types import IntType, PointerType, Type, I32, ptr

Initializer = Union[int, bytes, list, None]


class Value:
    """Base class for every IR value."""

    def __init__(self, type_: Type, name: str = ""):
        self.type = type_
        self.name = name

    def short(self) -> str:
        """A compact printable handle used by the textual printer."""
        return f"%{self.name}" if self.name else "%?"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short()}: {self.type}>"


class Constant(Value):
    """An integer constant of a given integer type."""

    def __init__(self, value: int, type_: IntType = I32):
        if not isinstance(type_, IntType):
            raise TypeError("Constant requires an integer type")
        super().__init__(type_)
        self.value = value & type_.mask

    def short(self) -> str:
        return str(self.value)


class ConstantPointer(Value):
    """A pointer constant: a fixed machine address cast to a pointer.

    This is how memory-mapped peripheral registers appear in firmware
    (``*(volatile uint32_t *)0x40011004``).  The backward-slicing pass
    in :mod:`repro.analysis.peripherals` recognises these.
    """

    def __init__(self, address: int, type_: PointerType):
        super().__init__(type_)
        self.address = address & 0xFFFFFFFF

    def short(self) -> str:
        return f"0x{self.address:08X}"


class ConstantNull(Value):
    """The null pointer of a given pointer type."""

    def __init__(self, type_: PointerType):
        super().__init__(type_)

    def short(self) -> str:
        return "null"


class Parameter(Value):
    """A formal parameter of a function."""

    def __init__(self, type_: Type, name: str, index: int):
        super().__init__(type_, name)
        self.index = index


class GlobalVariable(Value):
    """A module-level variable.

    ``value_type`` is the type of the stored object; as a value the
    global is a *pointer* to that object, exactly as in LLVM.

    Attributes relevant to OPEC:

    * ``source_file`` — the "file" the variable was declared in; used by
      the ACES filename partitioning strategies.
    * ``is_const`` — read-only data, placed in flash.
    * ``sanitize_range`` — developer-provided ``(lo, hi)`` valid-value
      range used by the monitor's write-back sanitisation (§5.2).
    * ``pointer_field_offsets`` — byte offsets of pointer-typed fields,
      recorded by the compiler so the monitor can retarget them when
      switching operations (§4.2 / §5.3).
    """

    def __init__(
        self,
        name: str,
        value_type: Type,
        initializer: Initializer = None,
        *,
        source_file: str = "",
        is_const: bool = False,
        sanitize_range: Optional[tuple[int, int]] = None,
    ):
        super().__init__(ptr(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.source_file = source_file
        self.is_const = is_const
        self.sanitize_range = sanitize_range
        self.pointer_field_offsets = _pointer_field_offsets(value_type)

    @property
    def size(self) -> int:
        return self.value_type.size

    def short(self) -> str:
        return f"@{self.name}"

    def encode_initializer(self) -> bytes:
        """Render the initializer as little-endian bytes of ``size``."""
        return encode_initializer(self.initializer, self.value_type)


def _pointer_field_offsets(type_: Type, base: int = 0) -> list[int]:
    """Byte offsets of every pointer-typed slot within ``type_``, in
    ascending element and field order."""
    from .types import ArrayType, StructType

    offsets: list[int] = []
    if isinstance(type_, PointerType):
        offsets.append(base)
    elif isinstance(type_, StructType):
        for i, (_, ftype) in enumerate(type_.fields):
            offsets.extend(_pointer_field_offsets(ftype, base + type_.offset_of(i)))
    elif isinstance(type_, ArrayType):
        # One element's offsets, tiled: a byte buffer costs one call,
        # not one per element.
        element = _pointer_field_offsets(type_.element)
        if element:
            offsets = [base + i * type_.stride + offset
                       for i in range(type_.count) for offset in element]
    return offsets


def encode_initializer(init: Initializer, type_: Type) -> bytes:
    """Encode a Python-level initializer into raw little-endian bytes.

    Supported forms: ``None`` (zero-fill), ``int`` (scalar), ``bytes``
    (verbatim, zero-padded), and nested lists matching array/struct
    shape.
    """
    from .types import ArrayType, StructType

    size = type_.size
    if init is None:
        return bytes(size)
    if isinstance(init, int):
        if not type_.is_scalar:
            raise TypeError(f"integer initializer for non-scalar type {type_}")
        return (init & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
    if isinstance(init, (bytes, bytearray)):
        data = bytes(init)
        if len(data) > size:
            raise ValueError(f"initializer too large: {len(data)} > {size}")
        return data + bytes(size - len(data))
    if isinstance(init, list):
        if isinstance(type_, ArrayType):
            if len(init) > type_.count:
                raise ValueError("too many array initializer elements")
            chunks = []
            for element in init:
                chunk = encode_initializer(element, type_.element)
                chunks.append(chunk + bytes(type_.stride - len(chunk)))
            blob = b"".join(chunks)
            return blob + bytes(size - len(blob))
        if isinstance(type_, StructType):
            if len(init) > len(type_.fields):
                raise ValueError("too many struct initializer elements")
            buf = bytearray(size)
            for i, element in enumerate(init):
                chunk = encode_initializer(element, type_.field_type(i))
                off = type_.offset_of(i)
                buf[off : off + len(chunk)] = chunk
            return bytes(buf)
    raise TypeError(f"unsupported initializer {init!r} for {type_}")
