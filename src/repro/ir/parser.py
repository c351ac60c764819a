"""Parser for the OPEC-IR assembly format.

Parses exactly what :func:`repro.ir.printer.print_module` emits (plus
whitespace/comment freedom), giving the IR a durable on-disk form:

    module = parse_module(text)

Round-trip guarantee (tested): ``print_module(parse_module(text)) ==
text`` for printer-produced text, and the parsed module executes
identically to the original.
"""

from __future__ import annotations

import re
from typing import Optional

from .function import BasicBlock, Function
from .instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    GEP,
    Halt,
    ICall,
    ICmp,
    Instruction,
    Jump,
    Load,
    Ret,
    Select,
    Store,
    SVC,
    Unreachable,
    BINARY_OPS,
    CAST_KINDS,
    ICMP_PREDICATES,
)
from .module import Module
from .types import (
    ArrayType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
    VOID,
)
from .values import (
    Constant,
    ConstantNull,
    ConstantPointer,
    Value,
)


class ParseError(Exception):
    """Malformed OPEC-IR text; message carries the line number."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


_GLOBAL_RE = re.compile(
    r"@(?P<name>[\w.$]+)\s*=\s*(?P<kind>global|constant)\s+(?P<rest>.*)$"
)
_STRUCT_RE = re.compile(r"%(?P<name>[\w.$]+)\s*=\s*type\s*\{(?P<body>.*)\}$")
_DEFINE_RE = re.compile(
    r"(?P<decl>define|declare)\s+(?P<rest>.*)$"
)
_LABEL_RE = re.compile(r"(?P<name>[\w.$]+):$")


class _Cursor:
    """A character cursor over one line (types and operands)."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.pos = 0
        self.line_no = line_no

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def startswith(self, token: str) -> bool:
        self.skip_ws()
        return self.text.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.accept(token):
            raise ParseError(
                f"expected {token!r} at ...{self.text[self.pos:][:30]!r}",
                self.line_no,
            )

    def accept(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def word(self) -> str:
        self.skip_ws()
        match = re.match(r"[\w.$#-]+", self.text[self.pos:])
        if not match:
            raise ParseError(
                f"expected a word at ...{self.text[self.pos:][:30]!r}",
                self.line_no,
            )
        self.pos += match.end()
        return match.group(0)

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


class Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.module: Optional[Module] = None
        self.structs: dict[str, StructType] = {}

    # -- types ---------------------------------------------------------

    def parse_type(self, cur: _Cursor) -> Type:
        base = self._parse_base_type(cur)
        # Suffixes: pointers, then a function-type parameter list.
        while True:
            if cur.accept("*"):
                base = PointerType(base)
            elif cur.startswith("("):
                base = self._parse_function_type(cur, base)
            else:
                return base

    def _parse_base_type(self, cur: _Cursor) -> Type:
        if cur.accept("["):
            count = int(cur.word())
            cur.expect("x")
            element = self.parse_type(cur)
            cur.expect("]")
            return ArrayType(element, count)
        if cur.accept("%"):
            name = cur.word()
            if name not in self.structs:
                raise ParseError(f"unknown struct %{name}", cur.line_no)
            return self.structs[name]
        word = cur.word()
        if word == "void":
            return VOID
        if word.startswith("i") and word[1:].isdigit():
            return IntType(int(word[1:]))
        raise ParseError(f"unknown type {word!r}", cur.line_no)

    def _parse_function_type(self, cur: _Cursor, ret: Type) -> FunctionType:
        cur.expect("(")
        params: list[Type] = []
        variadic = False
        if not cur.accept(")"):
            while True:
                if cur.accept("..."):
                    variadic = True
                else:
                    params.append(self.parse_type(cur))
                if cur.accept(")"):
                    break
                cur.expect(",")
        return FunctionType(ret, params, variadic)

    # -- module-level ------------------------------------------------------

    def parse(self) -> Module:
        name = "module"
        bodies: list[tuple[int, Function, list[str]]] = []
        i = 0
        while i < len(self.lines):
            raw = self.lines[i]
            line = raw.split(";", 1)[0].strip()
            comment = raw.strip()
            if comment.startswith("; module "):
                name = comment[len("; module "):].strip()
            if self.module is None:
                self.module = Module(name)
            if not line:
                i += 1
                continue

            struct_m = _STRUCT_RE.match(line)
            if struct_m:
                self._parse_struct(struct_m, i + 1)
                i += 1
                continue
            global_m = _GLOBAL_RE.match(line)
            if global_m:
                self._parse_global(global_m, i + 1)
                i += 1
                continue
            define_m = _DEFINE_RE.match(line)
            if define_m:
                func, is_def = self._parse_signature(
                    define_m.group("rest"), i + 1,
                    declaration=define_m.group("decl") == "declare",
                )
                if not is_def:
                    i += 1
                    continue
                body: list[str] = []
                i += 1
                while i < len(self.lines):
                    body_line = self.lines[i].split(";", 1)[0].strip()
                    if body_line == "}":
                        break
                    if body_line:
                        body.append(self.lines[i])
                    i += 1
                else:
                    raise ParseError(f"unterminated function @{func.name}",
                                     len(self.lines))
                bodies.append((i, func, body))
                i += 1
                continue
            raise ParseError(f"unrecognised line: {line!r}", i + 1)

        if self.module is None:
            self.module = Module(name)
        for _end, func, body in bodies:
            self._parse_body(func, body)
        return self.module

    def _parse_struct(self, match: re.Match, line_no: int) -> None:
        fields: list[tuple[str, Type]] = []
        body = match.group("body").strip()
        if body:
            cur = _Cursor(body, line_no)
            while True:
                ftype = self.parse_type(cur)
                fname = cur.word()
                fields.append((fname, ftype))
                if not cur.accept(","):
                    break
        struct = StructType(match.group("name"), fields)
        self.structs[struct.name] = struct
        self.module.add_struct(struct)

    def _parse_global(self, match: re.Match, line_no: int) -> None:
        cur = _Cursor(match.group("rest"), line_no)
        value_type = self.parse_type(cur)
        initializer = self._parse_initializer(cur, value_type)
        attrs = self._parse_attrs(cur)
        self.module.add_global(
            match.group("name"), value_type, initializer,
            is_const=match.group("kind") == "constant",
            source_file=attrs.get("file", ""),
            sanitize_range=attrs.get("sanitize"),
        )

    def _parse_initializer(self, cur: _Cursor, value_type: Type):
        if cur.accept("zeroinitializer"):
            return None
        if cur.startswith('c"'):
            cur.expect('c"')
            end = cur.text.index('"', cur.pos)
            blob = bytes.fromhex(cur.text[cur.pos:end])
            cur.pos = end + 1
            return blob
        word = cur.word()
        value = int(word, 0)
        if value_type.is_scalar:
            return value
        raise ParseError("integer initializer for aggregate", cur.line_no)

    def _parse_attrs(self, cur: _Cursor) -> dict:
        attrs: dict = {}
        while cur.accept(","):
            key = cur.word()
            if key == "file":
                cur.expect('"')
                end = cur.text.index('"', cur.pos)
                attrs["file"] = cur.text[cur.pos:end]
                cur.pos = end + 1
            elif key == "sanitize":
                attrs["sanitize"] = (int(cur.word(), 0), int(cur.word(), 0))
            else:
                raise ParseError(f"unknown attribute {key!r}", cur.line_no)
        return attrs

    def _parse_signature(self, rest: str, line_no: int,
                         declaration: bool) -> tuple[Function, bool]:
        cur = _Cursor(rest, line_no)
        ret = self.parse_type(cur)
        cur.expect("@")
        name = cur.word()
        cur.expect("(")
        params: list[Type] = []
        if not cur.accept(")"):
            while True:
                params.append(self.parse_type(cur))
                cur.expect("%")
                cur.word()  # the printed parameter name (positional)
                if cur.accept(")"):
                    break
                cur.expect(",")
        attrs: dict = {}
        while not cur.done():
            if cur.accept("{"):
                break
            key = cur.word()
            if key == "file":
                cur.expect('"')
                end = cur.text.index('"', cur.pos)
                attrs["source_file"] = cur.text[cur.pos:end]
                cur.pos = end + 1
            elif key == "irq":
                attrs["irq_number"] = int(cur.word(), 0)
            elif key == "interrupt":
                attrs["is_interrupt_handler"] = True
            elif key == "monitor":
                attrs["is_monitor"] = True
            else:
                raise ParseError(f"unknown function attribute {key!r}",
                                 line_no)
        func = Function(name, FunctionType(ret, params), **attrs)
        self.module.add_function(func)
        return func, not declaration

    # -- function bodies -------------------------------------------------------

    def _parse_body(self, func: Function, lines: list[str]) -> None:
        # Pass 1: create the blocks so branches can forward-reference.
        blocks: dict[str, BasicBlock] = {}
        order: list[tuple[BasicBlock, list[tuple[int, str]]]] = []
        current: Optional[list[tuple[int, str]]] = None
        for offset, raw in enumerate(lines):
            stripped = raw.strip()
            label = _LABEL_RE.match(stripped)
            if label:
                block = func.add_block(label.group("name"))
                blocks[block.name] = block
                current = []
                order.append((block, current))
            else:
                if current is None:
                    raise ParseError(
                        f"instruction before first label in @{func.name}")
                current.append((offset, stripped))

        values: dict[str, Value] = {f"%{p.name}": p for p in func.params}
        for block, entries in order:
            for line_no, text in entries:
                inst = self._parse_instruction(text, blocks, values, line_no)
                block.instructions.append(inst)
                inst.parent = block

    def _parse_instruction(self, text: str, blocks, values,
                           line_no: int) -> Instruction:
        cur = _Cursor(text, line_no)
        result_name: Optional[str] = None
        if cur.startswith("%"):
            cur.expect("%")
            result_name = "%" + cur.word()
            cur.expect("=")
        opcode = cur.word()
        inst = self._dispatch(opcode, cur, blocks, values)
        if result_name is not None:
            values[result_name] = inst
        return inst

    def _operand(self, cur: _Cursor, values) -> Value:
        """``<type> <ref>`` — the universal operand form."""
        op_type = self.parse_type(cur)
        if cur.accept("null"):
            if not isinstance(op_type, PointerType):
                raise ParseError("null must be pointer-typed", cur.line_no)
            return ConstantNull(op_type)
        if cur.accept("@"):
            name = cur.word()
            if name in self.module.globals:
                return self.module.globals[name]
            if name in self.module.functions:
                return self.module.functions[name]
            raise ParseError(f"unknown symbol @{name}", cur.line_no)
        if cur.accept("%"):
            key = "%" + cur.word()
            if key not in values:
                raise ParseError(f"use of undefined value {key}", cur.line_no)
            return values[key]
        word = cur.word()
        value = int(word, 0)
        if isinstance(op_type, PointerType):
            return ConstantPointer(value, op_type)
        if isinstance(op_type, IntType):
            return Constant(value, op_type)
        raise ParseError(f"constant of non-scalar type {op_type}",
                         cur.line_no)

    def _block_ref(self, cur: _Cursor, blocks) -> BasicBlock:
        cur.expect("label")
        cur.expect("%")
        name = cur.word()
        if name not in blocks:
            raise ParseError(f"unknown block %{name}", cur.line_no)
        return blocks[name]

    def _dispatch(self, opcode: str, cur: _Cursor, blocks,
                  values) -> Instruction:
        if opcode == "alloca":
            allocated = self.parse_type(cur)
            cur.expect("x")
            count = int(cur.word())
            return Alloca(allocated, count)
        if opcode == "load":
            self.parse_type(cur)  # result type (redundant, checked)
            cur.expect(",")
            return Load(self._operand(cur, values))
        if opcode == "store":
            value = self._operand(cur, values)
            cur.expect(",")
            return Store(value, self._operand(cur, values))
        if opcode == "gep":
            pointer = self._operand(cur, values)
            indices = []
            while cur.accept(","):
                indices.append(self._operand(cur, values))
            return GEP(pointer, indices)
        if opcode in BINARY_OPS:
            lhs = self._operand(cur, values)
            cur.expect(",")
            return BinOp(opcode, lhs, self._operand(cur, values))
        if opcode == "icmp":
            pred = cur.word()
            if pred not in ICMP_PREDICATES:
                raise ParseError(f"unknown predicate {pred}", cur.line_no)
            lhs = self._operand(cur, values)
            cur.expect(",")
            return ICmp(pred, lhs, self._operand(cur, values))
        if opcode in CAST_KINDS:
            value = self._operand(cur, values)
            cur.expect("to")
            return Cast(opcode, value, self.parse_type(cur))
        if opcode == "select":
            cond = self._operand(cur, values)
            cur.expect(",")
            a = self._operand(cur, values)
            cur.expect(",")
            return Select(cond, a, self._operand(cur, values))
        if opcode == "call":
            self.parse_type(cur)  # printed return type
            cur.expect("@")
            name = cur.word()
            if name not in self.module.functions:
                raise ParseError(f"call to unknown @{name}", cur.line_no)
            callee = self.module.functions[name]
            cur.expect("(")
            args = []
            if not cur.accept(")"):
                while True:
                    args.append(self._operand(cur, values))
                    if cur.accept(")"):
                        break
                    cur.expect(",")
            return Call(callee, args)
        if opcode == "icall":
            callee_type = self.parse_type(cur)
            if not isinstance(callee_type, FunctionType):
                raise ParseError("icall needs a function type", cur.line_no)
            target = self._operand(cur, values)
            cur.expect("(")
            args = []
            if not cur.accept(")"):
                while True:
                    args.append(self._operand(cur, values))
                    if cur.accept(")"):
                        break
                    cur.expect(",")
            return ICall(target, callee_type, args)
        if opcode == "br":
            cond = self._operand(cur, values)
            cur.expect(",")
            then_block = self._block_ref(cur, blocks)
            cur.expect(",")
            return Br(cond, then_block, self._block_ref(cur, blocks))
        if opcode == "jump":
            return Jump(self._block_ref(cur, blocks))
        if opcode == "ret":
            if cur.accept("void"):
                return Ret(None)
            return Ret(self._operand(cur, values))
        if opcode == "svc":
            number = int(cur.word().lstrip("#"), 0)
            cur.expect(",")
            return SVC(number, int(cur.word(), 0))
        if opcode == "halt":
            return Halt(self._operand(cur, values))
        if opcode == "unreachable":
            return Unreachable()
        raise ParseError(f"unknown opcode {opcode!r}", cur.line_no)


def parse_module(text: str) -> Module:
    """Parse OPEC-IR text into a fresh module."""
    return Parser(text).parse()
