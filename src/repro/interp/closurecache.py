"""Persistent compiled-closure cache: warm runs skip codegen entirely.

PR 7's superinstruction compiler and this PR's trace fuser both spend
their one-time cost on Python codegen — emitting source and running
``compile()``/``exec`` for every executed block.  That cost repeats in
every process, which is exactly the shape the PR 3 artifact store was
built for.  This module persists the *metadata* needed to rebuild each
closure — never the closure object itself:

* the closure's code object, via :mod:`marshal` (versioned by the
  CPython cache tag inside :func:`repro.cache.digest.closures_digest`);
* a locator per namespace binding — instructions, parameters, blocks,
  globals and functions are named by ``(function name, indexes)``
  within the module, and re-resolved against the freshly built module
  on load.  An ``int`` binding (a value the compiler took from an IR
  constant: generated source never holds one as a literal) is stored
  as itself.  Static bindings (the block compiler's
  :func:`~repro.interp.blockcompile.static_bindings`) are re-added
  from the live tree.

Entries are keyed by the module digest and live inside the store's
pipeline-fingerprint directory, so any source change — including to
the compilers whose output is being cached — invalidates the bundle
wholesale.  A ``None`` entry records a rejected block/trace so warm
runs skip the rejection work too.  Anything unserialisable (an exotic
value bound via the escape path) is simply omitted and recompiles on
the warm run.

State is tracked per module in a :class:`weakref.WeakKeyDictionary` —
deliberately not a module attribute, so nothing rides along when a
module is pickled into the artifact store by the build cache.
"""

from __future__ import annotations

import builtins
import marshal
import types
import weakref
from typing import Any, Optional

from ..cache.digest import closures_digest
from ..cache.store import active_store
from ..ir.function import BasicBlock, Function
from ..ir.instructions import Instruction
from ..ir.module import Module
from ..ir.values import GlobalVariable, Parameter
from .blockcompile import static_bindings

#: Namespace entries besides :func:`static_bindings` that are not
#: module references: what ``exec`` itself leaves behind.
_EXEC_NAMES = frozenset({"__builtins__", "__block", "__trace"})

_MISSING = object()

_states: "weakref.WeakKeyDictionary[Module, _CacheState]" = \
    weakref.WeakKeyDictionary()


class _Unserializable(Exception):
    """A namespace binding has no stable locator within the module."""


class _CacheState:
    """Per-module bookkeeping: one load, save-on-halt when dirty."""

    __slots__ = ("digest", "dirty", "blocks_loaded", "traces_loaded")

    def __init__(self, digest: str):
        self.digest = digest
        self.dirty = False
        self.blocks_loaded = 0
        self.traces_loaded = 0


def _static_ns() -> dict:
    return {**static_bindings(), "__builtins__": builtins}


# -- locators ------------------------------------------------------------


def _index_of(seq, item) -> int:
    """Identity-based index (Value subclasses may define ``__eq__``)."""
    for i, candidate in enumerate(seq):
        if candidate is item:
            return i
    raise _Unserializable(repr(item))


def _block_key(block: BasicBlock) -> tuple[str, int]:
    function = block.parent
    if function is None:
        raise _Unserializable(repr(block))
    return function.name, _index_of(function.blocks, block)


def _encode_binding(name: str, value: Any, home: Function) -> tuple:
    if value.__class__ is int:
        return name, "int", value
    if isinstance(value, GlobalVariable):
        return name, "global", value.name
    if isinstance(value, Function):
        return name, "function", value.name
    if isinstance(value, BasicBlock):
        return name, "block", _block_key(value)
    if isinstance(value, Parameter):
        # Operand binding only ever reaches the enclosing function's
        # parameters; anything else has no locator.
        return name, "param", (home.name, _index_of(home.params, value))
    if isinstance(value, Instruction):
        block = value.parent
        if block is None:
            raise _Unserializable(name)
        fname, bidx = _block_key(block)
        return name, "inst", (fname, bidx,
                              _index_of(block.instructions, value))
    raise _Unserializable(name)


def _decode_binding(kind: str, locator, module: Module) -> Any:
    if kind == "int":
        return locator
    if kind == "global":
        return module.get_global(locator)
    if kind == "function":
        return module.get_function(locator)
    if kind == "block":
        fname, bidx = locator
        return module.get_function(fname).blocks[bidx]
    if kind == "param":
        fname, pidx = locator
        return module.get_function(fname).params[pidx]
    if kind == "inst":
        fname, bidx, iidx = locator
        return module.get_function(fname).blocks[bidx].instructions[iidx]
    raise ValueError(f"unknown binding kind {kind!r}")


# -- closure <-> entry ---------------------------------------------------


def _encode_closure(fn, home: Function) -> dict:
    static = static_bindings()
    bindings = []
    for name, value in fn.__globals__.items():
        if name in static or name in _EXEC_NAMES:
            continue
        bindings.append(_encode_binding(name, value, home))
    return {
        "code": marshal.dumps(fn.__code__),
        "bindings": bindings,
        "source": getattr(fn, "__repro_source__", ""),
        "batched": bool(getattr(fn, "__repro_batched__", False)),
    }


def _decode_closure(entry: dict, module: Module, name: str):
    ns = _static_ns()
    for bname, kind, locator in entry["bindings"]:
        ns[bname] = _decode_binding(kind, locator, module)
    fn = types.FunctionType(marshal.loads(entry["code"]), ns, name)
    ns[name] = fn  # mirror what exec left behind
    fn.__repro_source__ = entry["source"]
    fn.__repro_batched__ = entry["batched"]
    return fn


# -- public API ----------------------------------------------------------


def preload(module: Module) -> tuple[int, int]:
    """Apply the module's cached closures, once per module instance.

    Returns ``(blocks, traces)`` applied on the call that actually
    loaded; subsequent calls (further interpreters, batch lanes) are
    ``(0, 0)`` no-ops.  With no active store the module stays
    untracked so a store appearing later can still load.
    """
    if _states.get(module) is not None:
        return 0, 0
    store = active_store()
    if store is None:
        return 0, 0
    state = _CacheState(closures_digest(module))
    _states[module] = state
    payload = store.get(state.digest)
    if not isinstance(payload, dict):
        return 0, 0
    blocks = traces = 0
    for (fname, bidx), entry in payload.get("blocks", {}).items():
        block = _resolve_block(module, fname, bidx)
        if block is None or getattr(block, "_compiled", _MISSING) \
                is not _MISSING:
            continue
        if entry is None:
            block._compiled = None
            blocks += 1
            continue
        fn = _try_decode(entry, module, "__block")
        if fn is not None:
            block._compiled = fn
            blocks += 1
    for (fname, bidx), entry in payload.get("traces", {}).items():
        block = _resolve_block(module, fname, bidx)
        if block is None:
            continue
        current = getattr(block, "_trace", _MISSING)
        if current is not _MISSING and current.__class__ is not int:
            continue
        if entry is None:
            block._trace = None
            traces += 1
            continue
        fn = _try_decode(entry, module, "__trace")
        if fn is None:
            continue
        try:
            chain = tuple(
                module.get_function(cf).blocks[cb]
                for cf, cb in entry["chain"])
        except Exception:
            continue
        fn.__repro_chain__ = chain
        block._trace = fn
        traces += 1
    state.blocks_loaded = blocks
    state.traces_loaded = traces
    return blocks, traces


def _resolve_block(module: Module, fname: str,
                   bidx: int) -> Optional[BasicBlock]:
    try:
        return module.get_function(fname).blocks[bidx]
    except Exception:
        return None


def _try_decode(entry: dict, module: Module, name: str):
    try:
        return _decode_closure(entry, module, name)
    except Exception:
        # A stale or hand-damaged entry degrades to a recompile, never
        # to a failed run (the store already hash-verifies payloads).
        return None


def note_compiled(module: Module) -> None:
    """Mark the module's bundle stale; save() persists it at halt."""
    state = _states.get(module)
    if state is not None:
        state.dirty = True


def save(module: Module) -> int:
    """Persist every cached closure of ``module``; returns entry bytes.

    No-op unless :func:`note_compiled` ran since the last save and a
    store is active.  Serialisation walks the module (not a journal of
    compilations) so lanes sharing the module all contribute.
    """
    state = _states.get(module)
    if state is None or not state.dirty:
        return 0
    store = active_store()
    if store is None:
        return 0
    payload: dict = {"blocks": {}, "traces": {}}
    for function in module.functions.values():
        for bidx, block in enumerate(function.blocks):
            key = (function.name, bidx)
            fn = getattr(block, "_compiled", _MISSING)
            if fn is not _MISSING:
                if fn is None:
                    payload["blocks"][key] = None
                else:
                    try:
                        payload["blocks"][key] = _encode_closure(
                            fn, function)
                    except _Unserializable:
                        pass
            tr = getattr(block, "_trace", _MISSING)
            if tr is _MISSING or tr.__class__ is int:
                continue  # heat counters are run state, not artifacts
            if tr is None:
                payload["traces"][key] = None
                continue
            try:
                entry = _encode_closure(tr, function)
                entry["chain"] = [_block_key(b)
                                  for b in tr.__repro_chain__]
                payload["traces"][key] = entry
            except _Unserializable:
                pass
    state.dirty = False
    return store.put(state.digest, payload)


__all__ = ["preload", "note_compiled", "save"]
