"""Operation partitioning (§4.3).

An *operation* is a logically independent task: a developer-chosen
entry function plus every function reachable from it in the sound call
graph, with DFS backtracking when another operation's entry is reached
(that subtree belongs to the other operation and calling it at runtime
triggers a switch).  ``main`` always forms the default operation.

Entry restrictions from the paper: an entry may not be variadic and may
not live inside an interrupt-handling routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..analysis.callgraph import CallGraph
from ..analysis.resources import FunctionResources, ResourceAnalysis
from ..hw.board import Peripheral
from ..ir.function import Function
from ..ir.module import Module


class PartitionError(Exception):
    """An entry-function list violates the partitioning rules."""


@dataclass
class OperationSpec:
    """Developer input for one operation (Figure 5's "entry functions
    list & stack information").

    ``stack_info`` maps a pointer-typed parameter index of the entry
    function to the byte size of the buffer it points to, enabling the
    monitor's stack relocation (§5.2, Figure 8).
    """

    entry: str
    stack_info: dict[int, int] = field(default_factory=dict)


@dataclass
class PeripheralWindow:
    """A merged run of address-adjacent peripherals sharing one MPU
    region (§4.3's merge-by-ascending-address optimisation)."""

    base: int
    size: int
    peripherals: tuple[Peripheral, ...]

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


@dataclass
class Operation:
    """One partitioned operation with its merged resource dependency."""

    index: int
    name: str
    entry: Function
    functions: set[Function]
    resources: FunctionResources
    stack_info: dict[int, int] = field(default_factory=dict)
    windows: list[PeripheralWindow] = field(default_factory=list)
    is_default: bool = False

    @property
    def accessible_globals(self):
        return self.resources.globals_all

    def __hash__(self) -> int:
        return self.index

    def __repr__(self) -> str:
        return (
            f"<Operation {self.index} @{self.entry.name}: "
            f"{len(self.functions)} funcs>"
        )


def merge_peripheral_windows(
    peripherals: Iterable[Peripheral],
) -> list[PeripheralWindow]:
    """Sort by start address and merge adjacent peripherals (§4.3)."""
    ordered = sorted(peripherals, key=lambda p: p.base)
    windows: list[PeripheralWindow] = []
    run: list[Peripheral] = []
    for peripheral in ordered:
        if run and peripheral.base == run[-1].end:
            run.append(peripheral)
        else:
            if run:
                windows.append(_window_from(run))
            run = [peripheral]
    if run:
        windows.append(_window_from(run))
    return windows


def _window_from(run: list[Peripheral]) -> PeripheralWindow:
    base = run[0].base
    return PeripheralWindow(
        base=base, size=run[-1].end - base, peripherals=tuple(run)
    )


def partition_operations(
    module: Module,
    graph: CallGraph,
    specs: Sequence[OperationSpec],
    resources: ResourceAnalysis,
) -> list[Operation]:
    """Partition ``module`` into operations per the developer's specs.

    Returns the default (``main``) operation first, then one operation
    per spec in order.
    """
    main = module.get_function("main")
    entry_funcs: list[Function] = []
    for spec in specs:
        func = module.get_function(spec.entry)
        if func.ftype.variadic:
            raise PartitionError(
                f"operation entry @{func.name} has variable-length arguments"
            )
        if func.is_interrupt_handler:
            raise PartitionError(
                f"operation entry @{func.name} is an interrupt handler"
            )
        if func is main:
            raise PartitionError("main is always the default operation")
        entry_funcs.append(func)
    if len(set(entry_funcs)) != len(entry_funcs):
        raise PartitionError("duplicate operation entries")

    # One frozen stop set shared by every query keeps the call graph's
    # per-(entry, stops) reachability cache hot across entries, and the
    # monitor/interrupt exclusion is computed once, not per operation.
    all_entries = frozenset(entry_funcs) | {main}
    excluded = {
        f for f in module.iter_functions()
        if f.is_monitor or f.is_interrupt_handler
    }
    operations: list[Operation] = []
    ordered = [(main, OperationSpec(entry="main"))] + list(zip(entry_funcs, specs))
    for index, (entry, spec) in enumerate(ordered):
        functions = graph.reachable_from(entry, stop_at=all_entries)
        functions -= excluded
        merged = FunctionResources()
        for func in functions:
            merged.merge(resources.function_resources(func))
        operation = Operation(
            index=index,
            name=entry.name,
            entry=entry,
            functions=functions,
            resources=merged,
            stack_info=dict(spec.stack_info),
            is_default=(entry is main),
        )
        operation.windows = merge_peripheral_windows(merged.peripherals)
        operations.append(operation)
    return operations
