"""IR interpreter running linked firmware images on the simulated machine."""

from .costs import (
    CORE_EMULATION_COST,
    DEFAULT_COST,
    DIV_COST,
    INSTRUCTION_COSTS,
    REGION_SWITCH_COST,
    SANITIZE_CHECK_COST,
    STACK_RELOCATE_WORD_COST,
    SWITCH_BASE_COST,
    SYNC_WORD_COST,
)
from .batch import BatchLane, BatchResult, BatchRunner
from .blockcompile import (
    BLOCKCOMPILE_OFF_VALUES,
    BLOCKCOMPILE_ON_VALUES,
    block_compile_enabled,
    compile_block,
)
from .hooks import RuntimeHooks
from .interpreter import ExecutionLimitExceeded, Frame, Interpreter
from .tracefuse import (
    TRACEFUSE_OFF_VALUES,
    TRACEFUSE_ON_VALUES,
    compile_trace,
    trace_fuse_enabled,
)

__all__ = [
    "CORE_EMULATION_COST", "DEFAULT_COST", "DIV_COST", "INSTRUCTION_COSTS",
    "REGION_SWITCH_COST", "SANITIZE_CHECK_COST", "STACK_RELOCATE_WORD_COST",
    "SWITCH_BASE_COST", "SYNC_WORD_COST",
    "BLOCKCOMPILE_OFF_VALUES", "BLOCKCOMPILE_ON_VALUES",
    "block_compile_enabled", "compile_block",
    "TRACEFUSE_OFF_VALUES", "TRACEFUSE_ON_VALUES",
    "compile_trace", "trace_fuse_enabled",
    "BatchLane", "BatchResult", "BatchRunner",
    "RuntimeHooks", "ExecutionLimitExceeded", "Frame", "Interpreter",
]
