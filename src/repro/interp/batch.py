"""Batched simulation: N machines run through one process.

Sweeps (backend comparisons, parameter scans, differential fuzzing)
spend most of their wall-clock re-running the same firmware under
slightly different stimuli.  One process per run pays the interpreter
warm-up, image build, and block compilation N times; the batch runner
pays them once:

* **Shared immutable images.**  Lanes may share one image object
  (typically served by the content-addressed artifact cache): images
  are read-only after linking, and every machine initialises its own
  memory from it.  Compiled block closures live on the shared IR
  (``block._compiled``) and are image- and machine-independent by
  construction, so lane 0's compilation warms every other lane.

* **One loop, one lane at a time.**  ``add`` only queues a lane.
  :meth:`BatchRunner.run` takes the lanes in ``add`` order: it builds
  a lane's machine when it reaches the lane, drives it to halt with
  :meth:`~repro.interp.interpreter.Interpreter.resume` (the same
  dispatch loop a solo run executes) and hands the finished lane to
  the caller's ``on_lane`` before it builds the next.  A caller that
  classifies and drops each lane so holds one lane's machine at a
  time, not one per lane.  Lanes are fully isolated — separate
  machines, monitors, recorders — so a batched lane's cycles, stats,
  and halt code are bit-identical to a solo run.

* **Fault isolation.**  A lane that dies — on a terminal
  :class:`~repro.hw.exceptions.MachineError` *or* on any other
  exception escaping its interpreter, hooks, or device models —
  records the error on its lane and the rest of the fleet keeps
  running.  Non-``MachineError`` failures are wrapped in
  :class:`LaneFailure` (carrying the lane name and the original
  exception as ``__cause__``) so a campaign-scale sweep never loses
  N-1 finished lanes to one buggy stimulus.  A recorded
  ``MachineError`` keeps no traceback (:func:`_drop_tracebacks`): its
  frames would reach the lane and the error again, a cycle that keeps
  the finished machine alive until a full garbage collection.  The
  crash context rides on the error itself; a ``LaneFailure`` keeps
  its original's traceback, the host defect's only diagnostic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

from ..hw.exceptions import MachineError
from ..hw.machine import Machine
from ..obs.metrics import MetricsRegistry
from .hooks import RuntimeHooks
from .interpreter import Interpreter


class LaneFailure(MachineError):
    """A lane died on something other than a simulated-machine fault.

    Raising hooks, buggy device models, and generator defects surface
    here instead of killing the whole fleet; the original exception
    rides along as ``__cause__``/``original``.
    """

    def __init__(self, lane_name: str, original: BaseException):
        super().__init__(
            f"lane {lane_name!r} failed: "
            f"{type(original).__name__}: {original}")
        self.lane_name = lane_name
        self.original = original
        self.__cause__ = original


def _drop_tracebacks(error: BaseException) -> None:
    """Clear the tracebacks of ``error`` and of every exception on its
    ``__cause__`` / ``__context__`` chain."""
    chain = [error]
    seen = set()
    while chain:
        error = chain.pop()
        if error is None or id(error) in seen:
            continue
        seen.add(id(error))
        error.__traceback__ = None
        chain += (error.__cause__, error.__context__)


@dataclass
class BatchLane:
    """One simulated machine in the fleet."""

    name: str
    machine: Machine
    interpreter: Interpreter
    hooks: RuntimeHooks
    halt_code: Optional[int] = None
    error: Optional[MachineError] = None

    @property
    def cycles(self) -> int:
        return self.machine.cycles


@dataclass
class BatchResult:
    """Fleet outcome: the finished lanes no ``on_lane`` callback took,
    plus aggregate counters."""

    lanes: list[BatchLane] = field(default_factory=list)
    # Aggregated interpreter compile metrics (per-lane registries
    # merged; order-independent, so deterministic).
    compile_metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def failed(self) -> list[BatchLane]:
        return [lane for lane in self.lanes if lane.error is not None]


class _QueuedLane(NamedTuple):
    """What :meth:`BatchRunner.add` records: a lane not built yet."""

    name: str
    image: object
    hooks: Optional[RuntimeHooks]
    setup: Optional[Callable[[Machine], None]]
    entry: str
    args: tuple
    max_instructions: int
    backend: object
    recorder: object


class BatchRunner:
    """Executor for a fleet of simulated machines.

    Usage::

        runner = BatchRunner()
        for stimulus in stimuli:
            runner.add(image, setup=stimulus, name=...)
        result = runner.run(on_lane)    # or runner.run().lanes

    ``add`` only queues a lane; :meth:`run` builds each lane's machine
    when it reaches that lane, the way :func:`repro.pipeline.run_image`
    does (same backend resolution, same automatic monitor selection),
    so a batched lane runs under exactly the runtime a solo
    ``run_image`` would.
    """

    def __init__(self, *, block_compile: Optional[bool] = None,
                 trace_fuse: Optional[bool] = None):
        self.block_compile = block_compile
        self.trace_fuse = trace_fuse
        self._queued: deque[_QueuedLane] = deque()
        self._added = 0

    def add(
        self,
        image,
        *,
        name: Optional[str] = None,
        hooks: Optional[RuntimeHooks] = None,
        setup: Optional[Callable[[Machine], None]] = None,
        entry: str = "main",
        args: Sequence[int] = (),
        max_instructions: int = 100_000_000,
        backend=None,
        recorder=None,
    ) -> str:
        """Queue one lane; returns its name (``lane<N>`` by default,
        ``N`` counting the lanes added so far)."""
        name = name or f"lane{self._added}"
        self._added += 1
        self._queued.append(_QueuedLane(
            name, image, hooks, setup, entry, tuple(args),
            max_instructions, backend, recorder))
        return name

    def run(self, on_lane: Optional[Callable[[BatchLane], None]] = None
            ) -> BatchResult:
        """Build, drive to halt (or terminal fault) and hand over each
        queued lane, one at a time, in ``add`` order.

        Each finished lane goes to ``on_lane``, or, without one, to the
        result's ``lanes``.  The runner keeps no reference to a lane it
        has handed over, so a caller that drops each lane holds one
        lane's machine at a time.  An exception raised by ``on_lane``
        itself is the caller's and propagates.
        """
        result = BatchResult()
        hand_over = result.lanes.append if on_lane is None else on_lane
        queued, self._queued = self._queued, deque()
        while queued:
            lane = self._run_lane(queued.popleft())
            result.compile_metrics.merge(lane.interpreter.compile_metrics)
            hand_over(lane)
            del lane
        return result

    def _run_lane(self, queued: _QueuedLane) -> BatchLane:
        """Build one lane's machine and drive it, isolating its
        failure on the lane."""
        # Deferred import: pipeline imports this package's interpreter.
        from ..pipeline import default_hooks, prepare_machine

        machine = prepare_machine(queued.image, setup=queued.setup,
                                  recorder=queued.recorder,
                                  backend=queued.backend)
        hooks = queued.hooks
        if hooks is None:
            hooks = default_hooks(machine, queued.image)
        interp = Interpreter(machine, queued.image, hooks,
                             max_instructions=queued.max_instructions,
                             block_compile=self.block_compile,
                             trace_fuse=self.trace_fuse)
        interp.start(queued.entry, queued.args)
        lane = BatchLane(name=queued.name, machine=machine,
                         interpreter=interp, hooks=interp.hooks)
        try:
            lane.halt_code = interp.resume()
        except MachineError as error:
            _drop_tracebacks(error)
            lane.error = error
        except Exception as error:  # noqa: BLE001 — isolation
            lane.error = LaneFailure(lane.name, error)
        return lane


__all__ = [
    "BatchLane",
    "BatchResult",
    "BatchRunner",
    "LaneFailure",
]
