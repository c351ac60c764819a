"""Runtime hook interface between the interpreter and a monitor.

A build flavour (vanilla / OPEC / ACES) plugs in by subclassing
:class:`RuntimeHooks`.  The interpreter consults the hooks exactly
where the hardware would transfer control to privileged software:

* before/after calls to functions the build instrumented (operation
  entries for OPEC, compartment-crossing edges for ACES) — the SVC
  path of §4.4/§5.3;
* on a MemManage fault (peripheral MPU-region virtualisation, §5.2);
* on a BusFault from unprivileged PPB access (core-peripheral
  emulation, §5.2);
* when resolving a global variable's address (the variable relocation
  table indirection the instrumentation inserts, §4.4).

A runtime may also vouch that one more switch pair around a polled
device accessor is a pure replay, letting the device-wait
fast-forward skip such polls (:meth:`RuntimeHooks.switch_pair_cycles`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..hw.exceptions import BusFault, MemManageFault
from ..ir.function import Function
from ..ir.values import GlobalVariable

if TYPE_CHECKING:
    from .interpreter import Interpreter


class RuntimeHooks:
    """Default hooks: a vanilla build — no isolation, all privileged."""

    def on_reset(self, interp: "Interpreter") -> None:
        """Called once before ``main`` starts (monitor init, §5.1)."""

    def global_address(self, interp: "Interpreter", gvar: GlobalVariable) -> int:
        """Resolve a global's address (may go through the reloc table)."""
        return interp.image.global_address(gvar)

    def before_call(self, interp: "Interpreter", callee: Function,
                    args: list[int]) -> list[int]:
        """Called before a direct/indirect call; may rewrite ``args``
        (OPEC's stack-argument relocation, §5.2) after a domain switch."""
        return args

    def after_return(self, interp: "Interpreter", callee: Function) -> None:
        """Called after a call instrumented by :meth:`before_call`
        returns (the exit-side SVC)."""

    def is_switch_point(self, interp: "Interpreter", callee: Function) -> bool:
        """Whether a call to ``callee`` crosses a domain boundary."""
        return False

    def switch_pair_cycles(self, interp: "Interpreter",
                           callee: Function) -> Optional[int]:
        """Cycles one more :meth:`before_call`/:meth:`after_return` pair
        for ``callee`` charges, or ``None`` (the default) to refuse.

        The device-wait fast-forward asks this right after a real pair
        for the switch point ``callee`` returned, with the thread state
        back where that pair started.  Returning a count vouches that
        the pair is a pure replay: it charges exactly that many cycles,
        leaves every piece of state it touches at its pre-call value,
        changes nothing else but the runtime's own counts (see
        :meth:`skip_switch_pairs`), and every fault it lets the callee
        take costs cycles or ends the run — so an iteration that
        charged only the span, both SVCs and this count ran no handler.
        """
        return None

    def skip_switch_pairs(self, interp: "Interpreter", callee: Function,
                          k: int) -> None:
        """Account for ``k`` pairs for ``callee`` the fast-forward skipped
        after :meth:`switch_pair_cycles` vouched for them: advance the
        runtime's own counts as ``k`` real pairs would.  The interpreter
        charges their cycles and ``svc_calls`` itself."""

    def handle_memmanage(self, interp: "Interpreter", fault: MemManageFault):
        """MemManage handler.  Return values:

        * ``False`` — unhandled: the fault escalates;
        * ``True`` — fixed up (e.g. an MPU region was mapped in):
          the faulting access is retried;
        * ``("emulated", value)`` — the handler performed the access
          itself (ACES' micro-emulator, §5.2): for a load ``value`` is
          the result, for a store it is ignored.
        """
        return False

    def handle_busfault(self, interp: "Interpreter",
                        fault: BusFault) -> Optional[int]:
        """BusFault handler.  For an emulated *load* return the value;
        for an emulated *store* return any int (e.g. 0) to signal the
        store was performed.  ``None`` means unhandled → HardFault."""
        return None

    def on_halt(self, interp: "Interpreter", code: int) -> None:
        """Called when the firmware halts."""
