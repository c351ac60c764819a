"""Shared fixtures and mini-firmware builders for the test suite."""

from __future__ import annotations

import os

import pytest

# Tests always run the downscaled workload profiles.
os.environ.setdefault("REPRO_PROFILE", "quick")

import repro.ir as ir
from repro.hw import Machine, stm32f4_discovery
from repro.partition import OperationSpec


@pytest.fixture(scope="session", autouse=True)
def session_cache_dir(tmp_path_factory):
    """Point the artifact cache at a session-scoped directory.

    Every test in the session shares one store — expensive app builds
    and runs are paid for once — while the repository's ``.repro-cache``
    stays untouched.  An externally provided ``REPRO_CACHE`` (CI's
    persisted directory, or ``off``) takes precedence.
    """
    if "REPRO_CACHE" not in os.environ:
        os.environ["REPRO_CACHE"] = str(
            tmp_path_factory.mktemp("repro-cache"))
    yield os.environ["REPRO_CACHE"]


@pytest.fixture
def no_artifact_store(monkeypatch):
    """Disable the persistent store for tests that assert cold-compile
    counters — the closure cache would otherwise satisfy them warmly
    from a bundle some earlier test (or CI run) saved."""
    monkeypatch.setenv("REPRO_CACHE", "off")


@pytest.fixture
def no_workers_or_simulation(monkeypatch):
    """Make starting a process pool, or simulating anything, raise: a
    warm fan-out must serve every entry in the calling process."""
    import concurrent.futures

    from repro import pipeline
    from repro.eval import tracing, workloads
    from repro.interp.batch import BatchRunner
    from repro.interp.interpreter import Interpreter

    def forbidden(*args, **kwargs):
        raise AssertionError("started a worker pool or a simulation")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    for module in (pipeline, workloads, tracing):
        monkeypatch.setattr(module, "run_image", forbidden)
    monkeypatch.setattr(BatchRunner, "run", forbidden)
    monkeypatch.setattr(Interpreter, "start", forbidden)


def build_mini_module(*, shared_value: int = 7) -> ir.Module:
    """Two tasks sharing a counter; task_a owns a secret, task_b a blob.

    The canonical test firmware: main calls task_a, task_b, task_a and
    halts with the final counter value (3 * shared_value * ... see
    body).  Used across partition/image/runtime tests.
    """
    module = ir.Module("mini")
    counter = module.add_global("counter", ir.I32, 0)
    secret = module.add_global("secret", ir.I32, shared_value)
    module.add_global("blob", ir.array(ir.I32, 8))

    task_a, b = ir.define(module, "task_a", ir.VOID, [], source_file="a.c")
    value = b.load(counter)
    bump = b.load(secret)
    b.store(b.add(value, bump), counter)
    b.ret_void()

    task_b, b = ir.define(module, "task_b", ir.VOID, [], source_file="b.c")
    value = b.load(counter)
    slot = b.gep(module.get_global("blob"), 0, 0)
    b.store(value, slot)
    b.ret_void()

    main, b = ir.define(module, "main", ir.I32, [], source_file="main.c")
    b.call(task_a)
    b.call(task_b)
    b.call(task_a)
    b.halt(b.load(counter))
    return module


MINI_SPECS = [OperationSpec("task_a"), OperationSpec("task_b")]
MINI_HALT_CODE = 14  # counter after two task_a increments of 7


@pytest.fixture
def mini_module() -> ir.Module:
    return build_mini_module()


@pytest.fixture
def board():
    return stm32f4_discovery()


@pytest.fixture
def machine(board) -> Machine:
    return Machine(board)


@pytest.fixture
def builder():
    """A fresh function + IRBuilder in a throwaway module."""
    module = ir.Module("t")
    func, b = ir.define(module, "f", ir.I32, [])
    return module, func, b
