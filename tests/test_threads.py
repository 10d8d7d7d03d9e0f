"""The worker pool and the BLAS pin that goes with it.

While hspde's pool runs, the loaded OpenBLAS runs one thread; the count
the caller had is back once the last pinned call returns or raises, and a
replica's values do not depend on the caller's BLAS thread count.
"""

import os
import sys
import threading

import numpy as np
import pytest

from hspde import _threads, convolve
from hspde.convolve import (
    RecordSpec,
    SimulationPlan,
    simulate,
    simulate_from_increments,
)
from hspde.noise import GProcess, make_cameron_martin, sample_wiener_increments
from hspde.spectral import SpectralDomain, build_laplacian_system


@pytest.fixture
def blas_at_two():
    """The caller's OpenBLAS at 2 threads, put back after the test."""
    before = _threads.blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS loaded")
    _threads.set_blas_threads(2)
    yield
    _threads.set_blas_threads(before)


def plan_d2(replicas=3, steps=300):
    """A small d=2 weights-route plan recording every grid point, the
    shape of the laplacian-d2 preset."""
    dom = SpectralDomain(2, 31, 8)
    return SimulationPlan(
        system=build_laplacian_system(dom),
        noise=make_cameron_martin(dom, theta=0.75, truncation=64),
        G=GProcess.identity(), seed=202, steps=steps, replicas=replicas,
        record=RecordSpec(space_count=31),
    )


def watch_integrate(monkeypatch, hook):
    """Route ``_Core.integrate`` through ``hook(integrate, core, block,
    out)``, which runs inside the pool."""
    real = convolve._Core.integrate
    monkeypatch.setattr(convolve._Core, "integrate",
                        lambda core, block, out: hook(real, core, block, out))


def test_map_threads_keeps_order_and_runs_serially_on_one_worker(monkeypatch):
    assert _threads.map_threads(lambda x: x * x, range(7), 3) == \
        [x * x for x in range(7)]

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(_threads, "ThreadPoolExecutor", no_pool)
    assert _threads.map_threads(str, range(3), 1) == ["0", "1", "2"]
    assert _threads.map_threads(str, [5], 4) == ["5"]


def test_default_worker_count_is_the_cpus_this_process_may_use(monkeypatch):
    # a process pinned to one CPU of a larger host starts one worker
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert _threads.worker_count(None) == _threads.worker_count(0) == 1
    assert _threads.worker_count(3) == 3
    # without an affinity call the CPU count stands in
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _threads.worker_count(None) == 8


def test_negative_worker_count_is_refused():
    # a clamp to one thread would hide the mistake
    for workers in (-1, -3):
        with pytest.raises(ValueError, match=f"got {workers}"):
            _threads.worker_count(workers)


def test_pin_is_restored_after_simulate_returns(blas_at_two, monkeypatch):
    seen = []

    def hook(integrate, core, block, out):
        seen.append(_threads.blas_threads())
        integrate(core, block, out)

    watch_integrate(monkeypatch, hook)
    simulate(plan_d2(replicas=2, steps=40), workers=2)
    simulate(plan_d2(replicas=2, steps=40), workers=1)
    simulate_from_increments(plan_d2(replicas=1, steps=40),
                             np.zeros((1, 64, 40)))
    assert seen == [1] * 4
    assert _threads.blas_threads() == 2


def test_pin_is_restored_after_a_batch_fails(blas_at_two, monkeypatch):
    calls = []

    def hook(integrate, core, block, out):
        calls.append(len(out))
        if len(calls) == 2:
            raise RuntimeError("batch failed")
        integrate(core, block, out)

    watch_integrate(monkeypatch, hook)
    with pytest.raises(RuntimeError, match="batch failed"):
        simulate(plan_d2(replicas=3, steps=40), workers=2)
    assert len(calls) == 2
    assert _threads.blas_threads() == 2


def test_pin_holds_until_the_last_concurrent_caller_leaves(blas_at_two,
                                                            monkeypatch):
    both_inside = threading.Barrier(2, timeout=60)
    first_done = threading.Event()
    seen, results, errors = [], {}, []

    def hook(integrate, core, block, out):
        integrate(core, block, out)
        both_inside.wait()
        if threading.current_thread().name == "second":
            # the first call has left the pin; this one is still inside it
            assert first_done.wait(60)
            seen.append(_threads.blas_threads())

    def call(name):
        try:
            results[name] = simulate(plan_d2(replicas=1, steps=40), workers=1)
        except Exception as err:  # reported below, in the test's thread
            errors.append(err)
            both_inside.abort()
        if name == "first":
            first_done.set()

    watch_integrate(monkeypatch, hook)
    threads = [threading.Thread(target=call, args=(name,), name=name)
               for name in ("first", "second")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
        assert not thread.is_alive()
    assert not errors
    assert seen == [1]
    assert _threads.blas_threads() == 2
    assert results["first"].values.tobytes() == \
        results["second"].values.tobytes()


def test_replica_values_independent_of_blas_threads(blas_at_two):
    # a wide recorded raster, where a 2-thread BLAS splits the synthesis
    # matmul differently from a 1-thread one
    plan = plan_d2()
    one = simulate(plan, workers=1)
    two = simulate(plan, workers=2)  # batches of 2 and 1 replicas
    assert one.provenance["route"] == "weights"
    assert one.values.tobytes() == two.values.tobytes()
    incs = np.stack([sample_wiener_increments(plan.noise, plan.time_grid,
                                              plan.seed, r)
                     for r in range(plan.replicas)])
    table = simulate_from_increments(plan, incs)
    assert table.values.tobytes() == one.values.tobytes()
    _threads.set_blas_threads(1)
    single = simulate(plan, workers=1)
    assert single.values.tobytes() == one.values.tobytes()


def test_pin_count_survives_many_racing_callers(blas_at_two):
    # more threads than cores, switching often: a lost update of the pin
    # count would leave BLAS at one thread, or restore it while a caller
    # is still inside
    inside = []

    def enter_and_leave(_):
        for _ in range(200):
            with _threads.one_blas_thread():
                with _threads.one_blas_thread():
                    inside.append(_threads.blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_and_leave, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert inside == [1] * 1600
    assert _threads.blas_threads() == 2
