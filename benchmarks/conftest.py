"""Shared benchmark helpers.

Each benchmark regenerates one figure/table of the paper and prints the
rows/series the paper plots (run with ``pytest benchmarks/ --benchmark-only
-s`` to see them).  Benchmarks execute their experiment exactly once via
``benchmark.pedantic`` — the measured quantity is the experiment itself, not
a microbenchmark loop.

All benchmarks are marked ``bench`` (select with ``-m bench``).  Every
simulation and model-checker run they make goes through a shared harness
:class:`~repro.harness.Executor` (none builds a ``Machine`` itself), so in
every benchmark

* ``REPRO_JOBS=N`` parallelizes the sweep across N workers,
* repeated invocations recall finished runs from the on-disk cache
  (``REPRO_CACHE_DIR``, default ``.repro-cache``) instead of re-simulating,
  and ``REPRO_NO_CACHE=1`` turns that cache off.
"""

import os

import pytest

from repro.harness import Executor, default_cache_dir, format_table
from repro.harness import set_default_executor


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session", autouse=True)
def shared_executor():
    """Install a session-wide executor for every harness call.

    Caching means a re-run of the benchmark suite (same code, same specs)
    performs zero new simulations; set ``REPRO_NO_CACHE=1`` to disable.
    """
    cache_dir = (None if os.environ.get("REPRO_NO_CACHE")
                 else default_cache_dir())
    executor = Executor(
        jobs=int(os.environ.get("REPRO_JOBS", "1")),
        cache_dir=cache_dir,
        run_log=os.environ.get("REPRO_RUN_LOG"),
    )
    previous = set_default_executor(executor)
    yield executor
    set_default_executor(previous)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment once under pytest-benchmark and return its rows."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)


def show(title, rows):
    print(f"\n== {title} ==")
    print(format_table(rows))
