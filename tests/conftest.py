import concurrent.futures

import pytest

from modwind import bulk


@pytest.fixture
def real_pool(monkeypatch):
    """bulk starts a real process pool for any work on two or more shards:
    four usable CPUs, and no start-up cost to pay for.  Returns the list
    of worker processes each pool started, appended as the pool closes."""
    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __exit__(self, *exc):
            started.append(len(self._processes))
            return super().__exit__(*exc)

    monkeypatch.setattr(bulk.os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setattr(bulk, "_POOL_START_S", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return started
