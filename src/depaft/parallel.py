"""The one process-pool path, shared by the study runner and the CV search.

Both map a function over independent jobs whose results do not depend
on where they ran, so a caller's outputs are the same for any worker
count.  Pools are never nested: a job that runs on a pool maps its own
work in-process.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

from .errors import ConfigError, number


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (so `taskset` narrows it), else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def positive_count(value, what: str) -> int:
    """value as number() reads it, if that is at least 1, else ConfigError
    naming `what`: a worker count, or grid_search's patience."""
    count = number(value, int, what)
    if count < 1:
        raise ConfigError(f"{what} must be a positive integer, got {value!r}")
    return count


@contextmanager
def task_map(workers: int, jobs: int):
    """A map over a pool of min(workers, jobs) processes, or, when that
    is at most one, the built-in map in this process with no pool.  Never
    more processes than jobs: every pool process starts up front.

    The map yields results in job order; an exception a job raises in a
    pool process is raised again here, with its own type."""
    size = min(workers, jobs)
    if size <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=size) as pool:
        yield pool.map
