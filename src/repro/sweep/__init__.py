"""``repro.sweep`` — parallel sweep engine with content-addressed caching.

The shared machinery under every figure driver (see
``docs/performance.md``): a sweep decomposes into pure, picklable
:class:`WorkUnit` values, identical units collapse before dispatch,
cached results are reused from a content-addressed on-disk store, and
the remainder fans out over a process pool — with ``jobs=1``
bit-identical to the historical serial loops.

Typical use::

    from repro.sweep import ResultCache, RandomDagSpec, WorkUnit, run_units

    units = [
        WorkUnit("fig8", x=n, instance=i, algorithm="hios-lp",
                 spec=RandomDagSpec(seed=i, num_ops=n),
                 schedule_kwargs=(("window", 3),))
        for n in (100, 200) for i in range(3)
    ]
    payloads, stats = run_units(units, jobs=8, cache=ResultCache())
"""

from .cache import CACHE_FORMAT, ContentStore, ResultCache, default_cache_dir
from .executor import SweepError, SweepStats, resolve_jobs, run_units
from .keying import CACHE_SCHEMA_VERSION, canonical_json, content_key
from .progress import SweepProgress
from .schedcache import (
    SCHED_CACHE_FORMAT,
    SCHED_CACHE_KIND,
    ScheduleCache,
    cached_schedule,
    schedule_key,
)
from .units import (
    SINGLE_GPU_ALGORITHMS,
    UNIT_KINDS,
    RandomDagSpec,
    RealModelSpec,
    WorkUnit,
    clear_workload_memo,
    execute_batch,
    execute_unit,
    replay_unit_trace,
)

__all__ = [
    "CACHE_FORMAT",
    "CACHE_SCHEMA_VERSION",
    "ContentStore",
    "RandomDagSpec",
    "RealModelSpec",
    "ResultCache",
    "SCHED_CACHE_FORMAT",
    "SCHED_CACHE_KIND",
    "ScheduleCache",
    "SINGLE_GPU_ALGORITHMS",
    "SweepError",
    "SweepProgress",
    "SweepStats",
    "UNIT_KINDS",
    "WorkUnit",
    "cached_schedule",
    "canonical_json",
    "clear_workload_memo",
    "content_key",
    "default_cache_dir",
    "execute_batch",
    "execute_unit",
    "schedule_key",
    "replay_unit_trace",
    "resolve_jobs",
    "run_units",
]
