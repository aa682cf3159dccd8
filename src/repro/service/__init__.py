"""Open-system scheduler-as-a-service on top of the multicore sim.

The paper evaluates *closed* multiprogram mixes: one fixed set of
applications per run.  This package adds the production-shaped view --
an **open system** where jobs arrive over (virtual) time, wait in a
bounded admission queue, get placed and migrated online by the
existing sampling schedulers, and depart when their instruction budget
completes:

* :mod:`repro.service.arrivals` -- seeded, deterministic arrival
  processes (Poisson, bursty/MMPP, diurnal) producing
  :class:`JobArrival` streams drawn from the canonical workload mixes.
* :mod:`repro.service.queue` / :mod:`repro.service.admission` -- the
  bounded admission queue and its policies (FIFO, SSER-aware
  priority), with overload shedding and SLA deadline expiry.
* :mod:`repro.service.placement` -- per-quantum online placement that
  reuses the paper's greedy pair-swap optimizer over *slots* (cores)
  instead of a fixed application list.
* :mod:`repro.service.server` -- the :class:`OpenSystem` virtual-time
  quantum loop plus the asyncio :class:`SchedulerService` protocol
  front-end (``repro serve``).
* :mod:`repro.service.events` -- the streaming JSONL event feed
  (arrive/shed/start/migrate/depart) in pure virtual time, so the
  feed is byte-identical across runs and worker counts.
* :mod:`repro.service.load` -- the closed-loop load generator behind
  ``repro load`` (queueing-delay-vs-SSER curves).

Everything is seed-deterministic: ``repro.check``'s
``open_system_conservation`` invariant and ``--service-cases``
differential fuzzing pin the event stream across in-process and
worker-process runs of a load point.
"""

from repro.service.admission import (
    ADMISSION_POLICIES,
    AdmissionPolicy,
    FifoAdmission,
    SserPriorityAdmission,
    make_admission,
)
from repro.service.arrivals import (
    ARRIVAL_PROCESSES,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    JobArrival,
    PoissonArrivals,
    make_process,
    service_benchmark_pool,
)
from repro.service.events import ServiceFeed, feed_digest
from repro.service.load import LoadPoint, run_load_point
from repro.service.placement import SlotPlacer
from repro.service.queue import AdmissionQueue, QueuedJob
from repro.service.server import (
    OpenSystem,
    SchedulerService,
    ServiceConfig,
    ServiceJob,
    ServiceResult,
)

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_PROCESSES",
    "AdmissionPolicy",
    "AdmissionQueue",
    "ArrivalProcess",
    "BurstyArrivals",
    "DiurnalArrivals",
    "FifoAdmission",
    "JobArrival",
    "LoadPoint",
    "OpenSystem",
    "PoissonArrivals",
    "QueuedJob",
    "SchedulerService",
    "ServiceConfig",
    "ServiceFeed",
    "ServiceJob",
    "ServiceResult",
    "SlotPlacer",
    "SserPriorityAdmission",
    "feed_digest",
    "make_admission",
    "make_process",
    "run_load_point",
    "service_benchmark_pool",
]
