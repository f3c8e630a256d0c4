"""Workload and job abstractions.

A *job* is one client request (a database transaction, a lookup, ...).
Executing a job produces a sequence of :data:`Step` tuples
``(compute_ns, page, is_write)``: a compute segment (nanoseconds the
core spends before the next memory access that reaches DRAM) followed
by one page access.  The core loop advances through the steps; when a
step's page misses the DRAM cache the thread halts and the same step is
replayed after the refill.

Steps are plain tuples rather than objects because they are the
simulator's highest-volume value: every access of every job builds one,
and the consumers (runner loops, warm-up, vector planners) unpack all
three fields at once.  A tuple display costs no ``__init__`` frame, and
unpacking it costs no attribute lookups.

Workloads own their data structures and produce jobs; they also declare
the knobs the core model needs (typical ROB occupancy for the flush
penalty — TPCC's compute-heavy window makes flushes costlier,
Sec. VI-A).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from repro.errors import WorkloadError

#: One compute segment followed by one memory access, in field order
#: ``(compute_ns, page, is_write)``: ``compute_ns`` is a float (ns of
#: compute before the access), ``page`` the logical page touched, and
#: ``is_write`` True for a store.  Producers yield tuple displays;
#: consumers unpack ``compute_ns, page, is_write = step``.
Step = Tuple[float, int, bool]


class Job:
    """One request: an iterator of steps plus latency bookkeeping.

    ``steps`` is the job's :data:`Step` iterator; consumers pull it
    directly with a ``for`` loop.
    """

    __slots__ = ("job_id", "workload_name", "steps", "arrived_at",
                 "started_at", "finished_at", "queue_latency_ns",
                 "service_latency_ns", "misses")

    def __init__(self, job_id: int, workload_name: str,
                 steps: Iterator[Step]) -> None:
        self.job_id = job_id
        self.workload_name = workload_name
        self.steps = steps
        self.arrived_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.queue_latency_ns: Optional[float] = None
        self.service_latency_ns: Optional[float] = None
        self.misses = 0

    @property
    def response_latency_ns(self) -> float:
        """Queueing + service (the client-observed latency)."""
        if self.finished_at is None or self.arrived_at is None:
            raise WorkloadError("job not finished")
        return self.finished_at - self.arrived_at

    def __repr__(self) -> str:
        return f"<Job {self.workload_name}#{self.job_id}>"


class Workload:
    """Base class for the evaluated applications."""

    #: Registry name; subclasses override.
    name = "base"
    #: Typical ROB occupancy when a miss signal flushes the pipeline.
    rob_occupancy = 64.0

    def __init__(self, dataset_pages: int, seed: int = 42) -> None:
        if dataset_pages < 1:
            raise WorkloadError("dataset needs at least one page")
        self.dataset_pages = dataset_pages
        self.seed = seed
        self._rng = random.Random(seed)
        # Bound method: step producers draw one compute jitter per
        # step, inlined as ``mean_ns * (0.5 + rng_random())`` — a
        # segment uniform within +-50% of the mean.  With these bounds
        # the stdlib's ``uniform(0.5, 1.5)`` computes
        # ``0.5 + (1.5 - 0.5) * random()`` where the span is exactly
        # 1.0, so ``0.5 + random()`` consumes the same draw and yields
        # the same bits, one call frame cheaper per step.
        self._rng_random = self._rng.random
        self._next_job_id = 0
        # Lazily-created buffered RNG bridge for numpy planners
        # (repro.sim.vector.BatchedRandom); see _planner_rng().
        self._vector_rng = None

    # -- job production -----------------------------------------------------

    def make_job(self) -> Job:
        """Create one request (thread-safe within the single-threaded
        simulation)."""
        job_id = self._next_job_id
        self._next_job_id += 1
        return Job(job_id, self.name, self._steps_for_job(job_id))

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        raise NotImplementedError

    # -- vector-backend planning (repro.sim.vector) ---------------------------

    def plan_steps(self, job: "Job"):
        """Materialize ``job``'s steps as parallel columns.

        Returns ``(compute_ns, pages, is_write)`` — plain Python lists
        (no numpy scalars: pages flow into dict keys and state dumps
        that must repr identically to the scalar path).  The base
        implementation drains the job's own generator, so the RNG
        draws are the scalar draws by construction; subclasses with
        block-drawable streams (see
        :meth:`repro.workloads.arrayswap.ArraySwapWorkload.plan_steps`)
        override it with a numpy planner that consumes the same
        streams in the same order.  The job's step iterator is spent
        afterwards; the vector backend executes from the columns.
        """
        compute: List[float] = []
        pages: List[int] = []
        writes: List[bool] = []
        for compute_ns, page, is_write in job.steps:
            compute.append(compute_ns)
            pages.append(page)
            writes.append(is_write)
        return compute, pages, writes

    def _planner_rng(self):
        """Persistent buffered bridge over ``self._rng`` for numpy
        planners.  Amortizes the Mersenne-Twister state transplant
        across jobs; the vector backend calls :meth:`plan_sync` at end
        of run to land the Python stream on the consumed position."""
        rng = self._vector_rng
        if rng is None:
            from repro.sim.vector import BatchedRandom

            rng = self._vector_rng = BatchedRandom(self._rng)
        return rng

    def plan_sync(self) -> None:
        """Resynchronize ``self._rng`` after buffered planner draws."""
        if self._vector_rng is not None:
            self._vector_rng.sync()

    # -- calibration helpers -------------------------------------------------

    def sample_trace(self, num_jobs: int = 32) -> List[Step]:
        """Flat step trace of a few jobs (calibration/tests)."""
        steps: List[Step] = []
        for _ in range(num_jobs):
            steps.extend(self.make_job().steps)
        return steps

    def average_service_time_ns(self, num_jobs: int = 64) -> float:
        """Mean sum of a job's compute segments, in ns, over
        ``num_jobs`` fresh jobs.  Memory accesses are not charged: no
        DRAM-hit, cache or flash latency is added."""
        total = 0.0
        for _ in range(num_jobs):
            for compute_ns, _page, _is_write in self.make_job().steps:
                total += compute_ns
        return total / num_jobs
