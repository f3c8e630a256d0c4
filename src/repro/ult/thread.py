"""User-level thread contexts (Sec. IV-D1).

Each physical core runs a user-level scheduler that executes jobs on a
bounded pool of worker-thread contexts (the paper spawns 32-64 per
core).  A context is tiny — saved general-purpose registers plus the
AstriFlash resume register — which is what makes the 100 ns switch
possible.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional

from repro.errors import ProtocolError


class ThreadState(Enum):
    NEW = "new"            # job assigned, never scheduled
    RUNNING = "running"    # executing on the core
    PENDING = "pending"    # halted on a DRAM-cache miss, waiting for flash
    READY = "ready"        # flash data arrived, waiting to be rescheduled
    DONE = "done"          # job finished, context free


class UserThread:
    """One worker-thread context bound to one job at a time."""

    __slots__ = ("thread_id", "core_id", "state", "job", "spawned_at",
                 "pending_since", "data_ready_at", "miss_page",
                 "forward_progress", "switches", "current_step",
                 "wait_signal")

    def __init__(self, thread_id: int, core_id: int) -> None:
        self.thread_id = thread_id
        self.core_id = core_id
        self.state = ThreadState.DONE  # free until a job is bound
        self.job: Optional[Any] = None
        self.spawned_at = 0.0
        self.pending_since: Optional[float] = None
        self.data_ready_at: Optional[float] = None
        self.miss_page: Optional[int] = None
        # Set when the scheduler forces this thread to retire at least
        # one instruction on its next dispatch (Sec. IV-C3).
        self.forward_progress = False
        self.switches = 0
        # Runner-facing state: the step a parked thread replays on its
        # next dispatch and the install signal it is parked on.
        self.current_step = None
        self.wait_signal = None

    # -- lifecycle ------------------------------------------------------------

    def bind(self, job: Any, now: float) -> None:
        """Assign a new job to this (free) context."""
        if self.state is not ThreadState.DONE:
            raise ProtocolError(f"binding job to busy thread {self.thread_id}")
        self.job = job
        self.state = ThreadState.NEW
        self.spawned_at = now
        self.pending_since = None
        self.data_ready_at = None
        self.miss_page = None
        self.forward_progress = False
        self.current_step = None
        self.wait_signal = None

    def dispatch(self) -> None:
        """The scheduler switched this thread onto the core."""
        if self.state not in (ThreadState.NEW, ThreadState.READY,
                              ThreadState.PENDING):
            raise ProtocolError(
                f"dispatch of thread {self.thread_id} in state {self.state}"
            )
        self.state = ThreadState.RUNNING
        self.switches += 1

    def halt_on_miss(self, page: int, now: float) -> None:
        """A DRAM-cache miss descheduled this thread (Sec. IV-D1)."""
        if self.state is not ThreadState.RUNNING:
            raise ProtocolError("halt of a thread that is not running")
        self.state = ThreadState.PENDING
        self.pending_since = now
        self.data_ready_at = None
        self.miss_page = page

    def data_arrived(self, now: float) -> None:
        """The flash refill for the missed page landed."""
        if self.state is not ThreadState.PENDING:
            raise ProtocolError("data arrival for a thread that is not pending")
        self.state = ThreadState.READY
        self.data_ready_at = now

    def finish(self) -> Any:
        """The job ran to completion; the context becomes free."""
        if self.state is not ThreadState.RUNNING:
            raise ProtocolError("finish of a thread that is not running")
        job, self.job = self.job, None
        self.state = ThreadState.DONE
        return job

    # -- scheduler queries --------------------------------------------------------

    def pending_age(self, now: float) -> float:
        """Time spent in the pending queue (aging input, Sec. IV-D2)."""
        if self.pending_since is None:
            raise ProtocolError("pending_age of a thread that never halted")
        return now - self.pending_since

    def __repr__(self) -> str:
        return (
            f"<UserThread {self.core_id}.{self.thread_id} "
            f"{self.state.value}>"
        )
