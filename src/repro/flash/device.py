"""NAND flash device model.

The device exposes page-granularity reads and writes with the paper's
latencies (50 us reads, Sec. II) behind a PCIe link.  Internally it has
``channels x dies x planes`` independent plane servers plus per-channel
buses; requests queue at their plane, so concurrent misses spread over
the geometry and a hot plane (or one busy with GC) produces the
queueing tails the paper's backside controller must tolerate.

Reads of never-written pages model the pristine memory-mapped dataset:
they are served from the striped layout without FTL allocation.
Writes go through the :class:`~repro.flash.ftl.PageMappingFtl` and can
trigger garbage collection.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config.system import FaultConfig, FlashConfig, WritesConfig
from repro.errors import CapacityError, ConfigurationError
from repro.faults.plan import FaultPlan
from repro.flash.ftl import PageMappingFtl
from repro.flash.gc import GarbageCollector
from repro.flash.pcie import PCIeLink
from repro.obs.tracer import active as _tracer_active
from repro.sim import Engine, Server, Signal, spawn
from repro.stats import CounterSet, LatencyTracker


class FlashRequest:
    """One read or write travelling through the device."""

    __slots__ = ("kind", "logical_page", "issue_time", "complete_time",
                 "blocked_by_gc", "plane_index", "signal", "num_bytes",
                 "failed")

    READ = "read"
    WRITE = "write"

    def __init__(self, kind: str, logical_page: int, issue_time: float,
                 signal: Signal) -> None:
        self.kind = kind
        self.logical_page = logical_page
        self.issue_time = issue_time
        self.complete_time: Optional[float] = None
        self.blocked_by_gc = False
        self.plane_index: Optional[int] = None
        self.signal = signal
        self.num_bytes: Optional[int] = None
        # True when fault injection declared the page uncorrectable:
        # the signal still fires (with this request) so the consumer
        # can count the failure and reissue.
        self.failed = False

    @property
    def latency_ns(self) -> float:
        if self.complete_time is None:
            raise ValueError("request not complete yet")
        return self.complete_time - self.issue_time

    def __repr__(self) -> str:
        return f"<FlashRequest {self.kind} page={self.logical_page}>"


class FlashDevice:
    """The SSD: geometry, FTL, GC and a PCIe front end."""

    def __init__(self, engine: Engine, config: FlashConfig,
                 num_logical_pages: int,
                 faults: Optional[FaultConfig] = None,
                 writes: Optional[WritesConfig] = None) -> None:
        if num_logical_pages < 1:
            raise ConfigurationError("flash needs at least one logical page")
        self.engine = engine
        self.config = config
        self.num_logical_pages = num_logical_pages

        self.ftl = PageMappingFtl(
            num_logical_pages=num_logical_pages,
            num_planes=config.num_planes,
            pages_per_block=config.pages_per_block,
            overprovisioning=config.overprovisioning,
        )
        self.planes: List[Server] = [
            Server(engine, capacity=1, name=f"plane{i}")
            for i in range(config.num_planes)
        ]
        self.channels: List[Server] = [
            Server(engine, capacity=1, name=f"channel{i}")
            for i in range(config.channels)
        ]
        self.pcie = PCIeLink(
            engine, config.pcie_bandwidth_gbps, config.pcie_latency_ns
        )
        self.gc = GarbageCollector(self)
        # Fault injection (DESIGN.md §4f): None unless explicitly
        # enabled, so the default read path stays byte-identical to the
        # golden fixtures.  The plan owns its RNG streams.
        self.faults: Optional[FaultPlan] = None
        if faults is not None and faults.enabled:
            self.faults = FaultPlan(faults, config.num_planes, self.ftl)
        # Write-path accounting (DESIGN.md §4j): None unless explicitly
        # enabled, so the default path adds no counters and stays
        # byte-identical to the golden fixtures.  Holding the config
        # (not a plan object) is enough — the write path itself is
        # always modelled; enablement only turns on the host/device
        # write bookkeeping and the BC admission policies.
        self.writes: Optional[WritesConfig] = None
        if writes is not None and writes.enabled:
            self.writes = writes
        # Device-side write cache: writes are acknowledged once
        # buffered; a background drain programs them to the planes.
        self.write_buffer = Server(engine, capacity=config.write_buffer_pages,
                                   name="write-buffer")
        self.stats = CounterSet("flash")
        self._tracer = _tracer_active()
        self.read_latency = LatencyTracker(exact=False, name="flash-read")
        self.read_latency.start_measurement()
        # Per-channel bus time to move one page at ~2 GB/s per channel.
        self._channel_transfer_ns = config.page_size / 2.0

    # -- public API -----------------------------------------------------------

    def read(self, logical_page: int,
             num_bytes: Optional[int] = None) -> Signal:
        """Issue a page read; the returned signal fires with the
        completed :class:`FlashRequest`.

        ``num_bytes`` below the page size models footprint-style
        partial fetches: NAND sensing still reads the full page inside
        the die, but only the requested bytes occupy the channel and
        PCIe link, which is where the bandwidth saving comes from.
        """
        if num_bytes is None:
            num_bytes = self.config.page_size
        if not 0 < num_bytes <= self.config.page_size:
            raise ConfigurationError(
                f"read size {num_bytes} outside (0, page_size]"
            )
        signal = Signal(self.engine, f"flash-read:{logical_page}")
        request = FlashRequest(
            FlashRequest.READ, logical_page, self.engine.now, signal
        )
        request.num_bytes = num_bytes
        spawn(self.engine, self._read_process(request),
              name=f"flash-read:{logical_page}")
        return signal

    def write(self, logical_page: int) -> Signal:
        """Issue a 4 KiB page program (e.g. a dirty-page writeback)."""
        signal = Signal(self.engine, f"flash-write:{logical_page}")
        request = FlashRequest(
            FlashRequest.WRITE, logical_page, self.engine.now, signal
        )
        spawn(self.engine, self._write_process(request),
              name=f"flash-write:{logical_page}")
        return signal

    def average_read_latency_ns(self) -> float:
        """Mean observed read latency (used by the ULT aging policy)."""
        if self.read_latency.count == 0:
            return self.config.read_latency_ns
        return self.read_latency.mean()

    # -- internals -------------------------------------------------------------

    def _channel_of(self, plane_index: int) -> Server:
        planes_per_channel = (
            self.config.dies_per_channel * self.config.planes_per_die
        )
        return self.channels[plane_index // planes_per_channel]

    def _start_request(self, request: FlashRequest) -> Server:
        # Writes arrive placed (the FTL picked their plane); reads
        # resolve theirs here.
        plane_index = request.plane_index
        if plane_index is None:
            plane_index = self.ftl.plane_of(request.logical_page)
            request.plane_index = plane_index
        self.stats.add("requests")
        self.stats.add(f"{request.kind}s")
        if self.gc.plane_collecting(plane_index):
            request.blocked_by_gc = True
            self.stats.add("requests_blocked_by_gc")
        return self.planes[plane_index]

    def _read_process(self, request: FlashRequest):
        if self.faults is not None:
            yield from self._read_process_faulted(request)
            return
        plane = self._start_request(request)
        # Reads jump ahead of queued background programs (the
        # program-suspend-read priority of modern NAND controllers).
        grant = plane.acquire(high_priority=True)
        if grant is not None:
            yield grant
        tracer = self._tracer
        if tracer is not None:
            sense_start = self.engine.now
        yield self.config.read_latency_ns  # NAND sensing
        plane.release()
        if tracer is not None:
            tracer.complete(f"flash{request.plane_index}", "read",
                            sense_start, self.engine.now,
                            {"page": request.logical_page})
        yield from self._finish_read(request)

    def _finish_read(self, request: FlashRequest):
        """Post-sense read tail: channel burst, PCIe, completion."""
        num_bytes = request.num_bytes or self.config.page_size
        channel = self._channel_of(request.plane_index)
        grant = channel.acquire()
        if grant is not None:
            yield grant
        yield self._channel_transfer_ns * (num_bytes / self.config.page_size)
        channel.release()
        yield from self.pcie.transfer(num_bytes)
        request.complete_time = self.engine.now
        self.read_latency.record(request.latency_ns)
        request.signal.fire(request)

    def _read_process_faulted(self, request: FlashRequest):
        """Read path under fault injection (DESIGN.md §4f).

        The FaultPlan decides the read's fate up front; the process
        then charges the matching latencies: escalating-sense retry
        rounds while holding the plane, slow-plane multipliers,
        transient plane hangs (the completion fires *late* rather than
        never, so consumers without timeout machinery just see a slow
        read), uncorrectable pages (signal fires with
        ``request.failed`` set and no data transfer), and — once the
        plan marks a plane failing — the degraded mirror path that
        bypasses the plane entirely.
        """
        faults = self.faults
        plane = self._start_request(request)
        plane_index = request.plane_index
        tracer = self._tracer

        if faults.plane_failing(plane_index):
            # Graceful degradation: the failing plane is out of the
            # read path; its pages are served synchronously from the
            # mirror/remap copy at a degraded latency.  No plane
            # queueing (the mirror is uncontended by construction) but
            # the channel/PCIe tail is still paid.
            self.stats.add("degraded_reads")
            mirror_start = self.engine.now
            yield (self.config.read_latency_ns
                   * faults.config.degraded_read_multiplier)
            if tracer is not None:
                tracer.complete(f"flash{plane_index}", "degraded_read",
                                mirror_start, self.engine.now,
                                {"page": request.logical_page})
            yield from self._finish_read(request)
            return

        outcome = faults.read_outcome(plane_index, request.logical_page)
        grant = plane.acquire(high_priority=True)
        if grant is not None:
            yield grant
        sense_start = self.engine.now
        sense_ns = self.config.read_latency_ns * outcome.sense_multiplier
        if outcome.sense_multiplier != 1.0:
            self.stats.add("slow_plane_reads")
        yield sense_ns  # first NAND sense
        backoff = faults.config.read_retry_backoff
        for round_index in range(1, outcome.retry_rounds + 1):
            # Shifted-Vref re-read: each round senses again, slower.
            retry_start = self.engine.now
            self.stats.add("read_retries")
            yield sense_ns * (1.0 + backoff * round_index)
            if tracer is not None:
                tracer.complete(f"flash{plane_index}", "read_retry",
                                retry_start, self.engine.now,
                                {"page": request.logical_page,
                                 "round": round_index})
        if outcome.timeout_stall:
            # Transient plane/channel hang: the die stops responding
            # for a while but the operation eventually completes, so
            # the plane stays held (co-located reads queue behind the
            # hang — the plane-level outlier the BC must tolerate).
            self.stats.add("timeout_stalls")
            yield (self.config.read_latency_ns
                   * faults.config.timeout_stall_factor)
        plane.release()
        if tracer is not None:
            tracer.complete(f"flash{plane_index}", "read",
                            sense_start, self.engine.now,
                            {"page": request.logical_page,
                             "retries": outcome.retry_rounds})
        if outcome.retry_rounds and not outcome.uncorrectable:
            self.stats.add("ecc_recovered_reads")
        if outcome.uncorrectable:
            # ECC gave up inside the die: no data crosses the channel;
            # the consumer sees the failure and decides (the BC
            # reissues, capped by DeviceFailedError).
            self.stats.add("uncorrectable_reads")
            request.failed = True
            request.complete_time = self.engine.now
            request.signal.fire(request)
            return
        yield from self._finish_read(request)

    def _write_process(self, request: FlashRequest):
        # Host-to-device transfer, then admission to the write cache.
        yield from self.pcie.transfer(self.config.page_size)
        grant = self.write_buffer.acquire()
        if grant is not None:
            # Write cache full: the host sees backpressure.
            self.stats.add("write_buffer_stalls")
            yield grant
        # Foreground GC backpressure: if the target plane is down to
        # its reserve block the write stalls until GC reclaims space.
        target_plane = self.ftl.plane_of(request.logical_page)
        stalls = 0
        while self.ftl.gc_pressure(target_plane):
            self.gc.maybe_collect(target_plane)
            self.stats.add("write_gc_stalls")
            # Only hopeless stalls count toward the capacity abort:
            # while the plane still holds reclaimable garbage (or a GC
            # pass is mid-flight) the writer is merely queued behind
            # GC, and under a write burst many writers legitimately
            # wait several passes for a free page.
            if (self.gc.plane_collecting(target_plane)
                    or self.ftl.has_reclaimable(target_plane)):
                stalls = 0
            stalls += 1
            if stalls > 64:
                raise CapacityError(
                    f"plane {target_plane} cannot reclaim space: "
                    "logical capacity exceeds physical minus reserve"
                )
            yield self.config.erase_latency_ns / 4
        plane_index = self.ftl.write(request.logical_page)
        request.plane_index = plane_index
        # Writes share the per-plane accounting path with reads
        # (requests / kind / blocked-by-GC), so mixed read/write
        # queueing shows up in the same telemetry.
        plane = self._start_request(request)
        if self.writes is not None:
            self.stats.add("host_writes")
        # Acknowledge the host: the data is durable in the device cache.
        request.complete_time = self.engine.now
        request.signal.fire(request)
        # Background drain: program the page to its plane.
        channel = self._channel_of(plane_index)
        grant = channel.acquire()
        if grant is not None:
            yield grant
        yield self._channel_transfer_ns
        channel.release()
        grant = plane.acquire()
        if grant is not None:
            yield grant
        tracer = self._tracer
        if tracer is not None:
            program_start = self.engine.now
        yield self.config.program_latency_ns
        plane.release()
        if tracer is not None:
            tracer.complete(f"flash{plane_index}", "program",
                            program_start, self.engine.now,
                            {"page": request.logical_page})
        self.write_buffer.release()
        self.stats.add("programs_drained")
        if self.writes is not None:
            self.stats.add("device_writes")
        # Programs may create free-block pressure; GC runs off the
        # critical path (Sec. IV-B: writebacks are de-prioritized).
        self.gc.maybe_collect(plane_index)
