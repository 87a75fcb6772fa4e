"""GStreamManager: producer–consumer GPU execution with pipelining (§5).

Flink tasks *produce* GWork; GStreams *consume* it.  A GStream is a
"high-level virtual computing resource which [is] similar to threads for
CPUs" — a simulation process bound to one GPU that executes GWork through
the **three-stage pipeline**: host-to-device transfers (H2D), kernel
execution (K) and device-to-host transfers (D2H) run as three coupled stage
processes over the work's page-sized blocks, so block *k*'s kernel overlaps
block *k+1*'s upload and block *k−1*'s download.  Whether H2D and D2H can
overlap each other is decided by the device's copy-engine count (§4.1.2).

Components (Fig. 4): the **GWork Scheduler** (Algorithm 5.1, in
:mod:`repro.core.scheduling`), the **GWork Pool** (one FIFO queue per GPU),
and the **GStream Pool** (streams grouped into per-GPU bulks, each stream
stealing per Algorithm 5.2 when it runs dry).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, Hashable, List, Optional

from repro.common.errors import ConfigError, DeviceFaultError
from repro.common.resources import Store, serve
from repro.common.simclock import Environment, Event
from repro.core.channels import CommMode, CUDAWrapper
from repro.core.gmemory import CacheEntry, CacheRegion, GMemoryManager
from repro.core.gwork import GWork, KernelStage, PRIMARY, STAGE_OUT
from repro.core.hbuffer import Block, HBuffer
from repro.core.scheduling import locality_keys, schedule_work, steal_work
from repro.flink.payload import concat, real_len
from repro.gpu.device import GPUDevice
from repro.gpu.memory import DeviceBuffer
from repro.gpu.runtime import snapshot
from repro.obs import OFF, Observability

#: Depth of the inter-stage queues: how many blocks may be in flight between
#: two stages.  2 suffices for full overlap of a 3-stage linear pipeline.
PIPELINE_DEPTH = 2


class GStream:
    """One virtual stream: a consumer process bound to a device."""

    def __init__(self, env: Environment, manager: "GStreamManager",
                 device_index: int, stream_index: int):
        self.env = env
        self.manager = manager
        self.device_index = device_index
        self.stream_index = stream_index
        self.mailbox: Store = Store(env, capacity=1)
        self.process = env.process(
            self._run(), name=f"gstream-{device_index}-{stream_index}")

    @property
    def device(self) -> GPUDevice:
        return self.manager.devices[self.device_index]

    def _run(self) -> Generator[Event, None, None]:
        while True:
            work = yield self.mailbox.get()
            if work is None:  # shutdown sentinel (tests)
                return
            while work is not None:
                yield from self._execute(work)
                if self.manager.is_blacklisted(self.device_index):
                    break  # out-of-service streams stop pulling work
                # Algorithm 5.2: steal before going idle.
                work = steal_work(self.device_index, self.manager.queues)
            self.manager.mark_idle(self)

    # -- one GWork through the three-stage pipeline --------------------------------
    def _execute(self, work: GWork) -> Generator[Event, None, None]:
        mgr = self.manager
        work.assigned_device = self.device_index
        device = self.device
        region = (mgr.gmm.region(work.app_id, self.device_index)
                  if work.cache else None)
        # Chained works may borrow an already-existing region to spill
        # oversized intermediates even when they cache nothing themselves.
        spill_region = region
        if (spill_region is None and work.chained
                and mgr.gmm.has_region(work.app_id, self.device_index)):
            spill_region = mgr.gmm.region(work.app_id, self.device_index)
        # Every buffer this GWork allocates, so a failure frees its own and
        # none of a sibling stream's on the same device.
        owned: List[DeviceBuffer] = []
        # Cache entries pinned for the whole pipeline (secondary operands).
        held: List[CacheEntry] = []
        with mgr.obs.span("gwork", device.name, f"stream{self.stream_index}",
                          kernel=work.execute_name, work=work.work_id,
                          cached=bool(work.cache)) as wsp:
            try:
                injected = (mgr.faults.consume_fault(self.device_index)
                            if mgr.faults is not None else None)
                if injected is not None:
                    if injected in ("gpu-hang", "pcie-timeout"):
                        # The fault is only *detected* after the driver
                        # watchdog window — the stream is stuck that long.
                        yield self.env.timeout(
                            mgr.faults.config.fault_timeout_s)
                    raise DeviceFaultError(injected, device.name)
                secondary = yield from self._stage_secondary_inputs(
                    work, device, region, owned, held)
                output_elements = yield from self._pipeline(
                    work, device, region, spill_region, secondary, owned)
                for entry in held:
                    entry.pinned_by.remove(work.work_id)
            except Exception as exc:  # surface through the completion event
                # Reclaim this work's in-flight allocations (cache-region
                # buffers are unregistered views and survive): a retried work
                # must not leak the device dry.
                wsp.set(error=type(exc).__name__)
                for buf in owned:
                    if not buf.freed:
                        device.memory.free(buf)
                if spill_region is not None:
                    spill_region.release_work(work.work_id)
                self._temp_secondary = []
                if mgr.faults is not None:
                    mgr.faults.record_device_failure(self.device_index, exc)
                if (work.completion is not None
                        and not work.completion.triggered):
                    work.completion.fail(exc)
                    # The producer may have been interrupted (its worker
                    # died) and no longer waits: an unclaimed failure must
                    # not crash the simulation loop.
                    work.completion.defused()
                return
        out = work.out_buffer.derive(output_elements)
        if work.out_element_nbytes is not None:
            out.element_nbytes = work.out_element_nbytes
        mgr.works_completed += 1
        if work.completion is not None:
            work.completion.succeed(out)

    def _stage_secondary_inputs(self, work: GWork, device: GPUDevice,
                                region: Optional[CacheRegion],
                                owned: List[DeviceBuffer],
                                held: List[CacheEntry]
                                ) -> Generator[Event, None, Dict[str, DeviceBuffer]]:
        """Upload non-primary operands whole (cache-aware); the cache
        entries they use are pinned, into ``held``."""
        secondary: Dict[str, DeviceBuffer] = {}
        self._temp_secondary: List[DeviceBuffer] = []
        obs = self.manager.obs
        for name, hbuf in work.in_buffers.items():
            if name == PRIMARY:
                continue
            key = (work.cache_key, name)
            use_cache = region is not None and hbuf.cacheable
            if use_cache:
                entry = region.lookup(key)
                # A hit needs landed data; an entry still being uploaded
                # by another work is left to it.
                landed = entry is not None and entry.buffer.data is not None
                obs.emit("cache.probe", device.name, "cache", operand=name,
                         outcome="hit" if landed else "miss")
                if not landed:
                    entry = (region.try_insert(key, int(hbuf.nbytes),
                                               work.work_id)
                             if entry is None else None)
            else:
                entry = None
            if entry is not None:
                entry.pinned_by.append(work.work_id)
                held.append(entry)
                if landed:
                    secondary[name] = entry.buffer
                    continue
                dev_buf = entry.buffer
            else:
                dev_buf = yield from self.manager.wrapper.cuda_malloc(
                    device, int(hbuf.nbytes))
                self._temp_secondary.append(dev_buf)
                owned.append(dev_buf)
            whole = Block(index=0, elements=hbuf.elements,
                          nominal_count=hbuf.nominal_count,
                          nbytes=int(hbuf.nbytes))
            window = yield from self.manager.wrapper.transfer_h2d_inline(
                device, dev_buf, whole, hbuf, work.comm_mode)
            # The engine-occupancy window is exact: spans on a copy lane
            # never overlap (queue wait is excluded, not hidden inside).
            obs.emit("h2d", device.name, "copy:h2d", window[0], window[1],
                     nbytes=int(hbuf.nbytes), operand=name)
            secondary[name] = dev_buf
        return secondary

    def _pipeline(self, work: GWork, device: GPUDevice,
                  region: Optional[CacheRegion],
                  spill_region: Optional[CacheRegion],
                  secondary: Dict[str, DeviceBuffer],
                  owned: List[DeviceBuffer]
                  ) -> Generator[Event, None, object]:
        wrapper = self.manager.wrapper
        primary = work.in_buffers[PRIMARY]
        stages = work.stages
        blocks = primary.split_blocks(self.manager.block_nbytes)
        # Each stage loop runs once per block and then ends: no sentinel
        # item, so the D2H stage's hand-off charge is paid per block only.
        n_blocks = len(blocks)
        to_kernel: Store = Store(self.env, capacity=PIPELINE_DEPTH)
        to_d2h: Store = Store(self.env, capacity=PIPELINE_DEPTH)
        results: Dict[int, object] = {}
        primary_region = region if work.primary_cached else None
        obs = self.manager.obs
        # Taken once per pipeline: with every sink off, the stage loops
        # below skip their emission calls and the argument building.
        observed = obs.active
        # Distinct lanes per engine role make the paper's overlap argument
        # visible in Perfetto: kernels on one row, each copy direction on
        # its own, cache probes as markers.  This fact opens them (and the
        # device's PCIe byte counters, at zero).
        obs.emit("gpu.pipeline", device.name)
        # Pipelined executor: the producing operator may still be streaming
        # the primary input onto the host.  The H2D stage waits for each
        # device block's byte prefix before uploading (cache hits skip the
        # wait) and acknowledges consumption so backpressure credits return.
        host_stream = work.host_stream
        host_total = float(sum([b.nbytes for b in blocks])) or 1.0

        # Per-pipeline constants, read once: the stage processes below run
        # their loop body once per block.
        comm_mode = work.comm_mode
        cache_key, work_id = work.cache_key, work.work_id
        layout = primary.layout
        cuda_malloc, cuda_free = wrapper.cuda_malloc, wrapper.cuda_free
        env, runtime = self.env, wrapper.runtime
        redirect_s = wrapper.costs.jni_call_s
        # Stages whose cached output lets the chain resume, deepest first.
        resumable = [(idx + 1, st.cache_key)
                     for idx, st in reversed(list(enumerate(stages)))
                     if st.cache_output and st.cache_key is not None
                     ] if region is not None else []
        probing = observed and (region is not None
                                or primary_region is not None)

        def h2d_stage():
            host_cum = 0.0
            transfer = wrapper.transfer_h2d_inline
            put = to_kernel.put
            for blk in blocks:
                host_cum += blk.nbytes
                # A cached stage output lets the chain resume mid-way with
                # no upload at all: prefer the deepest one available.
                pin, temp, resume = None, False, 0
                for after, stage_key in resumable:
                    entry = region.lookup((stage_key, STAGE_OUT, blk.index))
                    if entry is not None and entry.buffer.data is not None:
                        pin, resume = entry, after
                        break
                if pin is None and primary_region is not None:
                    entry = primary_region.lookup(
                        (cache_key, PRIMARY, blk.index))
                    if entry is not None and entry.buffer.data is not None:
                        pin = entry
                if probing:
                    outcome = ("stage-hit" if resume
                               else "primary-hit" if pin is not None
                               else "miss")
                    obs.emit("cache.probe", device.name, "cache",
                             block=blk.index, outcome=outcome)
                upload = pin is None
                if upload:
                    if host_stream is not None:
                        evt = host_stream.when_fraction(host_cum / host_total)
                        if not evt.triggered:
                            host_stream.stall_count += 1
                            if observed:
                                with obs.span("h2d.starved", device.name,
                                              "pipeline", block=blk.index):
                                    yield evt
                            else:
                                yield evt
                    pin = (primary_region.try_insert(
                               (cache_key, PRIMARY, blk.index), blk.nbytes,
                               work_id)
                           if primary_region is not None else None)
                # Its entry stays pinned until the next stage has read it.
                if pin is not None:
                    pin.pinned_by.append(work_id)
                    dev_buf = pin.buffer
                else:
                    dev_buf = yield from cuda_malloc(device, blk.nbytes)
                    owned.append(dev_buf)
                    temp = True
                if upload:
                    window = yield from transfer(device, dev_buf, blk,
                                                 primary, comm_mode)
                    if observed:
                        obs.emit("h2d", device.name, "copy:h2d", window[0],
                                 window[1], nbytes=blk.nbytes,
                                 block=blk.index)
                if host_stream is not None:
                    host_stream.ack_nbytes(
                        work.host_stream_slot,
                        host_cum / host_total * host_stream.total_nbytes)
                yield put((blk, dev_buf, temp, resume, pin))

        def kernel_stage():
            default_out_per_elem = self._out_nbytes_per_element(work, primary)
            # Per stage: what to launch, the bytes an output element takes,
            # and the secondary operands by the kernel's own argument names.
            plan = [(idx, st, runtime.registry.get(st.execute_name),
                     st.out_element_nbytes if st.out_element_nbytes is not None
                     else default_out_per_elem,
                     {arg: secondary[alias]
                      for arg, alias in st.extra.items()})
                    for idx, st in enumerate(stages)]
            last = len(stages) - 1
            launch_config, price = runtime.launch_config, runtime.price
            execute, compute = runtime.execute, device.compute
            alloc = device.memory.alloc
            # A temporary output's cudaMalloc and the launch's JNI redirect
            # are one fused charge: (now + redirect) + driver, + redirect.
            malloc_then = (runtime.alloc_overhead_s, redirect_s)
            out_room = self._stage_out_buffer
            stage_seconds = work.stage_seconds
            # Priced once per pipeline: seconds by (stage, nominal count).
            prices: Dict[tuple, float] = {}
            get, put = to_kernel.get, to_d2h.put
            for _ in range(n_blocks):
                blk, cur, cur_temp, resume, cur_entry = yield get()
                cur_spill = None
                real = block_real = blk.real_count
                nominal = blk.nominal_count
                if resume:
                    # Resuming from a cached intermediate: counts reflect
                    # that stage's output, not the raw block.
                    real = real_len(cur.data)
                    nominal = (nominal * real / block_real
                               if block_real else float(real))
                d2h_nominal = nominal
                out_per_elem = default_out_per_elem
                for idx, st, spec, out_per_elem, extras in plan[resume:]:
                    out_nbytes = int(max(nominal * out_per_elem, 8))
                    placed = out_room(work, device, region, spill_region,
                                      st, blk, idx, out_nbytes)
                    out_temp = placed is None
                    if not out_temp:  # pinned until the data is consumed
                        placed[0].pinned_by.append(work_id)
                    wrapper.jni_calls += 2 if out_temp else 1
                    yield env.timeout(redirect_s,
                                      then=malloc_then if out_temp else 0.0)
                    if out_temp:
                        out_dev, out_entry, out_spill = (alloc(out_nbytes),
                                                         None, None)
                        owned.append(out_dev)
                    else:
                        out_entry, out_spill = placed
                        out_dev = out_entry.buffer
                    ksec = prices.get((idx, nominal))
                    if ksec is None:
                        ksec = prices[idx, nominal] = price(
                            device, spec.name, nominal,
                            launch_config(max(nominal, 1), st.block_size),
                            layout)
                    run = serve(env, compute, None, ksec)
                    try:
                        yield run
                        kernel_result = execute(
                            device, spec, ksec, {PRIMARY: cur, **extras},
                            {"out": out_dev}, st.params)
                    finally:
                        run.release()
                    name = spec.name
                    stage_seconds[name] = stage_seconds.get(name, 0.0) + ksec
                    if observed:
                        # The launch holds the exclusive compute engine
                        # until now, so [now - ksec, now] is the engine's
                        # occupancy window — kernel spans never overlap.
                        obs.emit("kernel", device.name, "kernel",
                                 env.now - ksec, env.now,
                                 kernel=name, seconds=ksec,
                                 block=blk.index, stage=idx)
                    # Retire this stage's input: its entry is unpinned,
                    # spilled intermediates give their region room back,
                    # temporaries are freed, cached buffers stay resident.
                    if cur_entry is not None:
                        cur_entry.pinned_by.remove(work_id)
                    if cur_spill is not None and spill_region is not None:
                        spill_region.remove(cur_spill)
                    elif cur_temp:
                        yield from cuda_free(device, cur)
                    cur, cur_temp, cur_spill, cur_entry = (
                        out_dev, out_temp, out_spill, out_entry)
                    out_real = real_len(kernel_result.get("out"))
                    if idx == last:
                        if out_real == real:
                            d2h_nominal = nominal  # map-style kernel
                        else:
                            d2h_nominal = out_real  # reduce-style partials
                    elif out_real != real:
                        # Mid-chain fan-out/-in realized on the sample
                        # stands for the nominal one.
                        nominal = (nominal * out_real / real if real
                                   else float(out_real))
                    real = out_real
                yield put((blk, cur, cur_temp, cur_spill, cur_entry,
                           d2h_nominal, out_per_elem))

        def d2h_stage():
            out_buffer = work.out_buffer
            get = to_d2h.get
            engine, spec = device.copy_engine("d2h"), device.spec
            gflink = comm_mode is CommMode.GFLINK
            # Pageable memory is staged through the driver's bounce buffer.
            staging_bps = (None if out_buffer.pinned and gflink
                           else runtime.pageable_staging_bps)
            # The copy's JNI redirect rides in the hand-off: the stage
            # wakes at hand-off + redirect, in one event.
            free_s, free = runtime.alloc_overhead_s, device.memory.free
            for _ in range(n_blocks):
                (blk, out_dev, out_temp, out_spill, out_entry, d2h_nominal,
                 per_elem) = yield get(redirect_s)
                nbytes = int(max(d2h_nominal * per_elem, 1))
                wrapper.jni_calls += 1
                if staging_bps is not None:
                    yield env.timeout(nbytes / staging_bps)
                copy = serve(env, engine, None, spec.pcie_latency_s
                             + nbytes / spec.pcie_effective_bps)
                try:
                    yield copy
                finally:
                    copy.release()
                device.d2h_bytes += nbytes
                end = env.now
                data = snapshot(out_dev.data)
                if out_entry is not None:
                    out_entry.pinned_by.remove(work_id)
                # Stated at its own instant, before any premium is waited.
                if observed:
                    obs.emit("d2h", device.name, "copy:d2h", copy.start,
                             end, nbytes=nbytes, block=blk.index)
                if not gflink:
                    premium = wrapper.path_premium_s(nbytes, comm_mode)
                    if premium:
                        yield env.timeout(premium)
                if out_spill is not None and spill_region is not None:
                    spill_region.remove(out_spill)
                elif out_temp:
                    # cudaFree: JNI redirect + driver time, one fused charge.
                    wrapper.jni_calls += 1
                    yield env.timeout(redirect_s, then=free_s)
                    free(out_dev)
                results[blk.index] = data

        procs = [self.env.process(h2d_stage(), name="h2d-stage"),
                 self.env.process(kernel_stage(), name="kernel-stage"),
                 self.env.process(d2h_stage(), name="d2h-stage")]
        try:
            yield self.env.all_of(procs)
        except Exception:
            # A failing stage aborts the pipeline.  Its siblings die of the
            # interrupt wherever they wait (no further allocations); the
            # join has already failed, so it defuses their failures.
            for proc in procs:
                if proc.is_alive:
                    proc.interrupt("pipeline failed")
            raise

        for buf in self._temp_secondary:
            yield from cuda_free(device, buf)
        self._temp_secondary = []
        return concat([results[i] for i in sorted(results)])

    @staticmethod
    def _stage_out_buffer(work: GWork, device: GPUDevice,
                          region: Optional[CacheRegion],
                          spill_region: Optional[CacheRegion],
                          stage: KernelStage, blk: Block, stage_index: int,
                          nbytes: int):
        """Cache-region room for one stage's output block, if it gets any.

        Caching stages write straight into their cache-region entry (created
        on first use, reused across iterations).  Everything else is a
        ``cudaMalloc`` temporary, which the caller allocates when this
        returns None — unless the device is out of memory, in which case
        the block borrows room in the cache region ("spill") and returns it
        as soon as the next stage has consumed the data.

        Returns ``(entry, spill_key)`` or None.
        """
        if (stage.cache_output and region is not None
                and stage.cache_key is not None):
            key = (stage.cache_key, STAGE_OUT, blk.index)
            entry = region.entry(key)
            if entry is None:
                entry = region.try_insert(key, nbytes, work.work_id)
            if entry is not None:
                return entry, None
        if spill_region is not None and nbytes > device.memory.available:
            spill_key = ("spill", work.work_id, blk.index, stage_index)
            entry = spill_region.try_insert(spill_key, nbytes, work.work_id)
            if entry is not None:
                spill_region.spills += 1
                return entry, spill_key
        return None

    @staticmethod
    def _out_nbytes_per_element(work: GWork, primary: HBuffer) -> float:
        if work.out_element_nbytes is not None:
            return work.out_element_nbytes
        if work.out_buffer.element_nbytes > 0:
            return work.out_buffer.element_nbytes
        return primary.element_nbytes


class GStreamManager:
    """Per-worker GWork scheduler + stream pool + work pool (Fig. 4)."""

    def __init__(self, env: Environment, devices: List[GPUDevice],
                 wrapper: CUDAWrapper, gmm: GMemoryManager,
                 streams_per_gpu: int = 2,
                 block_nbytes: int = 8 * (1 << 20),
                 locality_aware: bool = True,
                 obs: Observability = OFF):
        if streams_per_gpu < 1:
            raise ConfigError("streams_per_gpu must be >= 1")
        if block_nbytes <= 0:
            raise ConfigError("block_nbytes must be positive")
        self.env = env
        self.obs = obs
        self.devices = list(devices)
        self.wrapper = wrapper
        self.gmm = gmm
        self.block_nbytes = block_nbytes
        # Ablation switch: with locality off, Algorithm 5.1's GID step is
        # skipped and work balances blindly across bulks.
        self.locality_aware = locality_aware
        self.queues: List[Deque[GWork]] = [deque() for _ in devices]
        # Fault-domain controller (the owning GPUManager); None when the
        # manager is constructed standalone (unit tests) — no fault
        # machinery runs then.
        self.faults = None
        self.blacklisted_devices: set = set()
        self.bulks: List[List[GStream]] = []
        self.idle: List[List[GStream]] = []
        for gid in range(len(devices)):
            bulk = [GStream(env, self, gid, s) for s in range(streams_per_gpu)]
            self.bulks.append(bulk)
            self.idle.append(list(bulk))
        self.works_submitted = 0
        self.works_completed = 0

    # -- producer side ------------------------------------------------------------
    def submit(self, work: GWork) -> Event:
        """Submit a GWork; returns its completion event (Algorithm 5.1)."""
        work.completion = self.env.event()
        self.works_submitted += 1
        keys = self._locality_keys(work) if self.locality_aware else []
        bl = self.blacklisted_devices
        # Blacklisted bulks present no idle streams to Algorithm 5.1, so
        # work can only land on in-service devices (unless none remain).
        idle_view = ([[] if g in bl else self.idle[g]
                      for g in range(len(self.devices))]
                     if bl and len(bl) < len(self.devices) else self.idle)
        decision = schedule_work(work, self.gmm, keys,
                                 idle_view, self.queues)
        if decision.stream is not None:
            stream = decision.stream
            self.idle[stream.device_index].remove(stream)
            stream.mailbox.put(work)
            target, dispatch = stream.device_index, "stream"
        else:
            queue_index = decision.queue_index
            if queue_index in bl and len(bl) < len(self.devices):
                healthy = [g for g in range(len(self.queues))
                           if g not in bl]
                queue_index = min(healthy,
                                  key=lambda g: (len(self.queues[g]), g))
            target, dispatch = queue_index, "queued"
            self.queues[queue_index].append(work)
        self.obs.emit("gwork.submit", self.devices[target].name, "sched",
                      kernel=work.execute_name, work=work.work_id,
                      dispatch=dispatch)
        return work.completion

    def _locality_keys(self, work: GWork) -> List[Hashable]:
        return locality_keys(work, self.block_nbytes)

    # -- consumer side --------------------------------------------------------------
    def mark_idle(self, stream: GStream) -> None:
        """A stream found no work to steal and parks itself."""
        if stream not in self.idle[stream.device_index]:
            self.idle[stream.device_index].append(stream)

    # -- failure domains ------------------------------------------------------------
    def is_blacklisted(self, device_index: int) -> bool:
        return device_index in self.blacklisted_devices

    def mark_blacklisted(self, device_index: int) -> None:
        """Take a device out of service: re-route its queued work.

        Its streams stop stealing after their current work; GWorks parked in
        its pool queue migrate to the shortest surviving queue (or stay put
        when no device survives — the producer's retry will fail over to
        the CPU path instead).
        """
        if device_index in self.blacklisted_devices:
            return
        self.blacklisted_devices.add(device_index)
        healthy = [g for g in range(len(self.queues))
                   if g not in self.blacklisted_devices]
        if not healthy:
            return
        stranded = self.queues[device_index]
        while stranded:
            work = stranded.popleft()
            target = min(healthy, key=lambda g: (len(self.queues[g]), g))
            # An idle healthy stream picks it up immediately when possible.
            if self.idle[target]:
                stream = self.idle[target].pop(0)
                stream.mailbox.put(work)
            else:
                self.queues[target].append(work)

    # -- observability -------------------------------------------------------------
    @property
    def pending(self) -> int:
        """GWorks waiting in the pool."""
        return sum(len(q) for q in self.queues)

    def idle_stream_count(self) -> int:
        return sum(len(b) for b in self.idle)
