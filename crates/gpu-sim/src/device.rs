//! The simulated GPU device: contexts, memory, module loading, and a
//! discrete-event engine that executes stream commands with SM-occupancy,
//! PCIe, context-switch, and dispatch-serialization modelling.
//!
//! The engine is what makes the paper's sharing comparisons observable:
//!
//! * **spatial sharing** — kernels from different streams co-occupy the SM
//!   pool (leftover policy: ready blocks fill free capacity in FIFO/round-
//!   robin order, §6);
//! * **time-sharing** — `exclusive_contexts(true)` serializes contexts and
//!   charges a context-switch penalty plus cache/TLB invalidation (§2.2);
//! * **MPS server serialization** — `set_dispatch_overhead` funnels every
//!   command through a single dispatcher, reproducing the MPS bottleneck
//!   under thousands of pending kernels (§7.1).

use crate::cache::CacheHierarchy;
use crate::compile::{compile_module, CompiledModule};
use crate::fault::window::DEVICE_BASE;
use crate::fault::Fault;
use crate::interp::{Executor, KernelStats};
#[cfg(test)]
use crate::interp::{LaunchConfig, MemGuard};
use crate::mem::{Dram, DriverAllocator, NO_OWNER};
use crate::spec::GpuSpec;
#[cfg(test)]
use crate::stream::CudaFunction;
use crate::stream::{Command, CtxId, StreamId, StreamState};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Maximum resident threads per SM (Ampere: 1536).
const THREADS_PER_SM: u64 = 1536;

/// Errors returned by host-side device operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// Device memory exhausted (or too fragmented).
    OutOfMemory,
    /// Unknown or destroyed context.
    InvalidContext,
    /// Unknown stream.
    InvalidStream,
    /// Free of a pointer that was not allocated (or double free).
    InvalidFree,
    /// The context has been poisoned by a fault.
    ContextPoisoned,
    /// PTX lowering failed.
    Compile(String),
    /// A named kernel is missing from a module.
    UnknownKernel(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfMemory => f.write_str("out of device memory"),
            DeviceError::InvalidContext => f.write_str("invalid context"),
            DeviceError::InvalidStream => f.write_str("invalid stream"),
            DeviceError::InvalidFree => f.write_str("invalid device free"),
            DeviceError::ContextPoisoned => f.write_str("context poisoned by earlier fault"),
            DeviceError::Compile(m) => write!(f, "module load failed: {m}"),
            DeviceError::UnknownKernel(k) => write!(f, "unknown kernel `{k}`"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// A fault that occurred while executing a command.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Context the faulting command belonged to.
    pub ctx: CtxId,
    /// Stream the faulting command was issued on.
    pub stream: StreamId,
    /// Kernel name for launch faults.
    pub kernel: Option<String>,
    /// The fault itself.
    pub fault: Fault,
    /// Device time (cycles) at which the fault fired.
    pub at_cycles: u64,
}

/// Per-kernel-name aggregate execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelAgg {
    /// Number of launches.
    pub launches: u64,
    /// Dynamic instruction total.
    pub instructions: u64,
    /// Dynamic global loads.
    pub loads: u64,
    /// Dynamic global stores.
    pub stores: u64,
    /// Dynamic atomics.
    pub atomics: u64,
    /// Sum of per-thread cycles.
    pub thread_cycles: u64,
    /// Sum of block occupancy durations.
    pub block_cycles: u64,
    /// Cache statistics for global loads.
    pub cache: crate::cache::CacheStats,
}

struct ContextState {
    asid: u32,
    overhead_offset: u64,
    poisoned: bool,
    mem_used: u64,
    allocations: HashMap<u64, u64>, // offset -> len
    finish_time: u64,
}

struct RunningKernel {
    stream: StreamId,
    #[allow(dead_code)] // handy in debug dumps
    name: String,
    pending: std::collections::VecDeque<u64>,
    in_flight: usize,
    threads_per_block: u64,
    alive: bool,
    /// Snapshot of the stream's latency-class flag at launch start:
    /// the block scheduler places this kernel's blocks onto free SM
    /// capacity before any best-effort kernel's at each scheduling
    /// point.
    latency: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    BlockEnd {
        slot: usize,
        threads: u64,
        /// Unfinished cycles of a sliced block (0 = the block ran to
        /// completion). Re-queued onto the kernel's pending queue when
        /// the slice ends, so other kernels — a latency-class launch in
        /// particular — can claim the freed SM capacity first.
        remainder: u64,
    },
    CmdEnd {
        stream: StreamId,
    },
    Wake,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    time: u64,
    seq: u64,
    kind: EvKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulated GPU.
pub struct Device {
    spec: GpuSpec,
    /// Position of this device in its host's device set (as reported by
    /// `cudaGetDevice`); 0 for standalone devices.
    ordinal: u32,
    dram: Dram,
    cache: CacheHierarchy,
    allocator: DriverAllocator,
    contexts: BTreeMap<CtxId, ContextState>,
    streams: BTreeMap<StreamId, StreamState>,
    next_ctx: u32,
    next_stream: u32,
    // --- event engine state ---
    now: u64,
    seq: u64,
    threads_in_use: u64,
    running: Vec<RunningKernel>,
    /// Recyclable indexes into `running` (finished kernels with no
    /// in-flight blocks). Without recycling, `running` grows with every
    /// launch ever made and the per-event block scheduler scan turns
    /// quadratic in total launches — the 256-tenant throughput cliff.
    free_slots: Vec<usize>,
    /// Total unscheduled blocks across `running`, so the per-event
    /// scheduler call exits in O(1) when every block is already placed.
    pending_blocks: u64,
    /// Streams with a startable head command, each tracked at most once
    /// (`StreamState::in_ready`). The scheduler pulls from here instead
    /// of rescanning every stream on every engine step.
    ready: std::collections::VecDeque<StreamId>,
    /// Streams whose start attempt hit a busy resource (SMs, a PCIe
    /// direction, the dispatch server, the exclusive-context gate);
    /// re-queued onto `ready` after each handled event, since events
    /// are what free those resources.
    blocked: Vec<StreamId>,
    events: BinaryHeap<Reverse<Ev>>,
    pcie_h2d_free: u64,
    pcie_d2h_free: u64,
    copy_free: u64,
    server_free: u64,
    dispatch_overhead: u64,
    exclusive: bool,
    active_ctx: Option<CtxId>,
    context_switches: u64,
    fault_log: Vec<FaultRecord>,
    kernel_stats: HashMap<String, KernelAgg>,
    launches: u64,
}

impl Device {
    /// Bring up a standalone device of the given model (ordinal 0).
    pub fn new(spec: GpuSpec) -> Self {
        Device::new_indexed(spec, 0)
    }

    /// Bring up a device at a specific ordinal in a multi-GPU host.
    /// Each device is a fully independent simulator instance — its own
    /// DRAM, caches, clock, and event engine — exactly as PCIe-attached
    /// GPUs are; only the ordinal ties it to a host-visible device id.
    pub fn new_indexed(spec: GpuSpec, ordinal: u32) -> Self {
        let dram = Dram::new(spec.global_mem_bytes);
        let cache = CacheHierarchy::new(spec.l1_bytes, spec.l2_bytes);
        let allocator = DriverAllocator::new(spec.global_mem_bytes);
        Device {
            ordinal,
            dram,
            cache,
            allocator,
            contexts: BTreeMap::new(),
            streams: BTreeMap::new(),
            next_ctx: 1,
            next_stream: 1,
            now: 0,
            seq: 0,
            threads_in_use: 0,
            running: Vec::new(),
            free_slots: Vec::new(),
            pending_blocks: 0,
            ready: std::collections::VecDeque::new(),
            blocked: Vec::new(),
            events: BinaryHeap::new(),
            pcie_h2d_free: 0,
            pcie_d2h_free: 0,
            copy_free: 0,
            server_free: 0,
            dispatch_overhead: 0,
            exclusive: false,
            active_ctx: None,
            context_switches: 0,
            fault_log: Vec::new(),
            kernel_stats: HashMap::new(),
            launches: 0,
            spec,
        }
    }

    /// The device's model parameters.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// This device's ordinal in its host's device set (0 standalone).
    pub fn ordinal(&self) -> u32 {
        self.ordinal
    }

    /// Current device virtual time in cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Current device virtual time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.spec.cycles_to_secs(self.now)
    }

    /// Host wall-clock stamp ([`crate::mono_ns`]) of the most recently
    /// completed command on `stream` (0 if the stream never completed a
    /// command, or no longer exists).
    pub fn stream_last_done_wall_ns(&self, stream: StreamId) -> u64 {
        self.streams
            .get(&stream)
            .map(|s| s.last_done_wall_ns)
            .unwrap_or(0)
    }

    /// Serialize one context at a time with a switch penalty (time-sharing;
    /// the native CUDA baseline of the paper's Figure 6).
    pub fn exclusive_contexts(&mut self, on: bool) {
        self.exclusive = on;
    }

    /// Funnel every command through a serialized dispatcher costing
    /// `cycles` (the MPS-server model).
    pub fn set_dispatch_overhead(&mut self, cycles: u64) {
        self.dispatch_overhead = cycles;
    }

    /// Number of context switches performed so far.
    pub fn context_switches(&self) -> u64 {
        self.context_switches
    }

    // ----- contexts and memory ---------------------------------------------

    /// Create a context. Charges `context_overhead_bytes` of device memory
    /// for driver state (reproducing the paper's §2.2 footprint numbers).
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfMemory`] when the overhead reservation fails.
    pub fn create_context(&mut self) -> Result<CtxId, DeviceError> {
        let id = CtxId(self.next_ctx);
        let asid = self.next_ctx;
        self.next_ctx += 1;
        let overhead_offset = self
            .allocator
            .alloc(self.spec.context_overhead_bytes, asid)
            .ok_or(DeviceError::OutOfMemory)?;
        self.contexts.insert(
            id,
            ContextState {
                asid,
                overhead_offset,
                poisoned: false,
                mem_used: self.spec.context_overhead_bytes,
                allocations: HashMap::new(),
                finish_time: 0,
            },
        );
        Ok(id)
    }

    /// Destroy a context, releasing its allocations and streams.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidContext`] for unknown ids.
    pub fn destroy_context(&mut self, ctx: CtxId) -> Result<(), DeviceError> {
        let state = self
            .contexts
            .remove(&ctx)
            .ok_or(DeviceError::InvalidContext)?;
        for (off, len) in state.allocations {
            self.allocator.free(off);
            self.dram.set_owner(off, len, NO_OWNER);
        }
        self.allocator.free(state.overhead_offset);
        self.streams.retain(|_, s| s.ctx != ctx);
        if self.active_ctx == Some(ctx) {
            self.active_ctx = None;
        }
        Ok(())
    }

    /// The ASID of a context (used as the MPS-style guard).
    pub fn context_asid(&self, ctx: CtxId) -> Result<u32, DeviceError> {
        Ok(self
            .contexts
            .get(&ctx)
            .ok_or(DeviceError::InvalidContext)?
            .asid)
    }

    /// Device memory charged to a context (allocations + driver overhead).
    pub fn context_mem_used(&self, ctx: CtxId) -> Result<u64, DeviceError> {
        Ok(self
            .contexts
            .get(&ctx)
            .ok_or(DeviceError::InvalidContext)?
            .mem_used)
    }

    /// Device time at which the context's last command completed.
    pub fn context_finish_time(&self, ctx: CtxId) -> Result<u64, DeviceError> {
        Ok(self
            .contexts
            .get(&ctx)
            .ok_or(DeviceError::InvalidContext)?
            .finish_time)
    }

    /// Whether the context has been poisoned by a fault.
    pub fn context_poisoned(&self, ctx: CtxId) -> bool {
        self.contexts.get(&ctx).map(|c| c.poisoned).unwrap_or(false)
    }

    /// Total device memory in use (all contexts).
    pub fn used_bytes(&self) -> u64 {
        self.allocator.used_bytes()
    }

    /// Allocate device memory for a context (`cudaMalloc`).
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfMemory`] or [`DeviceError::InvalidContext`].
    pub fn malloc(&mut self, ctx: CtxId, bytes: u64) -> Result<u64, DeviceError> {
        let state = self
            .contexts
            .get_mut(&ctx)
            .ok_or(DeviceError::InvalidContext)?;
        let off = self
            .allocator
            .alloc(bytes, state.asid)
            .ok_or(DeviceError::OutOfMemory)?;
        let (len, _) = self.allocator.lookup(off).expect("just allocated");
        state.allocations.insert(off, len);
        state.mem_used += len;
        self.dram.set_owner(off, len, state.asid);
        Ok(DEVICE_BASE + off)
    }

    /// Allocate with explicit power-of-two alignment (used by the Guardian
    /// manager to reserve its partition pool).
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfMemory`] or [`DeviceError::InvalidContext`].
    pub fn malloc_aligned(
        &mut self,
        ctx: CtxId,
        bytes: u64,
        align: u64,
    ) -> Result<u64, DeviceError> {
        let state = self
            .contexts
            .get_mut(&ctx)
            .ok_or(DeviceError::InvalidContext)?;
        let off = self
            .allocator
            .alloc_aligned(bytes, align, state.asid)
            .ok_or(DeviceError::OutOfMemory)?;
        let (len, _) = self.allocator.lookup(off).expect("just allocated");
        state.allocations.insert(off, len);
        state.mem_used += len;
        self.dram.set_owner(off, len, state.asid);
        Ok(DEVICE_BASE + off)
    }

    /// Release a device allocation (`cudaFree`).
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidFree`] for unknown pointers,
    /// [`DeviceError::InvalidContext`] for unknown contexts.
    pub fn free(&mut self, ctx: CtxId, addr: u64) -> Result<(), DeviceError> {
        let state = self
            .contexts
            .get_mut(&ctx)
            .ok_or(DeviceError::InvalidContext)?;
        let off = addr
            .checked_sub(DEVICE_BASE)
            .ok_or(DeviceError::InvalidFree)?;
        let len = state
            .allocations
            .remove(&off)
            .ok_or(DeviceError::InvalidFree)?;
        state.mem_used -= len;
        self.allocator.free(off).ok_or(DeviceError::InvalidFree)?;
        self.dram.set_owner(off, len, NO_OWNER);
        Ok(())
    }

    /// Load (JIT) a PTX module into a context: place and initialize its
    /// `.global` variables, compile every kernel (`cuModuleLoadData`).
    ///
    /// # Errors
    ///
    /// [`DeviceError::Compile`] on lowering failure, allocation errors
    /// otherwise.
    pub fn load_module(
        &mut self,
        ctx: CtxId,
        module: &ptx::Module,
    ) -> Result<Arc<CompiledModule>, DeviceError> {
        // Pre-compute global block size with a dry-run compile at base 0.
        let probe = compile_module(module, 0).map_err(|e| DeviceError::Compile(e.to_string()))?;
        let globals_base = if probe.globals_size > 0 {
            self.malloc(ctx, probe.globals_size)?
        } else {
            0
        };
        let compiled = compile_module(module, globals_base)
            .map_err(|e| DeviceError::Compile(e.to_string()))?;
        if globals_base != 0 {
            self.dram
                .write(globals_base, &compiled.global_image)
                .map_err(|_| DeviceError::OutOfMemory)?;
        }
        Ok(Arc::new(compiled))
    }

    /// Read device memory from the host (after synchronizing).
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidFree`] is never returned; unmapped ranges give
    /// [`DeviceError::OutOfMemory`].
    pub fn read_memory(&self, addr: u64, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.dram
            .read(addr, buf)
            .map_err(|_| DeviceError::OutOfMemory)
    }

    /// Write device memory from the host directly (bypassing streams; used
    /// by tests and by synchronous-copy fast paths).
    ///
    /// # Errors
    ///
    /// Unmapped ranges give [`DeviceError::OutOfMemory`].
    pub fn write_memory(&mut self, addr: u64, data: &[u8]) -> Result<(), DeviceError> {
        self.dram
            .write(addr, data)
            .map_err(|_| DeviceError::OutOfMemory)
    }

    // ----- streams and commands ---------------------------------------------

    /// Create a stream in a context.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidContext`] for unknown contexts.
    pub fn create_stream(&mut self, ctx: CtxId) -> Result<StreamId, DeviceError> {
        if !self.contexts.contains_key(&ctx) {
            return Err(DeviceError::InvalidContext);
        }
        let id = StreamId(self.next_stream);
        self.next_stream += 1;
        self.streams.insert(id, StreamState::new(ctx));
        Ok(id)
    }

    /// Destroy a stream (`cudaStreamDestroy`). Queued-but-unstarted work
    /// is dropped with it; callers that care must synchronize first (the
    /// Guardian manager drains the device before retiring a migrated
    /// tenant's source stream).
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidStream`] for unknown ids.
    pub fn destroy_stream(&mut self, stream: StreamId) -> Result<(), DeviceError> {
        self.streams
            .remove(&stream)
            .map(|_| ())
            .ok_or(DeviceError::InvalidStream)
    }

    /// Set a stream's latency-class (priority) flag. A latency stream
    /// enters the ready queue at the front and its kernels' blocks are
    /// scheduled onto free SM capacity ahead of best-effort work at
    /// every scheduling point (including slice boundaries when
    /// [`GpuSpec::kernel_slice_cycles`](crate::spec::GpuSpec) is set).
    /// Unknown streams are ignored; kernels already running keep the
    /// class they launched with.
    pub fn set_stream_latency(&mut self, stream: StreamId, latency: bool) {
        if let Some(s) = self.streams.get_mut(&stream) {
            s.latency = latency;
        }
    }

    /// Enqueue a command on a stream.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidStream`] / [`DeviceError::ContextPoisoned`].
    pub fn enqueue(&mut self, stream: StreamId, cmd: Command) -> Result<(), DeviceError> {
        let s = self
            .streams
            .get_mut(&stream)
            .ok_or(DeviceError::InvalidStream)?;
        let ctx = s.ctx;
        if self.contexts.get(&ctx).map(|c| c.poisoned).unwrap_or(true) {
            return Err(DeviceError::ContextPoisoned);
        }
        s.queue.push_back(cmd);
        if !s.busy {
            self.mark_ready(stream);
        }
        Ok(())
    }

    /// Drain all queued work, advancing the device clock. Returns the
    /// number of *new* faults recorded during this drain.
    pub fn synchronize(&mut self) -> usize {
        let faults_before = self.fault_log.len();
        // Consecutive rounds in which neither a start nor an event
        // happened. One fruitless round after a full requeue means the
        // same (deterministic) state would just repeat: drained.
        let mut stalls = 0;
        loop {
            let progress = self.try_start();
            if let Some(Reverse(ev)) = self.events.pop() {
                self.now = self.now.max(ev.time);
                self.handle_event(ev);
                // The event may have freed SMs, a PCIe direction, the
                // dispatch server, or the active context: retry gated
                // streams.
                self.requeue_blocked();
                stalls = 0;
                continue;
            }
            if progress {
                stalls = 0;
                continue;
            }
            // Nothing started and no event pending. Give every stream
            // that still has work one full retry (covers gated streams
            // and any bookkeeping gap), then conclude.
            if stalls >= 1 {
                break;
            }
            stalls += 1;
            self.requeue_blocked();
            let stalled: Vec<StreamId> = self
                .streams
                .iter()
                .filter(|(_, s)| !s.in_ready && !s.busy && !s.queue.is_empty())
                .map(|(id, _)| *id)
                .collect();
            for sid in stalled {
                self.mark_ready(sid);
            }
            if self.ready.is_empty() {
                break;
            }
        }
        self.fault_log.len() - faults_before
    }

    /// Drain queued work only until `stream` is idle (empty queue, no
    /// running command), advancing the device clock. The discrete-event
    /// engine processes whatever stands in front — other streams'
    /// events included — but stops as soon as the target stream drains,
    /// so a caller bounding one tenant's backlog does not pay to drain
    /// every other tenant's. Events are processed in the exact order
    /// [`Device::synchronize`] would process them, so interleaving
    /// stream-scoped and device-wide drains stays deterministic.
    /// Unknown streams are already idle. Returns the number of new
    /// faults recorded.
    pub fn synchronize_stream(&mut self, stream: StreamId) -> usize {
        let faults_before = self.fault_log.len();
        let mut stalls = 0;
        loop {
            if self
                .streams
                .get(&stream)
                .is_none_or(|s| s.queue.is_empty() && !s.busy)
            {
                break;
            }
            let progress = self.try_start();
            if let Some(Reverse(ev)) = self.events.pop() {
                self.now = self.now.max(ev.time);
                self.handle_event(ev);
                self.requeue_blocked();
                stalls = 0;
                continue;
            }
            if progress {
                stalls = 0;
                continue;
            }
            // Same wedge detection as `synchronize`: one fruitless round
            // after a full requeue means the deterministic state would
            // only repeat.
            if stalls >= 1 {
                break;
            }
            stalls += 1;
            self.requeue_blocked();
            let stalled: Vec<StreamId> = self
                .streams
                .iter()
                .filter(|(_, s)| !s.in_ready && !s.busy && !s.queue.is_empty())
                .map(|(id, _)| *id)
                .collect();
            for sid in stalled {
                self.mark_ready(sid);
            }
            if self.ready.is_empty() {
                break;
            }
        }
        self.fault_log.len() - faults_before
    }

    /// Queue a stream for a start attempt (at most once at a time).
    /// Latency-class streams enter at the front of the line so their
    /// head command is considered before any best-effort stream's.
    fn mark_ready(&mut self, sid: StreamId) {
        if let Some(s) = self.streams.get_mut(&sid) {
            if !s.in_ready {
                s.in_ready = true;
                if s.latency {
                    self.ready.push_front(sid);
                } else {
                    self.ready.push_back(sid);
                }
            }
        }
    }

    /// Move every resource-gated stream back onto the ready queue.
    fn requeue_blocked(&mut self) {
        // `in_ready` stayed set while parked in `blocked`, so a plain
        // append cannot double-queue.
        self.ready.extend(self.blocked.drain(..));
    }

    /// All faults recorded so far.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.fault_log
    }

    /// Clear and return the fault log.
    pub fn take_fault_log(&mut self) -> Vec<FaultRecord> {
        std::mem::take(&mut self.fault_log)
    }

    /// Per-kernel aggregate stats (by kernel name).
    pub fn kernel_stats(&self) -> &HashMap<String, KernelAgg> {
        &self.kernel_stats
    }

    /// Total launches executed.
    pub fn total_launches(&self) -> u64 {
        self.launches
    }

    /// Reset timing and statistics (memory contents are preserved).
    pub fn reset_stats(&mut self) {
        self.kernel_stats.clear();
        self.launches = 0;
        self.cache.reset_stats();
    }

    // ----- internals ---------------------------------------------------------

    fn push_event(&mut self, time: u64, kind: EvKind) {
        self.seq += 1;
        self.events.push(Reverse(Ev {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Try to start pending blocks and the head commands of every ready
    /// stream; returns whether any progress was made. Streams that hit
    /// a busy resource park in `blocked` (re-queued per event) instead
    /// of being rescanned on every engine step.
    fn try_start(&mut self) -> bool {
        let mut progress = false;
        // Schedule blocks of already-running kernels first (leftover).
        progress |= self.schedule_blocks();

        let mut remaining = self.ready.len();
        while remaining > 0 {
            remaining -= 1;
            let Some(sid) = self.ready.pop_front() else {
                break;
            };
            if let Some(s) = self.streams.get_mut(&sid) {
                s.in_ready = false;
            }
            // Terminates when the stream vanishes (destroyed while
            // queued), goes busy, drains, parks, or poisons.
            while let Some(s) = self.streams.get(&sid) {
                let (ctx, busy, has_cmd) = (s.ctx, s.busy, !s.queue.is_empty());
                if busy || !has_cmd {
                    break;
                }
                // Poisoned contexts drop their remaining work.
                if self.contexts.get(&ctx).map(|c| c.poisoned).unwrap_or(true) {
                    self.streams.get_mut(&sid).expect("known").queue.clear();
                    progress = true;
                    break;
                }
                // Exclusive (time-sharing) gate.
                if self.exclusive {
                    match self.active_ctx {
                        Some(active) if active != ctx => {
                            if self.context_has_live_work(active) {
                                self.park_blocked(sid);
                                break; // wait for the active context
                            }
                            self.now += self.spec.context_switch_cycles;
                            self.cache.invalidate_all();
                            self.active_ctx = Some(ctx);
                            self.context_switches += 1;
                        }
                        None => self.active_ctx = Some(ctx),
                        _ => {}
                    }
                }
                // Serialized dispatcher (MPS-server model).
                if self.dispatch_overhead > 0 {
                    if self.server_free > self.now {
                        let t = self.server_free;
                        self.push_event(t, EvKind::Wake);
                        self.park_blocked(sid);
                        break;
                    }
                    self.server_free = self.now + self.dispatch_overhead;
                }
                if self.start_command(sid) {
                    progress = true;
                } else {
                    // Resource busy; an event wake is queued.
                    self.park_blocked(sid);
                    break;
                }
            }
        }
        progress
    }

    /// Park a stream until the next event frees a resource. The stream
    /// keeps its `in_ready` mark so it cannot be double-queued.
    fn park_blocked(&mut self, sid: StreamId) {
        if let Some(s) = self.streams.get_mut(&sid) {
            s.in_ready = true;
            self.blocked.push(sid);
        }
    }

    fn context_has_live_work(&self, ctx: CtxId) -> bool {
        self.streams
            .values()
            .any(|s| s.ctx == ctx && (s.busy || !s.queue.is_empty()))
    }

    /// Start the head command of a stream. Returns false when the command
    /// must wait for a resource (a wake event has been queued).
    fn start_command(&mut self, sid: StreamId) -> bool {
        let cmd = self.streams[&sid].queue.front().cloned().expect("nonempty");
        let ctx = self.streams[&sid].ctx;
        match cmd {
            Command::EventRecord { event } => {
                event.record(self.now);
                self.complete_command(sid);
                true
            }
            Command::Launch {
                func,
                cfg,
                params,
                guard,
            } => {
                self.launches += 1;
                let outcome = {
                    let mut ex = Executor {
                        dram: &mut self.dram,
                        cache: &mut self.cache,
                        spec: &self.spec,
                        functions: &func.module.functions,
                    };
                    ex.run(&func.kernel, cfg, &params, guard)
                };
                self.record_kernel_stats(&func.kernel.name, &outcome.stats, &outcome.block_cycles);
                if let Some(fault) = outcome.fault {
                    self.record_fault(ctx, sid, Some(func.kernel.name.clone()), fault);
                    self.complete_command(sid);
                    return true;
                }
                if outcome.block_cycles.is_empty() {
                    self.complete_command(sid);
                    return true;
                }
                let rk = RunningKernel {
                    stream: sid,
                    name: func.kernel.name.clone(),
                    pending: outcome.block_cycles.iter().map(|c| (*c).max(1)).collect(),
                    in_flight: 0,
                    threads_per_block: cfg.threads_per_block().clamp(32, THREADS_PER_SM),
                    alive: true,
                    latency: self.streams[&sid].latency,
                };
                self.pending_blocks += rk.pending.len() as u64;
                // Reuse a finished kernel's slot: all of its block-end
                // events have fired (that is what finished means), so
                // no queued event still refers to the index.
                match self.free_slots.pop() {
                    Some(slot) => self.running[slot] = rk,
                    None => self.running.push(rk),
                }
                self.streams.get_mut(&sid).expect("known").busy = true;
                self.schedule_blocks();
                true
            }
            Command::MemcpyH2D { dst, data } => {
                let dur = self.transfer_cycles(data.len() as u64, self.spec.pcie_bytes_per_sec);
                if self.pcie_h2d_free > self.now {
                    let t = self.pcie_h2d_free;
                    self.push_event(t, EvKind::Wake);
                    return false;
                }
                if let Err(f) = self.dram.write(dst, &data) {
                    self.record_fault(ctx, sid, None, f);
                    self.complete_command(sid);
                    return true;
                }
                let end = self.now + dur;
                self.pcie_h2d_free = end;
                self.streams.get_mut(&sid).expect("known").busy = true;
                self.push_event(end, EvKind::CmdEnd { stream: sid });
                true
            }
            Command::MemcpyD2H { src, len, sink } => {
                let dur = self.transfer_cycles(len, self.spec.pcie_bytes_per_sec);
                if self.pcie_d2h_free > self.now {
                    let t = self.pcie_d2h_free;
                    self.push_event(t, EvKind::Wake);
                    return false;
                }
                let mut buf = vec![0u8; len as usize];
                if let Err(f) = self.dram.read(src, &mut buf) {
                    self.record_fault(ctx, sid, None, f);
                    self.complete_command(sid);
                    return true;
                }
                sink.put(buf);
                let end = self.now + dur;
                self.pcie_d2h_free = end;
                self.streams.get_mut(&sid).expect("known").busy = true;
                self.push_event(end, EvKind::CmdEnd { stream: sid });
                true
            }
            Command::MemcpyD2D { dst, src, len } => {
                let dur = self.transfer_cycles(len, self.spec.dram_bytes_per_sec / 2.0);
                if self.copy_free > self.now {
                    let t = self.copy_free;
                    self.push_event(t, EvKind::Wake);
                    return false;
                }
                let mut buf = vec![0u8; len as usize];
                let r = self
                    .dram
                    .read(src, &mut buf)
                    .and_then(|_| self.dram.write(dst, &buf));
                if let Err(f) = r {
                    self.record_fault(ctx, sid, None, f);
                    self.complete_command(sid);
                    return true;
                }
                let end = self.now + dur;
                self.copy_free = end;
                self.streams.get_mut(&sid).expect("known").busy = true;
                self.push_event(end, EvKind::CmdEnd { stream: sid });
                true
            }
            Command::Memset { dst, byte, len } => {
                let dur = self.transfer_cycles(len, self.spec.dram_bytes_per_sec);
                if let Err(f) = self.dram.fill(dst, byte, len) {
                    self.record_fault(ctx, sid, None, f);
                    self.complete_command(sid);
                    return true;
                }
                let end = self.now + dur;
                self.streams.get_mut(&sid).expect("known").busy = true;
                self.push_event(end, EvKind::CmdEnd { stream: sid });
                true
            }
        }
    }

    fn transfer_cycles(&self, bytes: u64, bytes_per_sec: f64) -> u64 {
        let secs = bytes as f64 / bytes_per_sec;
        (self.spec.secs_to_cycles(secs)).max(200) // fixed launch latency floor
    }

    /// Fill free SM capacity with pending blocks (round-robin across
    /// running kernels — the leftover policy). Latency-class kernels
    /// claim capacity first; best-effort fills what remains. When
    /// [`GpuSpec::kernel_slice_cycles`](crate::spec::GpuSpec) is set,
    /// a block longer than the slice runs one bounded slice at a time,
    /// so freed capacity returns to this scheduler — and to any waiting
    /// latency-class kernel — at every slice boundary instead of only
    /// when the whole block retires.
    fn schedule_blocks(&mut self) -> bool {
        if self.pending_blocks == 0 {
            return false; // everything already placed: O(1) on the common path
        }
        let capacity = self.spec.num_sms as u64 * THREADS_PER_SM;
        let slice = self.spec.kernel_slice_cycles;
        let mut progress = false;
        loop {
            let mut started_any = false;
            for pass in 0..2 {
                for slot in 0..self.running.len() {
                    let (threads, dur) = {
                        let rk = &mut self.running[slot];
                        if rk.latency != (pass == 0) {
                            continue;
                        }
                        if !rk.alive || rk.pending.is_empty() {
                            continue;
                        }
                        if self.threads_in_use + rk.threads_per_block > capacity {
                            continue;
                        }
                        let dur = rk.pending.pop_front().expect("nonempty");
                        rk.in_flight += 1;
                        (rk.threads_per_block, dur)
                    };
                    self.pending_blocks -= 1;
                    let (run, remainder) = if slice > 0 && dur > slice {
                        (slice, dur - slice)
                    } else {
                        (dur, 0)
                    };
                    self.threads_in_use += threads;
                    let end = self.now + run;
                    self.push_event(
                        end,
                        EvKind::BlockEnd {
                            slot,
                            threads,
                            remainder,
                        },
                    );
                    started_any = true;
                    progress = true;
                }
            }
            if !started_any {
                break;
            }
        }
        progress
    }

    fn handle_event(&mut self, ev: Ev) {
        match ev.kind {
            EvKind::Wake => {}
            EvKind::CmdEnd { stream } => {
                self.complete_busy_command(stream);
            }
            EvKind::BlockEnd {
                slot,
                threads,
                remainder,
            } => {
                self.threads_in_use -= threads;
                let finished = {
                    let rk = &mut self.running[slot];
                    rk.in_flight -= 1;
                    if remainder > 0 {
                        // A sliced block's tail re-enters at the front so
                        // the long block keeps progressing ahead of its
                        // kernel's untouched blocks; what it cannot keep
                        // is the SM capacity, which the scheduler below
                        // hands to latency-class work first.
                        rk.pending.push_front(remainder);
                    }
                    rk.alive && rk.in_flight == 0 && rk.pending.is_empty()
                };
                if remainder > 0 {
                    self.pending_blocks += 1;
                }
                if finished {
                    let sid = self.running[slot].stream;
                    self.running[slot].alive = false;
                    self.free_slots.push(slot);
                    self.complete_busy_command(sid);
                }
                self.schedule_blocks();
            }
        }
    }

    /// Complete a command that never became busy (instant commands).
    fn complete_command(&mut self, sid: StreamId) {
        // The stream may have been destroyed while a block was in flight;
        // its completion then has nowhere to land, which is fine.
        let Some(s) = self.streams.get_mut(&sid) else {
            return;
        };
        let ctx = s.ctx;
        s.queue.pop_front();
        s.busy = false;
        s.last_done = self.now;
        s.last_done_wall_ns = crate::mono_ns();
        let more = !s.queue.is_empty();
        if let Some(c) = self.contexts.get_mut(&ctx) {
            c.finish_time = c.finish_time.max(self.now);
        }
        if more {
            self.mark_ready(sid);
        }
    }

    fn complete_busy_command(&mut self, sid: StreamId) {
        self.complete_command(sid);
    }

    fn record_fault(&mut self, ctx: CtxId, stream: StreamId, kernel: Option<String>, fault: Fault) {
        // `trap` is a *contained* detection signal (Guardian's address
        // checking detects the out-of-bounds pointer and terminates the
        // kernel, §4.4), and so are the two checks address generation makes
        // before any memory transaction is issued: they end the kernel and
        // leave the context usable, so a manager sharing one context among
        // tenants can kill only the offender. Faults of the memory system
        // itself (unmapped / ASID violations) poison the whole context, as
        // on real devices.
        let contained = matches!(
            fault,
            Fault::Trap { .. } | Fault::Misaligned { .. } | Fault::WrongSpace { .. }
        );
        if let Some(c) = self.contexts.get_mut(&ctx) {
            if !contained {
                c.poisoned = true;
            }
            c.finish_time = c.finish_time.max(self.now);
        }
        self.fault_log.push(FaultRecord {
            ctx,
            stream,
            kernel,
            fault,
            at_cycles: self.now,
        });
    }

    fn record_kernel_stats(&mut self, name: &str, stats: &KernelStats, blocks: &[u64]) {
        let agg = self.kernel_stats.entry(name.to_string()).or_default();
        agg.launches += 1;
        agg.instructions += stats.instructions;
        agg.loads += stats.loads;
        agg.stores += stats.stores;
        agg.atomics += stats.atomics;
        agg.thread_cycles += stats.thread_cycles;
        agg.block_cycles += blocks.iter().sum::<u64>();
        agg.cache.merge(&stats.cache);
    }
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("spec", &self.spec.name)
            .field("now_cycles", &self.now)
            .field("contexts", &self.contexts.len())
            .field("streams", &self.streams.len())
            .field("used_bytes", &self.used_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::test_gpu;

    const SPIN_N: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry spin(.param .u32 iters)
{
    .reg .pred %p<2>;
    .reg .b32 %r<4>;
    ld.param.u32 %r1, [iters];
    mov.u32 %r2, 0;
$L_top:
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra $L_done;
    add.u32 %r2, %r2, 1;
    bra.uni $L_top;
$L_done:
    ret;
}
"#;

    fn load(dev: &mut Device, ctx: CtxId, src: &str) -> Arc<CompiledModule> {
        let m = ptx::parse(src).unwrap();
        dev.load_module(ctx, &m).unwrap()
    }

    fn launch_cmd(
        module: &Arc<CompiledModule>,
        name: &str,
        cfg: LaunchConfig,
        params: Vec<u8>,
    ) -> Command {
        Command::Launch {
            func: CudaFunction {
                kernel: module.kernel(name).unwrap(),
                module: module.clone(),
            },
            cfg,
            params: params.into(),
            guard: MemGuard::None,
        }
    }

    #[test]
    fn single_kernel_advances_clock() {
        let mut dev = Device::new(test_gpu());
        let ctx = dev.create_context().unwrap();
        let s = dev.create_stream(ctx).unwrap();
        let m = load(&mut dev, ctx, SPIN_N);
        dev.enqueue(
            s,
            launch_cmd(
                &m,
                "spin",
                LaunchConfig::linear(1, 32),
                1000u32.to_le_bytes().to_vec(),
            ),
        )
        .unwrap();
        assert_eq!(dev.now(), 0);
        dev.synchronize();
        assert!(dev.now() > 0);
        assert_eq!(dev.total_launches(), 1);
        assert_eq!(dev.fault_log().len(), 0);
    }

    #[test]
    fn concurrent_streams_overlap_but_serial_streams_do_not() {
        // Two identical kernels on two streams should take less device time
        // than the same two kernels back-to-back on one stream would.
        let run = |two_streams: bool| -> u64 {
            let mut dev = Device::new(test_gpu());
            let ctx = dev.create_context().unwrap();
            let s1 = dev.create_stream(ctx).unwrap();
            let s2 = if two_streams {
                dev.create_stream(ctx).unwrap()
            } else {
                s1
            };
            let m = load(&mut dev, ctx, SPIN_N);
            // One block each: the 4-SM test GPU has room for both at once.
            let params = 20_000u32.to_le_bytes().to_vec();
            dev.enqueue(
                s1,
                launch_cmd(&m, "spin", LaunchConfig::linear(1, 64), params.clone()),
            )
            .unwrap();
            dev.enqueue(
                s2,
                launch_cmd(&m, "spin", LaunchConfig::linear(1, 64), params),
            )
            .unwrap();
            dev.synchronize();
            dev.now()
        };
        let concurrent = run(true);
        let serial = run(false);
        assert!(
            concurrent < serial,
            "concurrent {concurrent} should beat serial {serial}"
        );
        // Near-perfect overlap: concurrent ≈ serial / 2.
        assert!(concurrent * 10 < serial * 7);
    }

    #[test]
    fn exclusive_contexts_serialize_and_charge_switches() {
        let run = |exclusive: bool| -> (u64, u64) {
            let mut dev = Device::new(test_gpu());
            dev.exclusive_contexts(exclusive);
            let ca = dev.create_context().unwrap();
            let cb = dev.create_context().unwrap();
            let sa = dev.create_stream(ca).unwrap();
            let sb = dev.create_stream(cb).unwrap();
            let ma = load(&mut dev, ca, SPIN_N);
            let mb = load(&mut dev, cb, SPIN_N);
            let params = 20_000u32.to_le_bytes().to_vec();
            dev.enqueue(
                sa,
                launch_cmd(&ma, "spin", LaunchConfig::linear(1, 64), params.clone()),
            )
            .unwrap();
            dev.enqueue(
                sb,
                launch_cmd(&mb, "spin", LaunchConfig::linear(1, 64), params),
            )
            .unwrap();
            dev.synchronize();
            (dev.now(), dev.context_switches())
        };
        let (spatial, sw0) = run(false);
        let (timeshared, sw1) = run(true);
        assert_eq!(sw0, 0);
        assert!(sw1 >= 1);
        assert!(
            timeshared > spatial,
            "time-sharing {timeshared} must exceed spatial {spatial}"
        );
    }

    #[test]
    fn dispatch_overhead_slows_many_small_kernels() {
        let run = |overhead: u64| -> u64 {
            let mut dev = Device::new(test_gpu());
            dev.set_dispatch_overhead(overhead);
            let ctx = dev.create_context().unwrap();
            let s = dev.create_stream(ctx).unwrap();
            let m = load(&mut dev, ctx, SPIN_N);
            for _ in 0..50 {
                dev.enqueue(
                    s,
                    launch_cmd(
                        &m,
                        "spin",
                        LaunchConfig::linear(1, 32),
                        10u32.to_le_bytes().to_vec(),
                    ),
                )
                .unwrap();
            }
            dev.synchronize();
            dev.now()
        };
        let fast = run(0);
        let slow = run(5_000);
        assert!(slow > fast + 40 * 5_000);
    }

    #[test]
    fn memcpy_round_trip_through_streams() {
        let mut dev = Device::new(test_gpu());
        let ctx = dev.create_context().unwrap();
        let s = dev.create_stream(ctx).unwrap();
        let buf = dev.malloc(ctx, 4096).unwrap();
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        dev.enqueue(
            s,
            Command::MemcpyH2D {
                dst: buf,
                data: data.clone(),
            },
        )
        .unwrap();
        let sink = crate::stream::HostSink::new();
        dev.enqueue(
            s,
            Command::MemcpyD2H {
                src: buf,
                len: 4096,
                sink: sink.clone(),
            },
        )
        .unwrap();
        dev.synchronize();
        assert_eq!(sink.take(), data);
        assert!(dev.now() > 0);
    }

    #[test]
    fn context_memory_accounting_reproduces_footprints() {
        let mut dev = Device::new(test_gpu());
        let overhead = dev.spec().context_overhead_bytes;
        let base = dev.used_bytes();
        assert_eq!(base, 0);
        let c1 = dev.create_context().unwrap();
        assert_eq!(dev.used_bytes(), overhead);
        let _c2 = dev.create_context().unwrap();
        let _c3 = dev.create_context().unwrap();
        let _c4 = dev.create_context().unwrap();
        // 4 contexts = 4x the single-context footprint (paper §2.2).
        assert_eq!(dev.used_bytes(), 4 * overhead);
        let p = dev.malloc(c1, 1 << 20).unwrap();
        assert_eq!(dev.context_mem_used(c1).unwrap(), overhead + (1 << 20));
        dev.free(c1, p).unwrap();
        assert_eq!(dev.context_mem_used(c1).unwrap(), overhead);
    }

    #[test]
    fn hard_fault_poisons_context_and_drops_queue() {
        // An unmapped access (beyond DRAM) is a hard fault: poisons.
        const OOB: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry boom(.param .u64 p)
{
    .reg .b32 %r<2>;
    .reg .b64 %rd<2>;
    ld.param.u64 %rd1, [p];
    mov.u32 %r1, 1;
    st.global.u32 [%rd1], %r1;
    ret;
}
"#;
        let mut dev = Device::new(test_gpu());
        let ctx = dev.create_context().unwrap();
        let s = dev.create_stream(ctx).unwrap();
        let m = load(&mut dev, ctx, OOB);
        let bad = (crate::fault::window::DEVICE_BASE + dev.spec().global_mem_bytes + 4096)
            .to_le_bytes()
            .to_vec();
        dev.enqueue(
            s,
            launch_cmd(&m, "boom", LaunchConfig::linear(1, 1), bad.clone()),
        )
        .unwrap();
        dev.enqueue(s, launch_cmd(&m, "boom", LaunchConfig::linear(1, 1), bad))
            .unwrap();
        let faults = dev.synchronize();
        assert_eq!(faults, 1, "second launch is dropped, not executed");
        assert!(dev.context_poisoned(ctx));
        assert!(dev
            .enqueue(
                s,
                launch_cmd(&m, "boom", LaunchConfig::linear(1, 1), vec![])
            )
            .is_err());
        // Other contexts unaffected at device level.
        let ctx2 = dev.create_context().unwrap();
        assert!(!dev.context_poisoned(ctx2));
    }

    #[test]
    fn trap_is_contained_and_does_not_poison() {
        const TRAP: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry boom() { trap; }
"#;
        let mut dev = Device::new(test_gpu());
        let ctx = dev.create_context().unwrap();
        let s = dev.create_stream(ctx).unwrap();
        let m = load(&mut dev, ctx, TRAP);
        dev.enqueue(
            s,
            launch_cmd(&m, "boom", LaunchConfig::linear(1, 1), vec![]),
        )
        .unwrap();
        let faults = dev.synchronize();
        assert_eq!(faults, 1);
        assert!(!dev.context_poisoned(ctx), "trap must stay contained");
    }

    #[test]
    fn double_free_and_foreign_free_rejected() {
        let mut dev = Device::new(test_gpu());
        let c1 = dev.create_context().unwrap();
        let c2 = dev.create_context().unwrap();
        let p = dev.malloc(c1, 4096).unwrap();
        assert_eq!(dev.free(c2, p), Err(DeviceError::InvalidFree));
        dev.free(c1, p).unwrap();
        assert_eq!(dev.free(c1, p), Err(DeviceError::InvalidFree));
    }

    #[test]
    fn kernel_stats_are_aggregated_by_name() {
        let mut dev = Device::new(test_gpu());
        let ctx = dev.create_context().unwrap();
        let s = dev.create_stream(ctx).unwrap();
        let m = load(&mut dev, ctx, SPIN_N);
        for _ in 0..3 {
            dev.enqueue(
                s,
                launch_cmd(
                    &m,
                    "spin",
                    LaunchConfig::linear(2, 16),
                    5u32.to_le_bytes().to_vec(),
                ),
            )
            .unwrap();
        }
        dev.synchronize();
        let agg = &dev.kernel_stats()["spin"];
        assert_eq!(agg.launches, 3);
        assert!(agg.instructions > 0);
        assert!(agg.thread_cycles > 0);
    }

    #[test]
    fn device_set_assigns_ordinals_and_isolates_state() {
        let mut devs = crate::device_set(vec![test_gpu(), test_gpu()]);
        assert_eq!(devs[0].ordinal(), 0);
        assert_eq!(devs[1].ordinal(), 1);
        let c0 = devs[0].create_context().unwrap();
        let p = devs[0].malloc(c0, 4096).unwrap();
        devs[0].write_memory(p, &[7u8; 16]).unwrap();
        let c1 = devs[1].create_context().unwrap();
        let q = devs[1].malloc(c1, 4096).unwrap();
        // Independent address spaces: the same numeric address on another
        // device must not alias device 0's bytes.
        assert_eq!(p, q);
        let mut buf = [0u8; 16];
        devs[1].read_memory(q, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16], "device 1 saw device 0's data");
    }

    #[test]
    fn destroy_stream_drops_queue_and_rejects_reuse() {
        let mut dev = Device::new(test_gpu());
        let ctx = dev.create_context().unwrap();
        let s = dev.create_stream(ctx).unwrap();
        let m = load(&mut dev, ctx, SPIN_N);
        dev.enqueue(
            s,
            launch_cmd(
                &m,
                "spin",
                LaunchConfig::linear(1, 32),
                10u32.to_le_bytes().to_vec(),
            ),
        )
        .unwrap();
        dev.synchronize();
        dev.destroy_stream(s).unwrap();
        assert_eq!(dev.destroy_stream(s), Err(DeviceError::InvalidStream));
        assert!(dev
            .enqueue(
                s,
                Command::Memset {
                    dst: 0,
                    byte: 0,
                    len: 1
                }
            )
            .is_err());
        // The device still synchronizes cleanly with the stream gone.
        dev.synchronize();
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut dev = Device::new(test_gpu());
        let ctx = dev.create_context().unwrap();
        let r = dev.malloc(ctx, dev.spec().global_mem_bytes * 2);
        assert_eq!(r, Err(DeviceError::OutOfMemory));
    }

    /// Spins `iters`, then each in-range thread stores `idx + iters` at
    /// `out[idx]` — long enough to slice, and the stores make silent
    /// result corruption visible.
    const SPINFILL: &str = r#"
.version 7.7
.target sm_86
.address_size 64
.visible .entry spinfill(.param .u64 out, .param .u32 n, .param .u32 iters)
{
    .reg .pred %p<3>;
    .reg .b32 %r<10>;
    .reg .b64 %rd<5>;
    ld.param.u64 %rd1, [out];
    ld.param.u32 %r1, [n];
    ld.param.u32 %r6, [iters];
    cvta.to.global.u64 %rd2, %rd1;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    mov.u32 %r7, 0;
$L_top:
    setp.ge.u32 %p2, %r7, %r6;
    @%p2 bra $L_store;
    add.u32 %r7, %r7, 1;
    bra.uni $L_top;
$L_store:
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra $L_end;
    add.u32 %r8, %r5, %r6;
    mul.wide.u32 %rd3, %r5, 4;
    add.s64 %rd4, %rd2, %rd3;
    st.global.u32 [%rd4], %r8;
$L_end:
    ret;
}
"#;

    fn spinfill_params(out: u64, n: u32, iters: u32) -> Vec<u8> {
        let mut p = Vec::with_capacity(16);
        p.extend_from_slice(&out.to_le_bytes());
        p.extend_from_slice(&n.to_le_bytes());
        p.extend_from_slice(&iters.to_le_bytes());
        p
    }

    /// Drive the headline QoS scenario at device level: a storm launch
    /// saturates the 4-SM test GPU (8 blocks of 1024 threads against the
    /// 6144-thread capacity, each block ≈3M cycles), then a 32-thread
    /// kernel arrives behind a ~50k-cycle H2D copy so the storm is
    /// already occupying the device. Returns (priority-kernel completion
    /// cycle, total device cycles).
    fn qos_scenario(slice: u64, latency: bool) -> (u64, u64) {
        let mut spec = test_gpu();
        spec.kernel_slice_cycles = slice;
        let mut dev = Device::new(spec);
        let ctx = dev.create_context().unwrap();
        let storm = dev.create_stream(ctx).unwrap();
        let prio = dev.create_stream(ctx).unwrap();
        dev.set_stream_latency(prio, latency);
        let m = load(&mut dev, ctx, SPIN_N);
        dev.enqueue(
            storm,
            launch_cmd(
                &m,
                "spin",
                LaunchConfig::linear(8, 1024),
                2_000u32.to_le_bytes().to_vec(),
            ),
        )
        .unwrap();
        // The H2D copy delays the priority launch past the storm's start
        // (PCIe at 24 B/cycle on the 1 GHz test GPU: ~50k cycles).
        let buf = dev.malloc(ctx, 2 << 20).unwrap();
        dev.enqueue(
            prio,
            Command::MemcpyH2D {
                dst: buf,
                data: vec![0u8; 1_200_000],
            },
        )
        .unwrap();
        let ev = crate::stream::Event::new();
        dev.enqueue(
            prio,
            launch_cmd(
                &m,
                "spin",
                LaunchConfig::linear(1, 32),
                100u32.to_le_bytes().to_vec(),
            ),
        )
        .unwrap();
        dev.enqueue(prio, Command::EventRecord { event: ev.clone() })
            .unwrap();
        dev.synchronize();
        (ev.cycles().expect("event recorded"), dev.now())
    }

    #[test]
    fn latency_stream_preempts_best_effort_at_slice_boundaries() {
        // With slicing on, freed capacity returns to the scheduler every
        // 2k cycles — but only a latency-class stream may claim it,
        // because the storm's own re-queued slice remainders otherwise
        // refill the device (best-effort arrives ~3M cycles late).
        let (be_done, be_total) = qos_scenario(2_000, false);
        let (lat_done, lat_total) = qos_scenario(2_000, true);
        assert!(
            lat_done * 10 < be_done,
            "latency class must preempt at a slice boundary: {lat_done} vs best-effort {be_done}"
        );
        // The storm's aggregate runtime is essentially unchanged: it
        // briefly loses 32 of 6144 threads of capacity.
        assert!(
            lat_total * 10 <= be_total * 11,
            "storm must not be starved: {lat_total} vs {be_total}"
        );
    }

    #[test]
    fn slicing_disabled_preempts_only_at_block_boundaries() {
        // Slice = 0: even a latency-class stream waits out a whole storm
        // block (~3M cycles), where the sliced run got in after ~2k.
        let (sliced_done, _) = qos_scenario(2_000, true);
        let (unsliced_done, _) = qos_scenario(0, true);
        assert!(
            sliced_done * 10 < unsliced_done,
            "unsliced preemption should wait out a full block: sliced {sliced_done} vs unsliced {unsliced_done}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Satellite invariant: slice-preempted execution is bit-identical
        /// to unsliced execution (launch memory effects are eager, slicing
        /// is timing-only), and sliced timing is deterministic run-to-run.
        #[test]
        fn sliced_execution_is_bit_identical_to_unsliced(
            iters in proptest::collection::vec(1u32..4_000, 1..5),
            blocks in 1u32..6,
            slice in proptest::prelude::prop_oneof![
                proptest::prelude::Just(1u64),
                proptest::prelude::Just(97),
                proptest::prelude::Just(1_000),
                proptest::prelude::Just(10_000),
            ],
        ) {
            let n = blocks * 32;
            let region = n as u64 * 4;
            let run = |slice_cycles: u64| -> (u64, Vec<u8>) {
                let mut spec = test_gpu();
                spec.kernel_slice_cycles = slice_cycles;
                let mut dev = Device::new(spec);
                let ctx = dev.create_context().unwrap();
                let m = load(&mut dev, ctx, SPINFILL);
                let buf = dev.malloc(ctx, 1 << 16).unwrap();
                // One latency-class stream, one best-effort, alternating
                // launches; each launch fills its own region so the final
                // bytes are a pure function of the launches.
                let s0 = dev.create_stream(ctx).unwrap();
                let s1 = dev.create_stream(ctx).unwrap();
                dev.set_stream_latency(s0, true);
                for (i, it) in iters.iter().enumerate() {
                    let s = if i % 2 == 0 { s0 } else { s1 };
                    dev.enqueue(
                        s,
                        launch_cmd(
                            &m,
                            "spinfill",
                            LaunchConfig::linear(blocks, 32),
                            spinfill_params(buf + i as u64 * region, n, *it),
                        ),
                    )
                    .unwrap();
                }
                dev.synchronize();
                let mut out = vec![0u8; (region as usize) * iters.len()];
                dev.read_memory(buf, &mut out).unwrap();
                (dev.now(), out)
            };
            let (_, plain) = run(0);
            let (t1, sliced) = run(slice);
            let (t2, sliced2) = run(slice);
            proptest::prop_assert_eq!(&plain, &sliced, "sliced memory must be bit-identical");
            proptest::prop_assert_eq!(&sliced, &sliced2, "sliced memory must be reproducible");
            proptest::prop_assert_eq!(t1, t2, "sliced timing must be deterministic");
        }
    }
}
