//! The event-driven session executor: a small pool of workers
//! multiplexing every event-capable connection over one epoll instance.
//!
//! Under the original data plane each accepted connection got its own OS
//! thread, which stops scaling once tenants outnumber cores: hundreds of
//! mostly-idle session threads cost stacks, scheduler churn, and wakeup
//! latency. Here sessions stop being threads and become state machines
//! ([`SessionCtx`]) attached to **cells**; N workers (one per core)
//! sleep in `epoll_wait` and pump whichever cells have traffic.
//!
//! Each cell owns its connection, its session state, and the fd set it
//! has registered (a Unix socket; for shared-memory rings the socket
//! that carries liveness and wake bytes). Epoll events carry the cell
//! id.
//! Workers race on a per-cell `dirty` flag + `try_lock` so a cell is
//! drained by at most one worker while wakeups landing mid-drain are
//! never lost:
//!
//! * an event marks the cell dirty, then tries the state lock;
//! * the losing worker walks away — the winner re-checks `dirty` after
//!   its drain and loops;
//! * fds are registered level-triggered + `EPOLLONESHOT` and re-armed
//!   after every drain, so a frame that slips in between the final
//!   empty `try_recv` and the re-arm immediately re-fires.
//!
//! Replies produced within one drain are coalesced into batched sends
//! ([`Connection::send_batch`]) — the server-side half of the frame
//! batching that the client library applies to its deferred launches.
//!
//! Every adopted connection polls one fd: its socket. The one
//! connection that reports none — a shm server whose handshake was
//! refused, and whose `recv` already says `Disconnected` — is torn down
//! like any other closed cell. The fd-less in-process channel never
//! reaches the pool; the acceptor gives it a thread.

use crate::session::{SessionCtx, Step};
use crate::telemetry::ExecGauges;
use crate::transport::sys::{self, Epoll};
use crate::transport::Connection;
use std::collections::HashMap;
use std::os::fd::{AsRawFd, OwnedFd};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Registration flags for session fds: readable / peer-hung-up, one
/// shot (re-armed after each drain so two workers never drain one fd).
const EV_FLAGS: u32 = sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLONESHOT;

/// Reply frames buffered during one drain are flushed (as one batched
/// send) at this many, bounding per-cell memory on reply-heavy runs.
const REPLY_FLUSH: usize = 64;

/// Frames a best-effort session may pump per drain round while a
/// latency-class session has frames waiting (from the epoll event
/// firing until its drain completes), or while its own tenant is over
/// the inflight-launch budget. The cap is per round, not absolute —
/// the gated cell is parked on the worker's backlog and re-drained
/// after every other ready cell got a turn — so a gated session's
/// `Sync` still reaches the device and nothing livelocks; the session
/// is merely paced while priority traffic is active. Also the
/// flush-batch ceiling of a gated round: each capped round is one
/// bounded device-lock acquisition.
const QOS_GATED_DRAIN_CAP: u64 = 16;

/// Epoll data value reserved for the shutdown eventfd. Cell ids start
/// at 1 and are shifted left by two to carry the fd index, so every
/// cell's data is ≥ 4 and can never collide with this.
const SHUTDOWN_ID: u64 = 0;

/// Bit in [`Cell::fired`] meaning "an fd beyond index 2 fired — re-arm
/// everything". No current transport registers more than two fds.
const FIRED_ALL: u32 = 1 << 3;

/// Pack a cell id and an fd index into one epoll data word. Indexes
/// saturate at 3, the [`FIRED_ALL`] sentinel.
fn ev_data(cell_id: u64, idx: usize) -> u64 {
    (cell_id << 2) | (idx.min(3) as u64)
}

struct CellState {
    conn: Box<dyn Connection>,
    ctx: SessionCtx,
}

struct Cell {
    id: u64,
    /// `None` once the state moved into teardown. Stale epoll events
    /// then find nothing to do.
    state: Mutex<Option<CellState>>,
    /// Set by every event before trying the state lock; cleared by the
    /// draining worker before each pump. A set flag after a drain means
    /// another event landed mid-drain: drain again.
    dirty: AtomicBool,
    /// Bitmask of fd indexes whose `EPOLLONESHOT` delivery disarmed
    /// them since the last re-arm. Set (with the index from the epoll
    /// data word) *before* `dirty`, so the draining worker's re-arm
    /// pass — `swap(0)` — is guaranteed to observe the bit of any
    /// delivery it is responsible for re-arming. Only fired fds get an
    /// `EPOLL_CTL_MOD` after a drain; quiet fds are still armed.
    fired: AtomicU32,
    /// fds currently registered with the epoll instance for this cell.
    /// Re-queried from the connection after every drain: a shm session
    /// whose deferred handshake was refused loses its fd.
    registered: Mutex<Vec<i32>>,
    /// Cached QoS class of the attached session, refreshed after every
    /// drain (lease overrides demote live). Lets the event-arrival
    /// path — which cannot take the state lock — tick the
    /// latency-pending gauge the moment a latency tenant has traffic.
    is_latency: AtomicBool,
    /// True from the moment an event fires for a latency cell until
    /// its next drain completes: the window during which best-effort
    /// drain rounds are capped on this latency tenant's behalf. On a
    /// single-core worker this window is the only one that matters —
    /// a latency session never has "a drain in flight" while another
    /// cell is being pumped, it has *frames waiting in its socket*.
    latency_waiting: AtomicBool,
}

struct PoolInner {
    epoll: Epoll,
    /// Written once at shutdown; registered level-triggered *without*
    /// `EPOLLONESHOT` under [`SHUTDOWN_ID`], so every worker wakes
    /// (and keeps waking) until it observes `stop`.
    shutdown_bell: OwnedFd,
    stop: AtomicBool,
    cells: Mutex<HashMap<u64, Arc<Cell>>>,
    /// Notified when the last cell is removed; `shutdown` waits on it.
    idle: Condvar,
    next_id: AtomicU64,
    /// Park/wake/re-arm counters, shared with the control plane's
    /// `/metrics` rendering.
    gauges: Arc<ExecGauges>,
}

/// The executor pool. Owned by the acceptor; created lazily on the
/// first event-capable connection, shut down after the listener closes.
pub(crate) struct EventPool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
}

impl EventPool {
    /// Start one pump thread per available core.
    pub(crate) fn new(gauges: Arc<ExecGauges>) -> Self {
        let n = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        let epoll = Epoll::new().expect("create executor epoll");
        let shutdown_bell = sys::eventfd_new().expect("create executor shutdown eventfd");
        epoll
            .add(shutdown_bell.as_raw_fd(), sys::EPOLLIN, SHUTDOWN_ID)
            .expect("register executor shutdown eventfd");
        let inner = Arc::new(PoolInner {
            epoll,
            shutdown_bell,
            stop: AtomicBool::new(false),
            cells: Mutex::new(HashMap::new()),
            idle: Condvar::new(),
            next_id: AtomicU64::new(1),
            gauges,
        });
        let workers = (0..n)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("grdEvent-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn grdEvent worker")
            })
            .collect();
        EventPool { inner, workers }
    }

    /// Hand a connection (already switched into event mode) and its
    /// session to the pool.
    pub(crate) fn adopt(&self, conn: Box<dyn Connection>, ctx: SessionCtx) {
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
        let fds = conn.event_fds();
        let latency = ctx.qos_is_latency();
        let cell = Arc::new(Cell {
            id,
            state: Mutex::new(Some(CellState { conn, ctx })),
            dirty: AtomicBool::new(false),
            fired: AtomicU32::new(0),
            registered: Mutex::new(Vec::new()),
            is_latency: AtomicBool::new(latency),
            latency_waiting: AtomicBool::new(false),
        });
        self.inner.cells.lock().unwrap().insert(id, cell.clone());
        if fds.is_empty() {
            // Nothing pollable: the connection is already refused.
            let st = cell.state.lock().unwrap().take().expect("fresh cell");
            remove_cell(&self.inner, &cell, st);
            return;
        }
        // Register only after the map insertion so a worker woken by an
        // already-readable fd (level-triggered add) can find the cell.
        sync_registration(&self.inner, &cell, &fds);
    }

    /// Wait for every session to finish — clients dropping their
    /// connections is what ends sessions, the same contract the
    /// acceptor keeps for channel sessions by joining their threads —
    /// then stop and join the workers.
    pub(crate) fn shutdown(self) {
        {
            let mut cells = self.inner.cells.lock().unwrap();
            while !cells.is_empty() {
                cells = self.inner.idle.wait(cells).unwrap();
            }
        }
        self.inner.stop.store(true, Ordering::SeqCst);
        sys::eventfd_signal(self.inner.shutdown_bell.as_raw_fd());
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &Arc<PoolInner>) {
    // Cells whose drain round was QoS-gated, parked here so freshly
    // fired cells — the latency session the gate is protecting — get
    // the worker first. Without this a single-core worker would chew
    // through a storm's whole socket buffer in capped chunks while the
    // priority tenant's sync sits one epoll event away, unserved.
    let mut backlog: std::collections::VecDeque<Arc<Cell>> = std::collections::VecDeque::new();
    loop {
        let timeout = if backlog.is_empty() {
            inner.gauges.parks.fetch_add(1, Ordering::Relaxed);
            -1
        } else {
            0 // poll: never sleep on parked gated work
        };
        let events = inner.epoll.wait(64, timeout);
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        for (_mask, data) in events {
            if data != SHUTDOWN_ID {
                inner.gauges.wakes.fetch_add(1, Ordering::Relaxed);
                if let Some(gated) = handle_event(inner, data) {
                    backlog.push_back(gated);
                }
            }
        }
        // One parked cell per pass, so each gated chunk is separated
        // by a fresh look at the epoll queue.
        if let Some(cell) = backlog.pop_front() {
            if let Some(again) = service_cell(inner, &cell) {
                backlog.push_back(again);
            }
        }
    }
}

/// React to readiness on one cell: open the latency-pending window if
/// the cell's session is latency-class, then drain it. Returns the
/// cell if a QoS gate capped the drain and it needs re-servicing.
fn handle_event(inner: &Arc<PoolInner>, data: u64) -> Option<Arc<Cell>> {
    let (id, idx) = (data >> 2, (data & 3) as u32);
    let cell = match inner.cells.lock().unwrap().get(&id) {
        Some(c) => c.clone(),
        None => return None, // already closed; stale event
    };
    // Record which fd this delivery disarmed *before* raising `dirty`:
    // whoever ends up draining re-checks `dirty` after re-arming, so a
    // bit set before `dirty` is never stranded un-re-armed.
    cell.fired.fetch_or(1 << idx, Ordering::SeqCst);
    cell.dirty.store(true, Ordering::SeqCst);
    if cell.is_latency.load(Ordering::SeqCst) && !cell.latency_waiting.swap(true, Ordering::SeqCst)
    {
        inner
            .gauges
            .qos_latency_pending
            .fetch_add(1, Ordering::SeqCst);
    }
    service_cell(inner, &cell)
}

/// Close a cell's latency-pending window (its waiting frames have been
/// drained — or the cell is gone).
fn latency_window_close(inner: &PoolInner, cell: &Cell) {
    if cell.latency_waiting.swap(false, Ordering::SeqCst) {
        inner
            .gauges
            .qos_latency_pending
            .fetch_sub(1, Ordering::SeqCst);
    }
}

/// Drain a cell if no other worker already is, looping until it is
/// quiet *and* no wakeup landed mid-drain. Returns the cell when a
/// round was QoS-gated with frames possibly still buffered: the caller
/// parks it behind newly fired cells instead of looping here, so the
/// latency traffic the gate protects is served between chunks. (A
/// quiet shm ring re-fires no fd for buffered frames — the handoff,
/// not epoll, is what guarantees the gated cell is ever re-drained.)
fn service_cell(inner: &Arc<PoolInner>, cell: &Arc<Cell>) -> Option<Arc<Cell>> {
    loop {
        let Ok(mut guard) = cell.state.try_lock() else {
            // Another worker holds the cell; it will observe `dirty`
            // after its drain and loop.
            return None;
        };
        cell.dirty.store(false, Ordering::SeqCst);
        let Some(st) = guard.as_mut() else {
            // Mid-teardown: nothing will drain here again.
            latency_window_close(inner, cell);
            return None;
        };
        let outcome = drain(st);
        // The buffered frames this window guarded are drained; refresh
        // the cached class while the lock is held (lease overrides
        // demote live).
        cell.is_latency
            .store(st.ctx.qos_is_latency(), Ordering::SeqCst);
        latency_window_close(inner, cell);
        // Re-query the fd set: a shm session whose deferred handshake
        // was refused has none.
        let fds = st.conn.event_fds();
        if outcome.closed || fds.is_empty() {
            let st = guard.take().expect("state present");
            drop(guard);
            remove_cell(inner, cell, st);
            return None;
        }
        rearm_cell(inner, cell, &fds);
        if outcome.gated {
            cell.dirty.store(true, Ordering::SeqCst);
            drop(guard);
            return Some(cell.clone());
        }
        drop(guard);
        if !cell.dirty.load(Ordering::SeqCst) {
            return None;
        }
    }
}

/// What one drain round did: `closed` ends the session; `gated` means
/// the QoS gate capped the round with frames possibly still buffered.
struct DrainOutcome {
    closed: bool,
    gated: bool,
}

/// Pump one connection until nothing is buffered — or, for a
/// best-effort session while latency-class traffic is in flight (or
/// its tenant is over the inflight-launch budget), until the gated
/// per-round frame cap. Replies produced by the drained frames are
/// coalesced into batched sends. `closed` in the outcome means the
/// connection is done (peer gone, transport error, or a malformed
/// frame closed the session).
fn drain(st: &mut CellState) -> DrainOutcome {
    // Class snapshot for the whole round: balanced inc/dec of the
    // latency-pending gauge even if a lease override demotes the
    // tenant mid-drain.
    let latency = st.ctx.qos_is_latency();
    let gauges = st.ctx.exec_gauges();
    if latency {
        gauges.qos_latency_pending.fetch_add(1, Ordering::SeqCst);
    }
    let mut gated = false;
    let mut replies: Vec<Vec<u8>> = Vec::new();
    let mut closed = false;
    let mut frames: u64 = 0;
    loop {
        if !latency
            && frames >= QOS_GATED_DRAIN_CAP
            && (gauges.qos_latency_sessions.load(Ordering::SeqCst) > 0
                || gauges.qos_latency_pending.load(Ordering::SeqCst) > 0
                || st.ctx.qos_over_budget())
        {
            gated = true;
            break;
        }
        match st.conn.try_recv() {
            Ok(Some(frame)) => {
                frames += 1;
                match st.ctx.handle_frame(&frame, &*st.conn) {
                    Step::Reply(r) => {
                        replies.push(r);
                        if replies.len() >= REPLY_FLUSH
                            && st.conn.send_batch(std::mem::take(&mut replies)).is_err()
                        {
                            closed = true;
                            break;
                        }
                    }
                    Step::None => {}
                    Step::ReplyThenClose(r) => {
                        replies.push(r);
                        closed = true;
                        break;
                    }
                }
            }
            Ok(None) => break,
            Err(_) => {
                closed = true;
                break;
            }
        }
    }
    if !replies.is_empty() && st.conn.send_batch(replies).is_err() {
        closed = true;
    }
    // Launches admitted during this drain hit the device as one batch:
    // one device-lock acquisition for the whole burst.
    st.ctx.flush_pending();
    st.ctx.note_frames(frames);
    st.ctx.note_drain(frames);
    if latency {
        gauges.qos_latency_pending.fetch_sub(1, Ordering::SeqCst);
    }
    if gated {
        gauges.qos_gated_rounds.fetch_add(1, Ordering::Relaxed);
    }
    DrainOutcome { closed, gated }
}

/// Post-drain epoll maintenance. If the connection's fd set changed
/// (shm handshake completed), fall back to a full [`sync_registration`].
/// Otherwise re-arm **only** the fds whose `EPOLLONESHOT` actually
/// delivered since the last re-arm — with frame batching, a drain that
/// pumped dozens of frames typically re-arms a single fd instead of
/// issuing an `epoll_ctl` per registered fd per drain.
fn rearm_cell(inner: &PoolInner, cell: &Cell, fds: &[i32]) {
    if *cell.registered.lock().unwrap() != *fds {
        sync_registration(inner, cell, fds);
        // Every fd was just armed; bits set concurrently refer to
        // deliveries those arms already supersede.
        cell.fired.store(0, Ordering::SeqCst);
        return;
    }
    let fired = cell.fired.swap(0, Ordering::SeqCst);
    if fired == 0 {
        return;
    }
    let mut rearmed: u64 = 0;
    if fired & FIRED_ALL != 0 {
        for (i, fd) in fds.iter().enumerate() {
            let _ = inner.epoll.rearm(*fd, EV_FLAGS, ev_data(cell.id, i));
            rearmed += 1;
        }
    } else {
        for (i, fd) in fds.iter().enumerate().take(3) {
            if fired & (1 << i) != 0 {
                let _ = inner.epoll.rearm(*fd, EV_FLAGS, ev_data(cell.id, i));
                rearmed += 1;
            }
        }
    }
    inner.gauges.rearms.fetch_add(rearmed, Ordering::Relaxed);
}

/// Bring the epoll registration in line with the connection's current
/// fd set, re-arming unchanged fds (they are `EPOLLONESHOT`-disarmed
/// after delivering). Level-triggered re-arm means an fd that is still
/// readable fires again immediately — the property that makes the
/// dirty-flag race benign.
fn sync_registration(inner: &PoolInner, cell: &Cell, fds: &[i32]) {
    let mut reg = cell.registered.lock().unwrap();
    for fd in reg.iter() {
        if !fds.contains(fd) {
            inner.epoll.del(*fd);
        }
    }
    for (i, fd) in fds.iter().enumerate() {
        if reg.contains(fd) {
            let _ = inner.epoll.rearm(*fd, EV_FLAGS, ev_data(cell.id, i));
        } else {
            let _ = inner.epoll.add(*fd, EV_FLAGS, ev_data(cell.id, i));
        }
    }
    if *reg != fds {
        *reg = fds.to_vec();
    }
}

/// Tear a finished cell down: unregister its fds, run the session's
/// implicit disconnect, drop the connection, and wake `shutdown` if it
/// was the last.
fn remove_cell(inner: &PoolInner, cell: &Cell, mut st: CellState) {
    for fd in cell.registered.lock().unwrap().drain(..) {
        inner.epoll.del(fd);
    }
    st.ctx.finish();
    drop(st);
    let mut cells = inner.cells.lock().unwrap();
    cells.remove(&cell.id);
    if cells.is_empty() {
        inner.idle.notify_all();
    }
}
