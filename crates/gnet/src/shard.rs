//! Thread-per-core shards: the hub's non-blocking poll loops.
//!
//! A [`ScopeServer`](crate::ScopeServer) owns N [`Shard`]s. Every new
//! connection is pinned to one shard (round-robin) by whoever accepted
//! it — shard 0's thread in threaded mode, the caller in inline mode —
//! and each shard runs [`cycle`] over **its own** client set with
//! **its own** readiness poller — no global lock serializes I/O.
//! Shards share only the [`HubShared`] sinks (scopes, store, counters)
//! and each other's lock-free-hinted inboxes for fan-out.
//!
//! One cycle, in order:
//!
//! 1. adopt connections parked in `pending`;
//! 2. collect readiness (epoll when available, hint/scan otherwise);
//! 3. read + parse every ready client — text lines and binary frames
//!    interleave freely (see [`crate::wire`]);
//! 4. deliver the parsed batch: store tee first, then scope buffers,
//!    then the inbox of every shard that has a subscriber
//!    (store-before-inbox is the ordering catch-up correctness rests
//!    on);
//! 5. drain this shard's inbox and fan out: the batch is encoded
//!    **once** per wire protocol, then memcpy'd into each live
//!    subscriber's bounded output queue;
//! 6. pump catching-up clients from the store via the seek index;
//! 7. flush each dirty output queue with a single `write` syscall;
//! 8. reap dead clients.
//!
//! # Waiting
//!
//! A shard thread blocks in its poller between cycles, with the shard
//! lock released, for as long as the cycle's
//! [`CycleOutcome::wait_ms`] allows — derived from shard state:
//!
//! * 0 ms while the shard carries hint-scanned connections: they have
//!   no kernel wakeup (the thread paces by `scan_pacing_us` instead);
//! * 1 ms with a subscriber (live or catching up) or a non-empty
//!   output queue: inbox pushes and short writes have no descriptor to
//!   wake the poller, and the 1 ms window merges cross-shard batches
//!   into one write;
//! * otherwise until the next deadline — a PING due under
//!   `ping_interval_us` or the duty-gauge window — unless a socket
//!   turns readable or the poller's waker fires first (a connection
//!   handed over by `pin_connection`, or the hub shutting down).
//!
//! # Backpressure state machine
//!
//! A subscriber is `Live` until a fan-out push would overflow its
//! bounded queue. Then the queue is **shed** — complete, untransmitted
//! data frames are discarded (never a partially-written frame: framing
//! survives), control frames are kept — and, when the hub has a store,
//! the client is demoted to `CatchUp`: it stops receiving live batches
//! and instead replays from the store starting at the first shed
//! tuple's time, through the O(log) seek index. The replay tails the
//! live store ([`StoreReader::refresh`]) until it drains completely
//! after a flush, then the client rejoins `Live` with a boundary: live
//! tuples at or before the boundary are skipped (they were replayed),
//! strictly newer ones flow again. Tuples timestamped exactly at the
//! boundary during the handover may be dropped — the §4.4 late-drop
//! rule applied to rejoin. Without a store the shed is lossy and the
//! client stays live (counted, so nothing is silent).

use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use gel::{TimeDelta, TimeStamp};
use gscope::{
    intern, write_tuple_line, ScopeError, SharedScope, SigConfig, SigSource, Tuple, TupleSource,
};
use gstore::{Store, StoreReader};
use gtel::{Counter, Gauge, Registry};
use parking_lot::{Mutex, RwLock};

use crate::clock::{wire_now_us, ClockEstimator, ClockStats};
use crate::poll::Poller;
use crate::wire::{
    decode_arg, decode_caps, decode_data, decode_origin, decode_pong, frame_arg, frame_ping,
    frame_pong, frame_welcome, split_message, BatchEncoder, Msg, Protocol, StreamConn, WireRec,
    FLAG_CLOCK_SYNC, LOCAL_CAPS, OP_CATCHUP_BEGIN, OP_CATCHUP_END, OP_DATA, OP_DATA_ORIGIN,
    OP_HELLO, OP_PING, OP_PONG, OP_SUB, OP_WELCOME, TEXT_CATCHUP_BEGIN, TEXT_CATCHUP_END, TEXT_SUB,
};

/// Hub tuning knobs. Defaults suit both the gel-driven inline mode and
/// the threaded mode.
#[derive(Clone, Copy, Debug)]
pub struct HubConfig {
    /// Shard count; 0 means `std::thread::available_parallelism()`.
    pub shards: usize,
    /// Per-client output queue bound in bytes. Overflow triggers the
    /// shed/catch-up transition.
    pub outbuf_cap: usize,
    /// Max bytes read across all of a shard's clients in one cycle.
    /// Bounds cycle latency under backlog: leftovers stay queued on
    /// their sockets and are re-reported by readiness next cycle,
    /// starting from a rotated scan offset for fairness.
    pub read_budget: usize,
    /// Max tuples replayed per catching-up client per cycle.
    pub catchup_chunk: usize,
    /// Pause between busy cycles (µs) on shards that carry
    /// hint-scanned connections (no kernel poller registration).
    /// Readiness scans have no kernel wakeup, so back-to-back cycles
    /// would spin; a short pause batches arrivals instead. Shards
    /// whose clients are all epoll-registered ignore this and block
    /// in the poller.
    pub scan_pacing_us: u64,
    /// Gap between server-initiated clock probes per negotiated
    /// client (µs). The server pings so *it* holds the per-client
    /// offset estimate — that is the number origin-stamped batches
    /// are rebased with at ingest.
    pub ping_interval_us: u64,
    /// Minimum gap (µs) between e2e attribution samples per client.
    /// Marks have watermark semantics — only the last unrendered
    /// chain per signal survives — so stamping every batch at high
    /// ingest rates buys nothing and costs a span record plus a
    /// histogram-map lock per batch. `0` stamps every origin batch
    /// (deterministic tests).
    pub mark_interval_us: u64,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            shards: 0,
            outbuf_cap: 256 << 10,
            read_budget: 256 << 10,
            catchup_chunk: 4096,
            scan_pacing_us: 200,
            ping_interval_us: 200_000,
            mark_interval_us: 1_000,
        }
    }
}

impl HubConfig {
    /// Resolves `shards == 0` to the machine's parallelism.
    pub(crate) fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// One tuple in flight between ingest and fan-out.
#[derive(Clone, Debug)]
pub(crate) struct Rec {
    pub time_us: u64,
    pub value: f64,
    pub name: Option<Arc<str>>,
}

/// Global hub counters, updated by every shard.
#[derive(Debug, Default)]
pub(crate) struct HubCounters {
    pub connections: AtomicU64,
    pub disconnects: AtomicU64,
    pub tuples_received: AtomicU64,
    pub parse_errors: AtomicU64,
    pub protocol_errors: AtomicU64,
    pub tuples_dropped: AtomicU64,
    pub tuples_stored: AtomicU64,
    pub store_drops: AtomicU64,
    pub store_errors: AtomicU64,
    pub catch_up_tuples: AtomicU64,
    pub tuples_out: AtomicU64,
    pub bytes_out: AtomicU64,
    pub shed_events: AtomicU64,
    pub tuples_shed: AtomicU64,
    pub catch_ups_entered: AtomicU64,
    pub catch_ups_completed: AtomicU64,
}

/// Cached gtel handles for one hub.
#[derive(Debug)]
pub(crate) struct ServerTelemetry {
    pub registry: Arc<Registry>,
    /// `net.server.connections` — connections accepted.
    pub connections: Arc<Counter>,
    /// `net.server.disconnects` — clients lost.
    pub disconnects: Arc<Counter>,
    /// `net.server.tuples_in` — tuples parsed and delivered.
    pub tuples_in: Arc<Counter>,
    /// `net.server.parse_errors` — undecodable lines skipped.
    pub parse_errors: Arc<Counter>,
    /// `net.server.protocol_errors` — broken frames / bad commands.
    pub protocol_errors: Arc<Counter>,
    /// `net.server.tuples_dropped` — tuples every scope rejected.
    pub tuples_dropped: Arc<Counter>,
    /// `net.server.clients` — currently connected clients.
    pub clients: Arc<Gauge>,
    /// `net.server.subscribers` — clients on the live feed.
    pub subscribers: Arc<Gauge>,
    /// `net.server.tuples_stored` — tuples teed into the store.
    pub tuples_stored: Arc<Counter>,
    /// `net.server.store_drops` — time-regressive tuples not stored.
    pub store_drops: Arc<Counter>,
    /// `net.server.store_errors` — store failures survived.
    pub store_errors: Arc<Counter>,
    /// `net.server.catch_up_tuples` — history replayed (to scopes or
    /// to backpressured subscribers).
    pub catch_up: Arc<Counter>,
    /// `net.server.tuples_out` — tuples queued to subscribers.
    pub tuples_out: Arc<Counter>,
    /// `net.server.bytes_out` — bytes written to subscriber sockets.
    pub bytes_out: Arc<Counter>,
    /// `net.server.sheds` — output-queue overflow events.
    pub sheds: Arc<Counter>,
    /// `net.server.catch_ups` — shed → store-replay demotions.
    pub catch_ups: Arc<Counter>,
    /// `net.server.tuples_shed` — tuples dropped by queue sheds.
    pub tuples_shed: Arc<Counter>,
    /// `net.server.clock.exchanges` — completed PING/PONG round trips.
    pub clock_exchanges: Arc<Counter>,
    /// `net.server.clock.offset_us` — most recent per-client offset.
    pub clock_offset: Arc<Gauge>,
    /// `net.server.clock.rtt_us` — most recent sync RTT.
    pub clock_rtt: Arc<Gauge>,
    /// `net.server.clock.error_us` — most recent offset error bound.
    pub clock_error: Arc<Gauge>,
    /// `net.server.duty_cycle` — busy ÷ wall across all shards (each
    /// shard publishes `net.server.shard<N>.duty_cycle` too).
    pub duty_cycle: Arc<Gauge>,
}

impl ServerTelemetry {
    pub(crate) fn new(registry: Arc<Registry>) -> Self {
        ServerTelemetry {
            tuples_shed: registry.counter("net.server.tuples_shed"),
            clock_exchanges: registry.counter("net.server.clock.exchanges"),
            clock_offset: registry.gauge("net.server.clock.offset_us"),
            clock_rtt: registry.gauge("net.server.clock.rtt_us"),
            clock_error: registry.gauge("net.server.clock.error_us"),
            duty_cycle: registry.gauge("net.server.duty_cycle"),
            connections: registry.counter("net.server.connections"),
            disconnects: registry.counter("net.server.disconnects"),
            tuples_in: registry.counter("net.server.tuples_in"),
            parse_errors: registry.counter("net.server.parse_errors"),
            protocol_errors: registry.counter("net.server.protocol_errors"),
            tuples_dropped: registry.counter("net.server.tuples_dropped"),
            clients: registry.gauge("net.server.clients"),
            subscribers: registry.gauge("net.server.subscribers"),
            tuples_stored: registry.counter("net.server.tuples_stored"),
            store_drops: registry.counter("net.server.store_drops"),
            store_errors: registry.counter("net.server.store_errors"),
            catch_up: registry.counter("net.server.catch_up_tuples"),
            tuples_out: registry.counter("net.server.tuples_out"),
            bytes_out: registry.counter("net.server.bytes_out"),
            sheds: registry.counter("net.server.sheds"),
            catch_ups: registry.counter("net.server.catch_ups"),
            registry,
        }
    }
}

impl Default for ServerTelemetry {
    fn default() -> Self {
        ServerTelemetry::new(Registry::shared())
    }
}

/// State shared by every shard of one hub.
pub(crate) struct HubShared {
    pub cfg: HubConfig,
    pub scopes: RwLock<Vec<SharedScope>>,
    pub store: Mutex<Option<Store>>,
    /// Cached `store.is_some()` so the fan-out path never locks.
    pub store_present: AtomicBool,
    /// Set by appends, cleared by flushes: lets catch-up decide when a
    /// flush could surface new frames.
    pub store_dirty: AtomicBool,
    pub auto_register: AtomicBool,
    pub client_count: AtomicUsize,
    /// Newest delivered tuple time (µs) — the live head.
    pub head_us: AtomicU64,
    pub counters: HubCounters,
    pub tel: RwLock<ServerTelemetry>,
    /// All shards of this hub, set once at construction; lets any
    /// shard fan a batch into every subscribed shard's inbox.
    pub shards: OnceLock<Vec<Arc<Shard>>>,
    /// Round-robin cursor for pinning connections.
    pub next_shard: AtomicUsize,
}

impl HubShared {
    pub(crate) fn new(cfg: HubConfig) -> HubShared {
        HubShared {
            cfg,
            scopes: RwLock::new(Vec::new()),
            store: Mutex::new(None),
            store_present: AtomicBool::new(false),
            store_dirty: AtomicBool::new(false),
            auto_register: AtomicBool::new(true),
            client_count: AtomicUsize::new(0),
            head_us: AtomicU64::new(0),
            counters: HubCounters::default(),
            tel: RwLock::new(ServerTelemetry::default()),
            shards: OnceLock::new(),
            next_shard: AtomicUsize::new(0),
        }
    }

    fn shard(&self, id: usize) -> &Shard {
        &self.shards.get().expect("shards installed at build")[id]
    }

    /// Subscribed clients across all shards (live or catching up).
    pub(crate) fn subscriber_count(&self) -> usize {
        self.shards.get().map_or(0, |shards| {
            shards
                .iter()
                .map(|s| s.subscribers.load(Ordering::Relaxed))
                .sum()
        })
    }

    /// Hands a connection to the next shard (round-robin) and wakes
    /// that shard's poller so it adopts the connection now.
    pub(crate) fn pin_connection(&self, conn: Box<dyn StreamConn>) {
        let shards = self.shards.get().expect("shards installed at build");
        let i = self.next_shard.fetch_add(1, Ordering::Relaxed) % shards.len();
        shards[i].pending.lock().push(conn);
        shards[i].pending_hint.store(true, Ordering::Release);
        shards[i].wake();
    }

    /// Flushes the store tee if dirty; returns false on store error.
    pub(crate) fn flush_store_if_dirty(&self) -> bool {
        if !self.store_dirty.swap(false, Ordering::AcqRel) {
            return true;
        }
        let mut guard = self.store.lock();
        match guard.as_mut().map(Store::flush) {
            None | Some(Ok(())) => true,
            Some(Err(_)) => {
                self.counters.store_errors.fetch_add(1, Ordering::Relaxed);
                self.tel.read().store_errors.inc();
                false
            }
        }
    }
}

/// Per-client counters, visible through
/// [`ScopeServer::client_stats`](crate::ScopeServer::client_stats) —
/// the per-client error accounting that makes one misbehaving client
/// stand out from the global aggregates.
#[derive(Clone, Debug, Default)]
pub struct ClientInfo {
    /// Peer identity (socket address or sim label).
    pub peer: String,
    /// Which shard owns the connection.
    pub shard: usize,
    /// Encoding the server sends to this client.
    pub protocol: Protocol,
    /// Subscribed to the live feed.
    pub subscribed: bool,
    /// Currently replaying from the store after a shed.
    pub catching_up: bool,
    /// Tuples ingested from this client.
    pub tuples_in: u64,
    /// Unparseable text lines from this client.
    pub parse_errors: u64,
    /// Broken frames / bad commands from this client.
    pub protocol_errors: u64,
    /// Tuples queued out to this client.
    pub tuples_out: u64,
    /// Bytes written to this client's socket.
    pub bytes_out: u64,
    /// Output-queue overflow events.
    pub shed_events: u64,
    /// Tuples discarded by those sheds (queued but never written).
    /// `tuples_out - tuples_shed - queue_tuples` is exactly what the
    /// peer has been sent — the reconciliation identity
    /// `tests/streaming_hub.rs` asserts.
    pub tuples_shed: u64,
    /// Catch-up demotions.
    pub catch_ups: u64,
    /// Current output-queue depth in bytes.
    pub queue_bytes: usize,
    /// Tuples still sitting in the output queue (complete frames plus
    /// any partially-written head).
    pub queue_tuples: u64,
    /// Node identity from the client's origin headers, when stamped.
    pub node_id: Option<u64>,
    /// Clock model for this connection (`None` until the first
    /// completed PING/PONG exchange).
    pub clock: Option<ClockStats>,
}

/// Accounting unit inside an output queue: one frame (or one text
/// chunk) and the earliest tuple time it carries.
#[derive(Clone, Copy, Debug)]
struct FrameMeta {
    len: u32,
    first_us: u64,
    /// Tuples the frame carries (0 for control frames) — what shed
    /// accounting and the reconciliation identity are counted in.
    count: u32,
    /// Control frames (WELCOME, catch-up markers) survive sheds.
    control: bool,
}

/// Bounded per-client send queue with frame-granular shedding.
#[derive(Default)]
struct OutQueue {
    buf: VecDeque<u8>,
    frames: VecDeque<FrameMeta>,
    /// Bytes of `frames[0]` already written to the socket.
    head_sent: usize,
}

impl OutQueue {
    fn len(&self) -> usize {
        self.buf.len()
    }

    fn push(&mut self, bytes: &[u8], first_us: u64, count: u64, control: bool) {
        if bytes.is_empty() {
            return;
        }
        self.buf.extend(bytes.iter().copied());
        self.frames.push_back(FrameMeta {
            len: bytes.len() as u32,
            first_us,
            count: count as u32,
            control,
        });
    }

    /// Tuples still queued (complete frames + partially-written head).
    fn queued_tuples(&self) -> u64 {
        self.frames.iter().map(|f| u64::from(f.count)).sum()
    }

    /// Accounts `n` drained bytes against the frame queue.
    fn consume(&mut self, mut n: usize) {
        while n > 0 {
            let head = self.frames.front().copied().expect("frame accounting");
            let head_left = head.len as usize - self.head_sent;
            if n >= head_left {
                n -= head_left;
                self.frames.pop_front();
                self.head_sent = 0;
            } else {
                self.head_sent += n;
                n = 0;
            }
        }
    }

    /// Writes as much as possible with at most one syscall per
    /// contiguous run (a wrapped ring needs a second).
    fn write_to(&mut self, conn: &mut dyn StreamConn) -> std::io::Result<usize> {
        let mut total = 0usize;
        loop {
            let (a, b) = self.buf.as_slices();
            let slice = if a.is_empty() { b } else { a };
            if slice.is_empty() {
                break;
            }
            match conn.write_nb(slice) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    let partial = n < slice.len();
                    self.buf.drain(..n);
                    self.consume(n);
                    total += n;
                    if partial {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    /// Drops every complete, untransmitted data frame; keeps the
    /// partially-written head (framing must survive) and control
    /// frames. Returns the earliest tuple time among dropped frames,
    /// the number of frames dropped, and the tuples they carried.
    fn shed(&mut self) -> (Option<u64>, u64, u64) {
        if self.frames.is_empty() {
            return (None, 0, 0);
        }
        let bytes = self.buf.make_contiguous();
        let mut kept_buf: Vec<u8> = Vec::new();
        let mut kept_frames: VecDeque<FrameMeta> = VecDeque::new();
        let mut offset = 0usize;
        let mut dropped_first: Option<u64> = None;
        let mut dropped = 0u64;
        let mut dropped_tuples = 0u64;
        let mut head_kept = false;
        for (i, f) in self.frames.iter().enumerate() {
            let in_buf = if i == 0 {
                f.len as usize - self.head_sent
            } else {
                f.len as usize
            };
            let keep = f.control || (i == 0 && self.head_sent > 0);
            if keep {
                kept_buf.extend_from_slice(&bytes[offset..offset + in_buf]);
                kept_frames.push_back(*f);
                if i == 0 {
                    head_kept = true;
                }
            } else {
                dropped += 1;
                dropped_tuples += u64::from(f.count);
                if dropped_first.is_none_or(|d| f.first_us < d) {
                    dropped_first = Some(f.first_us);
                }
            }
            offset += in_buf;
        }
        self.buf.clear();
        self.buf.extend(kept_buf);
        self.frames = kept_frames;
        if !head_kept {
            self.head_sent = 0;
        }
        (dropped_first, dropped, dropped_tuples)
    }
}

/// Store-replay state of a demoted client.
struct CatchUpState {
    reader: Option<StoreReader>,
    /// Replay start (first shed tuple's time).
    from_us: u64,
    /// Newest replayed tuple time.
    last_us: u64,
}

enum Mode {
    Live,
    CatchUp(CatchUpState),
}

/// One connection owned by a shard.
struct ClientState {
    conn: Box<dyn StreamConn>,
    token: u64,
    /// Registered with the shard's kernel poller.
    polled: bool,
    inbuf: Vec<u8>,
    out: OutQueue,
    /// Encoding we send to this client (HELLO upgrades it).
    proto: Protocol,
    subscribed: bool,
    mode: Mode,
    /// After catch-up: skip live tuples with `time <= boundary`.
    /// 0 = inactive.
    boundary_us: u64,
    /// Negotiated capability bits (peer's HELLO flags ∩ ours).
    caps: u8,
    /// Clock model for this connection, fed by our PINGs and the
    /// peer's PONGs — the offset origin-stamped batches are rebased
    /// with at ingest.
    clock: ClockEstimator,
    /// Local µs when we last sent a PING (0 = never).
    last_ping_us: u64,
    /// Local µs when we last stamped an e2e mark (0 = never); paces
    /// attribution sampling to `HubConfig::mark_interval_us`.
    last_mark_us: u64,
    info: ClientInfo,
    dead: bool,
}

/// One shard: its clients and scratch buffers behind one mutex that
/// only this shard's loop (or the inline facade) takes, plus the
/// poller, which sits outside the lock so the shard thread can block
/// in it without stalling `client_stats` or an inline poll.
pub(crate) struct Shard {
    pub id: usize,
    core: Mutex<ShardCore>,
    /// Kernel readiness poller (`None`: every client is hint-scanned).
    pub(crate) poller: Option<Poller>,
    /// Batches fanned in from any shard's ingest.
    inbox: Mutex<Vec<Rec>>,
    inbox_hint: AtomicBool,
    /// Connections parked here by `pin_connection`.
    pending: Mutex<Vec<Box<dyn StreamConn>>>,
    pending_hint: AtomicBool,
    /// Subscribed clients on this shard (live or catching up). Ingest
    /// pushes into this shard's inbox only while it is non-zero; the
    /// hub-wide count is the sum over shards.
    subscribers: AtomicUsize,
    /// Latest published duty cycle (`f64::to_bits`), readable by any
    /// shard so one of them can maintain the hub-wide mean gauge.
    duty_bits: AtomicU64,
}

/// What one [`cycle`] did, and how long its shard thread may block in
/// the poller before the next one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CycleOutcome {
    /// Any work happened.
    pub worked: bool,
    /// The shard carries hint-scanned connections, which no kernel
    /// wakeup covers.
    pub scanning: bool,
    /// Longest poller wait (ms) before the next cycle is due; see the
    /// module docs for the rule.
    pub wait_ms: i32,
}

/// The lock-protected interior of a shard.
struct ShardCore {
    id: usize,
    clients: Vec<ClientState>,
    tokens: HashMap<u64, usize>,
    next_token: u64,
    read_buf: Vec<u8>,
    /// Tuples parsed from this shard's clients this cycle.
    ingest: Vec<Rec>,
    /// DATA frame decode scratch.
    wire_scratch: Vec<WireRec>,
    /// Inbox drain scratch.
    batch: Vec<Rec>,
    /// Shared batch encoder (encode-once fan-out + catch-up).
    enc: BatchEncoder,
    bin_scratch: Vec<u8>,
    text_scratch: Vec<u8>,
    filt_scratch: Vec<u8>,
    ready_tokens: Vec<u64>,
    to_read: Vec<usize>,
    /// Per-rec scope-acceptance scratch for drop accounting.
    accept_scratch: Vec<bool>,
    /// Live clients with no kernel-poller registration (their
    /// readiness comes from hint scans, not epoll).
    unpolled: usize,
    /// Rotating start index for the readiness scan, so the per-cycle
    /// read budget is spread fairly across the population.
    scan_start: usize,
    /// Hub-side waypoints of the newest origin-stamped batch this
    /// cycle; `deliver_batch` completes it (route/push legs) and
    /// hands it to the e2e attribution collector.
    pending_mark: Option<gtel::BatchMark>,
    /// Cycle busy-time accumulator for the duty-cycle gauges.
    busy: loadmeter::BusyMeter,
    /// Start (local µs) of the current duty-cycle window.
    busy_window_us: u64,
    /// Lazily resolved `net.server.shard<N>.duty_cycle` gauge.
    duty_gauge: Option<Arc<Gauge>>,
}

/// Duty-cycle gauges refresh on this wall-clock cadence (µs).
const DUTY_WINDOW_US: u64 = 250_000;

impl Shard {
    pub(crate) fn new(id: usize) -> Shard {
        Shard {
            id,
            core: Mutex::new(ShardCore {
                id,
                clients: Vec::new(),
                tokens: HashMap::new(),
                next_token: 1,
                read_buf: vec![0u8; 64 << 10],
                ingest: Vec::new(),
                wire_scratch: Vec::new(),
                batch: Vec::new(),
                enc: BatchEncoder::new(),
                bin_scratch: Vec::new(),
                text_scratch: Vec::new(),
                filt_scratch: Vec::new(),
                ready_tokens: Vec::new(),
                to_read: Vec::new(),
                accept_scratch: Vec::new(),
                unpolled: 0,
                scan_start: 0,
                pending_mark: None,
                busy: loadmeter::BusyMeter::new(),
                busy_window_us: 0,
                duty_gauge: None,
            }),
            poller: Poller::new(),
            inbox: Mutex::new(Vec::new()),
            inbox_hint: AtomicBool::new(false),
            pending: Mutex::new(Vec::new()),
            pending_hint: AtomicBool::new(false),
            subscribers: AtomicUsize::new(0),
            duty_bits: AtomicU64::new(0),
        }
    }

    /// Ends this shard's poller wait early (no-op without a poller).
    pub(crate) fn wake(&self) {
        if let Some(poller) = &self.poller {
            poller.wake();
        }
    }

    /// Snapshot of per-client counters.
    pub(crate) fn client_stats(&self) -> Vec<ClientInfo> {
        let core = self.core.lock();
        core.clients
            .iter()
            .map(|c| {
                let mut info = c.info.clone();
                info.queue_bytes = c.out.len();
                info.queue_tuples = c.out.queued_tuples();
                info.subscribed = c.subscribed;
                info.catching_up = matches!(c.mode, Mode::CatchUp(_));
                info.protocol = c.proto;
                info.clock = c.clock.stats();
                info
            })
            .collect()
    }
}

/// Runs one cycle of `shard`'s loop. `ready` carries the tokens of a
/// poller wait the shard thread already did (outside the shard lock);
/// `None` polls without blocking instead (inline/gel use).
pub(crate) fn cycle(shard: &Shard, shared: &HubShared, ready: Option<&[u64]>) -> CycleOutcome {
    let begin_ns = gtel::fast_now_ns();
    let mut core = shard.core.lock();
    let core = &mut *core;
    let mut worked = false;

    // 1. Adopt connections parked by `pin_connection`.
    if shard.pending_hint.swap(false, Ordering::AcqRel) {
        let mut pending = std::mem::take(&mut *shard.pending.lock());
        for conn in pending.drain(..) {
            core.add_client(conn, shard, shared);
            worked = true;
        }
    }

    // 2. Readiness: kernel poller for real sockets, hints for sims.
    // Tokens the poller reports for anything but a client (its waker,
    // a listener) have no entry in `tokens` and fall through.
    core.ready_tokens.clear();
    core.to_read.clear();
    match ready {
        Some(tokens) => core.ready_tokens.extend_from_slice(tokens),
        None => {
            if let Some(poller) = &shard.poller {
                poller.wait(&mut core.ready_tokens, 0);
            }
        }
    }
    for token in &core.ready_tokens {
        if let Some(&idx) = core.tokens.get(token) {
            core.to_read.push(idx);
        }
    }
    // The scan starts at a rotating offset so the per-cycle read
    // budget below cannot systematically starve high-numbered clients.
    let n_clients = core.clients.len();
    if n_clients > 0 {
        core.scan_start %= n_clients;
        for off in 0..n_clients {
            let idx = (core.scan_start + off) % n_clients;
            let c = &core.clients[idx];
            if c.polled || c.dead {
                continue;
            }
            match c.conn.readable_hint() {
                Some(true) | None => core.to_read.push(idx),
                Some(false) => {}
            }
        }
        core.scan_start += 1;
    }

    // 3 + 4. Read, parse, deliver. `read_budget` bounds the bytes
    // read across the whole cycle, not per client: a backlogged
    // population must not produce one giant cycle that holds the
    // shard lock and delays fan-out for everything else.
    let read_list = std::mem::take(&mut core.to_read);
    let mut budget = shared.cfg.read_budget;
    for &idx in &read_list {
        if budget == 0 {
            // Leftovers stay queued on their sockets; readiness
            // re-reports them next cycle.
            break;
        }
        worked |= read_client(core, idx, shared, &mut budget);
    }
    core.to_read = read_list;
    if !core.ingest.is_empty() {
        deliver_batch(core, shared);
        worked = true;
    }

    // 5. Drain this shard's inbox and fan out to subscribers.
    if shard.inbox_hint.swap(false, Ordering::AcqRel) {
        core.batch.clear();
        core.batch.append(&mut shard.inbox.lock());
        if !core.batch.is_empty() {
            fan_out(core, shared);
            worked = true;
        }
    }

    // 6. Pump store replays for catching-up clients.
    for idx in 0..core.clients.len() {
        if matches!(core.clients[idx].mode, Mode::CatchUp(_)) {
            worked |= pump_catch_up(core, idx, shared);
        }
    }

    // 6b. Clock probes: ping each sync-negotiated client on the
    // configured cadence, right before the flush below so t0 is as
    // close to the socket write as the cycle allows. The earliest
    // next probe is a deadline for the shard's wait.
    let now_us = wire_now_us();
    let ping_interval = shared.cfg.ping_interval_us;
    let mut next_ping_us = u64::MAX;
    for c in core.clients.iter_mut() {
        if c.dead || c.caps & FLAG_CLOCK_SYNC == 0 {
            continue;
        }
        if now_us.saturating_sub(c.last_ping_us) >= ping_interval {
            c.last_ping_us = now_us;
            let mut frame = Vec::with_capacity(16);
            frame_ping(&mut frame, wire_now_us());
            c.out.push(&frame, 0, 0, true);
            worked = true;
        }
        next_ping_us = next_ping_us.min(c.last_ping_us.saturating_add(ping_interval));
    }

    // 7. Flush output queues: one gather per client. Bytes a short
    // write leaves behind have no readiness event to wake the shard.
    let mut flushed = 0u64;
    let mut queued = false;
    for c in core.clients.iter_mut() {
        if c.dead || c.out.len() == 0 {
            continue;
        }
        match c.out.write_to(c.conn.as_mut()) {
            Ok(n) => {
                if n > 0 {
                    c.info.bytes_out += n as u64;
                    flushed += n as u64;
                    worked = true;
                }
                queued |= c.out.len() > 0;
            }
            Err(_) => {
                c.dead = true;
                worked = true;
            }
        }
    }
    if flushed > 0 {
        shared
            .counters
            .bytes_out
            .fetch_add(flushed, Ordering::Relaxed);
        shared.tel.read().bytes_out.add(flushed);
    }

    // 8. Reap the dead.
    core.reap(shard, shared);

    if worked {
        // Same label the single-threaded server used, so traces stay
        // comparable; arg = shard id. Idle cycles are not recorded.
        gtel::complete_span("net.server.poll", shard.id as u64, begin_ns);
        let tel = shared.tel.read();
        tel.clients
            .set_count(shared.client_count.load(Ordering::Relaxed));
        tel.subscribers.set_count(shared.subscriber_count());
    }

    // Duty-cycle accounting: the whole cycle counts as busy (the
    // thread's blocking wait happens outside it); gauges refresh on
    // the window cadence so the figure tracks recent load, not
    // lifetime.
    let busy_ns = gtel::fast_now_ns().saturating_sub(begin_ns);
    core.busy.add_busy(std::time::Duration::from_nanos(busy_ns));
    let now_us = wire_now_us();
    if now_us.saturating_sub(core.busy_window_us) >= DUTY_WINDOW_US {
        core.busy_window_us = now_us;
        let duty = core.busy.duty_cycle();
        core.busy.reset();
        shard.duty_bits.store(duty.to_bits(), Ordering::Relaxed);
        let tel = shared.tel.read();
        core.duty_gauge
            .get_or_insert_with(|| {
                tel.registry
                    .gauge(&format!("net.server.shard{}.duty_cycle", shard.id))
            })
            .set(duty);
        if let Some(shards) = shared.shards.get() {
            let mean = shards
                .iter()
                .map(|s| f64::from_bits(s.duty_bits.load(Ordering::Relaxed)))
                .sum::<f64>()
                / shards.len().max(1) as f64;
            tel.duty_cycle.set(mean);
        }
    }

    // How long the shard thread may block before the next cycle.
    let scanning = core.unpolled > 0;
    let wait_ms = if scanning {
        0
    } else if queued || shard.subscribers.load(Ordering::Relaxed) > 0 {
        1
    } else {
        let due_us = next_ping_us.min(core.busy_window_us + DUTY_WINDOW_US);
        let wait_us = due_us.saturating_sub(wire_now_us());
        i32::try_from(wait_us.div_ceil(1_000)).unwrap_or(i32::MAX)
    };
    CycleOutcome {
        worked,
        scanning,
        wait_ms,
    }
}

impl ShardCore {
    fn add_client(&mut self, conn: Box<dyn StreamConn>, shard: &Shard, shared: &HubShared) {
        let token = self.next_token;
        self.next_token += 1;
        let mut polled = false;
        if let (Some(poller), Some(fd)) = (&shard.poller, conn.raw_fd()) {
            polled = poller.add(fd, token);
        }
        let peer = conn.peer_label();
        let idx = self.clients.len();
        self.clients.push(ClientState {
            conn,
            token,
            polled,
            inbuf: Vec::new(),
            out: OutQueue::default(),
            proto: Protocol::Text,
            subscribed: false,
            mode: Mode::Live,
            boundary_us: 0,
            caps: 0,
            clock: ClockEstimator::new(),
            last_ping_us: 0,
            last_mark_us: 0,
            info: ClientInfo {
                peer,
                shard: self.id,
                ..ClientInfo::default()
            },
            dead: false,
        });
        if !polled {
            self.unpolled += 1;
        }
        self.tokens.insert(token, idx);
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        shared.client_count.fetch_add(1, Ordering::Relaxed);
        shared.tel.read().connections.inc();
    }

    fn reap(&mut self, shard: &Shard, shared: &HubShared) {
        let mut i = 0;
        while i < self.clients.len() {
            if !self.clients[i].dead {
                i += 1;
                continue;
            }
            let c = self.clients.swap_remove(i);
            if c.polled {
                if let (Some(poller), Some(fd)) = (&shard.poller, c.conn.raw_fd()) {
                    poller.del(fd);
                }
            } else {
                self.unpolled -= 1;
            }
            self.tokens.remove(&c.token);
            if let Some(moved) = self.clients.get(i) {
                self.tokens.insert(moved.token, i);
            }
            if c.subscribed {
                shard.subscribers.fetch_sub(1, Ordering::Relaxed);
            }
            shared.counters.disconnects.fetch_add(1, Ordering::Relaxed);
            shared.client_count.fetch_sub(1, Ordering::Relaxed);
            shared.tel.read().disconnects.inc();
        }
    }
}

/// Reads one client's socket against the cycle's remaining byte
/// `budget` and parses every complete message. Returns true when
/// bytes moved or the client died.
fn read_client(core: &mut ShardCore, idx: usize, shared: &HubShared, budget: &mut usize) -> bool {
    let ShardCore {
        clients,
        read_buf,
        ingest,
        wire_scratch,
        pending_mark,
        ..
    } = core;
    let c = &mut clients[idx];
    if c.dead {
        return false;
    }
    // Each read is parsed as it arrives. Complete messages in a read
    // that found the client's buffer empty are handled straight out of
    // the shared read buffer — zero copy, the steady-state path — and
    // only a trailing partial message is stashed in `c.inbuf`. Bytes
    // that land behind an existing partial go through the buffered
    // path. Parsing-before-EOF means everything received ahead of a
    // hangup is still delivered; only a fatal protocol violation
    // abandons the rest of a buffer.
    let mut total = 0usize;
    loop {
        match c.conn.read_nb(read_buf) {
            Ok(0) => {
                c.dead = true;
                break;
            }
            Ok(n) => {
                total += n;
                if c.inbuf.is_empty() {
                    let consumed = parse_buffer(
                        c,
                        &read_buf[..n],
                        ingest,
                        wire_scratch,
                        pending_mark,
                        shared,
                    );
                    if consumed < n && !c.dead {
                        c.inbuf.extend_from_slice(&read_buf[consumed..n]);
                    }
                } else {
                    c.inbuf.extend_from_slice(&read_buf[..n]);
                    let mut pending = std::mem::take(&mut c.inbuf);
                    let consumed =
                        parse_buffer(c, &pending, ingest, wire_scratch, pending_mark, shared);
                    pending.drain(..consumed);
                    c.inbuf = pending;
                }
                if c.dead || total >= *budget {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                break;
            }
        }
    }
    // Charge the cycle budget (may overshoot by at most one read-buf
    // fill; the next client sees budget 0 and waits a cycle).
    *budget = budget.saturating_sub(total);
    if total == 0 && !c.dead {
        return false;
    }
    // A peer that streams unframed garbage without newlines would grow
    // the partial buffer forever; that is a protocol violation too.
    if c.inbuf.len() > 2 * crate::wire::MAX_FRAME_LEN as usize {
        count_protocol_error(c, shared);
        c.dead = true;
    }
    true
}

/// Parses every complete message in `bytes`, returning how many bytes
/// were consumed. A fatal protocol violation kills the client and
/// abandons the remainder.
fn parse_buffer(
    c: &mut ClientState,
    bytes: &[u8],
    ingest: &mut Vec<Rec>,
    wire_scratch: &mut Vec<WireRec>,
    pending_mark: &mut Option<gtel::BatchMark>,
    shared: &HubShared,
) -> usize {
    let mut consumed = 0usize;
    let mut lineno = 0usize;
    loop {
        match split_message(&bytes[consumed..]) {
            Ok(None) => break,
            Ok(Some((msg, n))) => {
                consumed += n;
                match msg {
                    Msg::Line(line) => {
                        lineno += 1;
                        handle_line(c, line, lineno, ingest, shared);
                    }
                    Msg::Frame { op, body } => {
                        handle_frame(c, op, body, ingest, wire_scratch, pending_mark, shared);
                    }
                }
                if c.dead {
                    break;
                }
            }
            Err(_) => {
                // Framing lost: nothing downstream is trustworthy.
                count_protocol_error(c, shared);
                c.dead = true;
                break;
            }
        }
    }
    consumed
}

fn count_protocol_error(c: &mut ClientState, shared: &HubShared) {
    c.info.protocol_errors += 1;
    shared
        .counters
        .protocol_errors
        .fetch_add(1, Ordering::Relaxed);
    shared.tel.read().protocol_errors.inc();
}

fn subscribe(c: &mut ClientState, shared: &HubShared) {
    if !c.subscribed {
        c.subscribed = true;
        shared
            .shard(c.info.shard)
            .subscribers
            .fetch_add(1, Ordering::Relaxed);
    }
}

fn handle_line(
    c: &mut ClientState,
    line: &[u8],
    lineno: usize,
    ingest: &mut Vec<Rec>,
    shared: &HubShared,
) {
    let Ok(text) = std::str::from_utf8(line) else {
        c.info.parse_errors += 1;
        shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
        shared.tel.read().parse_errors.inc();
        return;
    };
    let trimmed = text.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return;
    }
    if let Some(cmd) = trimmed.strip_prefix('!') {
        if cmd.trim() == &TEXT_SUB[1..] {
            subscribe(c, shared);
        } else {
            count_protocol_error(c, shared);
        }
        return;
    }
    match Tuple::parse_raw(trimmed, lineno) {
        Ok(raw) => {
            ingest.push(Rec {
                time_us: raw.time.as_micros(),
                value: raw.value,
                name: raw.name.map(intern),
            });
            c.info.tuples_in += 1;
        }
        Err(_) => {
            c.info.parse_errors += 1;
            shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
            shared.tel.read().parse_errors.inc();
        }
    }
}

fn handle_frame(
    c: &mut ClientState,
    op: u8,
    body: &[u8],
    ingest: &mut Vec<Rec>,
    wire_scratch: &mut Vec<WireRec>,
    pending_mark: &mut Option<gtel::BatchMark>,
    shared: &HubShared,
) {
    match op {
        OP_HELLO => {
            // Capability announced: answer WELCOME with the
            // intersection of the peer's bits and ours, and switch
            // this client's downstream encoding to binary. A v1 HELLO
            // carries no flags byte; `decode_caps` reads that as 0, so
            // the intersection (and the whole clock/origin machinery)
            // stays off — byte-identical legacy behaviour.
            let (_ver, peer_caps) = decode_caps(body);
            c.caps = peer_caps & LOCAL_CAPS;
            c.proto = Protocol::Binary;
            let mut frame = Vec::with_capacity(8);
            frame_welcome(&mut frame, c.caps);
            c.out.push(&frame, 0, 0, true);
        }
        OP_SUB => subscribe(c, shared),
        OP_DATA => {
            wire_scratch.clear();
            match decode_data(body, wire_scratch) {
                Ok(n) => {
                    for rec in wire_scratch.drain(..) {
                        ingest.push(Rec {
                            time_us: rec.time_us,
                            value: rec.value,
                            name: rec.name,
                        });
                    }
                    c.info.tuples_in += u64::from(n);
                }
                Err(_) => {
                    // A corrupt batch means framing state is suspect.
                    count_protocol_error(c, shared);
                    c.dead = true;
                }
            }
        }
        OP_DATA_ORIGIN => {
            // An origin-stamped batch: a self-describing header (node
            // id, producer flush time, producer span id) in front of a
            // plain DATA body.
            let parsed = decode_origin(body).and_then(|(origin, used)| {
                wire_scratch.clear();
                decode_data(&body[used..], wire_scratch).map(|n| (origin, n))
            });
            match parsed {
                Ok((origin, n)) => {
                    for rec in wire_scratch.drain(..) {
                        ingest.push(Rec {
                            time_us: rec.time_us,
                            value: rec.value,
                            name: rec.name,
                        });
                    }
                    c.info.tuples_in += u64::from(n);
                    c.info.node_id = Some(origin.node_id);
                    // Attribution sampling, paced to mark_interval_us:
                    // marks have watermark semantics (only the last
                    // unrendered chain per signal survives), so at
                    // high batch rates the span record and histogram
                    // locks below would be pure overhead on the
                    // ingest hot path.
                    let recv_us = wire_now_us();
                    if recv_us.saturating_sub(c.last_mark_us) >= shared.cfg.mark_interval_us {
                        c.last_mark_us = recv_us;
                        // Ingest span keyed by the *producer's* span
                        // id — the pairing `gtool trace merge` uses to
                        // draw the producer → hub communication edge.
                        if origin.span_id != 0 {
                            gtel::complete_span("net.ingest", origin.span_id, recv_us * 1_000);
                        }
                        // Stamp the hub-side waypoints once the clock
                        // model can rebase the producer's flush time
                        // onto our timebase with a quotable error
                        // bound.
                        if let Some(stats) = c.clock.stats() {
                            *pending_mark = Some(gtel::BatchMark {
                                send_us: origin.send_us as i64 - stats.offset_us.round() as i64,
                                recv_us,
                                parse_us: wire_now_us(),
                                route_us: 0,
                                push_us: 0,
                                clock_error_us: stats.error_us.ceil() as u64,
                            });
                        }
                    }
                }
                Err(_) => {
                    // A corrupt batch means framing state is suspect.
                    count_protocol_error(c, shared);
                    c.dead = true;
                }
            }
        }
        OP_PING => match decode_arg(body) {
            // Clock probe: echo the peer's t0 with our receive/send
            // stamps. Answered even when the peer never negotiated —
            // harmless, and it keeps the exchange symmetric.
            Ok(t0) => {
                let now = wire_now_us();
                let mut frame = Vec::with_capacity(40);
                frame_pong(&mut frame, t0, now, now);
                c.out.push(&frame, 0, 0, true);
            }
            Err(_) => count_protocol_error(c, shared),
        },
        OP_PONG => match decode_pong(body) {
            // Reply to one of our probes: fold the four timestamps
            // into this connection's clock model.
            Ok((t0, t1, t2)) => {
                c.clock.update(t0, t1, t2, wire_now_us());
                if let Some(stats) = c.clock.stats() {
                    let tel = shared.tel.read();
                    tel.clock_exchanges.inc();
                    tel.clock_offset.set(stats.offset_us);
                    tel.clock_rtt.set(stats.rtt_us);
                    tel.clock_error.set(stats.error_us);
                }
            }
            Err(_) => count_protocol_error(c, shared),
        },
        OP_WELCOME | OP_CATCHUP_BEGIN | OP_CATCHUP_END => {
            // Server-to-client opcodes arriving at the server: count,
            // drop, keep the connection (could be a confused proxy).
            count_protocol_error(c, shared);
        }
        _ => {
            // Unknown opcode: tolerated for forward compatibility.
            count_protocol_error(c, shared);
        }
    }
}

/// Delivers this cycle's parsed tuples: store tee first, then scope
/// buffers, then every shard's subscriber inbox. Store-before-inbox is
/// what lets catch-up guarantee no gaps (a tuple a catching-up client
/// misses live is always already in the store).
fn deliver_batch(core: &mut ShardCore, shared: &HubShared) {
    // Origin-stamped cycle: the routing decision is made now; the
    // push leg completes when the scope buffers have the batch.
    let mut mark = core.pending_mark.take();
    if let Some(m) = mark.as_mut() {
        m.route_us = wire_now_us();
    }
    let batch = &mut core.ingest;
    let n = batch.len() as u64;
    // Store tee: one lock for the whole batch.
    if shared.store_present.load(Ordering::Acquire) {
        let mut stored = 0u64;
        let mut drops = 0u64;
        let mut errors = 0u64;
        let mut guard = shared.store.lock();
        if let Some(store) = guard.as_mut() {
            for rec in batch.iter() {
                match store.append(
                    TimeStamp::from_micros(rec.time_us),
                    rec.value,
                    rec.name.as_deref(),
                ) {
                    Ok(()) => stored += 1,
                    Err(ScopeError::TupleOrder { .. }) => drops += 1,
                    Err(_) => errors += 1,
                }
            }
        }
        drop(guard);
        if stored > 0 {
            shared.store_dirty.store(true, Ordering::Release);
            shared
                .counters
                .tuples_stored
                .fetch_add(stored, Ordering::Relaxed);
        }
        if drops > 0 {
            shared
                .counters
                .store_drops
                .fetch_add(drops, Ordering::Relaxed);
        }
        if errors > 0 {
            shared
                .counters
                .store_errors
                .fetch_add(errors, Ordering::Relaxed);
        }
        let tel = shared.tel.read();
        tel.tuples_stored.add(stored);
        tel.store_drops.add(drops);
        tel.store_errors.add(errors);
    }
    // Scope buffers: one scope lock per scope per batch.
    let scopes = shared.scopes.read();
    let dropped: u64;
    if scopes.is_empty() {
        dropped = n;
    } else {
        let auto = shared.auto_register.load(Ordering::Relaxed);
        core.accept_scratch.clear();
        core.accept_scratch.resize(batch.len(), false);
        for scope in scopes.iter() {
            let mut guard = scope.lock();
            for (i, rec) in batch.iter().enumerate() {
                let tuple = Tuple {
                    time: TimeStamp::from_micros(rec.time_us),
                    value: rec.value,
                    name: rec.name.clone(),
                };
                if auto {
                    let name = tuple.name.as_deref().unwrap_or(gscope::UNNAMED_SIGNAL);
                    if guard.signal(name).is_none() {
                        let _ = guard.add_signal(name, SigSource::Buffer, SigConfig::default());
                    }
                }
                if guard.buffer().push(tuple) {
                    core.accept_scratch[i] = true;
                }
            }
        }
        dropped = core.accept_scratch.iter().filter(|&&a| !a).count() as u64;
    }
    drop(scopes);
    // Hand one completed hub-side chain per signal in the batch to
    // the attribution collector (watermark semantics downstream).
    if let Some(mut m) = mark {
        m.push_us = wire_now_us();
        let e2e = gtel::e2e();
        let mut seen: Vec<&str> = Vec::new();
        for rec in batch.iter() {
            let name = rec.name.as_deref().unwrap_or(gscope::UNNAMED_SIGNAL);
            if seen.contains(&name) {
                continue;
            }
            if seen.len() >= 64 {
                break; // pathological batches: cap the per-cycle scan
            }
            seen.push(name);
            e2e.mark_push(name, m);
        }
    }
    // Fan out only into the inboxes of shards with a subscriber to
    // drain them — ingest-only hubs and subscriber-free shards pay
    // nothing here. A catching-up subscriber still counts: its shard
    // must keep receiving so the rejoin leaves no gap.
    let shards = shared.shards.get().expect("shards installed");
    for sh in shards.iter() {
        if sh.subscribers.load(Ordering::Relaxed) > 0 {
            sh.inbox.lock().extend_from_slice(batch);
            sh.inbox_hint.store(true, Ordering::Release);
        }
    }
    // Advance the live head.
    let max_us = batch.iter().map(|r| r.time_us).max().unwrap_or(0);
    shared.head_us.fetch_max(max_us, Ordering::AcqRel);
    shared
        .counters
        .tuples_received
        .fetch_add(n, Ordering::Relaxed);
    if dropped > 0 {
        shared
            .counters
            .tuples_dropped
            .fetch_add(dropped, Ordering::Relaxed);
    }
    let tel = shared.tel.read();
    tel.tuples_in.add(n);
    tel.tuples_dropped.add(dropped);
    drop(tel);
    batch.clear();
}

/// Encodes the inbox batch once per wire protocol and copies it into
/// every live subscriber's queue, demoting overflowing clients.
fn fan_out(core: &mut ShardCore, shared: &HubShared) {
    let ShardCore {
        clients,
        batch,
        enc,
        bin_scratch,
        text_scratch,
        filt_scratch,
        ..
    } = core;
    let batch_min = batch.iter().map(|r| r.time_us).min().unwrap_or(0);
    let batch_first = batch.first().map_or(0, |r| r.time_us);
    let count = batch.len() as u64;
    // Pass 1: which encodings does anyone need?
    let mut need_bin = false;
    let mut need_text = false;
    for c in clients.iter() {
        if c.dead || !c.subscribed || matches!(c.mode, Mode::CatchUp(_)) {
            continue;
        }
        match c.proto {
            Protocol::Binary => need_bin = true,
            Protocol::Text => need_text = true,
        }
    }
    if !need_bin && !need_text {
        return;
    }
    // Encode once.
    bin_scratch.clear();
    text_scratch.clear();
    if need_bin {
        for rec in batch.iter() {
            enc.push(rec.time_us, rec.value, rec.name.as_ref());
        }
        enc.frame_into(bin_scratch);
    }
    if need_text {
        for rec in batch.iter() {
            write_tuple_line(
                text_scratch,
                TimeStamp::from_micros(rec.time_us),
                rec.value,
                rec.name.as_deref(),
            );
            text_scratch.push(b'\n');
        }
    }
    // Pass 2: copy into each subscriber's queue.
    let mut queued_total = 0u64;
    for c in clients.iter_mut() {
        if c.dead || !c.subscribed || matches!(c.mode, Mode::CatchUp(_)) {
            continue;
        }
        // Rejoin boundary: once the whole batch is past it, stop
        // filtering for good.
        if c.boundary_us != 0 && batch_min > c.boundary_us {
            c.boundary_us = 0;
        }
        let (bytes, ntuples): (&[u8], u64) = if c.boundary_us == 0 {
            match c.proto {
                Protocol::Binary => (bin_scratch.as_slice(), count),
                Protocol::Text => (text_scratch.as_slice(), count),
            }
        } else {
            // Per-client filtered encode, only while the boundary is
            // active (at most a few batches after rejoin).
            filt_scratch.clear();
            let mut kept = 0u64;
            match c.proto {
                Protocol::Binary => {
                    enc.reset();
                    for rec in batch.iter().filter(|r| r.time_us > c.boundary_us) {
                        enc.push(rec.time_us, rec.value, rec.name.as_ref());
                        kept += 1;
                    }
                    enc.frame_into(filt_scratch);
                }
                Protocol::Text => {
                    for rec in batch.iter().filter(|r| r.time_us > c.boundary_us) {
                        write_tuple_line(
                            filt_scratch,
                            TimeStamp::from_micros(rec.time_us),
                            rec.value,
                            rec.name.as_deref(),
                        );
                        filt_scratch.push(b'\n');
                        kept += 1;
                    }
                }
            }
            (filt_scratch.as_slice(), kept)
        };
        if bytes.is_empty() {
            continue;
        }
        if c.out.len() + bytes.len() > shared.cfg.outbuf_cap {
            overflow(c, batch_first, shared);
            // With a store the client is now catching up (this batch
            // comes from the store); without one, try the freshest
            // batch after the shed and drop it if it still won't fit.
            if matches!(c.mode, Mode::Live) && c.out.len() + bytes.len() <= shared.cfg.outbuf_cap {
                c.out.push(bytes, batch_first, ntuples, false);
                c.info.tuples_out += ntuples;
                queued_total += ntuples;
            }
            continue;
        }
        c.out.push(bytes, batch_first, ntuples, false);
        c.info.tuples_out += ntuples;
        queued_total += ntuples;
    }
    if queued_total > 0 {
        shared
            .counters
            .tuples_out
            .fetch_add(queued_total, Ordering::Relaxed);
        shared.tel.read().tuples_out.add(queued_total);
    }
    batch.clear();
}

/// Handles an output-queue overflow: shed, then demote to store
/// catch-up when a store exists.
fn overflow(c: &mut ClientState, batch_first_us: u64, shared: &HubShared) {
    let (dropped_from, dropped_frames, dropped_tuples) = c.out.shed();
    c.info.shed_events += 1;
    c.info.tuples_shed += dropped_tuples;
    shared.counters.shed_events.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .tuples_shed
        .fetch_add(dropped_tuples, Ordering::Relaxed);
    {
        let tel = shared.tel.read();
        tel.sheds.inc();
        tel.tuples_shed.add(dropped_tuples);
    }
    gtel::instant("net.server.shed", dropped_frames as f64);
    if !shared.store_present.load(Ordering::Acquire) {
        return; // lossy mode: stay live, the shed made room
    }
    let from_us = dropped_from.unwrap_or(batch_first_us);
    c.info.catch_ups += 1;
    shared
        .counters
        .catch_ups_entered
        .fetch_add(1, Ordering::Relaxed);
    shared.tel.read().catch_ups.inc();
    gtel::instant("net.server.catchup_begin", from_us as f64);
    queue_marker(c, OP_CATCHUP_BEGIN, from_us);
    c.mode = Mode::CatchUp(CatchUpState {
        reader: None,
        from_us,
        last_us: from_us,
    });
}

/// Queues a catch-up marker in the client's own wire protocol: a
/// control frame for binary clients, a comment line (invisible to
/// legacy tuple readers) for text clients.
fn queue_marker(c: &mut ClientState, op: u8, arg_us: u64) {
    let mut bytes = Vec::with_capacity(32);
    match c.proto {
        Protocol::Binary => frame_arg(&mut bytes, op, arg_us),
        Protocol::Text => {
            let prefix = if op == OP_CATCHUP_BEGIN {
                TEXT_CATCHUP_BEGIN
            } else {
                TEXT_CATCHUP_END
            };
            bytes.extend_from_slice(prefix.as_bytes());
            bytes.extend_from_slice(arg_us.to_string().as_bytes());
            bytes.push(b'\n');
        }
    }
    c.out.push(&bytes, arg_us, 0, true);
}

/// Advances one catching-up client: replays a bounded chunk from the
/// store into its queue, tailing the live store until it drains.
fn pump_catch_up(core: &mut ShardCore, idx: usize, shared: &HubShared) -> bool {
    let ShardCore {
        clients,
        enc,
        filt_scratch,
        ..
    } = core;
    let c = &mut clients[idx];
    if c.dead {
        return false;
    }
    // Let a still-slow link drain before reading more history.
    if c.out.len() > shared.cfg.outbuf_cap / 2 {
        return false;
    }
    let Mode::CatchUp(cu) = &mut c.mode else {
        return false;
    };
    // Open (or reopen) the reader on first pump.
    if cu.reader.is_none() {
        // Everything shed was appended before it was fanned out, so a
        // flush makes it durable and readable.
        shared.flush_store_if_dirty();
        let dir = {
            let guard = shared.store.lock();
            guard.as_ref().map(|s| s.dir().to_path_buf())
        };
        let Some(dir) = dir else {
            // Store detached mid-catch-up: nothing to replay.
            complete_catch_up(c, shared);
            return true;
        };
        match StoreReader::open(&dir).and_then(|mut r| {
            r.seek(TimeStamp::from_micros(cu.from_us))?;
            Ok(r)
        }) {
            Ok(r) => cu.reader = Some(r),
            Err(_) => {
                shared.counters.store_errors.fetch_add(1, Ordering::Relaxed);
                shared.tel.read().store_errors.inc();
                complete_catch_up(c, shared);
                return true;
            }
        }
    }
    // The chunk is bounded in tuples *and* bytes so the queue never
    // exceeds its cap: at most `byte_budget` rides on top of whatever
    // is already queued (≤ cap/2 by the gate above).
    let byte_budget = shared.cfg.outbuf_cap.saturating_sub(c.out.len() + 64);
    let reader = cu.reader.as_mut().expect("reader ensured");
    let mut replayed = 0u64;
    let mut done = false;
    let mut flushed_this_pump = false;
    enc.reset();
    filt_scratch.clear();
    loop {
        if replayed as usize >= shared.cfg.catchup_chunk {
            break;
        }
        let encoded = match c.proto {
            Protocol::Binary => enc.pending_bytes(),
            Protocol::Text => filt_scratch.len(),
        };
        if encoded >= byte_budget {
            break;
        }
        match reader.next_tuple() {
            Ok(Some(t)) => {
                let t_us = t.time.as_micros();
                match c.proto {
                    Protocol::Binary => enc.push(t_us, t.value, t.name.as_ref()),
                    Protocol::Text => {
                        write_tuple_line(filt_scratch, t.time, t.value, t.name.as_deref());
                        filt_scratch.push(b'\n');
                    }
                }
                cu.last_us = t_us;
                replayed += 1;
            }
            Ok(None) => {
                // Drained what is visible. Flush once, refresh: more
                // appeared → keep going next iteration; nothing → the
                // replay has reached the head, rejoin live.
                if !flushed_this_pump {
                    shared.flush_store_if_dirty();
                    flushed_this_pump = true;
                }
                match reader.refresh() {
                    Ok(true) => continue,
                    Ok(false) => {
                        done = true;
                        break;
                    }
                    Err(_) => {
                        shared.counters.store_errors.fetch_add(1, Ordering::Relaxed);
                        shared.tel.read().store_errors.inc();
                        done = true;
                        break;
                    }
                }
            }
            Err(_) => {
                shared.counters.store_errors.fetch_add(1, Ordering::Relaxed);
                shared.tel.read().store_errors.inc();
                done = true;
                break;
            }
        }
    }
    // Queue whatever was encoded (catch-up data rides as data frames;
    // the client is not in fan-out, and the byte budget above keeps
    // the queue within its cap).
    let first_us = cu.from_us;
    if c.proto == Protocol::Binary && !enc.is_empty() {
        filt_scratch.clear();
        enc.frame_into(filt_scratch);
    }
    if !filt_scratch.is_empty() {
        c.out.push(filt_scratch, first_us, replayed, false);
    }
    if replayed > 0 {
        c.info.tuples_out += replayed;
        shared
            .counters
            .catch_up_tuples
            .fetch_add(replayed, Ordering::Relaxed);
        shared
            .counters
            .tuples_out
            .fetch_add(replayed, Ordering::Relaxed);
        let tel = shared.tel.read();
        tel.catch_up.add(replayed);
        tel.tuples_out.add(replayed);
    }
    if done {
        complete_catch_up(c, shared);
    }
    replayed > 0 || done
}

/// Rejoins a catching-up client to the live feed with a skip boundary.
fn complete_catch_up(c: &mut ClientState, shared: &HubShared) {
    let boundary = match &c.mode {
        Mode::CatchUp(cu) => cu.last_us,
        Mode::Live => return,
    };
    queue_marker(c, OP_CATCHUP_END, boundary);
    c.boundary_us = boundary;
    c.mode = Mode::Live;
    shared
        .counters
        .catch_ups_completed
        .fetch_add(1, Ordering::Relaxed);
    gtel::instant("net.server.catchup_end", boundary as f64);
}

/// Ceiling on frames one scope catch-up replays. When the window holds
/// more tier-0 frames than this, the glod planner swaps in coarser
/// pyramid tiers (pre-decimated min/max envelopes), so a catch-up over
/// a year of history costs the same as one over a minute.
const CATCH_UP_FRAME_BUDGET: u64 = 250_000;

/// Replays history into the attached scopes (the facade's
/// `catch_up(window)`); unrelated to per-client catch-up.
///
/// The replay is tier-stitched: `gstore::lod::replay_plan` picks the
/// finest tier whose frame count fits [`CATCH_UP_FRAME_BUDGET`] and
/// descends to finer tiers (down to raw tier 0) over the tail the
/// pyramid has not folded yet, each slice replayed through its own
/// seeked reader.
pub(crate) fn catch_up_scopes(shared: &HubShared, window: TimeDelta) -> u64 {
    let (dir, newest) = {
        let mut guard = shared.store.lock();
        let Some(store) = guard.as_mut() else {
            return 0;
        };
        if store.flush().is_err() {
            shared.counters.store_errors.fetch_add(1, Ordering::Relaxed);
            shared.tel.read().store_errors.inc();
            return 0;
        }
        shared.store_dirty.store(false, Ordering::Release);
        let Some(newest) = store.last_time() else {
            return 0; // empty store: nothing to catch up on
        };
        (store.dir().to_path_buf(), newest)
    };
    let from = newest.saturating_sub(window);
    let slices = match gstore::lod::replay_plan(
        &dir,
        from.as_micros(),
        newest.as_micros(),
        CATCH_UP_FRAME_BUDGET,
    ) {
        Ok(s) => s,
        Err(_) => {
            shared.counters.store_errors.fetch_add(1, Ordering::Relaxed);
            shared.tel.read().store_errors.inc();
            return 0;
        }
    };
    let scopes = shared.scopes.read();
    let auto = shared.auto_register.load(Ordering::Relaxed);
    let mut replayed = 0u64;
    for slice in slices {
        let mut reader = match StoreReader::open_tier(&dir, slice.tier).and_then(|mut r| {
            r.seek(gel::TimeStamp::from_micros(slice.from_us))?;
            r.set_end(gel::TimeStamp::from_micros(slice.to_us));
            Ok(r)
        }) {
            Ok(r) => r,
            Err(_) => {
                shared.counters.store_errors.fetch_add(1, Ordering::Relaxed);
                shared.tel.read().store_errors.inc();
                continue;
            }
        };
        loop {
            match reader.next_tuple() {
                Ok(Some(tuple)) => {
                    for scope in scopes.iter() {
                        let mut guard = scope.lock();
                        if auto {
                            let name = tuple.name.as_deref().unwrap_or(gscope::UNNAMED_SIGNAL);
                            if guard.signal(name).is_none() {
                                let _ =
                                    guard.add_signal(name, SigSource::Buffer, SigConfig::default());
                            }
                        }
                        guard.buffer().push(tuple.clone());
                    }
                    replayed += 1;
                }
                Ok(None) => break,
                Err(_) => {
                    shared.counters.store_errors.fetch_add(1, Ordering::Relaxed);
                    shared.tel.read().store_errors.inc();
                    break;
                }
            }
        }
    }
    shared
        .counters
        .catch_up_tuples
        .fetch_add(replayed, Ordering::Relaxed);
    shared.tel.read().catch_up.add(replayed);
    replayed
}
