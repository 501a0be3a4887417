//! The gscope server library (§4.4), scaled out.
//!
//! "The server receives data from one or more clients asynchronously
//! and buffers the data. It then displays these BUFFER signals to one
//! or more scopes with a user-specified delay. Data arriving at the
//! server after this delay is not buffered but dropped immediately."
//!
//! [`ScopeServer`] is now a facade over a sharded streaming hub (see
//! [`crate::shard`]): each accepted connection is pinned to one of N
//! per-core shards, and each shard runs its own readiness-driven
//! non-blocking loop. Two ways to drive it:
//!
//! * **Inline** — [`ScopeServer::poll`] accepts and cycles every shard
//!   on the caller's thread, exactly like the old single-threaded
//!   server (and [`attach_server`] wires an accept watch and each
//!   shard to a `gel` main loop as *independent* watches, so no lock
//!   is held across the whole poll).
//! * **Threaded** — [`ScopeServer::spawn_shards`] starts one thread
//!   per shard and nothing else: shard 0's poller also watches the
//!   listener, so shard 0 accepts. Each shard blocks in its own
//!   `epoll` wait until a socket is ready, a connection is handed to
//!   it, or its next deadline comes due. This is the thread-per-core
//!   mode the 10k-client benchmark and `gtool serve` run.
//!
//! Accepted sockets get `TCP_NODELAY`: a subscriber's fan-out is one
//! small write per cycle, which Nagle's algorithm would hold until the
//! peer's delayed ACK (tens of milliseconds on Linux).
//!
//! Clients may speak the §3.3 text protocol or negotiate the binary
//! frame protocol ([`crate::wire`]); subscribers under backpressure
//! are demoted to store-backed catch-up instead of growing an
//! unbounded queue.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gel::{Continue, IoPoll, MainLoop, SourceId, TimeDelta, TimeStamp};
use gscope::{StatsExport, Tuple};
use gstore::Store;
use gtel::Registry;
use parking_lot::Mutex;

use crate::poll::LISTEN_TOKEN;
use crate::shard::{catch_up_scopes, cycle, HubShared, ServerTelemetry, Shard};
pub use crate::shard::{ClientInfo, HubConfig};
use crate::wire::StreamConn;
use gscope::SharedScope;

/// Counters describing server activity, aggregated across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Clients that disconnected (or errored).
    pub disconnects: u64,
    /// Tuples parsed and delivered to scope buffers.
    pub tuples_received: u64,
    /// Lines that failed to parse (skipped).
    pub parse_errors: u64,
    /// Protocol violations: broken frames, bad commands, runaway
    /// unframed input. Frame-level violations kill the connection.
    pub protocol_errors: u64,
    /// Tuples rejected by every attached scope (late or no scope).
    pub tuples_dropped: u64,
    /// Tuples teed into the attached store.
    pub tuples_stored: u64,
    /// Tuples the store rejected as time-regressive — the storage
    /// analogue of the buffer's late-drop rule (§4.4).
    pub store_drops: u64,
    /// Store write/read failures (the server keeps serving).
    pub store_errors: u64,
    /// Tuples replayed out of the store — by [`ScopeServer::catch_up`]
    /// or to backpressured subscribers catching up.
    pub catch_up_tuples: u64,
    /// Tuples queued out to live subscribers.
    pub tuples_out: u64,
    /// Bytes written to subscriber sockets.
    pub bytes_out: u64,
    /// Output-queue overflow (shed) events.
    pub shed_events: u64,
    /// Tuples discarded by those sheds (queued but never written) —
    /// the term that makes per-client output accounting reconcile:
    /// `tuples_out - tuples_shed - queue_tuples` is exactly what was
    /// written toward subscribers.
    pub tuples_shed: u64,
    /// Subscribers demoted to store-backed catch-up.
    pub catch_ups_entered: u64,
    /// Catch-ups that finished and rejoined the live feed.
    pub catch_ups_completed: u64,
}

impl StatsExport for ServerStats {
    fn to_tuples(&self, now: TimeStamp) -> Vec<Tuple> {
        vec![
            Tuple::new(now, self.connections as f64, "net.server.connections"),
            Tuple::new(now, self.disconnects as f64, "net.server.disconnects"),
            Tuple::new(now, self.tuples_received as f64, "net.server.tuples_in"),
            Tuple::new(now, self.parse_errors as f64, "net.server.parse_errors"),
            Tuple::new(
                now,
                self.protocol_errors as f64,
                "net.server.protocol_errors",
            ),
            Tuple::new(now, self.tuples_dropped as f64, "net.server.tuples_dropped"),
            Tuple::new(now, self.tuples_stored as f64, "net.server.tuples_stored"),
            Tuple::new(now, self.store_drops as f64, "net.server.store_drops"),
            Tuple::new(now, self.store_errors as f64, "net.server.store_errors"),
            Tuple::new(
                now,
                self.catch_up_tuples as f64,
                "net.server.catch_up_tuples",
            ),
            Tuple::new(now, self.tuples_out as f64, "net.server.tuples_out"),
            Tuple::new(now, self.bytes_out as f64, "net.server.bytes_out"),
            Tuple::new(now, self.shed_events as f64, "net.server.sheds"),
            Tuple::new(now, self.tuples_shed as f64, "net.server.tuples_shed"),
            Tuple::new(now, self.catch_ups_entered as f64, "net.server.catch_ups"),
            Tuple::new(
                now,
                self.catch_ups_completed as f64,
                "net.server.catch_ups_completed",
            ),
        ]
    }
}

/// A sharded, non-blocking tuple-stream hub feeding one or more scopes
/// (and optionally a persistent store), serving text and binary
/// subscribers with per-client backpressure.
pub struct ScopeServer {
    listener: Arc<TcpListener>,
    shared: Arc<HubShared>,
    shards: Vec<Arc<Shard>>,
    running: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ScopeServer {
    /// Binds a server socket (use port 0 for an ephemeral port) with
    /// default [`HubConfig`].
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        ScopeServer::with_config(addr, HubConfig::default())
    }

    /// Binds a server socket with explicit hub tuning.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn with_config(addr: impl ToSocketAddrs, cfg: HubConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(HubShared::new(cfg));
        let n = cfg.effective_shards();
        let shards: Vec<Arc<Shard>> = (0..n).map(|id| Arc::new(Shard::new(id))).collect();
        shared
            .shards
            .set(shards.clone())
            .unwrap_or_else(|_| unreachable!("fresh hub"));
        Ok(ScopeServer {
            listener: Arc::new(listener),
            shared,
            shards,
            running: Arc::new(AtomicBool::new(false)),
            threads: Vec::new(),
        })
    }

    /// The registry this server's `net.server.*` metrics live in.
    pub fn telemetry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.tel.read().registry)
    }

    /// Re-homes the server's metrics into `registry` (e.g. a registry
    /// shared with the scope and main loop for one combined snapshot).
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        *self.shared.tel.write() = ServerTelemetry::new(registry);
    }

    /// The bound address (for handing to clients).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Number of shards serving this hub.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Attaches a scope: received tuples are pushed into its buffer.
    pub fn add_scope(&mut self, scope: SharedScope) {
        self.shared.scopes.write().push(scope);
    }

    /// Attaches a scope and immediately replays the last `window` of
    /// stored history into every attached scope, so its display starts
    /// populated instead of blank. No-op without a store. The window
    /// must fit inside the scopes' delay, or the buffers' late-drop
    /// rule (§4.4) discards the replayed history again.
    ///
    /// Returns the number of tuples replayed.
    pub fn add_scope_with_catch_up(&mut self, scope: SharedScope, window: TimeDelta) -> u64 {
        self.shared.scopes.write().push(scope);
        catch_up_scopes(&self.shared, window)
    }

    /// Installs a persistent store: from now on every delivered tuple
    /// is also appended to it (the tee), [`ScopeServer::catch_up`] can
    /// replay recent history, and backpressured subscribers catch up
    /// from it instead of dropping data. Replaces any previous store.
    pub fn set_store(&mut self, store: Store) {
        *self.shared.store.lock() = Some(store);
        self.shared.store_present.store(true, Ordering::Release);
    }

    /// Runs `f` against the attached store, if any.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut Store) -> R) -> Option<R> {
        self.shared.store.lock().as_mut().map(f)
    }

    /// Detaches and returns the store (flush/close is the caller's).
    pub fn take_store(&mut self) -> Option<Store> {
        self.shared.store_present.store(false, Ordering::Release);
        self.shared.store_dirty.store(false, Ordering::Release);
        self.shared.store.lock().take()
    }

    /// Flushes the store tee so readers (and a crash) see everything
    /// received so far. Returns false (and counts a store error) on
    /// failure; the server keeps running either way.
    pub fn flush_store(&mut self) -> bool {
        let ok = {
            let mut guard = self.shared.store.lock();
            match guard.as_mut().map(Store::flush) {
                None | Some(Ok(())) => true,
                Some(Err(_)) => false,
            }
        };
        if ok {
            self.shared.store_dirty.store(false, Ordering::Release);
        } else {
            self.shared
                .counters
                .store_errors
                .fetch_add(1, Ordering::Relaxed);
            self.shared.tel.read().store_errors.inc();
        }
        ok
    }

    /// Replays the last `window` of stored history (relative to the
    /// newest stored frame) into the attached scopes. The replay reads
    /// the store through its seek index, so catch-up cost scales with
    /// the window, not with the total history size.
    ///
    /// Returns the number of tuples replayed (0 without a store).
    pub fn catch_up(&mut self, window: TimeDelta) -> u64 {
        catch_up_scopes(&self.shared, window)
    }

    /// Enables or disables automatic creation of `BUFFER` signals for
    /// unseen signal names (default on).
    pub fn set_auto_register(&mut self, on: bool) {
        self.shared.auto_register.store(on, Ordering::Relaxed);
    }

    /// Returns server statistics, aggregated across all shards.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            connections: c.connections.load(Ordering::Relaxed),
            disconnects: c.disconnects.load(Ordering::Relaxed),
            tuples_received: c.tuples_received.load(Ordering::Relaxed),
            parse_errors: c.parse_errors.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            tuples_dropped: c.tuples_dropped.load(Ordering::Relaxed),
            tuples_stored: c.tuples_stored.load(Ordering::Relaxed),
            store_drops: c.store_drops.load(Ordering::Relaxed),
            store_errors: c.store_errors.load(Ordering::Relaxed),
            catch_up_tuples: c.catch_up_tuples.load(Ordering::Relaxed),
            tuples_out: c.tuples_out.load(Ordering::Relaxed),
            bytes_out: c.bytes_out.load(Ordering::Relaxed),
            shed_events: c.shed_events.load(Ordering::Relaxed),
            tuples_shed: c.tuples_shed.load(Ordering::Relaxed),
            catch_ups_entered: c.catch_ups_entered.load(Ordering::Relaxed),
            catch_ups_completed: c.catch_ups_completed.load(Ordering::Relaxed),
        }
    }

    /// Number of connected clients across all shards.
    pub fn client_count(&self) -> usize {
        self.shared.client_count.load(Ordering::Relaxed)
    }

    /// Per-client counters for every connection, across all shards —
    /// the view that makes one misbehaving client stand out from the
    /// aggregate stats.
    pub fn client_stats(&self) -> Vec<ClientInfo> {
        self.shards.iter().flat_map(|s| s.client_stats()).collect()
    }

    /// Hands a pre-established connection (e.g. a `netsim` shaped
    /// link) to the hub; it is pinned to a shard like an accepted
    /// socket.
    pub fn add_conn(&self, conn: Box<dyn StreamConn>) {
        self.shared.pin_connection(conn);
    }

    fn accept_pending(&self) -> bool {
        accept_into(&self.listener, &self.shared)
    }

    /// Accepts pending connections and cycles every shard once on the
    /// calling thread (inline mode).
    ///
    /// Returns [`IoPoll::Worked`] if anything happened — the shape a
    /// `gel` I/O watch expects.
    pub fn poll(&mut self) -> IoPoll {
        let mut any = self.accept_pending();
        for shard in &self.shards {
            any |= cycle(shard, &self.shared, None).worked;
        }
        if any {
            IoPoll::Worked
        } else {
            IoPoll::Idle
        }
    }

    /// Starts thread-per-core mode: one thread per shard, each parked
    /// in its own `epoll` wait, with shard 0 also accepting. Idempotent.
    /// Threads stop when the server drops. Inline [`ScopeServer::poll`]
    /// remains safe to call concurrently (shards are mutex-protected)
    /// but is pointless once threads run.
    pub fn spawn_shards(&mut self) {
        if self.running.swap(true, Ordering::AcqRel) {
            return;
        }
        for shard in &self.shards {
            let shard = Arc::clone(shard);
            let shared = Arc::clone(&self.shared);
            let running = Arc::clone(&self.running);
            let listener = (shard.id == 0).then(|| Arc::clone(&self.listener));
            self.threads.push(
                std::thread::Builder::new()
                    .name(format!("gnet-shard-{}", shard.id))
                    .spawn(move || run_shard(&shard, &shared, &running, listener.as_deref()))
                    .expect("spawn shard thread"),
            );
        }
    }

    /// True when [`ScopeServer::spawn_shards`] threads are running.
    pub fn threaded(&self) -> bool {
        self.running.load(Ordering::Acquire)
    }
}

impl Drop for ScopeServer {
    fn drop(&mut self) {
        self.running.store(false, Ordering::Release);
        // A shard blocked until its next deadline must see the flag now.
        for shard in &self.shards {
            shard.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A shard thread's loop: block in the poller (outside the shard lock)
/// for as long as the last cycle allows, accept if this is the shard
/// that watches `listener`, then cycle.
fn run_shard(
    shard: &Shard,
    shared: &HubShared,
    running: &AtomicBool,
    listener: Option<&TcpListener>,
) {
    let pacing = Duration::from_micros(shared.cfg.scan_pacing_us);
    // The listener rides on this shard's poller; should registration
    // fail, the shard accepts every cycle and waits at most 1 ms.
    let listen_polled = match (listener, &shard.poller) {
        (Some(l), Some(poller)) => listener_fd(l).is_some_and(|fd| poller.add(fd, LISTEN_TOKEN)),
        _ => false,
    };
    let accept_always = listener.is_some() && !listen_polled;
    let mut ready = Vec::new();
    let mut wait_ms = 0;
    while running.load(Ordering::Acquire) {
        ready.clear();
        if let Some(poller) = &shard.poller {
            let timeout = if accept_always {
                wait_ms.min(1)
            } else {
                wait_ms
            };
            poller.wait(&mut ready, timeout);
        }
        if let Some(l) = listener {
            if accept_always || ready.contains(&LISTEN_TOKEN) {
                accept_into(l, shared);
            }
        }
        let out = cycle(shard, shared, Some(&ready));
        wait_ms = out.wait_ms;
        if !out.worked && (shard.poller.is_none() || out.scanning) {
            // No kernel wait bounded this cycle; don't spin.
            std::thread::sleep(Duration::from_micros(200));
        } else if out.worked && out.scanning && !pacing.is_zero() {
            // Hint-scanned clients have no kernel wakeup: pause so
            // arrivals batch instead of re-scanning immediately.
            std::thread::sleep(pacing);
        }
    }
}

#[cfg(unix)]
fn listener_fd(listener: &TcpListener) -> Option<i32> {
    use std::os::unix::io::AsRawFd;
    Some(listener.as_raw_fd())
}

#[cfg(not(unix))]
fn listener_fd(_listener: &TcpListener) -> Option<i32> {
    None
}

/// Installs a shared server on a main loop: one I/O watch per shard
/// plus an accept watch, each locking only its own shard's state —
/// no lock is held across the whole poll, so several loop workers (or
/// a threaded loop) can drive different shards concurrently.
///
/// Returns the accept watch's [`SourceId`] (removing it stops new
/// connections; shard watches stay).
pub fn attach_server(server: &Arc<Mutex<ScopeServer>>, ml: &mut MainLoop) -> SourceId {
    let (listener, shared, shards) = {
        let guard = server.lock();
        (
            Arc::clone(&guard.listener),
            Arc::clone(&guard.shared),
            guard.shards.clone(),
        )
    };
    // Accept first: connections accepted this iteration are adopted
    // by the shard watches dispatched right after it.
    let acceptor = {
        let shared = Arc::clone(&shared);
        ml.add_io_watch(Box::new(move || {
            if accept_into(&listener, &shared) {
                IoPoll::Worked
            } else {
                IoPoll::Idle
            }
        }))
    };
    for shard in shards {
        let shared = Arc::clone(&shared);
        ml.add_io_watch(Box::new(move || {
            if cycle(&shard, &shared, None).worked {
                IoPoll::Worked
            } else {
                IoPoll::Idle
            }
        }));
    }
    acceptor
}

/// Drains the listener into the hub, pinning each connection to a
/// shard with `TCP_NODELAY` set. Returns true when any connection was
/// accepted (recorded as a `net.server.accept` span so accept cost
/// shows up in traces).
fn accept_into(listener: &TcpListener, shared: &HubShared) -> bool {
    let begin_ns = gtel::fast_now_ns();
    let mut accepted = 0u64;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Without it a fan-out write waits on the peer's
                // delayed ACK; a refusal only costs latency, so keep
                // the connection either way.
                let _ = stream.set_nodelay(true);
                shared.pin_connection(Box::new(stream));
                accepted += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
    if accepted > 0 {
        gtel::complete_span("net.server.accept", accepted, begin_ns);
    }
    accepted > 0
}

/// Installs a shared client's pump as an I/O watch on a main loop.
///
/// The watch removes itself when the connection dies.
pub fn attach_client(
    client: &Arc<Mutex<crate::client::ScopeClient>>,
    ml: &mut MainLoop,
) -> SourceId {
    let client = Arc::clone(client);
    ml.add_io_watch(Box::new(move || client.lock().pump()))
}

/// Convenience: installs a periodic timeout that samples `f` every
/// `period` and streams the value as `name` — a remote sensor in a few
/// lines.
pub fn stream_periodic<F>(
    client: &Arc<Mutex<crate::client::ScopeClient>>,
    ml: &mut MainLoop,
    name: &str,
    period: TimeDelta,
    mut f: F,
) -> SourceId
where
    F: FnMut() -> f64 + Send + 'static,
{
    let client = Arc::clone(client);
    let name = name.to_owned();
    ml.add_timeout(
        period,
        Box::new(move |tick| {
            let mut c = client.lock();
            if c.is_closed() {
                return Continue::Remove;
            }
            c.send_at(tick.now, &name, f());
            c.pump();
            Continue::Keep
        }),
    )
}
