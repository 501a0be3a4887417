//! The load generator: a separate process, re-executed from the
//! benchmark binary, that plays one workload's phases against the hub.
//!
//! At set-up it records the store's history and prints `recorded`,
//! then connects to the hub named by `connect <addr>` and prints
//! `ready`. After that it obeys one command per line on stdin:
//! `oracle` checks the recorded history, `run key=value…` plays a
//! phase and answers `done key=value…`, and `quit` (or end of input)
//! exits. It uses at most two threads and two connections: the
//! producer runs on the main thread, and a live subscriber, the query
//! loop or the oracle on a second one. Whatever the main thread waits
//! for, it also answers the hub's PINGs on the producer connection.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use gel::{IoPoll, MainLoop, Quantizer, TimeDelta, TimeStamp};
use gnet::wire::BatchEncoder;
use gnet::{ScopeClient, StreamEvent};
use gquery::QueryEngine;
use gscope::TupleSource;
use gstore::StoreReader;

use crate::clock::{
    shared_now_ns, shared_now_us, sleep_until, thread_cpu_ns, wait_readable, SharedClock,
};
use crate::history;
use crate::inputs::{self, History, Rng, ZOOM_PX};
use crate::stats::Summary;
use crate::wire::{FloodBatch, Producer};
use crate::Args;

/// Node id the producer stamps into origin headers in traced runs.
pub const NODE_ID: u64 = 7;

/// Input stream of the query loop's windows.
const QUERY_STREAM: u64 = 2;
/// Input stream of the flood batch's values.
const FLOOD_STREAM: u64 = 3;

/// Results of one phase, sent back as `done key=value…`.
type Report = Vec<(String, f64)>;

/// Runs the generator; returns the process exit code.
pub fn main(args: &Args) -> i32 {
    match run(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("pipebench gen: {e}");
            1
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let seed: u64 = args.get("seed")?;
    let traced = args.get::<u8>("trace")? == 1;
    let dir = PathBuf::from(args.get::<String>("dir")?);
    let hist = history::record(&dir, args.get("hist-frames")?, seed)?;
    let mut out = std::io::stdout().lock();
    let mut say = |line: String| -> Result<(), String> {
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())
    };
    say("recorded".into())?;
    let mut commands = Commands::default();
    let addr: SocketAddr = commands
        .next(None)?
        .as_deref()
        .and_then(|l| l.strip_prefix("connect "))
        .and_then(|a| a.parse().ok())
        .ok_or("expected `connect <addr>`")?;
    let names: Vec<Arc<str>> = (0..inputs::SIGNALS)
        .map(|i| gscope::intern(&inputs::signal_name(i)))
        .collect();
    let mut producer = Producer::connect(addr, traced.then_some(NODE_ID))
        .map_err(|e| format!("producer connect: {e}"))?;
    let mut subscriber = if args.get::<u8>("subscriber")? == 1 {
        Some(connect_subscriber(addr)?)
    } else {
        None
    };
    let mut gen = Generator {
        names,
        seq: 0,
        seed,
        hist,
        dir,
        queries: Rng::new(seed, QUERY_STREAM),
        traced,
    };
    say("ready".into())?;
    while let Some(line) = commands.next(Some(&mut producer))? {
        if line == "oracle" {
            let verdict = std::thread::scope(|s| {
                let check = s.spawn(|| history::oracle(&gen.dir, &gen.hist, seed));
                serve_while(&mut producer, || !check.is_finished())?;
                check.join().map_err(|_| "oracle panicked".to_owned())
            })?;
            match verdict {
                Ok(()) => say("oracle ok".into())?,
                Err(e) => say(format!("oracle failed: {e}"))?,
            }
            continue;
        }
        let Some(cmd) = line.strip_prefix("run ") else {
            break; // `quit`
        };
        let phase = Phase::parse(cmd)?;
        let sub = if phase.sub {
            Some(subscriber.take().ok_or("no subscriber connection left")?)
        } else {
            None
        };
        let report = gen.play(&phase, &mut producer, sub)?;
        let fields: Vec<String> = report.iter().map(|(k, v)| format!("{k}={v}")).collect();
        say(format!("done {}", fields.join(" ")))?;
    }
    Ok(())
}

/// The hub's command lines on stdin.
#[derive(Default)]
struct Commands {
    buf: Vec<u8>,
}

impl Commands {
    /// The next line, without its newline; `None` at end of input.
    /// While it waits, it answers the producer's PINGs.
    fn next(&mut self, mut producer: Option<&mut Producer>) -> Result<Option<String>, String> {
        let stdin = std::io::stdin();
        loop {
            if let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=i).collect();
                return Ok(Some(String::from_utf8_lossy(&line).trim_end().to_owned()));
            }
            let net = producer.as_deref().map_or(-1, Producer::fd);
            let [cmd, ping] = wait_readable([stdin.as_raw_fd(), net], None);
            if let (true, Some(p)) = (ping, producer.as_deref_mut()) {
                p.answer().map_err(|e| format!("producer: {e}"))?;
            }
            if cmd {
                // Larger than stdin's own buffer, which std then
                // bypasses, so no line hides there from the wait above.
                let mut chunk = [0u8; 16 * 1024];
                match stdin.lock().read(&mut chunk) {
                    Ok(0) => return Ok(None),
                    Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("stdin: {e}")),
                }
            }
        }
    }
}

/// Answers the hub's PINGs for as long as `busy` holds, checking it
/// every 5 ms.
fn serve_while(producer: &mut Producer, busy: impl Fn() -> bool) -> Result<(), String> {
    while busy() {
        producer
            .wait_until(shared_now_us() + 5_000)
            .map_err(|e| format!("producer: {e}"))?;
    }
    Ok(())
}

/// A binary subscriber connection, negotiated but not yet subscribed.
fn connect_subscriber(addr: SocketAddr) -> Result<ScopeClient, String> {
    let mut c = ScopeClient::connect_binary(addr).map_err(|e| format!("subscriber: {e}"))?;
    let start = Instant::now();
    loop {
        if c.pump() == IoPoll::Remove {
            return Err("subscriber connection closed".into());
        }
        if c.take_events()
            .contains(&StreamEvent::Negotiated(gnet::Protocol::Binary))
        {
            return Ok(c);
        }
        if start.elapsed().as_secs() > 10 {
            return Err("subscriber: no WELCOME from hub".into());
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// What the producer does in a phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// Nothing.
    Idle,
    /// Open loop: every signal sampled at `rate` Hz, sent when due.
    Open(u64),
    /// Open loop at `rate` Hz per signal, sent as pre-encoded
    /// millisecond batches.
    Flood(u64),
}

/// One phase of a workload, as the hub describes it to the generator.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Producer load.
    pub load: Load,
    /// A live subscriber checks every sequence number.
    pub sub: bool,
    /// The query loop runs.
    pub queries: bool,
    /// Load starts (shared-clock µs).
    pub t0: u64,
    /// Measurement starts; before it is warm-up.
    pub m0: u64,
    /// Load ends.
    pub t1: u64,
}

impl Phase {
    /// The command line the hub sends.
    pub fn command(&self) -> String {
        let (load, rate) = match self.load {
            Load::Idle => ("idle", 0),
            Load::Open(hz) => ("open", hz),
            Load::Flood(hz) => ("flood", hz),
        };
        format!(
            "run load={load} rate={rate} sub={} queries={} t0={} m0={} t1={}",
            u8::from(self.sub),
            u8::from(self.queries),
            self.t0,
            self.m0,
            self.t1
        )
    }

    fn parse(cmd: &str) -> Result<Phase, String> {
        let kv: HashMap<&str, &str> = cmd
            .split_whitespace()
            .filter_map(|f| f.split_once('='))
            .collect();
        let num = |k: &str| -> Result<u64, String> {
            kv.get(k)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad or missing {k} in {cmd:?}"))
        };
        let load = match kv.get("load").copied() {
            Some("idle") => Load::Idle,
            Some("open") => Load::Open(num("rate")?),
            Some("flood") => Load::Flood(num("rate")?),
            other => return Err(format!("bad load {other:?}")),
        };
        Ok(Phase {
            load,
            sub: num("sub")? == 1,
            queries: num("queries")? == 1,
            t0: num("t0")?,
            m0: num("m0")?,
            t1: num("t1")?,
        })
    }
}

struct Generator {
    names: Vec<Arc<str>>,
    /// Next sequence number; open-loop tuples carry it as their value.
    seq: u64,
    seed: u64,
    hist: History,
    dir: PathBuf,
    queries: Rng,
    traced: bool,
}

/// Producer progress shared with the phase's second thread.
struct Progress {
    /// One past the last sequence number sent.
    seq_end: AtomicU64,
    /// The producer has sent its last tuple.
    done: AtomicBool,
}

impl Generator {
    fn play(
        &mut self,
        phase: &Phase,
        producer: &mut Producer,
        sub: Option<ScopeClient>,
    ) -> Result<Report, String> {
        let progress = Arc::new(Progress {
            seq_end: AtomicU64::new(self.seq),
            done: AtomicBool::new(false),
        });
        let seq_start = self.seq;
        let mut queries = self.queries.clone();
        let (hist, dir, traced) = (self.hist, self.dir.clone(), self.traced);
        let mut report = std::thread::scope(|s| -> Result<Report, String> {
            let second = if let Some(client) = sub {
                let progress = Arc::clone(&progress);
                Some(s.spawn(move || subscribe(client, *phase, seq_start, progress)))
            } else if phase.queries {
                let queries = &mut queries;
                let dir = dir.as_path();
                Some(s.spawn(move || query_loop(dir, &hist, queries, phase, traced)))
            } else {
                None
            };
            let produced = match phase.load {
                Load::Idle => producer.wait_until(phase.t1).map(|()| Report::new()),
                Load::Open(hz) => self.open_loop(phase, hz, producer, &progress),
                Load::Flood(hz) => self.flood(phase, hz, producer),
            };
            progress.done.store(true, Ordering::Release);
            let mut report = produced.map_err(|e| format!("producer: {e}"))?;
            if let Some(h) = second {
                serve_while(producer, || !h.is_finished())?;
                report.extend(h.join().map_err(|_| "generator thread panicked")??);
            }
            Ok(report)
        })?;
        self.queries = queries;
        report.push(("sent".into(), (self.seq - seq_start) as f64));
        Ok(report)
    }

    /// Sends every signal's sample at each due instant, stamped with
    /// that due time; lag is measured from due time to socket write.
    fn open_loop(
        &mut self,
        phase: &Phase,
        hz: u64,
        producer: &mut Producer,
        progress: &Progress,
    ) -> std::io::Result<Report> {
        let period = 1_000_000 / hz.max(1);
        let mut enc = BatchEncoder::new();
        let mut lags: Vec<f64> = Vec::new();
        let mut busy = BusyClock::default();
        let mut due = phase.t0;
        while due < phase.t1 {
            producer.wait_until(due)?;
            let now = shared_now_us();
            let first_due = due;
            while due <= now && due < phase.t1 {
                for name in &self.names {
                    enc.push(due, self.seq as f64, Some(name));
                    self.seq += 1;
                }
                due += period;
            }
            producer.send_batch(&mut enc)?;
            progress.seq_end.store(self.seq, Ordering::Release);
            let sent_ns = shared_now_ns();
            let sent = sent_ns / 1_000;
            let mut d = first_due;
            while d < due {
                if d >= phase.m0 {
                    lags.push(sent_ns.saturating_sub(d * 1_000) as f64 / 1e3);
                }
                d += period;
            }
            busy.mark(phase.m0, sent);
        }
        busy.finish();
        Ok(lag_report(&mut lags, &busy))
    }

    /// Open loop at `hz` per signal, one pre-encoded millisecond of
    /// samples per send, re-stamped so that its last instant is the
    /// send's due time: the generator's per-tuple cost is a memcpy.
    fn flood(
        &mut self,
        phase: &Phase,
        hz: u64,
        producer: &mut Producer,
    ) -> std::io::Result<Report> {
        let step = 1_000_000 / hz.max(1);
        let mut rng = Rng::new(self.seed, FLOOD_STREAM);
        let batch = FloodBatch::new(&self.names, (1_000 / step).max(1), step, |_| {
            inputs::history_value(rng.next_u64(), 0)
        });
        let mut lags: Vec<f64> = Vec::new();
        let mut busy = BusyClock::default();
        let mut due = phase.t0 + batch.span_us;
        while due < phase.t1 {
            producer.wait_until(due)?;
            producer.send_flood(&batch, due - batch.span_us)?;
            self.seq += batch.count;
            let sent_ns = shared_now_ns();
            if due >= phase.m0 {
                lags.push(sent_ns.saturating_sub(due * 1_000) as f64 / 1e3);
            }
            busy.mark(phase.m0, sent_ns / 1_000);
            due += batch.span_us + step;
        }
        busy.finish();
        Ok(lag_report(&mut lags, &busy))
    }
}

/// How late an open loop sent, and how busy its thread was.
fn lag_report(lags: &mut [f64], busy: &BusyClock) -> Report {
    let lag = Summary::of(lags);
    vec![
        ("lag_p99".into(), lag.p99),
        ("lag_max".into(), lag.max),
        ("gen_busy".into(), busy.share()),
    ]
}

/// Share of wall time the calling thread spent on a CPU between the
/// measurement start and the end of its phase.
#[derive(Default)]
struct BusyClock {
    start: Option<(u64, u64)>,
    end: (u64, u64),
}

impl BusyClock {
    /// Starts the clock at the first call at or after `m0`.
    fn mark(&mut self, m0: u64, now: u64) {
        if now >= m0 && self.start.is_none() {
            self.start = Some((now, thread_cpu_ns()));
        }
    }

    fn finish(&mut self) {
        self.end = (shared_now_us(), thread_cpu_ns());
    }

    fn share(&self) -> f64 {
        let Some((w0, c0)) = self.start else {
            return 0.0;
        };
        let wall_ns = self.end.0.saturating_sub(w0) * 1_000;
        crate::stats::mean(self.end.1.saturating_sub(c0) as f64, wall_ns)
    }
}

/// Sequence and delivery accounting of the live subscriber.
#[derive(Default)]
struct Seen {
    seen: Vec<bool>,
    unique: u64,
    dups: u64,
    strays: u64,
    catch_ups: u64,
    deliver: Vec<f64>,
    done_at: Option<u64>,
}

impl Seen {
    /// Folds in everything the client decoded by `now_ns`.
    fn absorb(&mut self, client: &mut ScopeClient, phase: &Phase, seq_start: u64, now_ns: u64) {
        for ev in client.take_events() {
            if matches!(ev, StreamEvent::CatchUpBegin(_)) {
                self.catch_ups += 1;
            }
        }
        for t in client.take_received() {
            let v = t.value;
            if !(v >= seq_start as f64 && v.fract() == 0.0) {
                self.strays += 1;
                continue;
            }
            let i = (v as u64 - seq_start) as usize;
            if i >= self.seen.len() {
                self.seen.resize((i + 1).next_power_of_two(), false);
            }
            if self.seen[i] {
                self.dups += 1;
                continue;
            }
            self.seen[i] = true;
            self.unique += 1;
            let due = t.time.as_micros();
            if due >= phase.m0 {
                self.deliver
                    .push(now_ns.saturating_sub(due * 1_000) as f64 / 1e3);
            }
        }
    }
}

/// The live subscriber: a `gel` main loop polls the connection as an
/// I/O watch, checks every sequence number and times delivery from
/// each tuple's due time until it is decoded.
fn subscribe(
    mut client: ScopeClient,
    phase: Phase,
    seq_start: u64,
    progress: Arc<Progress>,
) -> Result<Report, String> {
    client.subscribe();
    let seen = Arc::new(Mutex::new(Seen::default()));
    let mut ml = MainLoop::with_quantizer(
        SharedClock::shared(),
        Quantizer::new(TimeDelta::from_millis(1)),
    );
    let handle = ml.handle();
    {
        let seen = Arc::clone(&seen);
        let progress = Arc::clone(&progress);
        ml.add_io_watch(Box::new(move || {
            let polled = client.pump();
            let now_ns = shared_now_ns();
            let now = now_ns / 1_000;
            let mut s = seen.lock();
            s.absorb(&mut client, &phase, seq_start, now_ns);
            if progress.done.load(Ordering::Acquire) {
                let expected = progress.seq_end.load(Ordering::Acquire) - seq_start;
                let at = *s.done_at.get_or_insert(now);
                // Everything arrived, or ten seconds of grace ran out.
                if s.unique >= expected || now > at + 10_000_000 {
                    handle.quit();
                }
            }
            if polled == IoPoll::Remove {
                handle.quit(); // what never arrived counts as unseen
            }
            polled
        }));
    }
    ml.run();
    let expected = progress.seq_end.load(Ordering::Acquire) - seq_start;
    let mut s = seen.lock();
    let d = Summary::of(&mut s.deliver);
    Ok(vec![
        (
            "sub_unseen".into(),
            expected.saturating_sub(s.unique) as f64,
        ),
        ("sub_dups".into(), s.dups as f64),
        ("sub_strays".into(), s.strays as f64),
        ("sub_catch_ups".into(), s.catch_ups as f64),
        ("deliver_n".into(), d.n as f64),
        ("deliver_p50".into(), d.p50),
        ("deliver_p99".into(), d.p99),
    ])
}

/// Per-kind query timings and planner counters.
#[derive(Default)]
struct Kind {
    us: Vec<f64>,
    issued: u64,
    failed: u64,
    /// Planner counters summed over measured queries, by name.
    sums: HashMap<&'static str, f64>,
}

impl Kind {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_default() += v;
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }
}

/// The closed query loop: zoom, search and replay round-robin over
/// seeded windows of the recorded history.
fn query_loop(
    dir: &Path,
    hist: &History,
    rng: &mut Rng,
    phase: &Phase,
    traced: bool,
) -> Result<Report, String> {
    let engine = QueryEngine::open(dir).map_err(|e| format!("query engine: {e}"))?;
    let mut reader = StoreReader::open(dir).map_err(|e| format!("store reader: {e}"))?;
    let mut kinds: [Kind; 3] = Default::default();
    sleep_until(phase.t0);
    let mut k = 0usize;
    loop {
        let begin = shared_now_us();
        if begin >= phase.t1 {
            break;
        }
        let measured = begin >= phase.m0;
        let kind = &mut kinds[k % 3];
        kind.issued += 1;
        let started = Instant::now();
        let ok = match k % 3 {
            0 => {
                let z = inputs::zoom(rng, hist);
                let name = inputs::signal_name(z.signal);
                match gstore::lod::query(
                    dir,
                    Some(&name),
                    TimeStamp::from_micros(z.from_us),
                    TimeStamp::from_micros(z.to_us),
                    ZOOM_PX,
                ) {
                    Ok(r) => {
                        let s = r.stats;
                        if measured && traced {
                            kind.add("plan_us", s.plan_us as f64);
                            kind.add("scan_us", s.scan_us as f64);
                            kind.add("frames_used", s.frames_used as f64);
                            kind.add("frames_scanned", s.frames_scanned as f64);
                            kind.add("blocks_pruned", s.blocks_pruned as f64);
                        }
                        r.columns.iter().any(Option::is_some)
                    }
                    Err(_) => false,
                }
            }
            1 => {
                let expr = inputs::search(rng, hist);
                let q = gquery::parse_query(&expr)?;
                match engine.query(&q) {
                    Ok(out) => {
                        let s = out.stats;
                        if measured && traced {
                            kind.add("segments_opened", s.segments_opened as f64);
                            kind.add("blocks_decoded", s.blocks_decoded as f64);
                            kind.add("frames_matched", s.frames_matched as f64);
                            kind.add("frames_decoded", s.frames_decoded as f64);
                        }
                        true
                    }
                    Err(_) => false,
                }
            }
            _ => {
                let from = inputs::replay_from(rng, hist);
                reader.set_end(TimeStamp::from_micros(from + inputs::REPLAY_WINDOW_US));
                let seek = Instant::now();
                let sought = reader.seek(TimeStamp::from_micros(from));
                let seek_us = seek.elapsed().as_secs_f64() * 1e6;
                let read = Instant::now();
                let mut frames = 0u64;
                let mut ok = sought.is_ok();
                while ok {
                    match reader.next_tuple() {
                        Ok(Some(_)) => frames += 1,
                        Ok(None) => break,
                        Err(_) => ok = false,
                    }
                }
                if measured && traced {
                    kind.add("seek_us", seek_us);
                    kind.add("read_us", read.elapsed().as_secs_f64() * 1e6);
                }
                ok && frames > 0
            }
        };
        let us = started.elapsed().as_secs_f64() * 1e6;
        if !ok {
            kind.failed += 1;
        } else if measured {
            kind.us.push(us);
        }
        k += 1;
    }
    let mut report = Report::new();
    for (name, kind) in ["zoom", "search", "replay"].iter().zip(kinds.iter_mut()) {
        let n = kind.us.len() as u64;
        let s = Summary::of(&mut kind.us);
        report.push((format!("{name}_n"), s.n as f64));
        report.push((format!("{name}_p50"), s.p50));
        report.push((format!("{name}_p99"), s.p99));
        report.push((format!("{name}_issued"), kind.issued as f64));
        report.push((format!("{name}_failed"), kind.failed as f64));
        let mean = |k: &str| crate::stats::mean(kind.sum(k), n);
        let ratio = |a: &str, b: &str| crate::stats::mean(kind.sum(a), kind.sum(b) as u64);
        match *name {
            "zoom" => {
                report.push(("lod_plan_us".into(), mean("plan_us")));
                report.push(("lod_scan_us".into(), mean("scan_us")));
                report.push((
                    "lod_used_ratio".into(),
                    ratio("frames_used", "frames_scanned"),
                ));
                report.push(("lod_blocks_pruned".into(), mean("blocks_pruned")));
            }
            "search" => {
                report.push(("gq_segments_opened".into(), mean("segments_opened")));
                report.push(("gq_blocks_decoded".into(), mean("blocks_decoded")));
                report.push((
                    "gq_match_ratio".into(),
                    ratio("frames_matched", "frames_decoded"),
                ));
            }
            _ => {
                report.push(("reader_seek_us".into(), mean("seek_us")));
                report.push(("reader_read_us".into(), mean("read_us")));
            }
        }
    }
    Ok(report)
}
