//! The hub side of a run: set-up, the display loop, the conductor that
//! walks the workload's phases against the generator process, the
//! correctness oracle, and the metrics.
//!
//! The hub runs exactly what `gtool serve --store` runs — default
//! `HubConfig` and `StoreConfig`, a compactor with
//! `min_fold_frames: 4096` — on `ScopeServer::spawn_shards`. The display
//! is a `gel` main loop timeout at 10 ms that calls `Scope::tick` and
//! then `FrameCache::render`. Nothing the benchmark owns paces the hub.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gel::{Continue, MainLoop, Quantizer, TimeDelta};
use gnet::{HubConfig, ScopeServer, ServerStats};
use grender::{FrameCache, RenderStats};
use gscope::{Scope, SharedScope};
use gstore::{Compactor, CompactorHandle, Store, StoreConfig, StoreStats};
use gtel::{E2eSnapshot, Gauge};
use parking_lot::Mutex;

use crate::clock::{process_cpu_s, rss_mb, shared_now_ns, shared_now_us, SharedClock};
use crate::gen::{Load, Phase};
use crate::history::lod_config;
use crate::stats::{self, Losses, Summary};
use crate::Args;

pub const USAGE: &str =
    "usage: pipebench --workload live|flood|history --seed N --seconds S --trace 0|1";

/// Scope delay, period (the §4.5 maximum rate) and canvas. A second
/// of delay leaves every workload headroom against host stalls, so
/// none late-drops.
const DELAY_MS: u64 = 1_000;
const PERIOD_MS: u64 = 10;
const WIDTH: usize = 400;
const HEIGHT: usize = 150;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Per-signal rates of the open-loop producers. The flood's 400k
/// tuples/s is half the highest loss-free rate measured on a two-core
/// host with the generator beside the hub: 800k tuples/s ran clean at
/// 0.71 hub CPU-seconds per second, while at 1.2M and 1.6M the
/// generator fell 0.6–0.8 s behind and late drops reached 7% and 19%. A
/// closed loop at capacity stalls the hub for longer than any display
/// delay up to 2 s, and late-drops too.
const LIVE_HZ: u64 = 4_000;
const HISTORY_HZ: u64 = 1_000;
const FLOOD_HZ: u64 = 25_000;

/// Warm-up before each measured stretch, and the probe lengths.
const WARM_US: u64 = 1_000_000;
const PROBE_WARM_US: u64 = 1_000_000;
const DELIVER_PROBE_US: u64 = 2_500_000;
const QUERY_PROBE_US: u64 = 10_000_000;
/// Lead time between sending a phase and its first tuple.
const LEAD_US: u64 = 200_000;

/// A generator ever this late (half the scope delay) has fallen
/// behind: the run is invalid, not a slow hub. Shorter hiccups are the
/// host's, and show in `gen.lag_us.p99` and the delivery latencies.
const GEN_LAG_MAX_LIMIT_US: f64 = DELAY_MS as f64 * 500.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Live,
    Flood,
    History,
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        match s {
            "live" => Ok(Workload::Live),
            "flood" => Ok(Workload::Flood),
            "history" => Ok(Workload::History),
            _ => Err(format!("unknown workload {s:?}")),
        }
    }
}

/// One stretch of a workload before timestamps are assigned.
#[derive(Clone, Copy, Debug)]
struct Step {
    /// The workload's measured window (the rest are probes).
    window: bool,
    load: Load,
    sub: bool,
    queries: bool,
    warm_us: u64,
    run_us: u64,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Live => "live",
            Workload::Flood => "flood",
            Workload::History => "history",
        }
    }

    /// Frames of recorded history the store starts with.
    fn history_frames(self) -> u64 {
        match self {
            Workload::History => 10_000_000,
            _ => 1_000_000,
        }
    }

    /// Probes for whatever the window does not exercise, so every run
    /// reports every metric, then the measured window. Probes go first
    /// so they see a quiet hub, not one still digesting a flood. Only
    /// per-layer metrics come from the query probe, so only traced runs
    /// of `live` and `flood` have one.
    fn steps(self, seconds: u64, traced: bool) -> Vec<Step> {
        let window = |load, sub, queries| Step {
            window: true,
            load,
            sub,
            queries,
            warm_us: WARM_US,
            run_us: seconds * 1_000_000,
        };
        let deliver = Step {
            window: false,
            load: Load::Open(LIVE_HZ),
            sub: true,
            queries: false,
            warm_us: PROBE_WARM_US,
            run_us: DELIVER_PROBE_US,
        };
        let queries = Step {
            window: false,
            load: Load::Idle,
            sub: false,
            queries: true,
            warm_us: PROBE_WARM_US,
            run_us: QUERY_PROBE_US,
        };
        let mut steps = match self {
            Workload::Live => vec![queries, window(Load::Open(LIVE_HZ), true, false)],
            Workload::Flood => vec![
                deliver,
                queries,
                window(Load::Flood(FLOOD_HZ), false, false),
            ],
            Workload::History => vec![deliver, window(Load::Open(HISTORY_HZ), false, true)],
        };
        if !traced {
            steps.retain(|s| s.window || !s.queries);
        }
        steps
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Opts {
    fn parse(args: &Args) -> Result<Opts, String> {
        let seconds: u64 = args.get("seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let trace = match args.get::<u8>("trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        };
        Ok(Opts {
            workload: args.get("workload")?,
            seed: args.get("seed")?,
            seconds,
            trace,
        })
    }
}

/// Runs the benchmark; returns the process exit code.
pub fn main(args: &Args) -> i32 {
    let opts = match Opts::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return 2;
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) => d
            .join(".pipebench")
            .join(format!("run-{}", std::process::id())),
        Err(e) => {
            eprintln!("pipebench: {e}");
            return 1;
        }
    };
    let outcome = run(&opts, &root);
    let _ = std::fs::remove_dir_all(&root);
    if let Some(parent) = root.parent() {
        let _ = std::fs::remove_dir(parent); // only when empty
    }
    match outcome {
        Ok(lines) => {
            let mut out = std::io::stdout().lock();
            for line in lines {
                let _ = writeln!(out, "{line}");
            }
            0
        }
        Err(e) => {
            eprintln!("pipebench: {e}");
            1
        }
    }
}

/// Runs the requested measurement; returns the stdout lines: the
/// header, the sample counts (untraced runs), and the result last.
fn run(opts: &Opts, root: &Path) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let header = header(opts, root);
    eprintln!("pipebench: {header}");
    let mut steps = opts.workload.steps(opts.seconds, false);
    if opts.trace {
        // The untraced reference for `trace_overhead` needs only the
        // measured window.
        steps.retain(|s| s.window);
    }
    let plain = run_once(
        opts,
        root,
        &steps,
        false,
        if opts.trace { 1 } else { SETUP_REPS },
    )?;
    let mut lines = vec![header];
    let (metrics, verdict) = if opts.trace {
        let steps = opts.workload.steps(opts.seconds, true);
        let traced = run_once(opts, root, &steps, true, 1)?;
        let mut verdict = traced.verdict();
        verdict.errors.extend(plain.verdict().errors);
        if let Some(e) = telescope_error(&traced) {
            verdict.errors.push(e);
        }
        lines.push(sample_counts(&traced));
        (layer_metrics(&traced, &plain), verdict)
    } else {
        lines.push(sample_counts(&plain));
        (e2e_metrics(&plain), plain.verdict())
    };
    for e in &verdict.errors {
        eprintln!("pipebench: FAILED CHECK: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.errors.is_empty(),
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    );
    lines.push(result);
    Ok(lines)
}

/// Sample counts behind every reported percentile, and the live
/// subscriber's catch-up duplicates. A p99 is worth reporting with at
/// least ten samples beyond it; fewer is flagged.
fn sample_counts(r: &RunResult) -> String {
    let (_, rec) = r.window();
    let (sub, _) = r.phase(|s| s.sub).expect("every workload has a subscriber");
    let mut counts = vec![
        ("tick_late", rec.tick_late_us.len()),
        ("deliver", sub.get("deliver_n") as usize),
    ];
    if let Some((q, _)) = r.phase(|s| s.queries) {
        for kind in ["zoom", "search", "replay"] {
            counts.push((kind, q.get(&format!("{kind}_n")) as usize));
        }
    }
    for &(name, n) in &counts {
        if stats::beyond(n, 99.0) < 10 {
            eprintln!("pipebench: {name} p99 rests on {n} samples (fewer than ten beyond it)");
        }
    }
    counts.push(("setup", r.setup_s.len()));
    let body: Vec<String> = counts
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    format!(
        "{{\"samples\": {{{}}}, \"subscriber\": {{\"duplicates\": {}, \"catch_ups\": {}}}}}",
        body.join(", "),
        sub.get("sub_dups"),
        sub.get("sub_catch_ups")
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The run header: enough to regenerate any number it precedes.
fn header(opts: &Opts, root: &Path) -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    format!(
        "{{\"header\": {{\"bench\": \"pipebench\", \"workload\": \"{}\", \"seed\": {}, \
         \"traced\": {}, \"run_seconds\": {}, \"commit\": \"{}\", \"host\": \"{}\", \
         \"nproc\": {}, \"store_fs\": \"{}\"}}}}",
        opts.workload.name(),
        opts.seed,
        opts.trace,
        opts.seconds,
        commit(),
        host.trim(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        filesystem_of(root),
    )
}

/// The checkout's commit, read from `.git` when there is one.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(hash) = read(&format!(".git/{refname}")) {
        return hash.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == refname).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

// ---------------------------------------------------------------------
// One measured run.
// ---------------------------------------------------------------------

/// Hub-side counters at one instant.
#[derive(Clone)]
struct Snap {
    t_us: u64,
    server: ServerStats,
    store: StoreStats,
    late_drops: u64,
    e2e: E2eSnapshot,
}

fn snap(server: &ScopeServer, scope: &SharedScope) -> Snap {
    Snap {
        t_us: shared_now_us(),
        server: server.stats(),
        store: server.with_store(|s| s.stats()).unwrap_or_default(),
        late_drops: scope.lock().buffer().late_drops(),
        e2e: gtel::e2e().snapshot(),
    }
}

/// The hub process's CPU time and accepted tuples at one instant of a
/// measured stretch; consecutive slices a second apart give per-second
/// rates, whose median the report uses.
#[derive(Clone, Copy)]
struct Slice {
    t_us: u64,
    cpu_s: f64,
    accepted: u64,
}

impl Slice {
    fn take(server: &ScopeServer) -> Slice {
        Slice {
            t_us: shared_now_us(),
            cpu_s: process_cpu_s(),
            accepted: accepted(&server.stats()),
        }
    }
}

/// Tuples accepted by both the store tee and the scopes.
fn accepted(s: &ServerStats) -> u64 {
    s.tuples_stored
        .min(s.tuples_received.saturating_sub(s.tuples_dropped))
}

/// Display-loop and sampler observations of one phase.
#[derive(Default)]
struct PhaseRec {
    slices: Vec<Slice>,
    tick_late_us: Vec<f64>,
    tick_us: Vec<f64>,
    render_us: Vec<f64>,
    depth_max: usize,
    /// Render path counters at the phase's first and last frame.
    render: Option<(RenderStats, RenderStats)>,
    duty: Vec<f64>,
    shard_duty_max: Vec<f64>,
    rss_mb: Vec<f64>,
}

/// Where the display loop files its observations.
struct Recorder {
    phase: Option<usize>,
    phases: Vec<PhaseRec>,
}

/// Everything known about one phase once it ended.
struct PhaseData {
    step: Step,
    /// Hub counters at the measurement start and end.
    a: Snap,
    b: Snap,
    /// The generator's report.
    done: HashMap<String, f64>,
    /// Tier-0 frames above the tier-1 watermark at the phase's end.
    lag_frames: u64,
}

impl PhaseData {
    fn get(&self, key: &str) -> f64 {
        self.done.get(key).copied().unwrap_or(0.0)
    }

    fn secs(&self) -> f64 {
        (self.b.t_us - self.a.t_us) as f64 / 1e6
    }
}

/// A finished run: what the metrics and the verdict are computed from.
struct RunResult {
    setup_s: Vec<f64>,
    phases: Vec<PhaseData>,
    recs: Vec<PhaseRec>,
    losses: Losses,
    attempted: u64,
    errors: Vec<String>,
    disk_bytes: u64,
    /// Timed compactor passes `(start µs, duration µs)` (traced runs).
    passes: Vec<(u64, f64)>,
}

/// Verdict fields of the result object.
struct Verdict {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl RunResult {
    fn verdict(&self) -> Verdict {
        let mut errors = self.errors.clone();
        if self.losses.total() > 0 {
            errors.push(format!(
                "loss ratio {} ({:?})",
                stats::loss_ratio(&self.losses, self.attempted),
                self.losses
            ));
        }
        Verdict {
            attempted: self.attempted.max(1),
            failed: self.losses.total(),
            errors,
        }
    }

    fn window(&self) -> (&PhaseData, &PhaseRec) {
        self.phase(|s| s.window).expect("every run has a window")
    }

    /// The first phase matching `pick`, with its recorder.
    fn phase(&self, pick: impl Fn(&Step) -> bool) -> Option<(&PhaseData, &PhaseRec)> {
        let i = self.phases.iter().position(|p| pick(&p.step))?;
        Some((&self.phases[i], &self.recs[i]))
    }
}

fn run_once(
    opts: &Opts,
    root: &Path,
    steps: &[Step],
    traced: bool,
    reps: usize,
) -> Result<RunResult, String> {
    let tag = if traced { "traced" } else { "plain" };
    let mut setup_s = Vec::new();
    let mut inst = None;
    for rep in 0..reps {
        let dir = root.join(format!("{tag}-{rep}"));
        let started = Instant::now();
        let i = Instance::start(opts, traced, &dir)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if rep + 1 < reps {
            i.stop()?;
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            inst = Some(i);
        }
    }
    eprintln!("pipebench: {tag} set-up seconds {setup_s:?}");
    let mut inst = inst.expect("at least one set-up");
    let mut errors = Vec::new();
    inst.gen.send("oracle")?;
    let verdict = inst.gen.expect("oracle", Duration::from_secs(300))?;
    if verdict != "ok" {
        errors.push(format!("oracle {verdict}"));
    }

    let rec = Arc::new(Mutex::new(Recorder {
        phase: None,
        phases: steps.iter().map(|_| PhaseRec::default()).collect(),
    }));
    let mut ml = MainLoop::with_quantizer(SharedClock::shared(), Quantizer::exact());
    install_display(&mut ml, &inst.scope, &rec, traced);
    let handle = ml.handle();
    let conducted = std::thread::scope(|s| {
        let conductor = s.spawn(|| {
            let r = conduct(&mut inst, steps, &rec);
            handle.quit();
            r
        });
        ml.run();
        conductor
            .join()
            .map_err(|_| "conductor panicked".to_owned())
    })?;
    drop(ml);
    let (phases, sent) = match conducted {
        Ok(p) => p,
        Err(e) => {
            let _ = inst.stop();
            return Err(e);
        }
    };

    let fin = snap(&inst.server, &inst.scope);
    let s = &fin.server;
    let sum = |key: &str| phases.iter().map(|p| p.get(key)).sum::<f64>() as u64;
    let losses = Losses {
        unreceived: sent.saturating_sub(s.tuples_received),
        unstored: s.tuples_received.saturating_sub(s.tuples_stored),
        store_drops: s.store_drops,
        store_errors: s.store_errors,
        parse_errors: s.parse_errors,
        protocol_errors: s.protocol_errors,
        late_drops: s.tuples_dropped.max(fin.late_drops),
        unseen: sum("sub_unseen"),
        failed_queries: sum("zoom_failed") + sum("search_failed") + sum("replay_failed"),
    };
    if s.tuples_received != sent || s.tuples_stored != sent {
        errors.push(format!(
            "sent {sent} != received {} != stored {}",
            s.tuples_received, s.tuples_stored
        ));
    }
    if sum("sub_strays") > 0 {
        errors.push(format!(
            "the subscriber got {} tuples no producer sent",
            sum("sub_strays")
        ));
    }
    let attempted = sent + sum("zoom_issued") + sum("search_issued") + sum("replay_issued");
    errors.extend(generator_errors(&phases, &rec.lock().phases));
    let dir = inst.dir.clone();
    let passes = inst.stop()?;
    let disk_bytes = dir_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let recs = std::mem::take(&mut rec.lock().phases);
    Ok(RunResult {
        setup_s,
        phases,
        recs,
        losses,
        attempted,
        errors,
        disk_bytes,
        passes,
    })
}

/// The display: one timeout at the polling period that ticks the scope
/// and renders it through the frame cache (`gtool trace record`'s
/// wiring). Traced runs time both calls.
fn install_display(
    ml: &mut MainLoop,
    scope: &SharedScope,
    rec: &Arc<Mutex<Recorder>>,
    traced: bool,
) {
    let scope = Arc::clone(scope);
    let rec = Arc::clone(rec);
    let mut frames = FrameCache::new();
    ml.add_timeout(
        TimeDelta::from_millis(PERIOD_MS),
        Box::new(move |tick| {
            let late_ns = shared_now_ns().saturating_sub(tick.scheduled.as_micros() * 1_000);
            let late_us = late_ns as f64 / 1e3;
            let before = frames.stats();
            let mut timed = None;
            if traced {
                let depth = scope.lock().buffer().len();
                let t = Instant::now();
                scope.lock().tick(tick);
                let tick_us = t.elapsed().as_secs_f64() * 1e6;
                let t = Instant::now();
                frames.render(&scope.lock());
                timed = Some((depth, tick_us, t.elapsed().as_secs_f64() * 1e6));
            } else {
                scope.lock().tick(tick);
                frames.render(&scope.lock());
            }
            let mut r = rec.lock();
            if let Some(i) = r.phase {
                let p = &mut r.phases[i];
                p.tick_late_us.push(late_us);
                if let Some((depth, tick_us, render_us)) = timed {
                    p.depth_max = p.depth_max.max(depth);
                    p.tick_us.push(tick_us);
                    p.render_us.push(render_us);
                }
                let first = p.render.map_or(before, |(first, _)| first);
                p.render = Some((first, frames.stats()));
            }
            Continue::Keep
        }),
    );
}

/// Walks the phases: tells the generator to play each one, snapshots
/// the hub at its measurement start and end, samples memory and duty
/// cycle in between, then waits for the hub to take every tuple sent.
/// Returns the phases and the total tuples sent.
fn conduct(
    inst: &mut Instance,
    steps: &[Step],
    rec: &Arc<Mutex<Recorder>>,
) -> Result<(Vec<PhaseData>, u64), String> {
    let tel = inst.server.telemetry();
    let duty = tel.gauge("net.server.duty_cycle");
    let shard_duty: Vec<Arc<Gauge>> = (0..inst.server.shard_count())
        .map(|i| tel.gauge(&format!("net.server.shard{i}.duty_cycle")))
        .collect();
    let mut phases = Vec::new();
    let mut sent = 0u64;
    for (i, step) in steps.iter().enumerate() {
        let t0 = shared_now_us() + LEAD_US;
        let phase = Phase {
            load: step.load,
            sub: step.sub,
            queries: step.queries,
            t0,
            m0: t0 + step.warm_us,
            t1: t0 + step.warm_us + step.run_us,
        };
        inst.gen.send(&phase.command())?;
        let mut a = None;
        let mut next_sample = phase.m0;
        let mut next_slice = phase.m0;
        loop {
            let now = shared_now_us();
            if now >= phase.t1 {
                break;
            }
            if a.is_none() && now >= phase.m0 {
                a = Some(snap(&inst.server, &inst.scope));
                rec.lock().phase = Some(i);
            }
            if a.is_some() && now >= next_slice {
                next_slice += 1_000_000;
                let slice = Slice::take(&inst.server);
                rec.lock().phases[i].slices.push(slice);
            }
            if a.is_some() && now >= next_sample {
                next_sample = now + 50_000;
                let mut r = rec.lock();
                let p = &mut r.phases[i];
                p.rss_mb.push(rss_mb());
                p.duty.push(duty.get());
                p.shard_duty_max
                    .push(shard_duty.iter().map(|g| g.get()).fold(0.0, f64::max));
            }
            let wake = if a.is_none() {
                phase.m0
            } else {
                next_sample.min(next_slice).min(phase.t1)
            };
            crate::clock::sleep_until(wake);
        }
        let a = a.expect("measurement started before it ended");
        let b = snap(&inst.server, &inst.scope);
        {
            let mut r = rec.lock();
            r.phase = None;
            r.phases[i].slices.push(Slice::take(&inst.server));
        }
        let lag_frames = compact_lag_frames(&inst.dir);
        let done = inst.gen.expect_done(Duration::from_secs(120))?;
        sent += done.get("sent").copied().unwrap_or(0.0) as u64;
        wait_received(&inst.server, sent)?;
        phases.push(PhaseData {
            step: *step,
            a,
            b,
            done,
            lag_frames,
        });
    }
    Ok((phases, sent))
}

/// Waits until the hub has ingested `sent` tuples.
fn wait_received(server: &ScopeServer, sent: u64) -> Result<(), String> {
    let start = Instant::now();
    while server.stats().tuples_received < sent {
        if start.elapsed() > Duration::from_secs(60) {
            return Err(format!(
                "hub received {} of {sent} tuples after 60 s",
                server.stats().tuples_received
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

/// Tier-0 frames the pyramid has not folded yet: frames of tier-0
/// segments above the tier-1 watermark.
fn compact_lag_frames(dir: &Path) -> u64 {
    let wm = gstore::lod::watermark(dir, 1);
    gstore::catalog_segments(dir)
        .map(|segs| {
            segs.iter()
                .filter(|s| s.tier == 0 && Some(s.seq) > wm)
                .map(|s| s.frames)
                .sum()
        })
        .unwrap_or(0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A generator that fell behind, or a flood generator busier than the
/// busiest hub shard, makes the run measure the generator: invalid.
fn generator_errors(phases: &[PhaseData], recs: &[PhaseRec]) -> Vec<String> {
    let mut errors = Vec::new();
    for (p, rec) in phases.iter().zip(recs) {
        if p.step.load == Load::Idle {
            continue;
        }
        let max = p.get("lag_max");
        if max > GEN_LAG_MAX_LIMIT_US {
            errors.push(format!("generator fell behind: lag reached {max} us"));
        }
        if let Load::Flood(_) = p.step.load {
            let shard = stats::mean(
                rec.shard_duty_max.iter().sum(),
                rec.shard_duty_max.len() as u64,
            );
            if p.get("gen_busy") >= shard {
                errors.push(format!(
                    "flood generator busy {} >= busiest shard {shard}",
                    p.get("gen_busy")
                ));
            }
        }
    }
    errors
}

// ---------------------------------------------------------------------
// The hub instance and the generator process.
// ---------------------------------------------------------------------

/// The background compactor: its own thread in untraced runs; in
/// traced runs the same pass-then-sleep loop, with each pass timed.
enum Compacting {
    Background(CompactorHandle),
    Timed {
        stop: Arc<AtomicBool>,
        passes: Arc<Mutex<Vec<(u64, f64)>>>,
        join: JoinHandle<()>,
    },
}

impl Compacting {
    fn start(dir: &Path, traced: bool) -> Result<Compacting, String> {
        let cfg = lod_config();
        let interval = cfg.interval;
        let mut c = Compactor::new(dir, cfg).map_err(|e| format!("compactor: {e}"))?;
        if !traced {
            return Ok(Compacting::Background(c.start()));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let passes = Arc::new(Mutex::new(Vec::new()));
        let join = {
            let (stop, passes) = (Arc::clone(&stop), Arc::clone(&passes));
            std::thread::Builder::new()
                .name("glod-compactor".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let start = shared_now_us();
                        let t = Instant::now();
                        let _ = c.pass();
                        passes.lock().push((start, t.elapsed().as_secs_f64() * 1e6));
                        let mut left = interval;
                        while !stop.load(Ordering::Acquire) && !left.is_zero() {
                            let step = left.min(Duration::from_millis(20));
                            std::thread::sleep(step);
                            left = left.saturating_sub(step);
                        }
                    }
                })
                .map_err(|e| format!("spawn compactor: {e}"))?
        };
        Ok(Compacting::Timed { stop, passes, join })
    }

    /// Stops the thread; returns the timed passes.
    fn stop(self) -> Result<Vec<(u64, f64)>, String> {
        match self {
            Compacting::Background(h) => {
                let _ = h.stop();
                Ok(Vec::new())
            }
            Compacting::Timed { stop, passes, join } => {
                stop.store(true, Ordering::Release);
                join.join().map_err(|_| "compactor thread panicked")?;
                Ok(std::mem::take(&mut *passes.lock()))
            }
        }
    }
}

/// The generator process and the lines it prints.
struct GenProc {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl GenProc {
    fn spawn(args: &[String]) -> Result<GenProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("gen")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn generator: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(GenProc {
            stdin: child.stdin.take(),
            child,
            lines,
            reader: Some(reader),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("generator stdin closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("generator: {e}"))
    }

    /// Waits for a line starting with `prefix`; returns the rest.
    fn expect(&mut self, prefix: &str, timeout: Duration) -> Result<String, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix(prefix) {
                        return Ok(rest.trim().to_owned());
                    }
                    eprintln!("pipebench: generator said {line:?}");
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("generator: no {prefix:?} within {timeout:?}"))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("generator exited before {prefix:?}"))
                }
            }
        }
    }

    fn expect_done(&mut self, timeout: Duration) -> Result<HashMap<String, f64>, String> {
        let rest = self.expect("done", timeout)?;
        Ok(rest
            .split_whitespace()
            .filter_map(|f| {
                let (k, v) = f.split_once('=')?;
                Some((k.to_owned(), v.parse().ok()?))
            })
            .collect())
    }

    /// Asks the generator to exit and waits for it; kills it if it
    /// does not go within ten seconds.
    fn finish(&mut self) {
        if self.stdin.is_some() {
            let _ = self.send("quit");
            self.stdin = None;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

impl Drop for GenProc {
    fn drop(&mut self) {
        self.finish();
    }
}

/// One hub with its store, compactor, display scope and generator.
struct Instance {
    dir: PathBuf,
    scope: SharedScope,
    server: ScopeServer,
    compactor: Compacting,
    gen: GenProc,
}

impl Instance {
    /// Set-up: record the history, start the hub the way
    /// `gtool serve --store` does, and start a connected generator.
    fn start(opts: &Opts, traced: bool, dir: &Path) -> Result<Instance, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let needs_sub = opts.workload.steps(1, traced).iter().any(|s| s.sub);
        let args: Vec<String> = [
            ("seed", opts.seed.to_string()),
            ("trace", u8::from(traced).to_string()),
            ("dir", dir.display().to_string()),
            ("hist-frames", opts.workload.history_frames().to_string()),
            ("subscriber", u8::from(needs_sub).to_string()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [format!("--{k}"), v])
        .collect();
        let mut gen = GenProc::spawn(&args)?;
        gen.expect("recorded", Duration::from_secs(300))?;

        let mut scope = Scope::new("pipebench", WIDTH, HEIGHT, SharedClock::shared());
        scope.set_delay(TimeDelta::from_millis(DELAY_MS));
        scope
            .set_polling_mode(TimeDelta::from_millis(PERIOD_MS))
            .map_err(|e| e.to_string())?;
        scope.start();
        let scope = scope.into_shared();
        let mut server = ScopeServer::with_config("127.0.0.1:0", HubConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        server.add_scope(Arc::clone(&scope));
        server.set_store(Store::open(dir, StoreConfig::default()).map_err(|e| e.to_string())?);
        let compactor = Compacting::start(dir, traced)?;
        server.spawn_shards();
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        gen.send(&format!("connect {addr}"))?;
        gen.expect("ready", Duration::from_secs(60))?;
        Ok(Instance {
            dir: dir.to_path_buf(),
            scope,
            server,
            compactor,
            gen,
        })
    }

    /// Tears everything down: generator, compactor, store; returns the
    /// timed compactor passes.
    fn stop(mut self) -> Result<Vec<(u64, f64)>, String> {
        self.gen.finish();
        let passes = self.compactor.stop()?;
        if let Some(store) = self.server.take_store() {
            store.close().map_err(|e| format!("store close: {e}"))?;
        }
        Ok(passes)
    }
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

type Metric = (&'static str, f64, &'static str);

/// Tuples per second accepted by both the store tee and the scopes.
/// Every producer is an open loop, so this is the offered rate unless
/// tuples were lost, which fails the run anyway: a check, not a
/// measure of the hub.
fn ingest_tps(p: &PhaseData) -> f64 {
    (accepted(&p.b.server) - accepted(&p.a.server)) as f64 / p.secs()
}

/// Median over the stretch's one-second slices of `f(slice, next)`.
fn slice_median(rec: &PhaseRec, f: impl Fn(&Slice, &Slice) -> f64) -> f64 {
    let mut rates: Vec<f64> = rec.slices.windows(2).map(|w| f(&w[0], &w[1])).collect();
    Summary::of(&mut rates).p50
}

/// CPU-seconds per wall-second of the hub process.
fn cpu_util(rec: &PhaseRec) -> f64 {
    slice_median(rec, |a, b| {
        (b.cpu_s - a.cpu_s) / ((b.t_us - a.t_us) as f64 / 1e6)
    })
}

/// Accepted tuples per CPU-second of the hub process: what the hub
/// gets done with the CPU it takes, the figure its capacity scales
/// with.
fn tuples_per_cpu_s(rec: &PhaseRec) -> f64 {
    slice_median(rec, |a, b| (b.accepted - a.accepted) as f64 / (b.cpu_s - a.cpu_s))
}

/// The end-to-end metrics. Query latencies and tick lateness swing too
/// far from run to run on a two-core host to carry a bound; the traced
/// run reports them with the per-layer metrics.
fn e2e_metrics(r: &RunResult) -> Vec<Metric> {
    let (_, rec) = r.window();
    let mut setup = r.setup_s.clone();
    let (sub, _) = r.phase(|s| s.sub).expect("every workload has a subscriber");
    vec![
        ("setup_s", Summary::of(&mut setup).p50, "s"),
        ("tuples_per_cpu_s", tuples_per_cpu_s(rec), "1/cpu_s"),
        ("cpu_util", cpu_util(rec), "cpu_s/s"),
        (
            "rss_mb",
            rec.rss_mb.iter().copied().fold(0.0, f64::max),
            "MiB",
        ),
        ("deliver_p50_us", sub.get("deliver_p50"), "us"),
        ("deliver_p99_us", sub.get("deliver_p99"), "us"),
    ]
}

/// Mean of one `e2e.*` histogram over a phase.
fn stage_mean(p: &PhaseData, pick: impl Fn(&E2eSnapshot) -> gtel::HistogramSnapshot) -> f64 {
    let (a, b) = (pick(&p.a.e2e), pick(&p.b.e2e));
    stats::mean((b.sum - a.sum) as f64, b.count - a.count)
}

fn stage(p: &PhaseData, i: usize) -> f64 {
    stage_mean(p, |s| s.stages[i].1)
}

/// The traced window's stage means must add up to its end-to-end mean
/// within the mean clock error.
fn telescope_error(r: &RunResult) -> Option<String> {
    let (win, _) = r.window();
    let chains = win.b.e2e.total.count - win.a.e2e.total.count;
    if chains == 0 {
        return Some("no lateness chain completed in the traced window".into());
    }
    let sum: f64 = (0..gtel::Stage::ALL.len()).map(|i| stage(win, i)).sum();
    let total = stage_mean(win, |s| s.total);
    let err = stage_mean(win, |s| s.clock_error);
    ((sum - total).abs() > err + 1.0).then(|| {
        format!("stage means sum to {sum:.1} us but e2e.total_us is {total:.1} us (clock error {err:.1} us)")
    })
}

fn layer_metrics(traced: &RunResult, plain: &RunResult) -> Vec<Metric> {
    let (win, rec) = traced.window();
    let (sub, _) = traced.phase(|s| s.sub).expect("every workload has a subscriber");
    let (q, _) = traced
        .phase(|s| s.queries)
        .expect("traced runs have a query phase");
    let mut tick = rec.tick_us.clone();
    let tick = Summary::of(&mut tick);
    let mut late = rec.tick_late_us.clone();
    let late = Summary::of(&mut late);
    let mut render = rec.render_us.clone();
    let render = Summary::of(&mut render);
    let (r0, r1) = rec.render.unwrap_or_default();
    let frames = (r1.full + r1.content + r1.incremental + r1.cached)
        - (r0.full + r0.content + r0.incremental + r0.cached);
    let blits = (r1.incremental + r1.cached) - (r0.incremental + r0.cached);
    let mut passes: Vec<f64> = traced
        .passes
        .iter()
        .filter(|(t, _)| (win.a.t_us..win.b.t_us).contains(t))
        .map(|&(_, us)| us)
        .collect();
    let busy_us: f64 = passes.iter().sum();
    let passes = Summary::of(&mut passes);
    let (sa, sb) = (&win.a.store, &win.b.store);
    let appended = sb.frames_appended - sa.frames_appended;
    let (oa, ob) = (&sub.a.server, &sub.b.server);
    let mean_of = |v: &[f64]| stats::mean(v.iter().sum(), v.len() as u64);
    // Tracing cost: extra hub CPU at the same offered load.
    let (_, prec) = plain.window();
    let trace_overhead = cpu_util(rec) / cpu_util(prec) - 1.0;
    vec![
        ("ingest_tps", ingest_tps(win), "1/s"),
        ("gnet.duty_cycle", mean_of(&rec.duty), "ratio"),
        ("gnet.shard_duty_max", mean_of(&rec.shard_duty_max), "ratio"),
        ("gnet.stage.wire_us", stage(win, 0), "us"),
        ("gnet.stage.parse_us", stage(win, 1), "us"),
        ("gnet.stage.route_us", stage(win, 2), "us"),
        ("gnet.stage.push_us", stage(win, 3), "us"),
        (
            "gnet.bytes_out_per_tuple",
            stats::mean(
                (ob.bytes_out - oa.bytes_out) as f64,
                ob.tuples_out - oa.tuples_out,
            ),
            "B",
        ),
        (
            "gnet.sheds",
            (ob.shed_events - oa.shed_events) as f64,
            "count",
        ),
        (
            "gnet.catch_up_tuples",
            (ob.catch_up_tuples - oa.catch_up_tuples) as f64,
            "count",
        ),
        ("core.tick_us.p50", tick.p50, "us"),
        ("core.tick_us.p99", tick.p99, "us"),
        (
            "core.late_drops",
            (win.b.late_drops - win.a.late_drops) as f64,
            "count",
        ),
        ("core.buffer_depth.max", rec.depth_max as f64, "tuples"),
        ("core.stage.drain_us", stage(win, 4), "us"),
        ("grender.render_us.p50", render.p50, "us"),
        ("grender.render_us.p99", render.p99, "us"),
        (
            "grender.blit_ratio",
            stats::mean(blits as f64, frames),
            "ratio",
        ),
        ("grender.stage.render_us", stage(win, 5), "us"),
        ("e2e.total_us", stage_mean(win, |s| s.total), "us"),
        (
            "e2e.clock_error_us",
            stage_mean(win, |s| s.clock_error),
            "us",
        ),
        ("gstore.append_tps", appended as f64 / win.secs(), "1/s"),
        (
            "gstore.bytes_per_tuple",
            stats::mean((sb.bytes_written - sa.bytes_written) as f64, appended),
            "B",
        ),
        ("gstore.disk_bytes", traced.disk_bytes as f64, "B"),
        ("gstore.compact_pass_us.p50", passes.p50, "us"),
        ("gstore.compact_pass_us.p99", passes.p99, "us"),
        ("gstore.compact_busy", busy_us / 1e6 / win.secs(), "ratio"),
        ("gstore.compact_lag_frames", win.lag_frames as f64, "frames"),
        ("gstore.lod.plan_us", q.get("lod_plan_us"), "us"),
        ("gstore.lod.scan_us", q.get("lod_scan_us"), "us"),
        ("gstore.lod.used_ratio", q.get("lod_used_ratio"), "ratio"),
        (
            "gstore.lod.blocks_pruned",
            q.get("lod_blocks_pruned"),
            "blocks",
        ),
        ("gstore.reader.seek_us", q.get("reader_seek_us"), "us"),
        ("gstore.reader.read_us", q.get("reader_read_us"), "us"),
        (
            "gquery.segments_opened",
            q.get("gq_segments_opened"),
            "segments",
        ),
        (
            "gquery.blocks_decoded",
            q.get("gq_blocks_decoded"),
            "blocks",
        ),
        ("gquery.match_ratio", q.get("gq_match_ratio"), "ratio"),
        ("gen.lag_us.p99", win.get("lag_p99"), "us"),
        ("gen.busy", win.get("gen_busy"), "ratio"),
        ("trace_overhead", trace_overhead, "ratio"),
        ("tick_late_p50_us", late.p50, "us"),
        ("tick_late_p99_us", late.p99, "us"),
        ("zoom_p50_us", q.get("zoom_p50"), "us"),
        ("zoom_p99_us", q.get("zoom_p99"), "us"),
        ("search_p50_us", q.get("search_p50"), "us"),
        ("search_p99_us", q.get("search_p99"), "us"),
        ("replay_p50_us", q.get("replay_p50"), "us"),
        ("replay_p99_us", q.get("replay_p99"), "us"),
    ]
}
