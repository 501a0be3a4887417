//! The CLI subcommand implementations.
//!
//! Each command is a function from parsed [`Args`] to a report string,
//! so the whole tool is unit-testable without spawning processes.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;

use gel::{Clock, SystemClock, TickInfo, TimeDelta, TimeStamp, VirtualClock};
use gnet::{Protocol, ScopeClient, ScopeServer};
use gscope::{Scope, SigSource, StatsExport, Tuple, TupleReader, TupleSource, TupleWriter};
use gstore::{catalog_segments, Compactor, CompactorConfig, Store, StoreConfig, StoreReader};
use gtel::Registry;

use crate::args::Args;

/// Boxed error alias for command results.
pub type CmdResult = Result<String, Box<dyn std::error::Error>>;

fn load_tuples(path: &str) -> Result<Vec<Tuple>, Box<dyn std::error::Error>> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Ok(TupleReader::new(BufReader::new(file)).read_all()?)
}

/// Per-signal roll-up: count, min, max.
type SignalSummary = BTreeMap<String, (u64, f64, f64)>;

fn fold_signal(per_signal: &mut SignalSummary, name: Option<&str>, value: f64) {
    let name = name.unwrap_or(gscope::UNNAMED_SIGNAL);
    // Entry-by-reference first: one String allocation per distinct
    // signal, not per tuple.
    if let Some(entry) = per_signal.get_mut(name) {
        entry.0 += 1;
        entry.1 = entry.1.min(value);
        entry.2 = entry.2.max(value);
    } else {
        per_signal.insert(name.to_owned(), (1, value, value));
    }
}

fn summary_block(
    head: &str,
    count: u64,
    span: Option<(TimeStamp, TimeStamp)>,
    per_signal: &SignalSummary,
) -> String {
    let Some((t0, t1)) = span else {
        return format!("{head}: empty recording");
    };
    let mut out = format!(
        "{head}: {count} tuples, {} signals, {:.3}s .. {:.3}s ({:.3}s span)\n",
        per_signal.len(),
        t0.as_secs_f64(),
        t1.as_secs_f64(),
        (t1 - t0).as_secs_f64(),
    );
    for (name, (count, min, max)) in per_signal {
        out.push_str(&format!(
            "  {name:<20} {count:>8} samples   range [{min}, {max}]\n"
        ));
    }
    out
}

/// What `summary_block` needs for one tier: total tuples, time span,
/// and the per-signal breakdown.
type TierSummary = (u64, Option<(TimeStamp, TimeStamp)>, SignalSummary);

/// Per-tier roll-up from `.gidx` sidecars alone: per-signal counts,
/// value ranges, and the tier's time span come straight from the
/// Signal-class terms — no block is decoded. Returns `None` when any
/// segment lacks a valid sidecar, and the caller falls back to the
/// full streamed walk.
fn indexed_tier_summary(segs: &[&gstore::SegmentInfo]) -> Option<TierSummary> {
    let mut per_signal = SignalSummary::new();
    let mut count = 0u64;
    let mut span: Option<(u64, u64)> = None;
    for seg in segs {
        let gstore::IndexProbe::Valid(idx) = gstore::probe_index(&seg.path).ok()? else {
            return None;
        };
        for term in idx.terms_of(gstore::TermClass::Signal) {
            let name = if term.name.is_empty() {
                gscope::UNNAMED_SIGNAL
            } else {
                &term.name
            };
            if let Some(entry) = per_signal.get_mut(name) {
                entry.0 += term.count;
                entry.1 = entry.1.min(term.min_value);
                entry.2 = entry.2.max(term.max_value);
            } else {
                per_signal.insert(
                    name.to_owned(),
                    (term.count, term.min_value, term.max_value),
                );
            }
            count += term.count;
            span = Some(match span {
                None => (term.first_us, term.last_us),
                Some((a, b)) => (a.min(term.first_us), b.max(term.last_us)),
            });
        }
    }
    let span = span.map(|(a, b)| (TimeStamp::from_micros(a), TimeStamp::from_micros(b)));
    Some((count, span, per_signal))
}

/// Summarizes a store directory: catalog plus, per tier, either the
/// `.gidx` sidecar roll-up (no block decodes) or a streamed walk when
/// a sidecar is missing or damaged.
fn store_info(dir: &str) -> CmdResult {
    let catalog =
        catalog_segments(Path::new(dir)).map_err(|e| format!("cannot open {dir}: {e}"))?;
    // Every tier actually present, not a hardcoded roll-up list: the
    // glod pyramid grows tiers as history accumulates.
    let mut tiers: Vec<u16> = catalog.iter().map(|s| s.tier).collect();
    tiers.sort_unstable();
    tiers.dedup();
    let mut out = String::new();
    let mut tier0_frames: Option<u64> = None;
    for tier in tiers {
        let segs: Vec<_> = catalog.iter().filter(|s| s.tier == tier).collect();
        if segs.is_empty() {
            continue;
        }
        let mut crc_skipped = 0;
        let (count, span, per_signal, via) = match indexed_tier_summary(&segs) {
            Some((count, span, per_signal)) => (count, span, per_signal, ", indexed"),
            None => {
                let mut reader = StoreReader::open_tier(dir, tier)?;
                let mut per_signal = SignalSummary::new();
                let mut count = 0u64;
                let mut span: Option<(TimeStamp, TimeStamp)> = None;
                while let Some(t) = reader.next_tuple()? {
                    fold_signal(&mut per_signal, t.name.as_deref(), t.value);
                    count += 1;
                    span = Some(match span {
                        None => (t.time, t.time),
                        Some((t0, _)) => (t0, t.time),
                    });
                }
                crc_skipped = reader.stats().crc_skipped_blocks;
                (count, span, per_signal, "")
            }
        };
        if tier == 0 {
            tier0_frames = Some(count);
        }
        // Effective decimation vs the raw tier: tier >= 1 frames come
        // in (min, max) pairs, so `count / 2` source windows survive.
        let decim = match (tier, tier0_frames) {
            (0, _) => String::new(),
            (_, Some(f0)) if count > 0 => {
                format!(", ~1:{} decimation", (f0 * 2).div_ceil(count).max(1))
            }
            _ => String::new(),
        };
        let bytes: u64 = segs.iter().map(|s| s.bytes).sum();
        let head = format!(
            "{dir} tier {tier} ({} segments, {bytes} bytes{}{decim}{via})",
            segs.len(),
            if tier >= 1 { ", min/max envelopes" } else { "" },
        );
        out.push_str(&summary_block(&head, count, span, &per_signal));
        if crc_skipped > 0 {
            out.push_str(&format!("  ({crc_skipped} corrupt blocks skipped)\n"));
        }
    }
    if out.is_empty() {
        out = format!("{dir}: empty store");
    }
    Ok(out)
}

/// `info <file-or-store-dir> [--period MS]` — summarize a recording.
///
/// Text files are summarized in one streaming pass (`next_raw`, no
/// per-tuple allocation, O(1) memory in the file size), then replayed
/// through a scope for the §4.5-style self-telemetry report. Store
/// directories are summarized per tier straight off the segment
/// catalog and a streamed read.
pub fn info(args: &Args) -> CmdResult {
    args.check_known(&["period"])?;
    let path = args.positional(0, "file")?;
    let period_ms: u64 = args.get_or("period", 50)?;
    if Path::new(path).is_dir() {
        return store_info(path);
    }
    // Pass 1 — streamed summary. Large recordings are never buffered
    // for this part: each line is parsed in place and folded.
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut reader = TupleReader::new(BufReader::new(file));
    let mut per_signal = SignalSummary::new();
    let mut count = 0u64;
    let mut span: Option<(TimeStamp, TimeStamp)> = None;
    while let Some(raw) = reader.next_raw()? {
        fold_signal(&mut per_signal, raw.name, raw.value);
        count += 1;
        span = Some(match span {
            None => (raw.time, raw.time),
            Some((t0, _)) => (t0, raw.time),
        });
    }
    let mut out = summary_block(path, count, span, &per_signal);
    if span.is_none() {
        return Ok(out);
    }
    // Pass 2 — replay telemetry (§4.5-style self-measurement): drive
    // the recording through a scope and report what the scope saw.
    let tuples = load_tuples(path)?;
    let registry = Registry::shared();
    let scope = replay_scope_with(
        tuples,
        400,
        TimeDelta::from_millis(period_ms),
        Some(Arc::clone(&registry)),
    )?;
    let stats = scope.stats();
    out.push_str(&format!(
        "replay @ {period_ms}ms: {} ticks ({} missed), {} late drops\n",
        registry.counter("scope.ticks").get(),
        stats.missed_ticks,
        stats.late_drops,
    ));
    for name in scope.signal_names() {
        let displayed = scope
            .signal(&name)
            .map(|s| s.history().value_count())
            .unwrap_or(0);
        out.push_str(&format!("  {name:<20} {displayed:>8} displayed samples\n"));
    }
    Ok(out)
}

/// Builds a [`StoreConfig`] from the shared store tuning flags.
fn store_cfg(args: &Args) -> Result<StoreConfig, Box<dyn std::error::Error>> {
    let mut cfg = StoreConfig {
        fsync: args.has("fsync"),
        ..StoreConfig::default()
    };
    cfg.segment_bytes = args.get_or("segment-kib", cfg.segment_bytes >> 10)? << 10;
    cfg.block_frames = args.get_or("block-frames", cfg.block_frames)?;
    Ok(cfg)
}

/// `serve`'s glod compactor settings plus any `--retain-*` history bound.
fn compactor_cfg(args: &Args) -> Result<CompactorConfig, Box<dyn std::error::Error>> {
    let bound = |flag| args.get(flag).map(|_| args.get_or(flag, 0u64)).transpose();
    Ok(CompactorConfig {
        min_fold_frames: 4096,
        retain_bytes: bound("retain-bytes")?,
        retain_age: bound("retain-age-ms")?.map(TimeDelta::from_millis),
        ..CompactorConfig::default()
    })
}

/// Drains the sealed store at `dir` under `lod`'s retention bound, if any.
fn compact_sealed(dir: &str, lod: CompactorConfig) -> CmdResult {
    if lod.retain_bytes.is_none() && lod.retain_age.is_none() {
        return Ok(String::new());
    }
    let r = Compactor::new(dir, lod)?.drain()?;
    let (evicted, folded, written) = (r.segments_evicted, r.frames_in, r.frames_out);
    Ok(format!("compacted {dir}: {evicted} segments evicted, {folded} frames folded into {written} envelope frames\n"))
}

/// `record <file> --store <dir> [--fsync] [--segment-kib N] [--block-frames N]
/// [--retain-bytes N] [--retain-age-ms MS]` — ingest a §3.3 text recording
/// into a binary store line by line, then compact it under a retention bound.
pub fn record(args: &Args) -> CmdResult {
    args.check_known(&[
        "store",
        "fsync",
        "segment-kib",
        "block-frames",
        "retain-bytes",
        "retain-age-ms",
    ])?;
    let path = args.positional(0, "file")?;
    let dir = args.get("store").ok_or("missing --store <dir>")?;
    let text_bytes = std::fs::metadata(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?
        .len();
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut reader = TupleReader::new(BufReader::new(file));
    let lod = compactor_cfg(args)?;
    let mut store = Store::open(dir, store_cfg(args)?)?;
    let mut frames = 0u64;
    while let Some(raw) = reader.next_raw()? {
        store.append(raw.time, raw.value, raw.name)?;
        frames += 1;
    }
    let stats = store.close()?;
    let compacted = compact_sealed(dir, lod)?;
    let ratio = if stats.bytes_written > 0 {
        text_bytes as f64 / stats.bytes_written as f64
    } else {
        0.0
    };
    Ok(format!(
        "recorded {frames} tuples into {dir}: {} bytes in {} segments ({} rolls), {ratio:.1}x smaller than text\n{compacted}",
        stats.bytes_written,
        stats.segments_rolled + 1,
        stats.segments_rolled,
    ))
}

/// `replay --store <dir> [--from MS] [--to MS] [--out FILE]
/// [--tier N | --px-width W]` — replay a store back to §3.3 text,
/// seeking straight to `--from` through the block index instead of
/// scanning prior segments. `--tier` forces a glod pyramid tier
/// (pre-decimated min/max envelopes straight off disk); `--px-width`
/// lets the planner pick the coarsest tier that still yields one
/// envelope column per pixel.
pub fn replay(args: &Args) -> CmdResult {
    args.check_known(&["store", "from", "to", "out", "tier", "px-width"])?;
    let dir = args.get("store").ok_or("missing --store <dir>")?;
    if args.get("tier").is_some() && args.get("px-width").is_some() {
        return Err("--tier and --px-width are mutually exclusive".into());
    }
    let from_us = match args.get("from") {
        Some(from) => {
            let ms: f64 = from.parse().map_err(|_| format!("bad --from {from:?}"))?;
            (ms * 1_000.0) as u64
        }
        None => 0,
    };
    let to_us = match args.get("to") {
        Some(to) => {
            let ms: f64 = to.parse().map_err(|_| format!("bad --to {to:?}"))?;
            (ms * 1_000.0) as u64
        }
        None => u64::MAX,
    };
    let (tier, planner) = if let Some(t) = args.get("tier") {
        let t: u16 = t.parse().map_err(|_| format!("bad --tier {t:?}"))?;
        (t, format!("planner: tier {t} (forced)\n"))
    } else if let Some(w) = args.get("px-width") {
        let px: usize = w.parse().map_err(|_| format!("bad --px-width {w:?}"))?;
        let (t, tiers) = gstore::lod::pick_tier(Path::new(dir), from_us, to_us, px)?;
        (t, format!("planner: tier {t} of {tiers:?} for {px} px\n"))
    } else {
        (0, String::new())
    };
    let mut reader = StoreReader::open_tier(dir, tier)?;
    let total_segments = reader.segment_count();
    if args.get("from").is_some() {
        reader.seek(TimeStamp::from_micros(from_us))?;
    }
    if args.get("to").is_some() {
        reader.set_end(TimeStamp::from_micros(to_us));
    }
    let mut writer = match args.get("out") {
        Some(out) => Some(TupleWriter::new(std::io::BufWriter::new(File::create(
            out,
        )?))),
        None => None,
    };
    let mut count = 0u64;
    let mut span: Option<(TimeStamp, TimeStamp)> = None;
    while let Some(t) = reader.next_tuple()? {
        if let Some(w) = writer.as_mut() {
            w.write_parts(t.time, t.value, t.name.as_deref())?;
        }
        count += 1;
        span = Some(match span {
            None => (t.time, t.time),
            Some((t0, _)) => (t0, t.time),
        });
    }
    if let Some(mut w) = writer {
        w.flush()?;
    }
    let s = reader.stats();
    let mut out = match span {
        None => format!("replayed 0 tuples from {dir}"),
        Some((t0, t1)) => format!(
            "replayed {count} tuples from {dir}: {:.3}s .. {:.3}s",
            t0.as_secs_f64(),
            t1.as_secs_f64(),
        ),
    };
    out.push_str(&format!(
        "\nseek: {}/{} segments indexed, {} index probes, {} blocks decoded\n",
        s.segments_indexed, total_segments, s.index_probes, s.blocks_decoded,
    ));
    out.push_str(&planner);
    if let Some(out_file) = args.get("out") {
        out.push_str(&format!("wrote text tuples to {out_file}\n"));
    }
    Ok(out)
}

/// `compact --store <dir> [--retain-bytes N] [--retain-age-ms MS]` —
/// seal the store, fold it into glod pyramid tiers, and delete the
/// history the retention bound no longer keeps at full rate.
pub fn compact(args: &Args) -> CmdResult {
    args.check_known(&["store", "retain-bytes", "retain-age-ms"])?;
    let dir = args.get("store").ok_or("missing --store <dir>")?;
    if args.get("retain-bytes").is_none() && args.get("retain-age-ms").is_none() {
        return Err("compact needs --retain-bytes and/or --retain-age-ms".into());
    }
    // Opening recovers a torn tail; closing seals it for the fold.
    Store::open(dir, StoreConfig::default())?.close()?;
    compact_sealed(dir, compactor_cfg(args)?)
}

/// Replays `tuples` at `period` into a scope `width` pixels wide,
/// optionally re-homing its telemetry into `registry`.
fn replay_scope_with(
    tuples: Vec<Tuple>,
    width: usize,
    period: TimeDelta,
    registry: Option<Arc<Registry>>,
) -> gscope::Result<Scope> {
    let clock = VirtualClock::new();
    let mut scope = Scope::new("replay", width, 150, Arc::new(clock.clone()));
    if let Some(reg) = registry {
        scope.set_telemetry(reg);
    }
    scope.set_period(period)?;
    let end = tuples.last().map(|t| t.time).unwrap_or(TimeStamp::ZERO);
    scope.set_playback_mode(tuples)?;
    scope.start();
    let mut t = TimeStamp::ZERO;
    let horizon = end + period.saturating_mul(3);
    while t < horizon {
        t += period;
        clock.set(t);
        scope.tick(&TickInfo {
            now: t,
            scheduled: t,
            missed: 0,
        });
    }
    Ok(scope)
}

/// Replays `tuples` at `period` into a scope `width` pixels wide.
fn replay_scope(tuples: Vec<Tuple>, width: usize, period: TimeDelta) -> gscope::Result<Scope> {
    replay_scope_with(tuples, width, period, None)
}

/// `view <file> --out <img> [--width N] [--period MS] [--svg]` —
/// render a recording like the scope would have displayed it (the
/// §6 "printing of recorded data" feature).
pub fn view(args: &Args) -> CmdResult {
    args.check_known(&["out", "width", "period", "svg"])?;
    let path = args.positional(0, "file")?;
    let width: usize = args.get_or("width", 400)?;
    let period_ms: u64 = args.get_or("period", 50)?;
    let out = args.get("out").unwrap_or("scope.ppm").to_owned();
    let tuples = load_tuples(path)?;
    let count = tuples.len();
    let scope = replay_scope(tuples, width, TimeDelta::from_millis(period_ms))?;
    if args.has("svg") {
        std::fs::write(&out, grender::render_scope_svg(&scope))?;
    } else {
        grender::render_scope(&scope).save_ppm(&out)?;
    }
    Ok(format!(
        "rendered {count} tuples ({} signals) at {period_ms}ms/px to {out}",
        scope.signal_count()
    ))
}

/// `gen --out <file> [--seconds S] [--rate HZ] [--wave sine|square|saw|triangle] [--freq HZ] [--name N]`
/// — generate a synthetic single- or multi-signal recording.
pub fn gen(args: &Args) -> CmdResult {
    args.check_known(&[
        "out",
        "seconds",
        "rate",
        "wave",
        "freq",
        "name",
        "amplitude",
    ])?;
    let out = args.get("out").ok_or("missing --out")?.to_owned();
    let seconds: f64 = args.get_or("seconds", 5.0)?;
    let rate: f64 = args.get_or("rate", 100.0)?;
    let freq: f64 = args.get_or("freq", 1.0)?;
    let amplitude: f64 = args.get_or("amplitude", 40.0)?;
    let name = args.get("name").unwrap_or("signal").to_owned();
    let wave = match args.get("wave").unwrap_or("sine") {
        "sine" => gctrl::Waveform::Sine,
        "square" => gctrl::Waveform::Square,
        "saw" => gctrl::Waveform::Sawtooth,
        "triangle" => gctrl::Waveform::Triangle,
        other => return Err(format!("unknown wave {other:?}").into()),
    };
    if rate <= 0.0 || seconds <= 0.0 {
        return Err("--rate and --seconds must be positive".into());
    }
    let osc = gctrl::Oscillator::new(wave, freq, amplitude).with_offset(50.0);
    let mut w = TupleWriter::new(std::io::BufWriter::new(File::create(&out)?));
    let n = (seconds * rate) as u64;
    for i in 0..n {
        let secs = i as f64 / rate;
        w.write_parts(
            TimeStamp::from_micros((secs * 1e6) as u64),
            osc.sample(secs),
            Some(&name),
        )?;
    }
    w.flush()?;
    Ok(format!("wrote {n} tuples of {name} to {out}"))
}

/// `stats <file> [--period MS] [--width N] [--json]
/// [--format table|prometheus|tuples|json]` — replay a recording
/// through an instrumented scope and print the resulting gtel
/// snapshot: the tool's own §4.5-style microbenchmark. The JSON form
/// stamps the whole snapshot with one timestamp (the recording's end),
/// so consumers never see per-metric clock skew.
pub fn stats(args: &Args) -> CmdResult {
    args.check_known(&["period", "width", "format", "json"])?;
    let path = args.positional(0, "file")?;
    let period_ms: u64 = args.get_or("period", 50)?;
    let width: usize = args.get_or("width", 400)?;
    let format = if args.has("json") {
        "json"
    } else {
        args.get("format").unwrap_or("table")
    };
    let tuples = load_tuples(path)?;
    let end_ms = tuples.last().map(|t| t.time.as_millis_f64()).unwrap_or(0.0);
    let registry = Registry::shared();
    let _scope = replay_scope_with(
        tuples,
        width,
        TimeDelta::from_millis(period_ms),
        Some(Arc::clone(&registry)),
    )?;
    let snapshot = registry.snapshot();
    match format {
        "table" => Ok(format!(
            "{path}: replay telemetry @ {period_ms}ms\n{}",
            gtel::stats_table(&snapshot)
        )),
        "prometheus" => Ok(gtel::prometheus_text(&snapshot)),
        "tuples" => {
            let mut out = gtel::tuple_lines(&snapshot, end_ms).join("\n");
            out.push('\n');
            Ok(out)
        }
        "json" => Ok(gtel::json_stats(&snapshot, end_ms)),
        other => Err(format!("unknown --format {other:?} (table|prometheus|tuples|json)").into()),
    }
}

/// `stream <file> <addr> [--speed X] [--telemetry] [--binary|--text]`
/// — replay a recording to a scope server in (scaled) real time,
/// timestamps rebased to "now". With `--telemetry`, the client's own
/// stats are appended to the stream as `net.client.*` tuples (§3.3
/// format), so the receiving scope can display the streamer's health
/// too. `--binary` offers the length-delimited wire encoding (the
/// server may decline, in which case the stream stays text);
/// `--text` pins the legacy line protocol. The report names whichever
/// encoding was actually negotiated.
pub fn stream(args: &Args) -> CmdResult {
    args.check_known(&["speed", "telemetry", "binary", "text"])?;
    let path = args.positional(0, "file")?;
    let addr = args.positional(1, "addr")?;
    let speed: f64 = args.get_or("speed", 1.0)?;
    if speed <= 0.0 {
        return Err("--speed must be positive".into());
    }
    if args.has("binary") && args.has("text") {
        return Err("--binary and --text are mutually exclusive".into());
    }
    let tuples = load_tuples(path)?;
    let clock = SystemClock::new();
    let mut client = if args.has("binary") {
        ScopeClient::connect_binary(addr)?
    } else {
        ScopeClient::connect(addr)?
    };
    let base = tuples.first().map(|t| t.time).unwrap_or(TimeStamp::ZERO);
    let start = clock.now();
    let mut sent = 0u64;
    for t in &tuples {
        let offset = TimeDelta::from_micros(((t.time - base).as_micros() as f64 / speed) as u64);
        let due = start + offset;
        while clock.now() < due {
            let _ = client.pump();
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        client.send_at(
            clock.now(),
            t.name.as_deref().unwrap_or(gscope::UNNAMED_SIGNAL),
            t.value,
        );
        let _ = client.pump();
        sent += 1;
    }
    let mut extra = 0u64;
    if args.has("telemetry") {
        for t in client.stats().to_tuples(clock.now()) {
            client.send(&t);
            extra += 1;
        }
    }
    client.flush_blocking()?;
    let proto = match client.negotiated() {
        Protocol::Binary => "binary",
        Protocol::Text => "text",
    };
    let mut report = format!("streamed {sent} tuples to {addr} at {speed}x over {proto} wire");
    if extra > 0 {
        report.push_str(&format!(" (+{extra} telemetry tuples)"));
    }
    report.push('\n');
    Ok(report)
}

/// `serve <bind> [--duration-ms D] [--delay MS] [--period MS] [--out img]
/// [--store DIR]` — run a scope server for a bounded time, then render
/// what arrived. With `--store`, every received tuple is teed into a
/// gstore directory, a glod compactor folds it into pyramid tiers in
/// the background, and the final render draws each signal's min/max
/// envelope columns straight off the pyramid — no in-memory
/// re-decimation.
pub fn serve(args: &Args) -> CmdResult {
    args.check_known(&[
        "duration-ms",
        "delay",
        "period",
        "out",
        "width",
        "snapshot-every-ms",
        "store",
    ])?;
    let bind = args.positional(0, "bind")?;
    let duration_ms: u64 = args.get_or("duration-ms", 2_000)?;
    let delay_ms: u64 = args.get_or("delay", 300)?;
    let period_ms: u64 = args.get_or("period", 20)?;
    let width: usize = args.get_or("width", 400)?;
    let out = args.get("out").map(str::to_owned);
    let snapshot_ms: u64 = args.get_or("snapshot-every-ms", 0)?;
    let store_dir = args.get("store").map(str::to_owned);

    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let mut scope = Scope::new("gscope-tool serve", width, 150, Arc::clone(&clock));
    scope.set_delay(TimeDelta::from_millis(delay_ms));
    scope.set_polling_mode(TimeDelta::from_millis(period_ms))?;
    scope.start();
    let scope = scope.into_shared();

    let mut server = ScopeServer::bind(bind)?;
    server.add_scope(Arc::clone(&scope));
    // Store tee + background glod compactor: history lands on disk as
    // it arrives and coarse tiers build behind the append head.
    let mut compactor = None;
    if let Some(dir) = store_dir.as_deref() {
        std::fs::create_dir_all(dir)?;
        server.set_store(Store::open(dir, StoreConfig::default())?);
        compactor = Some(Compactor::new(dir, compactor_cfg(args)?)?.start());
    }
    // The network runs on the hub's shard threads (event-driven, one
    // per core); this thread only keeps the tick and snapshot cadence.
    server.spawn_shards();
    let local = server.local_addr()?;
    eprintln!("listening on {local} for {duration_ms}ms");

    let deadline = clock.now() + TimeDelta::from_millis(duration_ms);
    let mut next_tick = clock.now() + TimeDelta::from_millis(period_ms);
    let mut next_snapshot = (snapshot_ms > 0 && out.is_some())
        .then(|| clock.now() + TimeDelta::from_millis(snapshot_ms));
    let mut snapshots = 0u64;
    // Raster snapshots share a frame cache across the loop so each
    // cadence re-render is an incremental scroll blit, not a full
    // widget redraw.
    let mut frames = grender::FrameCache::new();
    while clock.now() < deadline {
        let now = clock.now();
        if now >= next_tick {
            scope.lock().tick(&TickInfo {
                now,
                scheduled: next_tick,
                missed: 0,
            });
            next_tick += TimeDelta::from_millis(period_ms);
        }
        // Live dashboard: re-render to --out on a cadence.
        if let (Some(at), Some(out)) = (next_snapshot, out.as_deref()) {
            if now >= at {
                let guard = scope.lock();
                if out.ends_with(".svg") {
                    std::fs::write(out, grender::render_scope_svg(&guard))?;
                } else {
                    frames.render(&guard).save_ppm(out)?;
                }
                snapshots += 1;
                next_snapshot = Some(at + TimeDelta::from_millis(snapshot_ms));
            }
        }
        let wake = next_snapshot.map_or(next_tick, |at| at.min(next_tick));
        std::thread::sleep(wake.min(deadline).saturating_since(clock.now()).to_std());
    }

    let stats = server.stats();
    let clients = server.client_stats();
    let shards = server.shard_count();
    let newest = server.with_store(|s| s.last_time()).flatten();
    let store = server.take_store();
    // Stop the shard threads: nothing lands in the scope after the
    // report's counters were read.
    drop(server);
    // Settle the tee and pyramid: seal the store, stop the background
    // compactor, and run one last drain so the final render sees every
    // folded tier.
    let mut lod_report = String::new();
    if let Some(dir) = store_dir.as_deref() {
        if let Some(store) = store {
            store.close()?;
        }
        if let Some(handle) = compactor.take() {
            let mut c = handle.stop();
            let folded = c.drain()?;
            let mut guard = scope.lock();
            let t1 = newest.unwrap_or(TimeStamp::ZERO);
            let lod =
                gstore::lod::apply_envelopes(Path::new(dir), &mut guard, TimeStamp::ZERO, t1)?;
            let pruned: u64 = lod.iter().map(|(_, r)| r.stats.blocks_pruned).sum();
            let tier = lod.iter().map(|(_, r)| r.tier).max().unwrap_or(0);
            lod_report = format!(
                "store tee {dir}: pyramid top tier {}, render from tier {tier} ({} signals, {pruned} blocks pruned)\n",
                folded.top_tier,
                lod.len(),
            );
        }
    }
    let guard = scope.lock();
    let mut report = format!(
        "served {local} ({} shards): {} connections, {} tuples, {} parse errors, \
         {} protocol errors, {} late drops\nsignals: {}\n",
        shards,
        stats.connections,
        stats.tuples_received,
        stats.parse_errors,
        stats.protocol_errors,
        guard.buffer().late_drops(),
        guard.signal_names().join(", "),
    );
    for c in &clients {
        let proto = match c.protocol {
            Protocol::Binary => "binary",
            Protocol::Text => "text",
        };
        let mode = if c.catching_up { "catch-up" } else { "live" };
        report.push_str(&format!(
            "client {} shard {} {proto} {mode}: in {} tuples ({} parse / {} proto errs), \
             out {} tuples / {} B, {} sheds, {} catch-ups, queue {} B\n",
            c.peer,
            c.shard,
            c.tuples_in,
            c.parse_errors,
            c.protocol_errors,
            c.tuples_out,
            c.bytes_out,
            c.shed_events,
            c.catch_ups,
            c.queue_bytes,
        ));
    }
    if let Some(out) = out {
        if out.ends_with(".svg") {
            std::fs::write(&out, grender::render_scope_svg(&guard))?;
        } else {
            frames.render(&guard).save_ppm(&out)?;
        }
        if snapshots > 0 {
            report.push_str(&format!(
                "rendered to {out} ({snapshots} live snapshots + final)\n"
            ));
        } else {
            report.push_str(&format!("rendered to {out}\n"));
        }
    }
    report.push_str(&lod_report);
    Ok(report)
}

/// `spectrum <file> [--signal NAME] [--size N]` — print the dominant
/// frequencies of a recorded signal (display-domain FFT, §3.1).
pub fn spectrum(args: &Args) -> CmdResult {
    args.check_known(&["signal", "size", "period"])?;
    let path = args.positional(0, "file")?;
    let size: usize = args.get_or("size", 256)?;
    let period_ms: u64 = args.get_or("period", 50)?;
    let tuples = load_tuples(path)?;
    let scope = replay_scope(tuples, size.max(64), TimeDelta::from_millis(period_ms))?;
    let names = scope.signal_names();
    let name = match args.get("signal") {
        Some(n) => n.to_owned(),
        None => names.first().cloned().ok_or("recording has no signals")?,
    };
    // Clamp the window to the samples actually recorded: zero-padding
    // a short recording would smear the spectrum toward DC.
    let available = scope
        .signal(&name)
        .map(|s| s.history().value_count())
        .unwrap_or(0);
    let size = if available == 0 {
        size
    } else {
        let cap = if available.is_power_of_two() {
            available
        } else {
            available.next_power_of_two() / 2
        };
        size.min(cap).max(2)
    };
    let bins = scope.spectrum(
        &name,
        size,
        gdsp::SpectrumConfig {
            remove_dc: true,
            ..Default::default()
        },
    )?;
    let sample_rate = 1000.0 / period_ms as f64;
    let mut ranked: Vec<_> = bins.iter().skip(1).collect();
    ranked.sort_by(|a, b| b.magnitude.total_cmp(&a.magnitude));
    let mut out = format!("{name}: top frequency bins (display sample rate {sample_rate} Hz)\n");
    for b in ranked.iter().take(5) {
        out.push_str(&format!(
            "  {:>8.3} Hz   amplitude {:.3}\n",
            b.frequency * sample_rate,
            b.magnitude
        ));
    }
    Ok(out)
}

/// `stack <a.ppm> <b.ppm> [...] --out <img.ppm> [--gap N]` — stack
/// rendered figures vertically (e.g. Figure 4 above Figure 5, the
/// paper's layout).
pub fn stack(args: &Args) -> CmdResult {
    args.check_known(&["out", "gap"])?;
    if args.positional_count() < 2 {
        return Err("stack needs at least two input images".into());
    }
    let gap: usize = args.get_or("gap", 4)?;
    let out = args.get("out").ok_or("missing --out")?.to_owned();
    let mut frames = Vec::new();
    for i in 0..args.positional_count() {
        let path = args.positional(i, "image")?;
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        frames.push(grender::Framebuffer::from_ppm(&bytes).map_err(|e| format!("{path}: {e}"))?);
    }
    let refs: Vec<&grender::Framebuffer> = frames.iter().collect();
    let composed = grender::compose_vertical(&refs, gap, gscope::Color::new(40, 40, 44));
    composed.save_ppm(&out)?;
    Ok(format!(
        "stacked {} images into {out} ({}x{})",
        frames.len(),
        composed.width(),
        composed.height()
    ))
}

/// `mxtraf [--flows N] [--seconds S] [--ecn] [--sack] [--loss P]
/// [--jitter MS] [--switch-to N2] [--out img]` — run the mxtraf-style
/// workload (the paper's §2 experiment) from the shell and print the
/// per-bucket CWND/timeout table; optionally render the scope view.
pub fn mxtraf(args: &Args) -> CmdResult {
    args.check_known(&[
        "flows",
        "seconds",
        "ecn",
        "sack",
        "loss",
        "jitter",
        "switch-to",
        "out",
    ])?;
    let flows: usize = args.get_or("flows", 8)?;
    let seconds: u64 = args.get_or("seconds", 30)?;
    let ecn = args.has("ecn");
    let sack = args.has("sack");
    let loss: f64 = args.get_or("loss", 0.0)?;
    let jitter_ms: u64 = args.get_or("jitter", 0)?;
    let switch_to: usize = args.get_or("switch-to", flows)?;
    if flows == 0 || seconds == 0 {
        return Err("--flows and --seconds must be positive".into());
    }
    let max = flows.max(switch_to);
    let mut traffic = netsim::Mxtraf::new(netsim::MxtrafConfig {
        ecn,
        sack,
        net: netsim::NetConfig {
            queue: if ecn {
                netsim::QueueKind::red_default(100)
            } else {
                netsim::QueueKind::DropTail { capacity: 50 }
            },
            loss_rate: loss,
            jitter: TimeDelta::from_millis(jitter_ms),
            ..netsim::NetConfig::default()
        },
        initial_elephants: flows,
        max_elephants: max,
        ..netsim::MxtrafConfig::default()
    });

    // Scope over elephants + probe CWND, like the paper's Figure 4/5.
    let clock = VirtualClock::new();
    let mut scope = Scope::new("mxtraf", 300, 120, Arc::new(clock.clone()));
    let probe = traffic.elephant_flow(0);
    scope.add_signal(
        "elephants",
        SigSource::Events,
        gscope::SigConfig::default().with_range(0.0, 2.0 * max as f64),
    )?;
    scope.add_signal(
        "CWND",
        SigSource::Events,
        gscope::SigConfig::default()
            .with_range(0.0, 64.0)
            .with_aggregation(gscope::Aggregation::Minimum),
    )?;
    let elephants_sink = scope.event_sink("elephants")?;
    let cwnd_sink = scope.event_sink("CWND")?;
    let period = TimeDelta::from_millis(100);
    scope.set_polling_mode(period)?;
    scope.start();

    let mut out = format!(
        "mxtraf: {flows} flows{} for {seconds}s, ecn={ecn} sack={sack} loss={loss} jitter={jitter_ms}ms\n",
        if switch_to != flows {
            format!(" -> {switch_to} at t={}s", seconds / 2)
        } else {
            String::new()
        }
    );
    out.push_str("t(s)   elephants  probe-cwnd  timeouts  drops  marks\n");
    let mut t = TimeStamp::ZERO;
    let bucket = TimeDelta::from_secs((seconds / 10).max(1));
    while t < TimeStamp::from_secs(seconds) {
        let bucket_end = t + bucket;
        while t < bucket_end && t < TimeStamp::from_secs(seconds) {
            t += period;
            traffic.run_until(t);
            if switch_to != flows && t == TimeStamp::from_secs(seconds / 2) {
                traffic.set_elephants(switch_to);
            }
            elephants_sink.push(traffic.elephants() as f64);
            cwnd_sink.push(traffic.net().cwnd(probe));
            clock.set(t);
            scope.tick(&TickInfo {
                now: t,
                scheduled: t,
                missed: 0,
            });
        }
        out.push_str(&format!(
            "{:<6} {:<10} {:<11.1} {:<9} {:<6} {}\n",
            t.as_secs_f64(),
            traffic.elephants(),
            traffic.net().cwnd(probe),
            traffic.total_timeouts(),
            traffic.net().queue_stats().dropped + traffic.net().link_losses(),
            traffic.net().queue_stats().marked,
        ));
    }
    if let Some(img) = args.get("out") {
        if img.ends_with(".svg") {
            std::fs::write(img, grender::render_scope_svg(&scope))?;
        } else {
            grender::render_scope(&scope).save_ppm(img)?;
        }
        out.push_str(&format!("rendered scope to {img}\n"));
    }
    Ok(out)
}

/// Dispatches a subcommand by name.
pub fn run(cmd: &str, args: &Args) -> CmdResult {
    match cmd {
        "info" => info(args),
        "view" => view(args),
        "gen" => gen(args),
        "record" => record(args),
        "replay" => replay(args),
        "compact" => compact(args),
        "stream" => stream(args),
        "serve" => serve(args),
        "stats" => stats(args),
        "trace" => crate::tracecmd::trace(args),
        "health" => crate::tracecmd::health(args),
        "query" => crate::querycmd::query(args),
        "timeline" => crate::querycmd::timeline(args),
        "spectrum" => spectrum(args),
        "stack" => stack(args),
        "mxtraf" => mxtraf(args),
        other => Err(format!("unknown command {other:?}; see --help").into()),
    }
}

/// The usage text.
pub const USAGE: &str = "\
gscope-tool — companion CLI for gscope tuple recordings (§3.3 format)

USAGE:
  gscope-tool info <file-or-store-dir> [--period MS]
  gscope-tool record <file> --store <dir> [--fsync] [--segment-kib N] [--block-frames N]
                     [--retain-bytes N] [--retain-age-ms MS]
  gscope-tool replay --store <dir> [--from MS] [--to MS] [--out <file>]
                     [--tier N | --px-width W]  (glod: force or plan a pyramid tier)
  gscope-tool compact --store <dir> [--retain-bytes N] [--retain-age-ms MS]
  gscope-tool view <file> --out scope.ppm [--width N] [--period MS] [--svg]
  gscope-tool gen --out <file> [--seconds S] [--rate HZ] [--wave sine|square|saw|triangle]
                  [--freq HZ] [--amplitude A] [--name NAME]
  gscope-tool stream <file> <host:port> [--speed X] [--telemetry] [--binary|--text]
  gscope-tool serve <bind-addr> [--duration-ms D] [--delay MS] [--period MS] [--out img]
                    [--snapshot-every-ms N] [--store <dir>]
                    (--store tees history to disk, compacts it into glod
                     pyramid tiers, and renders the final view from them)
  gscope-tool stats <file> [--period MS] [--width N] [--json]
                    [--format table|prometheus|tuples|json]
  gscope-tool trace record [--out trace.json] [--ticks N] [--period MS] [--signals N]
                    [--budget-us N] [--window N] [--allow N] [--flight-dir <dir>]
                    [--max-bundles N] [--slow-tick N] [--slow-us U] [--no-net]
  gscope-tool trace export|tree [<bundle-dir>] [run flags]
  gscope-tool trace slowest [--top N] [run flags]
  gscope-tool trace merge <bundle-dir> <bundle-dir>... [--out merged.json]
                    (rebase fleet bundles onto one clock via their
                     recorded wire offsets; flow arrows join producer
                     flush spans to hub net.ingest spans)
  gscope-tool health [--budget-us N] [--window N] [--allow N] [run flags]
                    (exit code 1 when the deadline SLO window is breached)
  gscope-tool query '<expr>' --store <dir> [--limit N] [--tier N | --px-width W]
                    (expr: name=SIG dur>2ms thread=N severity=breach
                     from=MS to=MS within=GLOB — AND of predicates)
  gscope-tool timeline --store <dir> [--window-ms W] [--anchor-ms T] [--within GLOB] [--node N]
  gscope-tool spectrum <file> [--signal NAME] [--size N] [--period MS]
  gscope-tool stack <a.ppm> <b.ppm> [...] --out <img.ppm> [--gap N]
  gscope-tool mxtraf [--flows N] [--seconds S] [--ecn] [--sack] [--loss P]
                     [--jitter MS] [--switch-to N2] [--out img]
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(s: &str) -> Args {
        Args::parse(
            s.split_whitespace().map(str::to_owned),
            crate::BOOLEAN_FLAGS,
        )
        .unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("gtool-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn gen_then_info_round_trip() {
        let file = tmp("gen_info.tuples");
        let report = gen(&args(&format!(
            "--out {file} --seconds 2 --rate 50 --wave square --freq 2 --name pulse"
        )))
        .unwrap();
        assert!(report.contains("100 tuples"));
        let report = info(&args(&file)).unwrap();
        assert!(report.contains("100 tuples"), "{report}");
        assert!(report.contains("pulse"));
        assert!(report.contains("1 signals"));
        // Satellite replay telemetry: the scope that replayed the file
        // reports its own tick count and per-signal display coverage.
        assert!(report.contains("replay @ 50ms:"), "{report}");
        assert!(report.contains("displayed samples"), "{report}");
        assert!(report.contains("0 late drops"), "{report}");
    }

    #[test]
    fn stats_prints_replay_telemetry_in_three_formats() {
        let file = tmp("stats.tuples");
        gen(&args(&format!("--out {file} --seconds 2 --rate 50"))).unwrap();
        let table = stats(&args(&format!("{file} --period 20"))).unwrap();
        assert!(table.contains("replay telemetry @ 20ms"), "{table}");
        assert!(table.contains("scope.ticks"), "{table}");
        assert!(table.contains("scope.tick.poll_ns"), "{table}");
        let prom = stats(&args(&format!("{file} --format prometheus"))).unwrap();
        assert!(prom.contains("# TYPE scope_ticks counter"), "{prom}");
        let tuples = stats(&args(&format!("{file} --format tuples"))).unwrap();
        // Every line must itself parse as a §3.3 tuple.
        let mut r = TupleReader::new(tuples.as_bytes());
        let parsed = r.read_all().unwrap();
        assert!(
            parsed
                .iter()
                .any(|t| t.name.as_deref() == Some("scope.ticks")),
            "{tuples}"
        );
        assert!(stats(&args(&format!("{file} --format yaml"))).is_err());
    }

    #[test]
    fn view_renders_ppm_and_svg() {
        let file = tmp("view.tuples");
        gen(&args(&format!("--out {file} --seconds 3 --rate 20"))).unwrap();
        let ppm = tmp("view.ppm");
        let report = view(&args(&format!("{file} --out {ppm} --width 120"))).unwrap();
        assert!(report.contains("rendered"), "{report}");
        let bytes = std::fs::read(&ppm).unwrap();
        assert!(bytes.starts_with(b"P6"));
        let svg = tmp("view.svg");
        view(&args(&format!("{file} --out {svg} --svg"))).unwrap();
        let text = std::fs::read_to_string(&svg).unwrap();
        assert!(text.starts_with("<svg"));
    }

    #[test]
    fn spectrum_finds_the_generated_tone() {
        // 2 Hz sine sampled for the view at 50 ms (20 Hz display rate).
        let file = tmp("spec.tuples");
        gen(&args(&format!(
            "--out {file} --seconds 20 --rate 100 --freq 2 --wave sine"
        )))
        .unwrap();
        let report = spectrum(&args(&format!("{file} --size 256"))).unwrap();
        let first_line = report.lines().nth(1).unwrap();
        let hz: f64 = first_line
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((hz - 2.0).abs() < 0.3, "top bin at {hz} Hz, expected ~2");
    }

    #[test]
    fn info_rejects_missing_file() {
        let err = info(&args("/definitely/not/here.tuples")).unwrap_err();
        assert!(err.to_string().contains("cannot open"));
    }

    #[test]
    fn gen_validates_arguments() {
        assert!(gen(&args("--seconds 1")).is_err(), "missing --out");
        let file = tmp("bad.tuples");
        assert!(gen(&args(&format!("--out {file} --wave noise"))).is_err());
        assert!(gen(&args(&format!("--out {file} --rate 0"))).is_err());
    }

    #[test]
    fn mxtraf_command_reproduces_the_contrast() {
        let tcp = mxtraf(&args("--flows 12 --seconds 12")).unwrap();
        let ecn = mxtraf(&args("--flows 12 --seconds 12 --ecn")).unwrap();
        // TCP row shows drops; ECN row shows marks and zero timeouts.
        assert!(tcp.contains("ecn=false"));
        assert!(ecn.contains("ecn=true"));
        let ecn_timeouts: u64 = ecn
            .lines()
            .last()
            .and_then(|l| l.split_whitespace().nth(3))
            .and_then(|v| v.parse().ok())
            .unwrap_or(99);
        assert_eq!(ecn_timeouts, 0, "ECN run must show zero timeouts:\n{ecn}");
        let img = tmp("mxtraf.ppm");
        let with_img = mxtraf(&args(&format!("--flows 4 --seconds 6 --out {img}"))).unwrap();
        assert!(with_img.contains("rendered scope"));
        assert!(std::fs::read(&img).unwrap().starts_with(b"P6"));
        assert!(mxtraf(&args("--flows 0")).is_err());
    }

    #[test]
    fn serve_writes_live_snapshots() {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let out = tmp("live.ppm");
        let _ = std::fs::remove_file(&out);
        let serve_args = args(&format!(
            "{addr} --duration-ms 600 --period 10 --snapshot-every-ms 100 --out {out}"
        ));
        let report = serve(&serve_args).unwrap();
        assert!(
            report.contains("live snapshots + final"),
            "snapshot count reported: {report}"
        );
        let bytes = std::fs::read(&out).unwrap();
        assert!(bytes.starts_with(b"P6"));
    }

    #[test]
    fn stack_composes_ppms() {
        let f1 = tmp("s1.tuples");
        gen(&args(&format!("--out {f1} --seconds 1 --rate 20"))).unwrap();
        let p1 = tmp("s1.ppm");
        let p2 = tmp("s2.ppm");
        view(&args(&format!("{f1} --out {p1} --width 100"))).unwrap();
        view(&args(&format!("{f1} --out {p2} --width 120"))).unwrap();
        let out = tmp("stacked.ppm");
        let report = stack(&args(&format!("{p1} {p2} --out {out} --gap 3"))).unwrap();
        assert!(report.contains("stacked 2 images"), "{report}");
        let composed = grender::Framebuffer::from_ppm(&std::fs::read(&out).unwrap()).unwrap();
        let a = grender::Framebuffer::from_ppm(&std::fs::read(&p1).unwrap()).unwrap();
        let b = grender::Framebuffer::from_ppm(&std::fs::read(&p2).unwrap()).unwrap();
        assert_eq!(composed.width(), a.width().max(b.width()));
        assert_eq!(composed.height(), a.height() + b.height() + 3);
        assert!(
            stack(&args(&format!("{p1} --out {out}"))).is_err(),
            "needs two"
        );
    }

    #[test]
    fn unknown_command_reports() {
        assert!(run("frobnicate", &args("")).is_err());
    }

    fn tmp_store(name: &str) -> String {
        let dir = tmp(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_replay_round_trip() {
        let file = tmp("rec_src.tuples");
        gen(&args(&format!(
            "--out {file} --seconds 4 --rate 100 --name carrier"
        )))
        .unwrap();
        let dir = tmp_store("rec.store");
        let report = record(&args(&format!("{file} --store {dir}"))).unwrap();
        assert!(report.contains("recorded 400 tuples"), "{report}");
        assert!(report.contains("smaller than text"), "{report}");
        // Full replay back to text must reproduce the §3.3 stream.
        let out = tmp("rec_back.tuples");
        let report = replay(&args(&format!("--store {dir} --out {out}"))).unwrap();
        assert!(report.contains("replayed 400 tuples"), "{report}");
        let a = load_tuples(&file).unwrap();
        let b = load_tuples(&out).unwrap();
        assert_eq!(a, b);
        // Windowed replay honours --from/--to in milliseconds.
        let report = replay(&args(&format!("--store {dir} --from 1000 --to 1990"))).unwrap();
        assert!(report.contains("replayed 100 tuples"), "{report}");
        assert!(report.contains("segments indexed"), "{report}");
    }

    #[test]
    fn info_summarizes_store_dirs() {
        let file = tmp("info_store_src.tuples");
        gen(&args(&format!(
            "--out {file} --seconds 2 --rate 50 --name pulse"
        )))
        .unwrap();
        let dir = tmp_store("info.store");
        record(&args(&format!("{file} --store {dir}"))).unwrap();
        let report = info(&args(&dir)).unwrap();
        assert!(report.contains("tier 0"), "{report}");
        assert!(report.contains("100 tuples"), "{report}");
        assert!(report.contains("pulse"), "{report}");
        assert!(report.contains("1 signals"), "{report}");
    }

    #[test]
    fn compact_folds_history_into_envelopes() {
        let file = tmp("compact_src.tuples");
        gen(&args(&format!(
            "--out {file} --seconds 8 --rate 200 --name wave"
        )))
        .unwrap();
        let dir = tmp_store("compact.store");
        // Small segments so there is more than one to evict.
        record(&args(&format!("{file} --store {dir} --segment-kib 4"))).unwrap();
        assert!(
            compact(&args(&format!("--store {dir}"))).is_err(),
            "compact without a retention bound must refuse"
        );
        let report = compact(&args(&format!("--store {dir} --retain-bytes 4096"))).unwrap();
        assert!(report.contains("segments evicted"), "{report}");
        assert!(!report.contains("0 segments evicted"), "{report}");
        // Evicted history survives as tier-1 min/max envelopes.
        let report = info(&args(&dir)).unwrap();
        assert!(report.contains("tier 1"), "{report}");
        assert!(report.contains("min/max envelopes"), "{report}");
    }

    #[test]
    fn stream_and_serve_loopback() {
        // End to end: gen → serve (background thread) → stream → report.
        let file = tmp("stream.tuples");
        gen(&args(&format!(
            "--out {file} --seconds 1 --rate 40 --name remote"
        )))
        .unwrap();
        // Pre-bind to learn a free port, then serve on it.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let bind = addr.to_string();
        let serve_args = args(&format!(
            "{bind} --duration-ms 1500 --period 10 --delay 500"
        ));
        let server = std::thread::spawn(move || serve(&serve_args).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(200));
        let report = stream(&args(&format!(
            "{file} {bind} --speed 4 --telemetry --binary"
        )))
        .unwrap();
        assert!(report.contains("streamed 40 tuples"), "{report}");
        assert!(report.contains("over binary wire"), "{report}");
        assert!(report.contains("+5 telemetry tuples"), "{report}");
        let server_report = server.join().unwrap();
        assert!(server_report.contains("1 connections"), "{server_report}");
        assert!(server_report.contains("45 tuples"), "{server_report}");
        assert!(server_report.contains("remote"), "{server_report}");
        // The streamer's own stats arrived as ordinary signals.
        assert!(
            server_report.contains("net.client.tuples_out"),
            "{server_report}"
        );
    }
}
