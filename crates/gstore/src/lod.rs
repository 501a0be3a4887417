//! glod — the zoom-pyramid: tiered level-of-detail compaction and a
//! constant-cost `query(signal, t0, t1, px_width)` engine.
//!
//! Zooming out over recorded history must not cost O(stored frames).
//! The pyramid makes resolution follow the viewport instead of the
//! archive:
//!
//! * **Compaction** — a [`Compactor`] folds *sealed* tier-K segments
//!   into tier-K+1 min/max envelope segments at a power-of-two
//!   decimation `group`: per signal, every window of source frames is
//!   reduced with the exact renderer reduction
//!   [`gscope::decimate_minmax`], and each band survives as two frames
//!   at the band's first timestamp — `(t, min)` then `(t, max)`, equal
//!   times being legal under §3.3. Tier K+1 therefore holds ~`2/group`
//!   of tier K's frames, and a `.gidx` sidecar is sealed with every
//!   output.
//! * **Crash safety** — an output is built in a `lod-tmp-*` scratch
//!   file and renamed into place only after it is sealed, so a kill at
//!   any instant leaves either no output (the scratch is swept and the
//!   fold re-runs bit-identically) or a complete one. The output's
//!   file name carries the *last source sequence number it covers*, so
//!   the largest tier-K+1 sequence is the tier's watermark: sources at
//!   or below it are done, sources above it are pending. Nothing is
//!   ever folded twice. Externally damaged tier segments go through
//!   the same [`recover_segment`] path the store's tier-0 tail does.
//! * **Retention** — `retain_bytes`/`retain_age` bound the history on
//!   disk with one rule: a segment is deleted, oldest first, only once
//!   its sequence is at or under the next tier's watermark, so evicted
//!   history always survives as envelopes one tier up.
//! * **Query** — [`query`] picks the coarsest tier that still yields
//!   at least one envelope column per pixel, prunes segments and
//!   blocks wholesale off `.gidx` time envelopes, scans the survivors
//!   in parallel (scoped threads, one reader per segment) and merges
//!   by time into `px_width` columns. Where the pyramid lags behind
//!   the append head, the plan stitches finer tiers over the
//!   uncovered tail, down to tier 0.
//!
//! [`LodStats`] counts what was *not* done — pruned segments and
//! blocks are the proof that a year of history costs the same as a
//! minute.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use gel::{TimeDelta, TimeStamp};
use gscope::{decimate_minmax, Cols, Envelope, Result, Scope, ScopeError};
use gtel::{Counter, Gauge, Registry};

use crate::index::{index_path, load_or_rebuild_index, probe_index, IndexProbe, TermClass};
use crate::segment::{
    decode_filtered, decode_records, parse_segment_file_name, read_block_header_at,
    read_block_payload, read_seg_header, recover_segment, scan_headers, segment_file_name,
    SegmentWriter,
};

/// Prefix of in-progress compaction outputs. Never parsed as a
/// segment, swept on [`Compactor::recover`].
const TMP_PREFIX: &str = "lod-tmp-";

/// Tuning knobs for a [`Compactor`].
#[derive(Clone, Debug)]
pub struct CompactorConfig {
    /// Source frames folded into one min/max band (power of two,
    /// >= 2). Each tier holds `2/group` of the tier below.
    pub group: u64,
    /// Highest tier the pyramid builds.
    pub max_tier: u16,
    /// A tier is folded only once this many source frames are
    /// pending — keeps the pyramid from sprouting trivial tiers.
    /// [`Compactor::drain`] lowers the bar to one full `group`.
    pub min_fold_frames: u64,
    /// Upper bound on source frames folded into a single output
    /// segment (bounds fold memory).
    pub batch_frames: u64,
    /// Per-tier byte budget: while a tier is over it, its oldest
    /// segments covered by the next tier's watermark are deleted. A
    /// tier may run over by its unfolded tail, and always keeps its
    /// newest segment. `None` keeps everything.
    pub retain_bytes: Option<u64>,
    /// Tier-0 age horizon: covered tier-0 segments whose newest frame
    /// is older than this are deleted. Age is measured against the
    /// newest frame a tier-0 sidecar records — data time, not wall
    /// time, so replayed recordings behave deterministically. `None`
    /// keeps everything.
    pub retain_age: Option<TimeDelta>,
    /// Frames per block in output segments — block headers are the
    /// query's pruning unit, so this bounds wasted decode per slice.
    pub block_frames: u64,
    /// Poll period of the background thread ([`Compactor::start`]).
    pub interval: Duration,
}

impl Default for CompactorConfig {
    fn default() -> Self {
        CompactorConfig {
            group: 16,
            max_tier: 8,
            min_fold_frames: 64 * 1024,
            batch_frames: 2 * 1024 * 1024,
            retain_bytes: None,
            retain_age: None,
            block_frames: 1024,
            interval: Duration::from_millis(500),
        }
    }
}

/// What one [`Compactor::pass`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Output segments written (one per source batch per tier).
    pub folds: u64,
    /// Source frames read and folded.
    pub frames_in: u64,
    /// Envelope frames written (two per band).
    pub frames_out: u64,
    /// Covered segments deleted under `retain_bytes`/`retain_age`.
    pub segments_evicted: u64,
    /// Scratch files swept plus damaged tier segments re-recovered.
    pub recovered: u64,
    /// Highest tier present after the pass.
    pub top_tier: u16,
}

impl CompactReport {
    fn absorb(&mut self, other: CompactReport) {
        self.folds += other.folds;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.segments_evicted += other.segments_evicted;
        self.recovered += other.recovered;
        self.top_tier = self.top_tier.max(other.top_tier);
    }
}

/// Cached gtel handles for the compactor.
#[derive(Debug)]
pub struct LodTelemetry {
    /// `store.lod.folds` — output segments written.
    pub folds: Arc<Counter>,
    /// `store.lod.frames_in` — source frames folded.
    pub frames_in: Arc<Counter>,
    /// `store.lod.frames_out` — envelope frames written.
    pub frames_out: Arc<Counter>,
    /// `store.lod.evicted` — folded source segments deleted.
    pub evicted: Arc<Counter>,
    /// `store.lod.top_tier` — highest tier present.
    pub top_tier: Arc<Gauge>,
}

impl LodTelemetry {
    /// Resolves the compactor's metric handles from `registry`.
    pub fn new(registry: &Arc<Registry>) -> Self {
        LodTelemetry {
            folds: registry.counter("store.lod.folds"),
            frames_in: registry.counter("store.lod.frames_in"),
            frames_out: registry.counter("store.lod.frames_out"),
            evicted: registry.counter("store.lod.evicted"),
            top_tier: registry.gauge("store.lod.top_tier"),
        }
    }
}

/// One segment file of one tier, as found on disk.
#[derive(Clone, Debug)]
struct TierSeg {
    seq: u64,
    path: PathBuf,
    bytes: u64,
}

/// Process-wide size cache for sealed segment files. A segment's
/// length is immutable once sealed, so a `stat` per file per query is
/// pure waste — and at a year of history the directory holds hundreds
/// of fold outputs. Only the file that can still grow (the newest
/// tier-0 segment, the store's append head) is re-stated every time;
/// see [`tier_map`].
fn seg_bytes_cache() -> &'static Mutex<HashMap<PathBuf, u64>> {
    static CACHE: OnceLock<Mutex<HashMap<PathBuf, u64>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Lists `dir`'s segments grouped by tier, ascending by sequence.
///
/// The directory itself is re-listed on every call — the file *set*
/// is never stale — but with `fresh_stat` false, sizes of sealed
/// files come from [`seg_bytes_cache`]. The compactor passes true:
/// its eviction budget and recovery-truncation checks must see real
/// lengths even after external damage.
fn tier_map(dir: &Path, fresh_stat: bool) -> std::io::Result<BTreeMap<u16, Vec<TierSeg>>> {
    let mut map: BTreeMap<u16, Vec<TierSeg>> = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some((seq, tier)) = parse_segment_file_name(name) else {
            continue;
        };
        let path = entry.path();
        let bytes = if fresh_stat {
            entry.metadata().map(|m| m.len()).unwrap_or(0)
        } else {
            let cached = seg_bytes_cache().lock().unwrap().get(&path).copied();
            match cached {
                Some(b) => b,
                None => entry.metadata().map(|m| m.len()).unwrap_or(0),
            }
        };
        map.entry(tier)
            .or_default()
            .push(TierSeg { seq, path, bytes });
    }
    for (&tier, segs) in map.iter_mut() {
        segs.sort_by_key(|s| s.seq);
        // The newest tier-0 segment may have an open writer appending
        // to it; everything else is sealed. Stat it fresh and remember
        // the rest.
        let growable = (tier == 0).then(|| segs.len().saturating_sub(1));
        let mut cache = seg_bytes_cache().lock().unwrap();
        if cache.len() >= INDEX_CACHE_CAP {
            cache.clear();
        }
        for (i, seg) in segs.iter_mut().enumerate() {
            if Some(i) == growable {
                seg.bytes = std::fs::metadata(&seg.path).map(|m| m.len()).unwrap_or(0);
            } else if fresh_stat {
                // A fresh stat is authoritative — it also repairs any
                // stale cached size (recovery truncates files in
                // place, without a rename).
                cache.insert(seg.path.clone(), seg.bytes);
            } else {
                cache.entry(seg.path.clone()).or_insert(seg.bytes);
            }
        }
    }
    Ok(map)
}

/// The tier's compaction watermark: the largest tier-`tier` sequence
/// number in `dir`. Every source segment of the tier below with a
/// sequence at or under it has been folded; anything above is pending.
#[must_use]
pub fn watermark(dir: &Path, tier: u16) -> Option<u64> {
    let entries = std::fs::read_dir(dir).ok()?;
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str().and_then(parse_segment_file_name))
        .filter(|&(_, t)| t == tier)
        .map(|(seq, _)| seq)
        .max()
}

/// Frames in a segment: from its sidecar when valid, else from a block
/// header scan (no payload decodes either way).
fn seg_frames(path: &Path) -> std::io::Result<u64> {
    if let IndexProbe::Valid(idx) = probe_index(path)? {
        return Ok(idx.frames());
    }
    let mut file = File::open(path)?;
    if read_seg_header(&mut file).is_err() {
        return Ok(0);
    }
    let scan = scan_headers(&mut file)?;
    Ok(scan.blocks.iter().map(|b| u64::from(b.frames)).sum())
}

/// Newest frame time of each tier-0 segment, from its sidecar.
/// Segments at or under `wm` are sealed, so a missing sidecar is
/// rebuilt; above it a segment may be open and counts only with a
/// sidecar that matches it. `None` where neither is readable: a
/// damaged segment is kept, and never fails the pass.
fn tier0_last_us(segs: &[TierSeg], wm: u64) -> Vec<Option<u64>> {
    segs.iter()
        .map(|s| {
            let idx = if s.seq <= wm {
                load_or_rebuild_index(&s.path).ok().map(|(idx, _)| idx)
            } else if let Ok(IndexProbe::Valid(idx)) = probe_index(&s.path) {
                Some(idx)
            } else {
                None
            };
            idx.and_then(|i| i.last_us())
        })
        .collect()
}

/// The background pyramid builder for one store directory.
///
/// The compactor only ever touches *sealed* segments — a segment is
/// folded only when a newer one exists at its tier or its `.gidx`
/// sidecar matches the file exactly (sidecars are written at seal), so
/// it never races the store's active writers. Run it inline with
/// [`Compactor::pass`] / [`Compactor::drain`], or spawn the background
/// thread with [`Compactor::start`].
#[derive(Debug)]
pub struct Compactor {
    dir: PathBuf,
    cfg: CompactorConfig,
    tel: LodTelemetry,
}

impl Compactor {
    /// Creates a compactor over `dir`.
    ///
    /// # Errors
    ///
    /// [`ScopeError::OutOfRange`] when `group` is not a power of two
    /// >= 2 or `max_tier` is 0.
    pub fn new(dir: impl Into<PathBuf>, cfg: CompactorConfig) -> Result<Compactor> {
        if cfg.group < 2 || !cfg.group.is_power_of_two() {
            return Err(ScopeError::OutOfRange {
                what: "lod group (power of two >= 2)",
                value: cfg.group as f64,
            });
        }
        if cfg.max_tier == 0 {
            return Err(ScopeError::OutOfRange {
                what: "lod max_tier",
                value: 0.0,
            });
        }
        Ok(Compactor {
            dir: dir.into(),
            cfg,
            tel: LodTelemetry::new(&Registry::shared()),
        })
    }

    /// The directory being compacted.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Re-homes the compactor's metrics in `registry`.
    pub fn set_telemetry(&mut self, registry: &Arc<Registry>) {
        self.tel = LodTelemetry::new(registry);
    }

    /// Sweeps crash leftovers: deletes `lod-tmp-*` scratch files (a
    /// kill mid-fold leaves only these — the fold re-runs from its
    /// sources) and runs [`recover_segment`] over any tier >= 1
    /// segment whose sidecar does not match it (external damage:
    /// torn tails are truncated, sidecars rebuilt). Tiers >= 1 are
    /// written only by the compactor, sealed before they are renamed
    /// into place, so a mismatch there is always damage. Returns the
    /// number of items cleaned.
    ///
    /// # Errors
    ///
    /// Propagates directory I/O errors; per-file damage is repaired,
    /// not fatal.
    pub fn recover(&self) -> std::io::Result<u64> {
        let mut cleaned = 0u64;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(TMP_PREFIX) {
                std::fs::remove_file(entry.path())?;
                cleaned += 1;
            }
        }
        let tiers = tier_map(&self.dir, true)?;
        for (&tier, segs) in &tiers {
            if tier == 0 {
                continue; // tier 0 belongs to Store::open's recovery
            }
            for seg in segs {
                if matches!(probe_index(&seg.path)?, IndexProbe::Valid(_)) {
                    continue;
                }
                let rec = recover_segment(&seg.path)?;
                // recover_segment rebuilds the sidecar for the valid
                // prefix but leaves the torn bytes; chop them so the
                // file and sidecar agree (= sealed again).
                if rec.valid_len < seg.bytes {
                    std::fs::OpenOptions::new()
                        .write(true)
                        .open(&seg.path)?
                        .set_len(rec.valid_len)?;
                }
                if rec.truncated || rec.index_rebuilt {
                    cleaned += 1;
                }
            }
        }
        Ok(cleaned)
    }

    /// One full sweep: recover, then fold every tier with at least
    /// `min_fold_frames` pending sealed frames, then apply the
    /// `retain_bytes`/`retain_age` policy.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; individually unreadable source segments
    /// are skipped.
    pub fn pass(&mut self) -> std::io::Result<CompactReport> {
        self.pass_with_threshold(self.cfg.min_fold_frames)
    }

    /// Like [`Compactor::pass`] but folds any tier with at least one
    /// full `group` of pending frames — used at shutdown and in tests
    /// to flush the pyramid.
    ///
    /// # Errors
    ///
    /// Same as [`Compactor::pass`].
    pub fn drain(&mut self) -> std::io::Result<CompactReport> {
        self.pass_with_threshold(self.cfg.group)
    }

    fn pass_with_threshold(&mut self, threshold: u64) -> std::io::Result<CompactReport> {
        let mut report = CompactReport {
            recovered: self.recover()?,
            ..CompactReport::default()
        };
        for k in 0..self.cfg.max_tier {
            let folded = self.fold_tier(k, threshold.max(1))?;
            report.absorb(folded);
        }
        report.segments_evicted = self.evict()?;
        let tiers = tier_map(&self.dir, true)?;
        report.top_tier = tiers.keys().copied().max().unwrap_or(0);
        self.tel.top_tier.set_count(usize::from(report.top_tier));
        Ok(report)
    }

    /// Folds pending sealed tier-`k` segments into tier-`k+1`.
    fn fold_tier(&mut self, k: u16, threshold: u64) -> std::io::Result<CompactReport> {
        let mut report = CompactReport::default();
        let tiers = tier_map(&self.dir, true)?;
        let Some(segs) = tiers.get(&k) else {
            return Ok(report);
        };
        let wm = watermark(&self.dir, k + 1);
        let newest = segs.last().map(|s| s.seq);
        let mut pending: Vec<&TierSeg> = Vec::new();
        for seg in segs {
            if Some(seg.seq) <= wm {
                continue; // already folded
            }
            if Some(seg.seq) == newest {
                // The newest segment may still be appended to; only a
                // matching sidecar proves it sealed.
                let sealed = matches!(probe_index(&seg.path)?, IndexProbe::Valid(_));
                if !sealed {
                    continue;
                }
            }
            pending.push(seg);
        }
        if pending.is_empty() {
            return Ok(report);
        }
        let mut frames: Vec<u64> = Vec::with_capacity(pending.len());
        for seg in &pending {
            frames.push(seg_frames(&seg.path).unwrap_or(0));
        }
        if frames.iter().sum::<u64>() < threshold {
            return Ok(report);
        }
        // Batch pending sources so one output never folds more than
        // `batch_frames` at a time (bounds fold memory).
        let mut batch: Vec<&TierSeg> = Vec::new();
        let mut batch_frames = 0u64;
        for (seg, n) in pending.iter().zip(&frames) {
            batch.push(seg);
            batch_frames += n;
            if batch_frames >= self.cfg.batch_frames {
                report.absorb(self.fold_batch(k, &batch)?);
                batch.clear();
                batch_frames = 0;
            }
        }
        if !batch.is_empty() {
            report.absorb(self.fold_batch(k, &batch)?);
        }
        Ok(report)
    }

    /// Folds one run of tier-`k` segments into a single tier-`k+1`
    /// output named after the last source sequence (the watermark
    /// advance), built in a scratch file and renamed only once sealed.
    fn fold_batch(&mut self, k: u16, batch: &[&TierSeg]) -> std::io::Result<CompactReport> {
        let mut report = CompactReport::default();
        let out_seq = batch.last().expect("non-empty batch").seq;
        // Per-signal source frames, in time order (segments are read
        // in sequence = time order; frames inside are time-ordered).
        let mut per_signal: BTreeMap<Option<Arc<str>>, Vec<(u64, f64)>> = BTreeMap::new();
        for seg in batch {
            let Ok(mut file) = File::open(&seg.path) else {
                continue; // evicted underneath us: skip
            };
            if read_seg_header(&mut file).is_err() {
                continue;
            }
            let scan = scan_headers(&mut file)?;
            for meta in &scan.blocks {
                let Some(payload) = read_block_payload(&mut file, meta)? else {
                    continue; // CRC mismatch: skip, keep the rest
                };
                let (decoded, _) = decode_records(&payload, meta.first_us);
                report.frames_in += decoded.len() as u64;
                for f in decoded {
                    per_signal
                        .entry(f.name)
                        .or_default()
                        .push((f.time_us, f.value));
                }
            }
        }
        // Reduce each signal with the renderer's own decimation: a
        // band per `group` source frames, so the pairs on disk are
        // exactly `decimate_minmax(source, ceil(n/group))`.
        let group = self.cfg.group as usize;
        let mut events: Vec<(u64, f64, f64, Option<Arc<str>>)> = Vec::new();
        for (name, frames) in &per_signal {
            let n = frames.len();
            if n == 0 {
                continue;
            }
            let width = n.div_ceil(group);
            let samples: Vec<Option<f64>> = frames.iter().map(|&(_, v)| Some(v)).collect();
            let bands = decimate_minmax(Cols::from_slices(&samples, &[]), width);
            // Band b's timestamp: the first source frame that lands in
            // it (same `i * width / n` partition decimate_minmax uses).
            let mut band_time: Vec<Option<u64>> = vec![None; bands.len()];
            for (i, &(t, _)) in frames.iter().enumerate() {
                let b = i * bands.len() / n;
                if band_time[b].is_none() {
                    band_time[b] = Some(t);
                }
            }
            for (b, band) in bands.into_iter().enumerate() {
                let Some((lo, hi)) = band else { continue };
                let t = band_time[b].expect("non-empty band has a first frame");
                events.push((t, lo, hi, name.clone()));
            }
        }
        // Interleave signals by time; stable so equal timestamps keep
        // signal order deterministic.
        events.sort_by_key(|&(t, ..)| t);
        let tmp = self
            .dir
            .join(format!("{TMP_PREFIX}{out_seq:08}-t{}.gseg", k + 1));
        let created_us = events.first().map_or(0, |&(t, ..)| t);
        let mut w = SegmentWriter::create(tmp.clone(), k + 1, created_us, false)?;
        w.set_index_enabled(true);
        for (t, lo, hi, name) in &events {
            w.append(*t, *lo, name.as_deref());
            w.append(*t, *hi, name.as_deref());
            // Keep output blocks fine-grained: block headers are the
            // pruning unit, so a monolithic block would make a tail
            // stitch decode the whole tier.
            if u64::from(w.block_frames()) >= self.cfg.block_frames {
                w.flush_block()?;
            }
        }
        report.frames_out += events.len() as u64 * 2;
        w.seal()?;
        // Publish atomically: data first, then its sidecar. A crash
        // between the two renames leaves a segment whose index is
        // rebuilt on first use.
        let final_seg = self.dir.join(segment_file_name(out_seq, k + 1));
        std::fs::rename(&tmp, &final_seg)?;
        let _ = std::fs::rename(index_path(&tmp), index_path(&final_seg));
        report.folds += 1;
        self.tel.folds.inc();
        self.tel.frames_in.add(report.frames_in);
        self.tel.frames_out.add(report.frames_out);
        Ok(report)
    }

    /// Applies the retention policy: deletes segments oldest first,
    /// and only those at or under the next tier's watermark, while
    /// their tier is over `retain_bytes` or (tier 0) older than
    /// `retain_age`.
    fn evict(&mut self) -> std::io::Result<u64> {
        let (budget, age) = (self.cfg.retain_bytes, self.cfg.retain_age);
        if budget.is_none() && age.is_none() {
            return Ok(0);
        }
        let mut evicted = 0u64;
        let tiers = tier_map(&self.dir, true)?;
        for (&tier, segs) in &tiers {
            let Some(wm) = watermark(&self.dir, tier + 1) else {
                continue;
            };
            let expired: Vec<bool> = match (tier, age) {
                (0, Some(age)) => {
                    let last = tier0_last_us(segs, wm);
                    let newest = last.iter().flatten().max().copied().unwrap_or(0);
                    last.iter()
                        .map(|l| l.is_some_and(|t| newest - t > age.as_micros()))
                        .collect()
                }
                _ => Vec::new(),
            };
            // A tier's newest segment stays: at tier 0 it holds the
            // store's newest frame time (its append gate on reopen),
            // above 0 its name is the watermark, without which covered
            // sources would look pending and fold twice.
            let mut total: u64 = segs.iter().map(|s| s.bytes).sum();
            for (i, seg) in segs[..segs.len() - 1].iter().enumerate() {
                let over = budget.is_some_and(|b| total > b);
                if seg.seq > wm || !(over || expired.get(i) == Some(&true)) {
                    break;
                }
                std::fs::remove_file(&seg.path)?;
                let _ = std::fs::remove_file(index_path(&seg.path));
                total = total.saturating_sub(seg.bytes);
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.tel.evicted.add(evicted);
        }
        Ok(evicted)
    }

    /// Spawns the background compaction thread: a [`Compactor::pass`]
    /// every `cfg.interval` until [`CompactorHandle::stop`].
    #[must_use]
    pub fn start(self) -> CompactorHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("glod-compactor".into())
            .spawn(move || {
                let mut c = self;
                while !flag.load(Ordering::Acquire) {
                    let _ = c.pass();
                    // Sleep in small slices so stop() is prompt.
                    let mut left = c.cfg.interval;
                    while !flag.load(Ordering::Acquire) && !left.is_zero() {
                        let step = left.min(Duration::from_millis(20));
                        std::thread::sleep(step);
                        left = left.saturating_sub(step);
                    }
                }
                c
            })
            .expect("spawn glod-compactor");
        CompactorHandle { stop, join }
    }
}

/// A running background compactor; dropping it without
/// [`CompactorHandle::stop`] detaches the thread.
#[derive(Debug)]
pub struct CompactorHandle {
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<Compactor>,
}

impl CompactorHandle {
    /// Signals the thread and waits for the pass in flight to finish;
    /// returns the compactor for inline reuse (e.g. a final
    /// [`Compactor::drain`]).
    #[must_use]
    pub fn stop(self) -> Compactor {
        self.stop.store(true, Ordering::Release);
        self.join.join().expect("glod-compactor panicked")
    }
}

// ---------------------------------------------------------------------
// The query side.
// ---------------------------------------------------------------------

/// One contiguous time range scanned at one tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LodSlice {
    /// Tier scanned.
    pub tier: u16,
    /// Slice start, microseconds (inclusive).
    pub from_us: u64,
    /// Slice end, microseconds (inclusive).
    pub to_us: u64,
}

/// Work counters for one [`query`] — the negative-space proof that
/// zooming out does not touch the archive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LodStats {
    /// Tiers present in the store.
    pub tiers_present: u16,
    /// Segments of the scanned tiers considered by the planner.
    pub segments_considered: u64,
    /// Segments dismissed from sidecars alone (file never opened).
    pub segments_pruned: u64,
    /// Segments actually opened and read.
    pub segments_scanned: u64,
    /// Blocks dismissed off posting time envelopes (never read).
    pub blocks_pruned: u64,
    /// Blocks whose payload was read and decoded.
    pub blocks_scanned: u64,
    /// Frames decoded out of scanned blocks.
    pub frames_scanned: u64,
    /// Frames that landed in the requested signal, range, and columns.
    pub frames_used: u64,
    /// Sidecars rebuilt because they were missing/stale/corrupt.
    pub indexes_rebuilt: u64,
    /// Time spent planning (directory walk, sidecars, pruning), µs.
    pub plan_us: u64,
    /// Time spent scanning and folding surviving blocks, µs.
    pub scan_us: u64,
}

/// The answer to one [`query`].
#[derive(Clone, Debug)]
pub struct LodResult {
    /// Primary (coarsest) tier the planner chose.
    pub tier: u16,
    /// Pixel width the columns were folded to.
    pub px_width: usize,
    /// One `(min, max)` envelope band per pixel column; `None` where
    /// no frame landed.
    pub columns: Vec<Option<(f64, f64)>>,
    /// The scanned `(tier, range)` slices, in time order.
    pub slices: Vec<LodSlice>,
    /// Work counters.
    pub stats: LodStats,
}

/// Which signal terms a plan aggregates over.
#[derive(Clone, Copy)]
enum Target<'a> {
    /// One signal (the empty string is the unnamed stream).
    One(&'a str),
    /// Every signal in the store.
    All,
}

/// One planned segment: its parsed sidecar plus the segment-wide
/// signal-frame time range, precomputed so the pruning walk can reject
/// whole segments without touching their posting lists.
struct PlanSeg {
    seg: TierSeg,
    idx: Arc<crate::index::SegIndex>,
    first_us: u64,
    last_us: u64,
    /// Total blocks in the segment (distinct signal posting offsets —
    /// every frame belongs to exactly one signal term). Precomputed so
    /// per-query prune accounting never walks non-target terms.
    blocks: u64,
}

/// Per-tier planning view: loaded sidecars for each segment.
struct TierPlanInfo {
    tier: u16,
    /// `(seq-ordered)` segments with their sidecars.
    segs: Vec<PlanSeg>,
    /// Estimated frames of the target inside the query range.
    est_frames: f64,
    /// Newest covered time of the target at this tier.
    cover_end: Option<u64>,
}

/// One cached sidecar: valid while the segment file's length is
/// unchanged (sealed segments are immutable; a recovery truncation or
/// rebuild changes the length and misses the cache).
struct CachedIndex {
    seg_bytes: u64,
    first_us: u64,
    last_us: u64,
    blocks: u64,
    idx: Arc<crate::index::SegIndex>,
}

/// Above this many entries the cache is dropped wholesale — segments
/// are bounded by retention and eviction, so this only guards against
/// a caller sweeping unboundedly many directories.
const INDEX_CACHE_CAP: usize = 4096;

fn index_cache() -> &'static Mutex<HashMap<PathBuf, CachedIndex>> {
    static CACHE: OnceLock<Mutex<HashMap<PathBuf, CachedIndex>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Parsed sidecar for one segment, answered from the process-wide
/// cache when the file is unchanged. Planning visits every live
/// segment per query; re-parsing posting lists each time would scale
/// with stored history instead of `px_width`, which is exactly what
/// the pyramid exists to avoid.
fn cached_index(
    seg: &TierSeg,
    stats: &mut LodStats,
) -> std::io::Result<(Arc<crate::index::SegIndex>, u64, u64, u64)> {
    if let Some(c) = index_cache().lock().unwrap().get(&seg.path) {
        if c.seg_bytes == seg.bytes {
            return Ok((Arc::clone(&c.idx), c.first_us, c.last_us, c.blocks));
        }
    }
    let (idx, rebuilt) = load_or_rebuild_index(&seg.path)?;
    if rebuilt {
        stats.indexes_rebuilt += 1;
    }
    let idx = Arc::new(idx);
    let (mut first_us, mut last_us) = (u64::MAX, 0u64);
    let mut offsets: Vec<u64> = Vec::new();
    for term in idx.terms_of(TermClass::Signal) {
        if term.count == 0 {
            continue;
        }
        first_us = first_us.min(term.first_us);
        last_us = last_us.max(term.last_us);
        offsets.extend(term.postings.iter().map(|p| p.offset));
    }
    offsets.sort_unstable();
    offsets.dedup();
    let blocks = offsets.len() as u64;
    let mut cache = index_cache().lock().unwrap();
    if cache.len() >= INDEX_CACHE_CAP {
        cache.clear();
    }
    cache.insert(
        seg.path.clone(),
        CachedIndex {
            seg_bytes: seg.bytes,
            first_us,
            last_us,
            blocks,
            idx: Arc::clone(&idx),
        },
    );
    Ok((idx, first_us, last_us, blocks))
}

fn load_tier_plans(
    dir: &Path,
    target: Target<'_>,
    from_us: u64,
    to_us: u64,
    stats: &mut LodStats,
) -> std::io::Result<Vec<TierPlanInfo>> {
    let tiers = tier_map(dir, false)?;
    stats.tiers_present = tiers.keys().copied().max().map_or(0, |t| t + 1);
    let mut plans = Vec::new();
    for (&tier, segs) in &tiers {
        let mut info = TierPlanInfo {
            tier,
            segs: Vec::new(),
            est_frames: 0.0,
            cover_end: None,
        };
        for seg in segs {
            let (idx, first_us, last_us, blocks) = cached_index(seg, stats)?;
            for term in idx.terms_of(TermClass::Signal) {
                let hit = match target {
                    Target::One(name) => term.name == name,
                    Target::All => true,
                };
                if !hit || term.count == 0 {
                    continue;
                }
                info.cover_end = info.cover_end.max(Some(term.last_us));
                let lo = term.first_us.max(from_us);
                let hi = term.last_us.min(to_us);
                if lo <= hi {
                    let span = (term.last_us - term.first_us + 1) as f64;
                    let overlap = (hi - lo + 1) as f64;
                    info.est_frames += term.count as f64 * (overlap / span);
                }
            }
            info.segs.push(PlanSeg {
                seg: seg.clone(),
                idx,
                first_us,
                last_us,
                blocks,
            });
        }
        plans.push(info);
    }
    Ok(plans)
}

/// Envelope columns a tier yields in the range: tiers above 0 store
/// `(min, max)` pairs, so two frames make one column.
fn est_columns(tier: u16, est_frames: f64) -> f64 {
    if tier == 0 {
        est_frames
    } else {
        est_frames / 2.0
    }
}

/// Stitches a plan: the primary tier first, then finer tiers over the
/// tail it does not cover yet, down to tier 0.
fn stitch_slices(plans: &[TierPlanInfo], primary: u16, from_us: u64, to_us: u64) -> Vec<LodSlice> {
    let mut slices = Vec::new();
    let cover = |tier: u16| -> Option<u64> {
        plans
            .iter()
            .find(|p| p.tier == tier)
            .and_then(|p| p.cover_end)
    };
    let primary_end = cover(primary).unwrap_or(0).min(to_us);
    let mut cursor = from_us;
    if primary_end >= from_us {
        slices.push(LodSlice {
            tier: primary,
            from_us,
            to_us: primary_end,
        });
        cursor = primary_end.saturating_add(1);
    }
    for tier in (0..primary).rev() {
        if cursor > to_us {
            break;
        }
        let Some(end) = cover(tier) else { continue };
        if end >= cursor {
            slices.push(LodSlice {
                tier,
                from_us: cursor,
                to_us: end.min(to_us),
            });
            cursor = end.min(to_us).saturating_add(1);
        }
    }
    slices
}

/// One segment's surviving blocks for one slice.
struct ScanUnit {
    path: PathBuf,
    offsets: Vec<u64>,
    from_us: u64,
    to_us: u64,
}

/// Decodes one segment's surviving blocks, filtering to the target
/// signal and range. One file handle per unit — the "one reader per
/// segment" scan.
fn scan_unit(unit: &ScanUnit, target: Target<'_>) -> (Vec<(u64, f64)>, u64, u64) {
    let mut frames = Vec::new();
    let mut blocks = 0u64;
    let mut decoded = 0u64;
    let Ok(mut file) = File::open(&unit.path) else {
        return (frames, blocks, decoded);
    };
    for &offset in &unit.offsets {
        let Ok(Some(meta)) = read_block_header_at(&mut file, offset) else {
            continue;
        };
        let Ok(Some(payload)) = read_block_payload(&mut file, &meta) else {
            continue; // CRC mismatch: same skip a replay does
        };
        blocks += 1;
        let signal = match target {
            Target::One(name) => Some(name),
            Target::All => None,
        };
        let (n, _) = decode_filtered(
            &payload,
            meta.first_us,
            signal,
            unit.from_us,
            unit.to_us,
            &mut |t, v| frames.push((t, v)),
        );
        decoded += n;
    }
    (frames, blocks, decoded)
}

/// Level-of-detail query over a store directory: fold the target
/// signal's history in `[t0, t1]` into `px_width` min/max columns,
/// reading the coarsest tier that still yields one column per pixel.
///
/// `signal` of `None` targets the unnamed stream. See [`query_at`] to
/// force a tier.
///
/// # Errors
///
/// [`ScopeError::Io`] on directory or sidecar I/O failure; damaged
/// blocks are skipped, not fatal.
pub fn query(
    dir: &Path,
    signal: Option<&str>,
    t0: TimeStamp,
    t1: TimeStamp,
    px_width: usize,
) -> Result<LodResult> {
    query_at(dir, signal, t0, t1, px_width, None)
}

/// [`query`] with an optional forced tier (`gtool replay --tier`).
///
/// # Errors
///
/// Same as [`query`].
pub fn query_at(
    dir: &Path,
    signal: Option<&str>,
    t0: TimeStamp,
    t1: TimeStamp,
    px_width: usize,
    forced_tier: Option<u16>,
) -> Result<LodResult> {
    let px = px_width.max(1);
    let from_us = t0.as_micros();
    let to_us = t1.as_micros().max(from_us);
    let name = signal.unwrap_or("");
    let target = Target::One(name);
    let mut stats = LodStats::default();
    let plan_t0 = std::time::Instant::now();
    let plans = load_tier_plans(dir, target, from_us, to_us, &mut stats).map_err(ScopeError::Io)?;

    // Tier choice: the coarsest tier still giving >= 1 column per
    // pixel; when even tier 0 cannot fill the canvas, the finest tier
    // with any coverage wins (full detail).
    let tier = match forced_tier {
        Some(t) => t,
        None => {
            let mut chosen: Option<u16> = None;
            let mut best: Option<(f64, u16)> = None;
            for p in &plans {
                let cols = est_columns(p.tier, p.est_frames);
                if cols >= px as f64 {
                    chosen = Some(chosen.map_or(p.tier, |c| c.max(p.tier)));
                }
                if cols > 0.0 && best.is_none_or(|(b, _)| cols > b) {
                    best = Some((cols, p.tier));
                }
            }
            chosen.or(best.map(|(_, t)| t)).unwrap_or(0)
        }
    };

    let slices = if forced_tier.is_some() {
        vec![LodSlice {
            tier,
            from_us,
            to_us,
        }]
    } else {
        stitch_slices(&plans, tier, from_us, to_us)
    };

    // Prune: per slice, keep segments whose target term overlaps the
    // slice, and inside them only the postings that overlap.
    let mut units: Vec<ScanUnit> = Vec::new();
    for slice in &slices {
        let Some(plan) = plans.iter().find(|p| p.tier == slice.tier) else {
            continue;
        };
        for ps in &plan.segs {
            stats.segments_considered += 1;
            // Whole-segment reject on the precomputed time range:
            // planning must not walk posting lists of segments that
            // cannot intersect the slice, or query cost would grow
            // with live history instead of `px_width`.
            if ps.last_us < slice.from_us || ps.first_us > slice.to_us {
                stats.segments_pruned += 1;
                continue;
            }
            let mut offsets: Vec<u64> = Vec::new();
            if let Some(term) = ps.idx.find(TermClass::Signal, name) {
                for p in &term.postings {
                    if p.first_us <= slice.to_us && p.last_us >= slice.from_us {
                        offsets.push(p.offset);
                    }
                }
            }
            offsets.sort_unstable();
            offsets.dedup();
            if offsets.is_empty() {
                stats.segments_pruned += 1;
                stats.blocks_pruned += ps.blocks;
                continue;
            }
            stats.blocks_pruned += ps.blocks - offsets.len() as u64;
            units.push(ScanUnit {
                path: ps.seg.path.clone(),
                offsets,
                from_us: slice.from_us,
                to_us: slice.to_us,
            });
        }
    }
    stats.segments_scanned = units.len() as u64;
    stats.plan_us = plan_t0.elapsed().as_micros() as u64;
    let scan_t0 = std::time::Instant::now();

    // Scan the survivors in parallel — scoped threads, one reader per
    // segment, bounded concurrency — and merge by time. Units are
    // already in (slice, sequence) = time order, so the merge is a
    // concatenation.
    type UnitScan = (Vec<(u64, f64)>, u64, u64);
    let mut per_unit: Vec<UnitScan> = Vec::with_capacity(units.len());
    // Spawning beats sequential only with real cores to run on — a
    // thread per lane on a one-core box is pure overhead, and a
    // cascade plan has a dozen one-block units.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if units.len() <= 1 || cores <= 1 {
        for u in &units {
            per_unit.push(scan_unit(u, target));
        }
    } else {
        let lanes = units.len().min(16).min(cores);
        let chunk = units.len().div_ceil(lanes);
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(lanes);
            for c in units.chunks(chunk) {
                handles.push(
                    s.spawn(move || c.iter().map(|u| scan_unit(u, target)).collect::<Vec<_>>()),
                );
            }
            for h in handles {
                per_unit.extend(h.join().expect("lod scan thread panicked"));
            }
        });
    }

    // Fold frames into px columns over [t0, t1]. Column mapping is a
    // divide per frame, so stay in u64 whenever `(span-1) * px` fits
    // — software u128 division would double the whole scan's cost.
    let span64 = (to_us - from_us).wrapping_add(1); // 0 means 2^64
    let narrow = span64 != 0 && span64.checked_mul(px as u64).is_some();
    let col_of = |t: u64| -> usize {
        if narrow {
            (((t - from_us) * px as u64) / span64) as usize
        } else {
            let span = (to_us - from_us) as u128 + 1;
            (((t - from_us) as u128 * px as u128) / span) as usize
        }
    };
    let mut columns: Vec<Option<(f64, f64)>> = vec![None; px];
    for (frames, blocks, decoded) in &per_unit {
        stats.blocks_scanned += blocks;
        stats.frames_scanned += decoded;
        for &(t, v) in frames {
            let c = &mut columns[col_of(t).min(px - 1)];
            *c = Some(match *c {
                None => (v, v),
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
            });
            stats.frames_used += 1;
        }
    }

    stats.scan_us = scan_t0.elapsed().as_micros() as u64;
    let reg = Registry::shared();
    reg.counter("store.lod.queries").inc();
    reg.counter("store.lod.query_blocks_pruned")
        .add(stats.blocks_pruned);
    reg.counter("store.lod.query_blocks_scanned")
        .add(stats.blocks_scanned);

    Ok(LodResult {
        tier,
        px_width: px,
        columns,
        slices,
        stats,
    })
}

/// Picks the tier a whole-store scan (search, catch-up) should read:
/// aggregated over every signal, the coarsest tier still yielding
/// `px_width` columns in the range; tiers present are returned too so
/// callers can report the choice.
///
/// # Errors
///
/// [`ScopeError::Io`] on directory or sidecar I/O failure.
pub fn pick_tier(dir: &Path, from_us: u64, to_us: u64, px_width: usize) -> Result<(u16, Vec<u16>)> {
    let mut stats = LodStats::default();
    let plans = load_tier_plans(dir, Target::All, from_us, to_us.max(from_us), &mut stats)
        .map_err(ScopeError::Io)?;
    let tiers: Vec<u16> = plans.iter().map(|p| p.tier).collect();
    let mut chosen: Option<u16> = None;
    let mut best: Option<(f64, u16)> = None;
    for p in &plans {
        let cols = est_columns(p.tier, p.est_frames);
        if cols >= px_width.max(1) as f64 {
            chosen = Some(chosen.map_or(p.tier, |c| c.max(p.tier)));
        }
        if cols > 0.0 && best.is_none_or(|(b, _)| cols > b) {
            best = Some((cols, p.tier));
        }
    }
    Ok((chosen.or(best.map(|(_, t)| t)).unwrap_or(0), tiers))
}

/// Plans a bounded-cost replay of `[from_us, to_us]`: the finest tier
/// whose estimated frame count fits `budget_frames`, with finer tiers
/// stitched over the tail the pyramid has not folded yet. The slices
/// are in time order; replay each through
/// [`StoreReader::open_tier`](crate::StoreReader::open_tier) with
/// `seek`/`set_end`.
///
/// # Errors
///
/// [`ScopeError::Io`] on directory or sidecar I/O failure.
pub fn replay_plan(
    dir: &Path,
    from_us: u64,
    to_us: u64,
    budget_frames: u64,
) -> Result<Vec<LodSlice>> {
    let to_us = to_us.max(from_us);
    let mut stats = LodStats::default();
    let plans =
        load_tier_plans(dir, Target::All, from_us, to_us, &mut stats).map_err(ScopeError::Io)?;
    // Finest affordable tier: tiers ascend, so the first fitting the
    // budget wins; nothing fits -> the coarsest present.
    let mut primary = plans.last().map_or(0, |p| p.tier);
    for p in &plans {
        if p.est_frames <= budget_frames as f64 {
            primary = p.tier;
            break;
        }
    }
    if primary == 0 {
        return Ok(vec![LodSlice {
            tier: 0,
            from_us,
            to_us,
        }]);
    }
    Ok(stitch_slices(&plans, primary, from_us, to_us))
}

/// Pulls pre-decimated envelope columns off disk for every signal of
/// `scope` over `[t0, t1]` and installs them as the signals' display
/// envelopes (the renderer draws envelope columns directly — no
/// re-decimation). Returns each signal's query result for reporting.
///
/// # Errors
///
/// Same as [`query`].
pub fn apply_envelopes(
    dir: &Path,
    scope: &mut Scope,
    t0: TimeStamp,
    t1: TimeStamp,
) -> Result<Vec<(String, LodResult)>> {
    let px = scope.width();
    let mut out = Vec::new();
    for name in scope.signal_names() {
        let r = query(dir, Some(&name), t0, t1, px)?;
        scope.set_envelope(&name, Envelope::from_bands(&r.columns))?;
        out.push((name, r));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Store, StoreConfig};
    use crate::StoreReader;
    use gscope::TupleSource;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gstore-lod-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_cfg() -> StoreConfig {
        StoreConfig {
            block_bytes: 256,
            block_frames: 16,
            segment_bytes: 2048,
            ..StoreConfig::default()
        }
    }

    fn fill(dir: &Path, n: u64) {
        let mut store = Store::open(dir, small_cfg()).unwrap();
        for i in 0..n {
            let v = (i as f64 * 0.05).sin() * 50.0 + 50.0;
            store
                .append(TimeStamp::from_micros(i * 1_000), v, Some("wave"))
                .unwrap();
        }
        store.close().unwrap();
    }

    fn lod_cfg() -> CompactorConfig {
        CompactorConfig {
            group: 4,
            max_tier: 4,
            min_fold_frames: 16,
            block_frames: 16,
            ..CompactorConfig::default()
        }
    }

    #[test]
    fn compactor_builds_a_pyramid() {
        let dir = tmp_dir("pyramid");
        fill(&dir, 4_000);
        let mut c = Compactor::new(&dir, lod_cfg()).unwrap();
        let report = c.pass().unwrap();
        assert!(report.folds > 0, "{report:?}");
        assert!(report.frames_in >= 4_000, "{report:?}");
        assert!(report.top_tier >= 2, "{report:?}");
        // Each tier shrinks by about group/2.
        let tiers = tier_map(&dir, true).unwrap();
        let frames_of = |t: u16| -> u64 {
            tiers
                .get(&t)
                .map(|segs| {
                    segs.iter()
                        .map(|s| seg_frames(&s.path).unwrap_or(0))
                        .sum::<u64>()
                })
                .unwrap_or(0)
        };
        let (f0, f1) = (frames_of(0), frames_of(1));
        assert!(f1 > 0 && f1 < f0, "t0={f0} t1={f1}");
        // A second pass is a no-op: the watermark already covers
        // every sealed source.
        let again = c.pass().unwrap();
        assert_eq!(again.folds, 0, "{again:?}");
    }

    #[test]
    fn envelope_pairs_cover_source_extremes() {
        let dir = tmp_dir("envelope");
        fill(&dir, 2_000);
        let mut c = Compactor::new(&dir, lod_cfg()).unwrap();
        c.pass().unwrap();
        // Tier-1 min/max must bound the tier-0 values over the store.
        let mut r0 = StoreReader::open_tier(&dir, 0).unwrap();
        let (mut lo0, mut hi0) = (f64::INFINITY, f64::NEG_INFINITY);
        while let Some(t) = r0.next_tuple().unwrap() {
            lo0 = lo0.min(t.value);
            hi0 = hi0.max(t.value);
        }
        let mut r1 = StoreReader::open_tier(&dir, 1).unwrap();
        let (mut lo1, mut hi1) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut frames = 0u64;
        let mut last_t = 0u64;
        while let Some(t) = r1.next_tuple().unwrap() {
            lo1 = lo1.min(t.value);
            hi1 = hi1.max(t.value);
            assert!(t.time.as_micros() >= last_t, "tier-1 out of order");
            last_t = t.time.as_micros();
            frames += 1;
        }
        assert!(
            frames > 0 && frames.is_multiple_of(2),
            "{frames} tier-1 frames"
        );
        assert_eq!(lo0.to_bits(), lo1.to_bits(), "global min survives");
        assert_eq!(hi0.to_bits(), hi1.to_bits(), "global max survives");
    }

    #[test]
    fn query_picks_coarse_tier_and_prunes() {
        let dir = tmp_dir("query");
        fill(&dir, 8_000);
        let mut c = Compactor::new(&dir, lod_cfg()).unwrap();
        c.pass().unwrap();
        let r = query(
            &dir,
            Some("wave"),
            TimeStamp::ZERO,
            TimeStamp::from_micros(8_000_000),
            64,
        )
        .unwrap();
        assert!(r.tier >= 1, "zoomed-out query must use the pyramid: {r:?}");
        assert!(r.columns.iter().filter(|c| c.is_some()).count() >= 32);
        // Negative space: far fewer frames decoded than stored.
        assert!(
            r.stats.frames_scanned < 8_000 / 2,
            "scanned {} of 8000; tier {} slices {:?} stats {:?}",
            r.stats.frames_scanned,
            r.tier,
            r.slices,
            r.stats
        );
        // Narrow zoom: falls back to fine data, prunes elsewhere.
        let z = query(
            &dir,
            Some("wave"),
            TimeStamp::from_micros(1_000_000),
            TimeStamp::from_micros(1_050_000),
            64,
        )
        .unwrap();
        assert_eq!(z.tier, 0, "50 frames over 64 px needs full detail");
        assert!(
            z.stats.segments_pruned + z.stats.blocks_pruned > 0,
            "{:?}",
            z.stats
        );
        let bands: Vec<_> = z.columns.iter().flatten().collect();
        assert!(!bands.is_empty());
    }

    #[test]
    fn query_stitches_unfolded_tail_from_tier0() {
        let dir = tmp_dir("stitch");
        fill(&dir, 4_000);
        let mut c = Compactor::new(&dir, lod_cfg()).unwrap();
        c.pass().unwrap();
        // Append more after compaction: the pyramid now lags.
        let mut store = Store::open(&dir, small_cfg()).unwrap();
        for i in 4_000..5_000u64 {
            store
                .append(TimeStamp::from_micros(i * 1_000), 123.0, Some("wave"))
                .unwrap();
        }
        store.close().unwrap();
        let r = query(
            &dir,
            Some("wave"),
            TimeStamp::ZERO,
            TimeStamp::from_micros(5_000_000),
            64,
        )
        .unwrap();
        assert!(r.slices.len() >= 2, "tail must stitch: {:?}", r.slices);
        assert_eq!(r.slices.last().unwrap().tier, 0);
        // The fresh tail (value 123) must be visible in the columns.
        let hi = r
            .columns
            .iter()
            .flatten()
            .map(|&(_, hi)| hi)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(hi, 123.0);
    }

    #[test]
    fn retain_bytes_keeps_tier_under_budget() {
        let dir = tmp_dir("evict");
        fill(&dir, 8_000);
        let mut cfg = lod_cfg();
        cfg.retain_bytes = Some(4096);
        let mut c = Compactor::new(&dir, cfg).unwrap();
        let report = c.pass().unwrap();
        assert!(report.segments_evicted > 0, "{report:?}");
        let tiers = tier_map(&dir, true).unwrap();
        let t0: u64 = tiers[&0].iter().map(|s| s.bytes).sum();
        // Budget plus the one unfolded (active-at-close) segment.
        assert!(t0 <= 4096 + 2048 + 64, "tier0 {t0}B over budget");
        // Every tier kept its watermark, so nothing is folded twice.
        let again = c.pass().unwrap();
        assert_eq!(again.folds, 0, "{again:?}");
        // History stays queryable through the pyramid.
        let r = query(
            &dir,
            Some("wave"),
            TimeStamp::ZERO,
            TimeStamp::from_micros(8_000_000),
            64,
        )
        .unwrap();
        assert!(r.columns.iter().filter(|c| c.is_some()).count() >= 32);
    }

    #[test]
    fn retain_age_evicts_covered_history_past_the_horizon() {
        let dir = tmp_dir("age");
        fill(&dir, 8_000);
        let mut cfg = lod_cfg();
        cfg.retain_age = Some(TimeDelta::from_secs(2));
        let mut c = Compactor::new(&dir, cfg).unwrap();
        let report = c.pass().unwrap();
        assert!(report.segments_evicted > 0, "{report:?}");
        let tiers = tier_map(&dir, true).unwrap();
        let oldest = &tiers[&0][0].path;
        let last = load_or_rebuild_index(oldest).unwrap().0.last_us().unwrap();
        // Newest frame at 7.999 s: what is left ends within 2 s of it.
        assert!(last >= 5_999_000, "kept a segment ending at {last}us");
    }

    /// The store's append head, as a file path.
    fn head_segment(dir: &Path) -> PathBuf {
        let tiers = tier_map(dir, true).unwrap();
        tiers[&0].last().unwrap().path.clone()
    }

    #[test]
    fn reader_rebuild_does_not_seal_the_open_segment() {
        let dir = tmp_dir("open-head");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        for i in 0..1_000u64 {
            store
                .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("wave"))
                .unwrap();
        }
        store.flush().unwrap();
        // A search or zoom over the live store rebuilds the head's
        // missing sidecar; that must not read as proof of a seal.
        load_or_rebuild_index(&head_segment(&dir)).unwrap();
        let mut c = Compactor::new(&dir, lod_cfg()).unwrap();
        c.pass().unwrap();
        assert_eq!(watermark(&dir, 1), None, "open segment folded");
        store.close().unwrap();
        c.pass().unwrap();
        assert_eq!(watermark(&dir, 1), Some(0), "sealed segment folds");
    }

    #[test]
    fn reopened_head_is_not_folded_until_sealed() {
        let dir = tmp_dir("reopen-head");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        for i in 0..100u64 {
            store
                .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("wave"))
                .unwrap();
        }
        store.close().unwrap();
        // Reopening resumes the sealed head for append: its sidecar no
        // longer describes the file the store will write.
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        let mut c = Compactor::new(&dir, lod_cfg()).unwrap();
        c.pass().unwrap();
        assert_eq!(watermark(&dir, 1), None, "resumed segment folded");
        for i in 100..1_000u64 {
            store
                .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("wave"))
                .unwrap();
        }
        store.close().unwrap();
        c.pass().unwrap();
        let t1 = &tier_map(&dir, true).unwrap()[&1];
        // 1000 frames at group 4: 250 bands of two frames each.
        assert_eq!(seg_frames(&t1[0].path).unwrap(), 500, "{t1:?}");
    }

    #[test]
    fn background_compactor_start_stop() {
        let dir = tmp_dir("background");
        fill(&dir, 2_000);
        let mut cfg = lod_cfg();
        cfg.interval = Duration::from_millis(5);
        let handle = Compactor::new(&dir, cfg).unwrap().start();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while watermark(&dir, 1).is_none() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let c = handle.stop();
        assert!(watermark(c.dir(), 1).is_some(), "background fold ran");
    }

    #[test]
    fn replay_plan_fits_budget() {
        let dir = tmp_dir("replan");
        fill(&dir, 8_000);
        let mut c = Compactor::new(&dir, lod_cfg()).unwrap();
        c.pass().unwrap();
        // Tiny budget: must pick a coarse tier for the bulk.
        let slices = replay_plan(&dir, 0, 8_000_000, 500).unwrap();
        assert!(slices[0].tier >= 1, "{slices:?}");
        // Huge budget: plain tier-0 replay.
        let slices = replay_plan(&dir, 0, 8_000_000, 1_000_000).unwrap();
        assert_eq!(
            slices,
            vec![LodSlice {
                tier: 0,
                from_us: 0,
                to_us: 8_000_000
            }]
        );
    }
}
