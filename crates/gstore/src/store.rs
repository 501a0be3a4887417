//! The append side: a directory of tier-0 segments with rotation and
//! torn-tail recovery.
//!
//! A store directory holds `seg-NNNNNNNN-tT.gseg` files. The store
//! writes tier 0, the full-rate log, and appends only to its newest
//! segment. Everything coarser belongs to the glod
//! [`Compactor`](crate::lod::Compactor): it folds sealed segments into
//! tier-1+ min/max envelopes and, under its `retain_bytes`/`retain_age`
//! policy, deletes a segment only once the next tier covers it — so
//! bounded history coarsens instead of vanishing.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gel::TimeStamp;
use gscope::{Result, ScopeError, TupleSink};
use gtel::{Counter, Registry};

use crate::segment::{
    parse_segment_file_name, read_block_payload, read_seg_header, recover_segment, scan_headers,
    segment_file_name, SegmentWriter,
};

/// Tuning knobs for a [`Store`]. The defaults favor scope recording:
/// ~16 KiB blocks (about a thousand frames of index granularity, one
/// write syscall each) and 1 MiB segments (the compaction and
/// eviction unit).
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Flush the open block once its payload reaches this many bytes.
    pub block_bytes: usize,
    /// ... or once it holds this many frames, whichever comes first.
    /// This bounds both seek granularity and torn-tail loss.
    pub block_frames: u32,
    /// Roll to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// `fsync` after every block write (durable against power loss,
    /// not just process crash). Off by default: the paper's tool is a
    /// debugging aid, and a torn tail already loses at most one frame.
    pub fsync: bool,
    /// Maintain `.gidx` search sidecars: per-name envelope stats on
    /// the append path, posting lists written once per segment seal.
    /// On by default; turning it off shaves the last few percent off
    /// ingest and costs nothing but a deferred rebuild — queries
    /// reconstruct any missing sidecar from the segment on first use.
    pub index_sidecars: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            block_bytes: 16 * 1024,
            block_frames: 1024,
            segment_bytes: 1 << 20,
            fsync: false,
            index_sidecars: true,
        }
    }
}

/// Catalog entry for one sealed segment.
#[derive(Clone, Debug)]
pub struct SegmentInfo {
    /// Path of the segment file.
    pub path: PathBuf,
    /// Monotonic sequence number (file-name order == time order).
    pub seq: u64,
    /// Downsampling tier (0 = full rate, K >= 1 = glod envelopes).
    pub tier: u16,
    /// File size in bytes.
    pub bytes: u64,
    /// Time of the first frame, if the segment has any.
    pub first_us: Option<u64>,
    /// Time of the last frame, if known (sealed segments only).
    pub last_us: Option<u64>,
    /// Frame count from block headers.
    pub frames: u64,
}

/// Running totals for one [`Store`], mirrored into gtel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Frames accepted by [`Store::append`].
    pub frames_appended: u64,
    /// Bytes written to segment files (headers + blocks).
    pub bytes_written: u64,
    /// Blocks flushed to disk.
    pub blocks_flushed: u64,
    /// Segments sealed and rolled.
    pub segments_rolled: u64,
    /// Opens that had to truncate a torn or corrupt tail.
    pub recovery_truncations: u64,
    /// Frames salvaged out of torn tail blocks on open.
    pub salvaged_frames: u64,
    /// Complete blocks dropped for CRC mismatch on open.
    pub dropped_blocks: u64,
}

/// Cached gtel handles for one [`Store`].
#[derive(Debug)]
pub struct StoreTelemetry {
    registry: Arc<Registry>,
    /// `store.frames` — frames appended.
    pub frames: Arc<Counter>,
    /// `store.bytes` — bytes written to segment files.
    pub bytes: Arc<Counter>,
    /// `store.segments.rolled` — segments sealed and rolled.
    pub segments_rolled: Arc<Counter>,
    /// `store.recovery.truncations` — torn/corrupt tails cut on open.
    pub recovery_truncations: Arc<Counter>,
}

impl StoreTelemetry {
    /// Resolves the store's metric handles from `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        StoreTelemetry {
            frames: registry.counter("store.frames"),
            bytes: registry.counter("store.bytes"),
            segments_rolled: registry.counter("store.segments.rolled"),
            recovery_truncations: registry.counter("store.recovery.truncations"),
            registry,
        }
    }

    /// The registry the handles live in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

impl Default for StoreTelemetry {
    fn default() -> Self {
        StoreTelemetry::new(Registry::shared())
    }
}

/// Scans `dir` and catalogs its segment files, newest last.
///
/// Sealed segments get exact `first_us`/`last_us`/`frames` by reading
/// block headers (sparse) and decoding only the final block.
///
/// # Errors
///
/// Propagates directory / file I/O errors; unreadable or foreign files
/// are skipped, not fatal (the store must always open).
pub fn catalog_segments(dir: &Path) -> std::io::Result<Vec<SegmentInfo>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some((seq, tier)) = parse_segment_file_name(name) else {
            continue;
        };
        let path = entry.path();
        let bytes = entry.metadata()?.len();
        let mut info = SegmentInfo {
            path,
            seq,
            tier,
            bytes,
            first_us: None,
            last_us: None,
            frames: 0,
        };
        if let Ok(mut file) = File::open(&info.path) {
            if read_seg_header(&mut file).is_ok() {
                if let Ok(scan) = scan_headers(&mut file) {
                    info.first_us = scan.blocks.first().map(|b| b.first_us);
                    info.frames = scan.blocks.iter().map(|b| u64::from(b.frames)).sum();
                    if let Some(last) = scan.blocks.last() {
                        if let Ok(Some(payload)) = read_block_payload(&mut file, last) {
                            let (frames, _) =
                                crate::segment::decode_records(&payload, last.first_us);
                            info.last_us = frames.last().map(|f| f.time_us);
                        }
                    }
                }
            }
        }
        found.push(info);
    }
    found.sort_by_key(|s| (s.tier, s.seq));
    Ok(found)
}

/// A writable tuple store rooted at one directory.
///
/// `Store` implements [`TupleSink`], so it plugs in anywhere a text
/// recorder does — `Scope::start_recording_sink`, the network server's
/// tee, or `gtool record`. Appends are buffered into blocks; call
/// [`Store::flush`] to make everything written so far visible to
/// readers (and durable against process crash).
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    cfg: StoreConfig,
    writer: Option<SegmentWriter>,
    /// Sequence number for the *next* segment created.
    next_seq: u64,
    /// Time of the last accepted frame (monotonicity gate).
    last_us: Option<u64>,
    /// Frames already published to the telemetry counter (telemetry is
    /// batched to block boundaries; see `publish_frames`).
    frames_reported: u64,
    stats: StoreStats,
    telemetry: StoreTelemetry,
}

impl Store {
    /// Opens (or creates) the store at `dir` and recovers its tail:
    /// the newest tier-0 segment is verified block-by-block, truncated
    /// past the last trustworthy frame, and any complete frames
    /// decoded from a torn tail block are re-appended. This never
    /// refuses to open a damaged directory — damage only shrinks it.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on directory or file I/O failure.
    pub fn open(dir: impl Into<PathBuf>, cfg: StoreConfig) -> Result<Store> {
        let dir = dir.into();
        // Rolls happen at block boundaries, so a block larger than the
        // segment budget would make `segment_bytes` unreachable: clamp
        // it (a 1 KiB-segment config must not buffer 16 KiB blocks).
        let mut cfg = cfg;
        cfg.block_bytes = cfg.block_bytes.min(cfg.segment_bytes.max(1) as usize);
        std::fs::create_dir_all(&dir).map_err(ScopeError::Io)?;
        let mut catalog = catalog_segments(&dir).map_err(ScopeError::Io)?;
        let next_seq = catalog.iter().map(|s| s.seq + 1).max().unwrap_or(0);
        let mut store = Store {
            dir,
            cfg,
            writer: None,
            next_seq,
            last_us: None,
            frames_reported: 0,
            stats: StoreStats::default(),
            telemetry: StoreTelemetry::default(),
        };
        // Newest tier-0 segment is the append point: recover + resume
        // — unless the glod pyramid already folded it. A
        // watermark-covered segment is immutable (its envelope bands
        // are on disk at tier 1+), so growing it would silently
        // diverge from the pyramid; roll to a fresh seq instead.
        let wm = crate::lod::watermark(&store.dir, 1);
        let active = catalog
            .iter()
            .rposition(|s| s.tier == 0 && wm < Some(s.seq))
            .map(|i| catalog.remove(i));
        store.last_us = catalog
            .iter()
            .filter(|s| s.tier == 0)
            .filter_map(|s| s.last_us)
            .max();
        if let Some(active) = active {
            let rec = recover_segment(&active.path).map_err(ScopeError::Io)?;
            if rec.truncated {
                store.stats.recovery_truncations += 1;
                store.stats.dropped_blocks += u64::from(rec.dropped_blocks);
                store.telemetry.recovery_truncations.inc();
            }
            if rec.valid_len == 0 {
                // Not even the header survived; start the file over.
                std::fs::remove_file(&active.path).map_err(ScopeError::Io)?;
                let _ = std::fs::remove_file(crate::index::index_path(&active.path));
                store.next_seq = store.next_seq.max(active.seq);
            } else {
                let mut w =
                    SegmentWriter::resume(active.path.clone(), rec.valid_len, store.cfg.fsync)
                        .map_err(ScopeError::Io)?;
                // The segment is open again: a sidecar matching it would
                // tell the compactor it is sealed. Sealing writes a new one.
                match std::fs::remove_file(crate::index::index_path(&active.path)) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                        return Err(ScopeError::Io(e));
                    }
                    _ => {}
                }
                w.set_index_enabled(store.cfg.index_sidecars);
                store.last_us = store
                    .last_us
                    .max(rec.last_us)
                    .max(rec.salvaged.last().map(|f| f.time_us));
                store.stats.salvaged_frames += rec.salvaged.len() as u64;
                for f in &rec.salvaged {
                    w.append(f.time_us, f.value, f.name.as_deref());
                }
                store.writer = Some(w);
            }
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Running totals (frames, bytes, rolls, recoveries).
    /// `bytes_written` counts flushed bytes; the open block is not
    /// included until it flushes.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Cached telemetry handles.
    pub fn telemetry(&self) -> &StoreTelemetry {
        &self.telemetry
    }

    /// Re-homes the store's metrics in `registry`.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.telemetry = StoreTelemetry::new(registry);
    }

    /// Time of the newest accepted frame.
    pub fn last_time(&self) -> Option<TimeStamp> {
        self.last_us.map(TimeStamp::from_micros)
    }

    /// Appends one frame. Times must be non-decreasing across the
    /// whole store (§3.3); equal times are legal.
    ///
    /// # Errors
    ///
    /// [`ScopeError::TupleOrder`] when `time` goes backwards,
    /// [`ScopeError::Io`] when a block or segment write fails.
    #[inline]
    pub fn append(&mut self, time: TimeStamp, value: f64, name: Option<&str>) -> Result<()> {
        let time_us = time.as_micros();
        if let Some(last) = self.last_us {
            if time_us < last {
                return Err(ScopeError::TupleOrder {
                    line: (self.stats.frames_appended + 1) as usize,
                    previous_ms: last as f64 / 1_000.0,
                    found_ms: time_us as f64 / 1_000.0,
                });
            }
        }
        if self.writer.is_none() {
            self.writer = Some(self.new_segment()?);
        }
        let w = self.writer.as_mut().expect("writer just ensured");
        w.append(time_us, value, name);
        self.last_us = Some(time_us);
        self.stats.frames_appended += 1;
        // Telemetry counters are atomics; publish at block granularity
        // (see `flush`) to keep the append path free of them.
        if w.block_payload_len() >= self.cfg.block_bytes
            || w.block_frames() >= self.cfg.block_frames
        {
            self.flush()?;
        }
        Ok(())
    }

    /// Appends one tuple (convenience over [`Store::append`]).
    ///
    /// # Errors
    ///
    /// Same as [`Store::append`].
    pub fn append_tuple(&mut self, t: &gscope::Tuple) -> Result<()> {
        self.append(t.time, t.value, t.name.as_deref())
    }

    fn new_segment(&mut self) -> Result<SegmentWriter> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let created_us = self.last_us.unwrap_or(0);
        let path = self.dir.join(segment_file_name(seq, 0));
        let mut w =
            SegmentWriter::create(path, 0, created_us, self.cfg.fsync).map_err(ScopeError::Io)?;
        w.set_index_enabled(self.cfg.index_sidecars);
        Ok(w)
    }

    /// Flushes the open block so readers (and a crash) see everything
    /// appended so far, rolling the segment once it reaches
    /// `segment_bytes`.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on write failure.
    pub fn flush(&mut self) -> Result<()> {
        let Some(w) = self.writer.as_mut() else {
            return Ok(());
        };
        let begin_ns = gtel::fast_now_ns();
        let written = w.flush_block().map_err(ScopeError::Io)?;
        let pending = w.pending_bytes();
        if written > 0 {
            self.stats.bytes_written += written;
            self.stats.blocks_flushed += 1;
            self.telemetry.bytes.add(written);
            // Span only for blocks that hit the file; empty flushes
            // are no-ops and would pollute the ring.
            gtel::complete_span("store.block", written, begin_ns);
        }
        self.publish_frames();
        if pending >= self.cfg.segment_bytes {
            self.roll_segment()?;
        }
        Ok(())
    }

    /// Publishes appended-frame telemetry since the last publish. The
    /// counter is an atomic, so the append hot path defers it to block
    /// boundaries (the gauge-accurate source is [`Store::stats`]).
    fn publish_frames(&mut self) {
        let n = self.stats.frames_appended - self.frames_reported;
        if n > 0 {
            self.telemetry.frames.add(n);
            self.frames_reported = self.stats.frames_appended;
        }
    }

    /// Seals the active segment; the next append starts a new one.
    /// Called automatically at the size threshold.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on seal failure.
    pub fn roll_segment(&mut self) -> Result<()> {
        let Some(w) = self.writer.take() else {
            return Ok(());
        };
        let pending = pending_block_bytes(&w);
        w.seal().map_err(ScopeError::Io)?;
        self.stats.bytes_written += pending;
        if pending > 0 {
            self.stats.blocks_flushed += 1;
        }
        self.telemetry.bytes.add(pending);
        self.publish_frames();
        self.stats.segments_rolled += 1;
        self.telemetry.segments_rolled.inc();
        Ok(())
    }

    /// Level-of-detail query over everything recorded so far: folds
    /// `signal`'s history in `[t0, t1]` into `px_width` min/max
    /// columns, reading the coarsest glod pyramid tier that still
    /// yields one column per pixel (see [`crate::lod::query`]). The
    /// open block is flushed first so the newest frames are visible.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on flush or directory I/O failure.
    pub fn query(
        &mut self,
        signal: Option<&str>,
        t0: TimeStamp,
        t1: TimeStamp,
        px_width: usize,
    ) -> Result<crate::lod::LodResult> {
        self.flush()?;
        crate::lod::query(&self.dir, signal, t0, t1, px_width)
    }

    /// Flushes and seals everything, consuming the store. [`Drop`]
    /// does this best-effort; call `close` to observe errors.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on seal failure.
    pub fn close(mut self) -> Result<StoreStats> {
        self.close_inner()?;
        Ok(self.stats)
    }

    fn close_inner(&mut self) -> Result<()> {
        if let Some(w) = self.writer.take() {
            let pending = pending_block_bytes(&w);
            w.seal().map_err(ScopeError::Io)?;
            self.stats.bytes_written += pending;
            self.telemetry.bytes.add(pending);
        }
        self.publish_frames();
        Ok(())
    }
}

/// Bytes the open block would add when flushed (header + payload).
fn pending_block_bytes(w: &SegmentWriter) -> u64 {
    if w.block_frames() > 0 {
        crate::segment::BLOCK_HEADER_LEN + w.block_payload_len() as u64
    } else {
        0
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = self.close_inner();
    }
}

impl TupleSink for Store {
    fn write_parts(&mut self, time: TimeStamp, value: f64, name: Option<&str>) -> Result<()> {
        Store::append(self, time, value, name)
    }

    fn flush(&mut self) -> Result<()> {
        Store::flush(self)
    }

    fn bytes_written(&self) -> u64 {
        self.stats.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gstore-store-tests").join(name);
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

    #[test]
    fn append_rolls_segments_at_size() {
        let dir = tmp_dir("roll");
        let mut store = Store::open(&dir, small_cfg()).unwrap();
        for i in 0..2_000u64 {
            store
                .append(
                    TimeStamp::from_micros(i * 500),
                    (i % 97) as f64,
                    Some("sig"),
                )
                .unwrap();
        }
        let stats = store.close().unwrap();
        assert!(
            stats.segments_rolled >= 2,
            "rolled {}",
            stats.segments_rolled
        );
        assert_eq!(stats.frames_appended, 2_000);
        let cat = catalog_segments(&dir).unwrap();
        assert!(cat.len() >= 3);
        let total_frames: u64 = cat.iter().map(|s| s.frames).sum();
        assert_eq!(total_frames, 2_000);
    }

    #[test]
    fn small_segment_budget_clamps_block_size() {
        // With default (16 KiB) blocks, a 1 KiB segment budget would
        // never see a block flush, so rolls could never trigger; open
        // must clamp the block size to the segment budget.
        let dir = tmp_dir("clamp");
        let cfg = StoreConfig {
            segment_bytes: 1024,
            ..StoreConfig::default()
        };
        let mut store = Store::open(&dir, cfg).unwrap();
        for i in 0..300u64 {
            store
                .append(TimeStamp::from_micros(i * 500), i as f64, Some("sig"))
                .unwrap();
        }
        let stats = store.close().unwrap();
        assert!(
            stats.segments_rolled >= 2,
            "a ~3.8 KiB recording must roll 1 KiB segments (rolled {})",
            stats.segments_rolled
        );
    }

    #[test]
    fn append_rejects_time_regression() {
        let dir = tmp_dir("order");
        let mut store = Store::open(&dir, small_cfg()).unwrap();
        store.append(TimeStamp::from_millis(10), 1.0, None).unwrap();
        // Equal time is legal.
        store.append(TimeStamp::from_millis(10), 2.0, None).unwrap();
        let err = store
            .append(TimeStamp::from_millis(9), 3.0, None)
            .unwrap_err();
        assert!(matches!(err, ScopeError::TupleOrder { .. }), "{err}");
    }

    #[test]
    fn reopen_resumes_where_append_left_off() {
        let dir = tmp_dir("reopen");
        {
            let mut store = Store::open(&dir, small_cfg()).unwrap();
            for i in 0..100u64 {
                store
                    .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("a"))
                    .unwrap();
            }
            store.close().unwrap();
        }
        let mut store = Store::open(&dir, small_cfg()).unwrap();
        assert_eq!(store.last_time(), Some(TimeStamp::from_micros(99_000)));
        // Appending before the recovered watermark is rejected.
        assert!(store
            .append(TimeStamp::from_micros(50_000), 0.0, Some("a"))
            .is_err());
        store
            .append(TimeStamp::from_micros(99_000), 1.0, Some("a"))
            .unwrap();
        store.close().unwrap();
    }

    #[test]
    fn torn_tail_recovery_salvages_and_truncates() {
        let dir = tmp_dir("torn");
        {
            let mut store = Store::open(&dir, small_cfg()).unwrap();
            for i in 0..40u64 {
                store
                    .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("a"))
                    .unwrap();
            }
            // Flush blocks but do NOT seal cleanly: simulate a crash by
            // forgetting the store after a manual flush, then tearing
            // the file below.
            store.flush().unwrap();
            std::mem::forget(store);
        }
        // Tear 3 bytes off the active segment's last block.
        let cat = catalog_segments(&dir).unwrap();
        let active = cat.last().unwrap();
        let len = std::fs::metadata(&active.path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&active.path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let store = Store::open(&dir, small_cfg()).unwrap();
        let stats = store.stats();
        assert_eq!(stats.recovery_truncations, 1);
        assert!(stats.salvaged_frames > 0);
        // At most one frame lost: 40 appended, ≥39 survive.
        let survived = store.last_time().unwrap().as_micros();
        assert!(survived >= 38_000, "survived to {survived}");
    }

    #[test]
    fn sink_trait_object_records_frames() {
        let dir = tmp_dir("sink");
        let store = Store::open(&dir, small_cfg()).unwrap();
        let mut sink: Box<dyn TupleSink> = Box::new(store);
        sink.write_parts(TimeStamp::from_millis(1), 0.5, Some("s"))
            .unwrap();
        sink.write_tuple(&gscope::Tuple::new(TimeStamp::from_millis(2), 1.5, "s"))
            .unwrap();
        sink.flush().unwrap();
        drop(sink);
        let cat = catalog_segments(&dir).unwrap();
        let frames: u64 = cat.iter().map(|s| s.frames).sum();
        assert_eq!(frames, 2);
    }

    #[test]
    fn salvaged_frames_replay_through_reopen_chain() {
        // Repeatedly tear the tail and reopen; every reopen must
        // succeed and the watermark must never move backwards.
        let dir = tmp_dir("chain");
        let mut last_watermark = 0u64;
        {
            let mut store = Store::open(&dir, small_cfg()).unwrap();
            for i in 0..200u64 {
                store
                    .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("x"))
                    .unwrap();
            }
            store.flush().unwrap();
            std::mem::forget(store);
        }
        for cut in [1u64, 2, 7, 13] {
            let cat = catalog_segments(&dir).unwrap();
            let active = cat.iter().rfind(|s| s.tier == 0).unwrap();
            let len = std::fs::metadata(&active.path).unwrap().len();
            if len > cut + crate::segment::SEG_HEADER_LEN {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&active.path)
                    .unwrap()
                    .set_len(len - cut)
                    .unwrap();
            }
            let store = Store::open(&dir, small_cfg()).unwrap();
            if let Some(t) = store.last_time() {
                assert!(t.as_micros() + 20_000 >= last_watermark);
                last_watermark = t.as_micros();
            }
            store.close().unwrap();
        }
    }
}
