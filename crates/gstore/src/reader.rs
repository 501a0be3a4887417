//! The read side: a seekable, streaming reader over a store directory.
//!
//! Seek cost is the acceptance-critical property: `seek(T)` does a
//! binary search over per-segment first-frame times (gathered from one
//! 24-byte header read per segment at open), builds the block index
//! for the **one** target segment, binary-searches it, and decodes the
//! **one** landing block. Earlier segments are never scanned, earlier
//! blocks never decoded — [`ReaderStats`] counts every probe, index
//! build, and decoded block so tests can assert exactly that.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use gel::TimeStamp;
use gscope::{Result, ScopeError, Tuple, TupleSource};

use crate::segment::{
    decode_records, frame_to_tuple, parse_segment_file_name, read_block_payload, read_seg_header,
    scan_headers, BlockMeta, SalvagedFrame, BLOCK_HEADER_LEN, SEG_HEADER_LEN,
};

/// Work counters for one [`StoreReader`] — the observable evidence
/// that seeks are O(log n) and never touch prior segments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReaderStats {
    /// Segments whose full block index was built (header scan).
    pub segments_indexed: u64,
    /// Blocks whose payload was read and decoded.
    pub blocks_decoded: u64,
    /// Frames decoded out of those blocks.
    pub frames_decoded: u64,
    /// Binary-search probes across segment and block indexes.
    pub index_probes: u64,
    /// Blocks skipped because their CRC did not match.
    pub crc_skipped_blocks: u64,
}

/// One segment as the reader sees it.
#[derive(Debug)]
struct SegSlot {
    path: PathBuf,
    file: File,
    /// Time of the segment's first frame (from its first block header).
    first_us: u64,
    /// Block index, built lazily — only for segments actually read.
    blocks: Option<Vec<BlockMeta>>,
    /// Next block to decode within `blocks`.
    next_block: usize,
}

/// Streaming, seekable reader over the segments of one tier.
///
/// Implements [`TupleSource`], so replay paths consume it exactly like
/// a text [`TupleReader`](gscope::TupleReader).
#[derive(Debug)]
pub struct StoreReader {
    dir: PathBuf,
    tier: u16,
    segments: Vec<SegSlot>,
    cur_seg: usize,
    cur_frames: Vec<SalvagedFrame>,
    cur_idx: usize,
    from_us: Option<u64>,
    to_us: Option<u64>,
    finished: bool,
    stats: ReaderStats,
}

impl StoreReader {
    /// Opens the tier-0 (full-rate) log under `dir`.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] when the directory cannot be listed. Damaged
    /// or empty segment files are skipped, never fatal.
    pub fn open(dir: impl AsRef<Path>) -> Result<StoreReader> {
        StoreReader::open_tier(dir, 0)
    }

    /// Opens one downsampling tier under `dir` (0 = full rate,
    /// 1 = min/max envelopes).
    ///
    /// # Errors
    ///
    /// Same as [`StoreReader::open`].
    pub fn open_tier(dir: impl AsRef<Path>, tier: u16) -> Result<StoreReader> {
        let mut reader = StoreReader {
            dir: dir.as_ref().to_path_buf(),
            tier,
            segments: Vec::new(),
            cur_seg: 0,
            cur_frames: Vec::new(),
            cur_idx: 0,
            from_us: None,
            to_us: None,
            finished: false,
            stats: ReaderStats::default(),
        };
        reader.discover_segments(None)?;
        Ok(reader)
    }

    /// Scans the directory for segment files of this tier with
    /// `seq > after` (all of them when `after` is `None`) and appends
    /// readable ones as slots.
    fn discover_segments(&mut self, after: Option<u64>) -> Result<()> {
        let mut named: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir).map_err(ScopeError::Io)? {
            let entry = entry.map_err(ScopeError::Io)?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((seq, t)) = parse_segment_file_name(name) {
                if t == self.tier && after.is_none_or(|a| seq > a) {
                    named.push((seq, entry.path()));
                }
            }
        }
        named.sort_by_key(|(seq, _)| *seq);
        for (_, path) in named {
            let Ok(mut file) = File::open(&path) else {
                continue;
            };
            if read_seg_header(&mut file).is_err() {
                continue; // torn header: nothing readable
            }
            // One header read gives the segment's first frame time —
            // the segment-level index is O(1) per segment, no scan.
            let Some(first_us) = first_block_time(&mut file) else {
                continue; // no complete blocks yet
            };
            self.segments.push(SegSlot {
                path,
                file,
                first_us,
                blocks: None,
                next_block: 0,
            });
        }
        Ok(())
    }

    /// Tail-follow: picks up blocks appended to the newest segment and
    /// segment files created since open (or the last refresh), without
    /// disturbing the current stream position. Returns `true` when
    /// unread data now lies at or ahead of the position — after a
    /// `refresh()` that returns `true`, `next_tuple` resumes yielding
    /// even if the reader had previously finished.
    ///
    /// This is the live catch-up contract used by the `gnet` hub: a
    /// backpressured client replays from the store while the store is
    /// still being appended to, alternating `next_tuple` drains with
    /// store flushes and `refresh()` calls until it reaches the head.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on directory or header read failure.
    pub fn refresh(&mut self) -> Result<bool> {
        // Only the newest segment can grow; rebuild its block index if
        // one was already built (an unbuilt index is never stale —
        // `ensure_index` scans the file as it is at that moment).
        if let Some(last) = self.segments.last_mut() {
            if last.blocks.is_some() {
                let scan = scan_headers(&mut last.file).map_err(ScopeError::Io)?;
                last.blocks = Some(scan.blocks);
            }
        }
        let last_seq = self.segments.last().and_then(|s| {
            s.path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(parse_segment_file_name)
                .map(|(seq, _)| seq)
        });
        self.discover_segments(last_seq)?;
        // Anything unread at/ahead of the position? Segments behind a
        // seek target carry `next_block == usize::MAX`; consumed ones
        // have `next_block == blocks.len()`.
        let mut resume = None;
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.next_block == usize::MAX {
                continue;
            }
            let has_unread = match &seg.blocks {
                Some(blocks) => seg.next_block < blocks.len(),
                // Unindexed slots always hold at least one block.
                None => true,
            };
            if has_unread {
                resume = Some(i);
                break;
            }
        }
        let pending = resume.is_some() || self.cur_idx < self.cur_frames.len();
        if let Some(i) = resume {
            self.finished = false;
            if self.cur_seg > i {
                self.cur_seg = i;
            }
        }
        Ok(pending)
    }

    /// Number of readable segments in this tier.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Paths of the readable segments, oldest first.
    pub fn segment_paths(&self) -> Vec<&Path> {
        self.segments.iter().map(|s| s.path.as_path()).collect()
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> ReaderStats {
        self.stats
    }

    /// Stops the stream after `to` (inclusive).
    pub fn set_end(&mut self, to: TimeStamp) {
        self.to_us = Some(to.as_micros());
    }

    /// Positions the stream at the first frame with `time >= from`.
    ///
    /// Does a binary search over segment first-times, builds the block
    /// index for the one target segment, binary-searches its blocks,
    /// and decodes only the landing block — O(log segments +
    /// log blocks) probes, no prior-segment I/O.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on read failure.
    pub fn seek(&mut self, from: TimeStamp) -> Result<()> {
        let from_us = from.as_micros();
        self.from_us = Some(from_us);
        self.cur_frames.clear();
        self.cur_idx = 0;
        self.finished = false;
        if self.segments.is_empty() {
            self.cur_seg = 0;
            return Ok(());
        }
        // Last segment whose first frame is <= from (frames before
        // `from` inside it are skipped after the block lands).
        let mut lo = 0usize;
        let mut hi = self.segments.len();
        while lo < hi {
            self.stats.index_probes += 1;
            let mid = (lo + hi) / 2;
            if self.segments[mid].first_us <= from_us {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let seg_idx = lo.saturating_sub(1);
        self.cur_seg = seg_idx;
        // Rewind any segment state a previous scan/seek left behind.
        for (i, seg) in self.segments.iter_mut().enumerate() {
            seg.next_block = if i < seg_idx { usize::MAX } else { 0 };
        }
        self.ensure_index(seg_idx)?;
        let blocks = self.segments[seg_idx]
            .blocks
            .as_ref()
            .expect("index just built");
        let mut lo = 0usize;
        let mut hi = blocks.len();
        while lo < hi {
            self.stats.index_probes += 1;
            let mid = (lo + hi) / 2;
            if blocks[mid].first_us <= from_us {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.segments[seg_idx].next_block = lo.saturating_sub(1);
        Ok(())
    }

    /// Builds the block index for segment `i` if not already built.
    fn ensure_index(&mut self, i: usize) -> Result<()> {
        let seg = &mut self.segments[i];
        if seg.blocks.is_none() {
            let scan = scan_headers(&mut seg.file).map_err(ScopeError::Io)?;
            seg.blocks = Some(scan.blocks);
            self.stats.segments_indexed += 1;
        }
        Ok(())
    }

    /// Decodes the next block into `cur_frames`; returns false at end
    /// of data (or past `to`).
    fn advance_block(&mut self) -> Result<bool> {
        while self.cur_seg < self.segments.len() {
            self.ensure_index(self.cur_seg)?;
            let seg = &mut self.segments[self.cur_seg];
            let blocks = seg.blocks.as_ref().expect("index ensured");
            if seg.next_block >= blocks.len() {
                self.cur_seg += 1;
                continue;
            }
            let meta = blocks[seg.next_block];
            if let Some(to) = self.to_us {
                if meta.first_us > to {
                    // Blocks (and segments) only move forward in time:
                    // nothing later can be in range. The block is left
                    // unconsumed so a later `set_end` + `refresh` can
                    // still reach it.
                    self.finished = true;
                    return Ok(false);
                }
            }
            seg.next_block += 1;
            match read_block_payload(&mut seg.file, &meta).map_err(ScopeError::Io)? {
                None => {
                    self.stats.crc_skipped_blocks += 1;
                    continue;
                }
                Some(payload) => {
                    let (frames, _) = decode_records(&payload, meta.first_us);
                    self.stats.blocks_decoded += 1;
                    self.stats.frames_decoded += frames.len() as u64;
                    self.cur_frames = frames;
                    self.cur_idx = 0;
                    if self.cur_frames.is_empty() {
                        continue;
                    }
                    return Ok(true);
                }
            }
        }
        self.finished = true;
        Ok(false)
    }
}

impl TupleSource for StoreReader {
    fn next_tuple(&mut self) -> Result<Option<Tuple>> {
        loop {
            if self.cur_idx < self.cur_frames.len() {
                let f = &self.cur_frames[self.cur_idx];
                self.cur_idx += 1;
                if let Some(to) = self.to_us {
                    if f.time_us > to {
                        self.finished = true;
                        return Ok(None);
                    }
                }
                if let Some(from) = self.from_us {
                    if f.time_us < from {
                        continue;
                    }
                }
                return Ok(Some(frame_to_tuple(f)));
            }
            if self.finished {
                return Ok(None);
            }
            if !self.advance_block()? {
                return Ok(None);
            }
        }
    }
}

/// Reads the first block header of a segment and returns its
/// `first_us`, or `None` when the file has no complete block header.
fn first_block_time(file: &mut File) -> Option<u64> {
    let len = file.seek(SeekFrom::End(0)).ok()?;
    if len < SEG_HEADER_LEN + BLOCK_HEADER_LEN {
        return None;
    }
    let mut header = [0u8; BLOCK_HEADER_LEN as usize];
    file.seek(SeekFrom::Start(SEG_HEADER_LEN)).ok()?;
    file.read_exact(&mut header).ok()?;
    let payload_len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if payload_len == 0 || payload_len > crate::segment::MAX_PAYLOAD_LEN {
        return None;
    }
    Some(u64::from_le_bytes(
        header[8..16].try_into().expect("8 bytes"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Store, StoreConfig};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gstore-reader-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// 10k frames, 1ms apart, small blocks/segments → many segments.
    fn build_store(dir: &PathBuf) -> (u64, u64) {
        let cfg = StoreConfig {
            block_bytes: 512,
            block_frames: 32,
            segment_bytes: 4096,
            ..StoreConfig::default()
        };
        let mut store = Store::open(dir, cfg).unwrap();
        for i in 0..10_000u64 {
            store
                .append(
                    TimeStamp::from_micros(i * 1_000),
                    i as f64,
                    Some(if i % 3 == 0 { "a" } else { "b" }),
                )
                .unwrap();
        }
        let stats = store.close().unwrap();
        (stats.segments_rolled, stats.blocks_flushed)
    }

    #[test]
    fn full_scan_returns_everything_in_order() {
        let dir = tmp_dir("scan");
        build_store(&dir);
        let mut r = StoreReader::open(&dir).unwrap();
        let tuples = r.collect_tuples().unwrap();
        assert_eq!(tuples.len(), 10_000);
        for (i, t) in tuples.iter().enumerate() {
            assert_eq!(t.time.as_micros(), i as u64 * 1_000);
            assert_eq!(t.value, i as f64);
        }
    }

    #[test]
    fn seek_lands_on_first_frame_at_or_after_target() {
        let dir = tmp_dir("seek");
        build_store(&dir);
        let mut r = StoreReader::open(&dir).unwrap();
        r.seek(TimeStamp::from_micros(7_654_321)).unwrap();
        let t = r.next_tuple().unwrap().unwrap();
        assert_eq!(t.time.as_micros(), 7_655_000);
        // Stream continues in order from there.
        let t2 = r.next_tuple().unwrap().unwrap();
        assert_eq!(t2.time.as_micros(), 7_656_000);
    }

    #[test]
    fn seek_before_start_and_past_end() {
        let dir = tmp_dir("seek-edges");
        build_store(&dir);
        let mut r = StoreReader::open(&dir).unwrap();
        r.seek(TimeStamp::ZERO).unwrap();
        assert_eq!(r.next_tuple().unwrap().unwrap().time.as_micros(), 0);
        let mut r = StoreReader::open(&dir).unwrap();
        r.seek(TimeStamp::from_secs(100)).unwrap();
        assert!(r.next_tuple().unwrap().is_none());
    }

    #[test]
    fn seek_skips_prior_segments_entirely() {
        let dir = tmp_dir("seek-cost");
        build_store(&dir);
        let mut r = StoreReader::open(&dir).unwrap();
        let n_segs = r.segment_count() as u64;
        assert!(n_segs >= 8, "need many segments, got {n_segs}");
        r.seek(TimeStamp::from_micros(8_000_000)).unwrap();
        let t = r.next_tuple().unwrap().unwrap();
        assert_eq!(t.time.as_micros(), 8_000_000);
        let s = r.stats();
        // The O(log n) contract, observed: exactly one segment's block
        // index was built, one block decoded, and the probe count is
        // logarithmic, not linear, in segments + blocks.
        assert_eq!(s.segments_indexed, 1, "{s:?}");
        assert_eq!(s.blocks_decoded, 1, "{s:?}");
        let blocks_per_seg = 16u64; // 4096B segment / ~256B block, upper bound
        let log_bound = n_segs.ilog2() as u64 + blocks_per_seg.ilog2() as u64 + 4;
        assert!(s.index_probes <= log_bound, "{s:?} vs bound {log_bound}");
        assert!(s.frames_decoded <= 64, "{s:?}");
    }

    #[test]
    fn range_replay_respects_from_and_to() {
        let dir = tmp_dir("range");
        build_store(&dir);
        let mut r = StoreReader::open(&dir).unwrap();
        r.seek(TimeStamp::from_micros(2_000_000)).unwrap();
        r.set_end(TimeStamp::from_micros(2_010_000));
        let tuples = r.collect_tuples().unwrap();
        assert_eq!(tuples.len(), 11); // inclusive on both ends
        assert_eq!(tuples[0].time.as_micros(), 2_000_000);
        assert_eq!(tuples[10].time.as_micros(), 2_010_000);
        // Early-stop: far fewer frames decoded than the store holds.
        assert!(r.stats().frames_decoded < 200, "{:?}", r.stats());
    }

    #[test]
    fn corrupt_block_is_skipped_not_fatal() {
        let dir = tmp_dir("skip-crc");
        build_store(&dir);
        // Flip a byte in the middle of the first segment's second block.
        let r = StoreReader::open(&dir).unwrap();
        let path = r.segment_paths()[0].to_path_buf();
        drop(r);
        let mut file = File::open(&path).unwrap();
        read_seg_header(&mut file).unwrap();
        let scan = scan_headers(&mut file).unwrap();
        assert!(scan.blocks.len() >= 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let off = scan.blocks[1].offset as usize + BLOCK_HEADER_LEN as usize + 2;
        bytes[off] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let mut r = StoreReader::open(&dir).unwrap();
        let tuples = r.collect_tuples().unwrap();
        assert_eq!(r.stats().crc_skipped_blocks, 1);
        // Exactly one block's frames are missing; order still holds.
        assert_eq!(
            tuples.len() as u64,
            10_000 - u64::from(scan.blocks[1].frames)
        );
        for w in tuples.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn refresh_follows_a_live_store() {
        let dir = tmp_dir("refresh");
        let cfg = StoreConfig {
            block_bytes: 512,
            block_frames: 32,
            segment_bytes: 4096,
            ..StoreConfig::default()
        };
        let mut store = Store::open(&dir, cfg).unwrap();
        for i in 0..500u64 {
            store
                .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("live"))
                .unwrap();
        }
        store.flush().unwrap();
        // Reader drains everything flushed so far and finishes.
        let mut r = StoreReader::open(&dir).unwrap();
        let first = r.collect_tuples().unwrap();
        assert_eq!(first.len(), 500);
        assert!(r.next_tuple().unwrap().is_none());
        // No new data: refresh reports nothing pending.
        assert!(!r.refresh().unwrap());
        // Append enough to grow the current segment AND roll new ones.
        for i in 500..2_500u64 {
            store
                .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("live"))
                .unwrap();
        }
        store.flush().unwrap();
        assert!(r.refresh().unwrap(), "new blocks and segments visible");
        let more = r.collect_tuples().unwrap();
        assert_eq!(more.len(), 2_000, "exactly the new frames, no replays");
        assert_eq!(more[0].time.as_micros(), 500_000);
        assert_eq!(more.last().unwrap().time.as_micros(), 2_499_000);
        // A second round while seeked mid-stream also works.
        for i in 2_500..2_600u64 {
            store
                .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("live"))
                .unwrap();
        }
        store.flush().unwrap();
        assert!(r.refresh().unwrap());
        let tail = r.collect_tuples().unwrap();
        assert_eq!(tail.len(), 100);
        store.close().unwrap();
    }

    #[test]
    fn tier1_reader_sees_minmax_envelopes() {
        let dir = tmp_dir("tier1");
        let cfg = StoreConfig {
            block_bytes: 256,
            block_frames: 16,
            segment_bytes: 1024,
            ..StoreConfig::default()
        };
        let mut store = Store::open(&dir, cfg).unwrap();
        for i in 0..3_000u64 {
            store
                .append(
                    TimeStamp::from_micros(i * 500),
                    (i as f64 * 0.01).sin(),
                    Some("w"),
                )
                .unwrap();
        }
        store.close().unwrap();
        let lod = crate::CompactorConfig {
            retain_bytes: Some(2048),
            ..crate::CompactorConfig::default()
        };
        crate::Compactor::new(&dir, lod).unwrap().drain().unwrap();
        // Retention bounded tier 0 (one segment of slack) ...
        let tier0: u64 = crate::catalog_segments(&dir)
            .unwrap()
            .iter()
            .filter(|s| s.tier == 0)
            .map(|s| s.bytes)
            .sum();
        assert!(tier0 <= 2048 + 1024 + 64, "tier0 {tier0}B over budget");
        // ... and evicted history reads back as min/max pairs.
        let mut r = StoreReader::open_tier(&dir, 1).unwrap();
        let tuples = r.collect_tuples().unwrap();
        assert!(!tuples.is_empty());
        assert_eq!(tuples.len() % 2, 0, "min/max pairs");
        for pair in tuples.chunks(2) {
            assert_eq!(pair[0].time, pair[1].time);
            assert!(pair[0].value <= pair[1].value, "min first, then max");
        }
        for w in tuples.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }
}
