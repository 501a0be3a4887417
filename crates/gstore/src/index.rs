//! The `.gidx` sidecar: a compact per-segment inverted index.
//!
//! Every sealed segment gets a sibling `seg-NNNNNNNN-tT.gidx` mapping
//! *terms* to posting lists. A term is a `(class, text)` pair derived
//! from tuple names at block-flush time; a posting points at one block
//! (by byte offset) and carries the term's per-block frame count, time
//! span, and value envelope — enough for a query planner to decide,
//! without opening the `.gseg` at all, whether a segment can match and
//! which blocks to decode.
//!
//! # On-disk layout
//!
//! ```text
//! gidx    := header body
//! header (32 B) := magic "GIX1" | version u16 | tier u16
//!                | term_count u32 | seg_len u64
//!                | body_len u32 | body_crc u32 | reserved u32
//! body    := term*
//! term    := class u8 | name_len uvarint | name bytes
//!          | count uvarint | first_us uvarint | span_us uvarint
//!          | vmin f64le | vmax f64le | n_postings uvarint | posting*
//! posting := offset_delta uvarint | first_us uvarint | span_us uvarint
//!          | count uvarint | vmin f64le | vmax f64le
//! ```
//!
//! `seg_len` binds the index to the exact segment length it describes:
//! a reader that finds `seg_len != len(.gseg)` must treat the sidecar
//! as stale and rebuild it from the segment (see
//! [`load_or_rebuild_index`]); `body_crc` (CRC32C over the body)
//! catches torn or bit-flipped sidecars the same way block CRCs do for
//! data. The sidecar is always derivable from the segment, so damage
//! here never loses data — only speed.
//!
//! # Term classes
//!
//! * [`TermClass::Signal`] — the full tuple name; every frame lands in
//!   exactly one signal term (the empty string stands for unnamed
//!   frames). Summing signal counts reproduces the segment frame count.
//! * [`TermClass::Span`] — for names following the `label#tN` span
//!   convention (the flight recorder writes span durations this way),
//!   the base label without the thread suffix.
//! * [`TermClass::Thread`] — the decimal `N` from a `#tN` suffix.
//! * [`TermClass::Severity`] — the literal term `breach` for names
//!   under the `breach.` prefix (deadline-miss tuples).
//!
//! Derivation happens once per distinct name per block, never on the
//! per-frame append path: the writer keeps one [`TermStat`] slot per
//! block-scoped name id and folds the slots into an [`IndexBuilder`]
//! at flush time.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use crate::codec::{crc32, get_uvarint, put_uvarint};
use crate::segment::{
    parse_segment_file_name, read_block_payload, read_seg_header, scan_headers, BLOCK_HEADER_LEN,
};

/// Sidecar file magic.
pub const GIDX_MAGIC: [u8; 4] = *b"GIX1";
/// Sidecar format version written by this crate.
pub const GIDX_VERSION: u16 = 1;
/// Sidecar header length in bytes.
pub const GIDX_HEADER_LEN: usize = 32;

/// What a term's text names; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TermClass {
    /// Full tuple name (empty string = unnamed frames).
    Signal = 0,
    /// Span base label (`label#tN` minus the `#tN`).
    Span = 1,
    /// Thread id from a `#tN` suffix, as decimal text.
    Thread = 2,
    /// Severity class; only `breach` exists today.
    Severity = 3,
}

impl TermClass {
    fn from_u8(b: u8) -> Option<TermClass> {
        match b {
            0 => Some(TermClass::Signal),
            1 => Some(TermClass::Span),
            2 => Some(TermClass::Thread),
            3 => Some(TermClass::Severity),
            _ => None,
        }
    }
}

/// One term's presence in one block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Posting {
    /// Byte offset of the block header in the `.gseg` — a resolver
    /// seeks straight there, no header scan needed.
    pub offset: u64,
    /// Time of the term's first frame in the block.
    pub first_us: u64,
    /// Time of the term's last frame in the block.
    pub last_us: u64,
    /// Frames of this term in the block.
    pub count: u64,
    /// Smallest value the term took in the block.
    pub min_value: f64,
    /// Largest value the term took in the block.
    pub max_value: f64,
}

/// One term: segment-wide aggregate plus its posting list.
#[derive(Clone, Debug, PartialEq)]
pub struct TermEntry {
    /// Term class.
    pub class: TermClass,
    /// Term text.
    pub name: String,
    /// Total frames across the segment.
    pub count: u64,
    /// Time of the first frame.
    pub first_us: u64,
    /// Time of the last frame.
    pub last_us: u64,
    /// Segment-wide value minimum.
    pub min_value: f64,
    /// Segment-wide value maximum.
    pub max_value: f64,
    /// Per-block postings, ascending by offset.
    pub postings: Vec<Posting>,
}

/// A decoded sidecar.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SegIndex {
    /// Downsampling tier of the segment (copied from its header).
    pub tier: u16,
    /// Length of the `.gseg` this index describes; a mismatch with the
    /// file on disk marks the index stale.
    pub seg_len: u64,
    /// Terms, sorted by `(class, name)`.
    pub terms: Vec<TermEntry>,
}

impl SegIndex {
    /// Looks a term up by class and exact text.
    pub fn find(&self, class: TermClass, name: &str) -> Option<&TermEntry> {
        self.terms
            .binary_search_by(|t| (t.class, t.name.as_str()).cmp(&(class, name)))
            .ok()
            .map(|i| &self.terms[i])
    }

    /// Terms of one class, in name order.
    pub fn terms_of(&self, class: TermClass) -> impl Iterator<Item = &TermEntry> {
        self.terms.iter().filter(move |t| t.class == class)
    }

    /// Total frames in the segment (sum of signal-class counts; every
    /// frame belongs to exactly one signal term).
    pub fn frames(&self) -> u64 {
        self.terms_of(TermClass::Signal).map(|t| t.count).sum()
    }

    /// Time of the segment's first frame, if it has any.
    pub fn first_us(&self) -> Option<u64> {
        self.terms_of(TermClass::Signal).map(|t| t.first_us).min()
    }

    /// Time of the segment's last frame, if it has any.
    pub fn last_us(&self) -> Option<u64> {
        self.terms_of(TermClass::Signal).map(|t| t.last_us).max()
    }
}

/// Per-block running stats for one name, maintained on the append
/// path: a handful of compares and stores per frame.
#[derive(Clone, Copy, Debug)]
pub struct TermStat {
    /// Frames seen.
    pub count: u64,
    /// First frame time.
    pub first_us: u64,
    /// Last frame time.
    pub last_us: u64,
    /// Value minimum (`f64::min`, so NaNs never poison the bound).
    pub min_value: f64,
    /// Value maximum.
    pub max_value: f64,
}

impl Default for TermStat {
    fn default() -> Self {
        TermStat {
            count: 0,
            first_us: 0,
            last_us: 0,
            min_value: f64::INFINITY,
            max_value: f64::NEG_INFINITY,
        }
    }
}

impl TermStat {
    /// Folds one frame in. This sits on the store's append hot path,
    /// so the envelope uses plain comparisons instead of
    /// `f64::min`/`max`: same result (a NaN fails both compares and
    /// changes nothing, exactly like `min`/`max` ignoring the NaN
    /// operand), but the compiler emits two predictable branches that
    /// are almost never taken once the envelope has settled.
    #[inline]
    pub fn note(&mut self, time_us: u64, value: f64) {
        if self.count == 0 {
            self.first_us = time_us;
        }
        self.count += 1;
        self.last_us = time_us;
        if value < self.min_value {
            self.min_value = value;
        }
        if value > self.max_value {
            self.max_value = value;
        }
    }
}

/// Splits a `label#tN` name into `(label, N)`; `None` when the name
/// does not follow the span convention.
pub fn split_thread(name: &str) -> Option<(&str, u32)> {
    let (base, tid) = name.rsplit_once("#t")?;
    if base.is_empty() || tid.is_empty() || !tid.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((base, tid.parse().ok()?))
}

/// Accumulates per-block term stats into a [`SegIndex`].
#[derive(Debug, Default)]
pub struct IndexBuilder {
    terms: BTreeMap<(TermClass, Box<str>), TermEntry>,
}

impl IndexBuilder {
    /// Folds one name's per-block stats in, deriving span / thread /
    /// severity terms from the name text. `offset` is the block's byte
    /// offset; calls must come in ascending offset order.
    pub fn add_block(&mut self, offset: u64, name: Option<&str>, s: &TermStat) {
        if s.count == 0 {
            return;
        }
        self.add_term(TermClass::Signal, name.unwrap_or(""), offset, s);
        if let Some(n) = name {
            if let Some((base, tid)) = split_thread(n) {
                self.add_term(TermClass::Span, base, offset, s);
                let mut buf = [0u8; 10];
                self.add_term(TermClass::Thread, format_u32(tid, &mut buf), offset, s);
            }
            if n.starts_with("breach.") {
                self.add_term(TermClass::Severity, "breach", offset, s);
            }
        }
    }

    fn add_term(&mut self, class: TermClass, name: &str, offset: u64, s: &TermStat) {
        let e = self
            .terms
            .entry((class, name.into()))
            .or_insert_with(|| TermEntry {
                class,
                name: name.to_owned(),
                count: 0,
                first_us: s.first_us,
                last_us: s.last_us,
                min_value: f64::INFINITY,
                max_value: f64::NEG_INFINITY,
                postings: Vec::new(),
            });
        e.count += s.count;
        e.first_us = e.first_us.min(s.first_us);
        e.last_us = e.last_us.max(s.last_us);
        e.min_value = e.min_value.min(s.min_value);
        e.max_value = e.max_value.max(s.max_value);
        // Two names can derive the same term in one block (two span
        // labels on the same thread, say): merge into one posting.
        match e.postings.last_mut() {
            Some(p) if p.offset == offset => {
                p.count += s.count;
                p.first_us = p.first_us.min(s.first_us);
                p.last_us = p.last_us.max(s.last_us);
                p.min_value = p.min_value.min(s.min_value);
                p.max_value = p.max_value.max(s.max_value);
            }
            _ => e.postings.push(Posting {
                offset,
                first_us: s.first_us,
                last_us: s.last_us,
                count: s.count,
                min_value: s.min_value,
                max_value: s.max_value,
            }),
        }
    }

    /// Finishes the index for a segment of `seg_len` bytes.
    pub fn finish(self, tier: u16, seg_len: u64) -> SegIndex {
        SegIndex {
            tier,
            seg_len,
            terms: self.terms.into_values().collect(),
        }
    }
}

/// Formats a u32 into a stack buffer (the thread-term text) without
/// allocating.
fn format_u32(mut v: u32, buf: &mut [u8; 10]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("ascii digits")
}

/// The sidecar path for a segment path (`.gseg` → `.gidx`).
pub fn index_path(seg_path: &Path) -> PathBuf {
    seg_path.with_extension("gidx")
}

/// Serializes and writes a sidecar.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_index(path: &Path, idx: &SegIndex) -> std::io::Result<()> {
    let mut body = Vec::with_capacity(idx.terms.len() * 64);
    for t in &idx.terms {
        body.push(t.class as u8);
        put_uvarint(&mut body, t.name.len() as u64);
        body.extend_from_slice(t.name.as_bytes());
        put_uvarint(&mut body, t.count);
        put_uvarint(&mut body, t.first_us);
        put_uvarint(&mut body, t.last_us - t.first_us);
        body.extend_from_slice(&t.min_value.to_le_bytes());
        body.extend_from_slice(&t.max_value.to_le_bytes());
        put_uvarint(&mut body, t.postings.len() as u64);
        let mut prev_off = 0u64;
        for p in &t.postings {
            put_uvarint(&mut body, p.offset - prev_off);
            prev_off = p.offset;
            put_uvarint(&mut body, p.first_us);
            put_uvarint(&mut body, p.last_us - p.first_us);
            put_uvarint(&mut body, p.count);
            body.extend_from_slice(&p.min_value.to_le_bytes());
            body.extend_from_slice(&p.max_value.to_le_bytes());
        }
    }
    let mut out = Vec::with_capacity(GIDX_HEADER_LEN + body.len());
    out.extend_from_slice(&GIDX_MAGIC);
    out.extend_from_slice(&GIDX_VERSION.to_le_bytes());
    out.extend_from_slice(&idx.tier.to_le_bytes());
    out.extend_from_slice(&(idx.terms.len() as u32).to_le_bytes());
    out.extend_from_slice(&idx.seg_len.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    // The CRC covers every meaningful header byte before it plus the
    // body, so a flipped tier / seg_len / count bit is caught, not
    // silently served as wrong postings.
    let crc = crc32(crc32(0, &out[..24]), &body);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(&body);
    std::fs::write(path, out)
}

/// Parses sidecar bytes; `None` on any structural damage (bad magic,
/// version, CRC, or truncation).
fn parse_index(bytes: &[u8]) -> Option<SegIndex> {
    if bytes.len() < GIDX_HEADER_LEN || bytes[..4] != GIDX_MAGIC {
        return None;
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != GIDX_VERSION {
        return None;
    }
    let tier = u16::from_le_bytes([bytes[6], bytes[7]]);
    let term_count = u32::from_le_bytes(bytes[8..12].try_into().ok()?) as usize;
    let seg_len = u64::from_le_bytes(bytes[12..20].try_into().ok()?);
    let body_len = u32::from_le_bytes(bytes[20..24].try_into().ok()?) as usize;
    let body_crc = u32::from_le_bytes(bytes[24..28].try_into().ok()?);
    let body = bytes.get(GIDX_HEADER_LEN..GIDX_HEADER_LEN + body_len)?;
    if bytes.len() != GIDX_HEADER_LEN + body_len || crc32(crc32(0, &bytes[..24]), body) != body_crc
    {
        return None;
    }
    let mut terms = Vec::with_capacity(term_count.min(4096));
    let mut pos = 0usize;
    for _ in 0..term_count {
        let class = TermClass::from_u8(*body.get(pos)?)?;
        pos += 1;
        let name_len = get_uvarint(body, &mut pos)? as usize;
        let name = std::str::from_utf8(body.get(pos..pos + name_len)?).ok()?;
        pos += name_len;
        let count = get_uvarint(body, &mut pos)?;
        let first_us = get_uvarint(body, &mut pos)?;
        let last_us = first_us.checked_add(get_uvarint(body, &mut pos)?)?;
        let min_value = read_f64(body, &mut pos)?;
        let max_value = read_f64(body, &mut pos)?;
        let n_postings = get_uvarint(body, &mut pos)? as usize;
        let mut postings = Vec::with_capacity(n_postings.min(4096));
        let mut prev_off = 0u64;
        for _ in 0..n_postings {
            let offset = prev_off.checked_add(get_uvarint(body, &mut pos)?)?;
            prev_off = offset;
            let p_first = get_uvarint(body, &mut pos)?;
            let p_last = p_first.checked_add(get_uvarint(body, &mut pos)?)?;
            let p_count = get_uvarint(body, &mut pos)?;
            let p_min = read_f64(body, &mut pos)?;
            let p_max = read_f64(body, &mut pos)?;
            postings.push(Posting {
                offset,
                first_us: p_first,
                last_us: p_last,
                count: p_count,
                min_value: p_min,
                max_value: p_max,
            });
        }
        terms.push(TermEntry {
            class,
            name: name.to_owned(),
            count,
            first_us,
            last_us,
            min_value,
            max_value,
            postings,
        });
    }
    (pos == body.len()).then_some(SegIndex {
        tier,
        seg_len,
        terms,
    })
}

fn read_f64(body: &[u8], pos: &mut usize) -> Option<f64> {
    let b = body.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(f64::from_le_bytes(b.try_into().ok()?))
}

/// Reads a sidecar file.
///
/// # Errors
///
/// `InvalidData` on structural damage, I/O errors otherwise.
pub fn read_index(path: &Path) -> std::io::Result<SegIndex> {
    let bytes = std::fs::read(path)?;
    parse_index(&bytes).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: corrupt index sidecar", path.display()),
        )
    })
}

/// Outcome of probing a segment's sidecar without touching the
/// segment's data blocks.
#[derive(Debug)]
pub enum IndexProbe {
    /// Sidecar present, intact, and bound to the segment's exact
    /// current length.
    Valid(SegIndex),
    /// No sidecar on disk (unsealed segment, or pre-index store).
    Missing,
    /// Sidecar parses but describes a different segment length.
    Stale,
    /// Sidecar bytes are damaged (magic / version / CRC / truncation).
    Corrupt,
}

/// Probes the sidecar for `seg_path`. Only the sidecar and the
/// segment's file length are read — never segment data.
///
/// # Errors
///
/// Propagates I/O errors other than a missing sidecar.
pub fn probe_index(seg_path: &Path) -> std::io::Result<IndexProbe> {
    let bytes = match std::fs::read(index_path(seg_path)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(IndexProbe::Missing),
        Err(e) => return Err(e),
    };
    let Some(idx) = parse_index(&bytes) else {
        return Ok(IndexProbe::Corrupt);
    };
    if idx.seg_len != std::fs::metadata(seg_path)?.len() {
        return Ok(IndexProbe::Stale);
    }
    Ok(IndexProbe::Valid(idx))
}

/// Rebuilds a segment's index by decoding its blocks. CRC-failing
/// blocks contribute no postings (matching the reader, which skips
/// them). `limit` restricts the build to the first `limit` bytes —
/// recovery passes the trusted prefix length.
///
/// # Errors
///
/// Propagates I/O errors; `InvalidData` when even the segment header
/// is unreadable.
pub fn build_index(seg_path: &Path, limit: Option<u64>) -> std::io::Result<SegIndex> {
    let mut file = File::open(seg_path)?;
    let file_len = file.seek(SeekFrom::End(0))?;
    let limit = limit.unwrap_or(file_len).min(file_len);
    let (tier, _) = read_seg_header(&mut file)?;
    let scan = scan_headers(&mut file)?;
    let mut builder = IndexBuilder::default();
    // Small per-block scratch: distinct names per block are few, so a
    // linear-probe Vec beats hashing (same reasoning as the writer's
    // name table).
    let mut acc: Vec<(Option<std::sync::Arc<str>>, TermStat)> = Vec::new();
    for meta in &scan.blocks {
        if meta.offset + BLOCK_HEADER_LEN + u64::from(meta.payload_len) > limit {
            break;
        }
        let Some(payload) = read_block_payload(&mut file, meta)? else {
            continue;
        };
        let (frames, _) = crate::segment::decode_records(&payload, meta.first_us);
        acc.clear();
        for f in &frames {
            let key = f.name.as_deref();
            match acc.iter_mut().find(|(k, _)| k.as_deref() == key) {
                Some((_, s)) => s.note(f.time_us, f.value),
                None => {
                    let mut s = TermStat::default();
                    s.note(f.time_us, f.value);
                    acc.push((f.name.clone(), s));
                }
            }
        }
        for (name, s) in &acc {
            builder.add_block(meta.offset, name.as_deref(), s);
        }
    }
    Ok(builder.finish(tier, limit))
}

/// Rebuilt indexes of append heads, which are never persisted (see
/// [`load_or_rebuild_index`]); each is valid while its `seg_len`
/// matches the file.
fn head_indexes() -> &'static Mutex<HashMap<PathBuf, SegIndex>> {
    static CACHE: OnceLock<Mutex<HashMap<PathBuf, SegIndex>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Above this many entries [`head_indexes`] is dropped wholesale: one
/// entry per store directory a process reads.
const HEAD_INDEX_CAP: usize = 256;

/// True when `seg_path` is the newest tier-0 segment of its directory:
/// the segment a [`crate::Store`] may still be appending to.
fn is_append_head(seg_path: &Path) -> bool {
    let name = seg_path.file_name().and_then(|n| n.to_str());
    let Some((seq, 0)) = name.and_then(parse_segment_file_name) else {
        return false;
    };
    let Some(Ok(entries)) = seg_path.parent().map(std::fs::read_dir) else {
        return true;
    };
    !entries.flatten().any(|e| {
        e.file_name()
            .to_str()
            .and_then(parse_segment_file_name)
            .is_some_and(|(s, tier)| tier == 0 && s > seq)
    })
}

/// Loads a segment's sidecar, rebuilding it when missing, stale, or
/// corrupt. Returns the index and whether a rebuild happened — a
/// rebuild reads the whole segment, so planners count it as having
/// opened the file.
///
/// A rebuild is persisted best-effort, except for the append head: a
/// sidecar that matches its segment is the compactor's proof that the
/// segment is sealed, so the head's rebuild is kept in memory only.
///
/// # Errors
///
/// Propagates I/O errors from the rebuild path.
pub fn load_or_rebuild_index(seg_path: &Path) -> std::io::Result<(SegIndex, bool)> {
    if let IndexProbe::Valid(idx) = probe_index(seg_path)? {
        return Ok((idx, false));
    }
    let seg_len = std::fs::metadata(seg_path)?.len();
    let heads = head_indexes().lock().expect("head index cache poisoned");
    if let Some(idx) = heads.get(seg_path).filter(|i| i.seg_len == seg_len) {
        return Ok((idx.clone(), false));
    }
    drop(heads);
    let idx = build_index(seg_path, None)?;
    if is_append_head(seg_path) {
        let mut heads = head_indexes().lock().expect("head index cache poisoned");
        if heads.len() >= HEAD_INDEX_CAP {
            heads.clear();
        }
        heads.insert(seg_path.to_path_buf(), idx.clone());
    } else {
        // Persistence is an optimization; a read-only store dir
        // still answers queries from the in-memory rebuild.
        let _ = write_index(&index_path(seg_path), &idx);
    }
    Ok((idx, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentWriter;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gstore-index-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_index() -> SegIndex {
        let mut b = IndexBuilder::default();
        let s = TermStat {
            count: 3,
            first_us: 1_000,
            last_us: 3_000,
            min_value: -1.5,
            max_value: 7.25,
        };
        b.add_block(16, Some("scope.tick#t0"), &s);
        b.add_block(16, Some("breach.gel.iteration"), &s);
        b.add_block(900, Some("scope.tick#t0"), &s);
        b.add_block(900, None, &s);
        b.finish(0, 2_048)
    }

    #[test]
    fn split_thread_parses_span_names() {
        assert_eq!(split_thread("scope.tick#t3"), Some(("scope.tick", 3)));
        assert_eq!(split_thread("a#t12"), Some(("a", 12)));
        assert_eq!(split_thread("no.suffix"), None);
        assert_eq!(split_thread("#t1"), None);
        assert_eq!(split_thread("x#tnope"), None);
        assert_eq!(split_thread("x#t"), None);
    }

    #[test]
    fn builder_derives_all_term_classes() {
        let idx = sample_index();
        let sig = idx.find(TermClass::Signal, "scope.tick#t0").unwrap();
        assert_eq!(sig.count, 6);
        assert_eq!(sig.postings.len(), 2);
        assert_eq!(sig.postings[0].offset, 16);
        assert_eq!(sig.postings[1].offset, 900);
        assert!(idx.find(TermClass::Span, "scope.tick").is_some());
        assert!(idx.find(TermClass::Thread, "0").is_some());
        let sev = idx.find(TermClass::Severity, "breach").unwrap();
        assert_eq!(sev.count, 3);
        // Unnamed frames index under the empty signal term.
        assert_eq!(idx.find(TermClass::Signal, "").unwrap().count, 3);
        assert_eq!(idx.frames(), 3 * 4);
        assert_eq!(idx.first_us(), Some(1_000));
        assert_eq!(idx.last_us(), Some(3_000));
    }

    #[test]
    fn sidecar_round_trips() {
        let path = tmp("roundtrip.gidx");
        let idx = sample_index();
        write_index(&path, &idx).unwrap();
        assert_eq!(read_index(&path).unwrap(), idx);
    }

    #[test]
    fn corrupt_and_truncated_sidecars_are_rejected() {
        let path = tmp("damage.gidx");
        let idx = sample_index();
        write_index(&path, &idx).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Flip one body byte: CRC must catch it.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(read_index(&path).is_err());
        // Truncate mid-body.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(read_index(&path).is_err());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(read_index(&path).is_err());
    }

    #[test]
    fn probe_distinguishes_missing_stale_corrupt() {
        let seg = tmp("probe.gseg");
        let mut w = SegmentWriter::create(seg.clone(), 0, 0, false).unwrap();
        w.append(1_000, 1.0, Some("sig"));
        w.flush_block().unwrap();
        w.seal().unwrap();
        assert!(matches!(probe_index(&seg).unwrap(), IndexProbe::Valid(_)));
        // Stale: sidecar describes a different segment length.
        let mut idx = read_index(&index_path(&seg)).unwrap();
        idx.seg_len += 1;
        write_index(&index_path(&seg), &idx).unwrap();
        assert!(matches!(probe_index(&seg).unwrap(), IndexProbe::Stale));
        // Corrupt: flipped byte.
        let mut bytes = std::fs::read(index_path(&seg)).unwrap();
        *bytes.last_mut().unwrap() ^= 0x80;
        std::fs::write(index_path(&seg), &bytes).unwrap();
        assert!(matches!(probe_index(&seg).unwrap(), IndexProbe::Corrupt));
        // Missing.
        std::fs::remove_file(index_path(&seg)).unwrap();
        assert!(matches!(probe_index(&seg).unwrap(), IndexProbe::Missing));
        // load_or_rebuild recovers from all three and persists.
        let (rebuilt, was_rebuilt) = load_or_rebuild_index(&seg).unwrap();
        assert!(was_rebuilt);
        assert_eq!(rebuilt.find(TermClass::Signal, "sig").unwrap().count, 1);
        assert!(matches!(probe_index(&seg).unwrap(), IndexProbe::Valid(_)));
    }

    #[test]
    fn built_index_matches_writer_index() {
        // The index the writer accumulates block-by-block must be
        // byte-identical to one rebuilt from the sealed file.
        let seg = tmp("writer-vs-rebuild.gseg");
        let mut w = SegmentWriter::create(seg.clone(), 0, 0, false).unwrap();
        for i in 0..200u64 {
            let name = match i % 3 {
                0 => Some("gel.iteration#t0"),
                1 => Some("breach.scope.tick"),
                _ => None,
            };
            w.append(i * 500, (i as f64 * 0.37).sin() * 10.0, name);
            if i % 40 == 39 {
                w.flush_block().unwrap();
            }
        }
        w.flush_block().unwrap();
        w.seal().unwrap();
        let written = read_index(&index_path(&seg)).unwrap();
        let rebuilt = build_index(&seg, None).unwrap();
        assert_eq!(written, rebuilt);
        assert_eq!(written.frames(), 200);
    }

    #[test]
    fn nan_values_do_not_poison_bounds() {
        let mut s = TermStat::default();
        s.note(1, f64::NAN);
        s.note(2, 5.0);
        s.note(3, f64::NAN);
        assert_eq!(s.min_value, 5.0);
        assert_eq!(s.max_value, 5.0);
    }
}
