//! The index-aware query planner.
//!
//! Planning order — each stage can only *shrink* the work of the next:
//!
//! 1. **Sources**: discover stores and post-mortem bundles under the
//!    root; `within=` drops whole sources by label.
//! 2. **Index**: per tier-0 segment, read the `.gidx` sidecar (a probe
//!    is one sidecar read plus one `stat` of the segment — the segment
//!    file itself stays closed). Missing/stale/corrupt sidecars are
//!    rebuilt once and re-persisted.
//! 3. **Postings**: look up the posting set of every class predicate
//!    (`name` → Signal ∪ Span terms, `thread` → Thread, `severity` →
//!    Severity) and intersect by block offset. An empty intersection
//!    skips the segment without opening it.
//! 4. **Pruning**: drop surviving blocks whose `[first_us, last_us]`
//!    misses the time range or whose `[min, max]` value envelope makes
//!    every value predicate infeasible.
//! 5. **Decode**: only now open the segment, seek straight to each
//!    surviving block via its header offset, and run every decoded
//!    frame through the exact same [`frame_matches`] filter a linear
//!    replay would use.
//!
//! [`QueryStats`] counts each stage, so tests can assert the negative
//! space: segments without a match are *never opened*.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gscope::{Result, ScopeError, TupleSource};
use gstore::segment::{
    decode_records, parse_segment_file_name, read_block_header_at, read_block_payload,
};
use gstore::{load_or_rebuild_index, split_thread, StoreReader, TermClass};

use crate::expr::{glob_match, Query};

/// One searchable tuple store under the query root.
#[derive(Clone, Debug)]
pub struct SourceRef {
    /// Display label (`store`, `postmortem-0003/spans`, …) — the
    /// string `within=` globs against.
    pub label: String,
    /// The store directory.
    pub path: PathBuf,
}

/// One matching tuple.
#[derive(Clone, Debug)]
pub struct Match {
    /// Label of the source the tuple came from.
    pub source: String,
    /// Sample time, microseconds.
    pub time_us: u64,
    /// Sample value.
    pub value: f64,
    /// Signal name (`None` for unnamed streams).
    pub name: Option<Arc<str>>,
}

impl PartialEq for Match {
    fn eq(&self, other: &Self) -> bool {
        // Bit-exact value comparison: the planner/reference
        // equivalence property must not be blurred by NaN != NaN or
        // -0.0 == 0.0.
        self.source == other.source
            && self.time_us == other.time_us
            && self.value.to_bits() == other.value.to_bits()
            && self.name.as_deref() == other.name.as_deref()
    }
}

/// Work counters for one query — the proof of what was *not* done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Sources searched (after `within=` filtering).
    pub sources: u64,
    /// Tier-0 segments considered across those sources.
    pub segments_total: u64,
    /// Segments whose data file was opened for block reads.
    pub segments_opened: u64,
    /// Segments dismissed from the index alone (file never opened).
    pub segments_skipped: u64,
    /// Sidecars that were missing/stale/corrupt and rebuilt.
    pub indexes_rebuilt: u64,
    /// Blocks whose payload was read and decoded.
    pub blocks_decoded: u64,
    /// Candidate blocks pruned by time/value envelopes.
    pub blocks_pruned: u64,
    /// Frames decoded out of opened blocks.
    pub frames_decoded: u64,
    /// Frames that matched every predicate.
    pub frames_matched: u64,
}

/// Matches plus the work it took to find them.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Matching tuples in (source, time) order.
    pub matches: Vec<Match>,
    /// Planner work counters.
    pub stats: QueryStats,
}

/// Conservative envelope for frames that could match every class
/// predicate inside one block.
#[derive(Clone, Copy, Debug)]
struct Bounds {
    first_us: u64,
    last_us: u64,
    min_v: f64,
    max_v: f64,
}

/// Does one frame satisfy every predicate of `q` (ignoring `within`,
/// which selects sources, not frames)? This single function is both
/// the planner's last stage and the linear reference filter — they
/// cannot disagree on semantics, only on how much work finding the
/// frames took.
#[must_use]
pub fn frame_matches(q: &Query, time_us: u64, value: f64, name: Option<&str>) -> bool {
    if let Some(t0) = q.from_us {
        if time_us < t0 {
            return false;
        }
    }
    if let Some(t1) = q.to_us {
        if time_us > t1 {
            return false;
        }
    }
    let n = name.unwrap_or("");
    if let Some(pat) = &q.name {
        // A query names either the full signal or a span's base label
        // (`scope.tick` finds `scope.tick#t3`).
        let base = split_thread(n).map(|(base, _)| base);
        if !glob_match(pat, n) && !base.is_some_and(|b| glob_match(pat, b)) {
            return false;
        }
    }
    if let Some(tid) = q.thread {
        match split_thread(n) {
            Some((_, t)) if t == tid => {}
            _ => return false,
        }
    }
    if q.breach && !n.starts_with("breach.") {
        return false;
    }
    q.value.iter().all(|(cmp, rhs)| cmp.matches(value, *rhs))
}

/// Lists a store's tier-`tier` segments in sequence (= time) order.
/// Tier 0 is the raw log; tiers above it are glod min/max envelope
/// pyramids, searchable with the same planner.
fn tier_segments(dir: &Path, tier: u16) -> std::io::Result<Vec<PathBuf>> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((seq, t)) = parse_segment_file_name(name) {
            if t == tier {
                found.push((seq, entry.path()));
            }
        }
    }
    found.sort_by_key(|(seq, _)| *seq);
    Ok(found.into_iter().map(|(_, p)| p).collect())
}

fn dir_has_segments(dir: &Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            e.file_name()
                .to_str()
                .and_then(parse_segment_file_name)
                .is_some()
        })
    })
}

/// A query root: a plain store, a single post-mortem bundle, or a
/// flight directory holding several bundles (any mix).
#[derive(Debug)]
pub struct QueryEngine {
    sources: Vec<SourceRef>,
}

impl QueryEngine {
    /// Discovers every searchable source under `root`:
    ///
    /// * `.gseg` files directly under `root` → source `store`;
    /// * `root` itself a bundle (`meta.txt`) → `stats` and `spans`;
    /// * `postmortem-NNNN/` children → `postmortem-NNNN/stats` and
    ///   `postmortem-NNNN/spans`.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] when `root` cannot be listed or holds no
    /// recognisable store or bundle.
    pub fn open(root: impl AsRef<Path>) -> Result<QueryEngine> {
        let root = root.as_ref();
        let mut sources = Vec::new();
        let mut push = |label: String, path: PathBuf| {
            if dir_has_segments(&path) {
                sources.push(SourceRef { label, path });
            }
        };
        push("store".to_string(), root.to_path_buf());
        if root.join("meta.txt").is_file() {
            push("stats".to_string(), root.join("stats"));
            push("spans".to_string(), root.join("spans"));
        }
        let mut bundles: Vec<String> = std::fs::read_dir(root)
            .map_err(ScopeError::Io)?
            .flatten()
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().to_str().map(str::to_string))
            .filter(|n| n.starts_with("postmortem-"))
            .collect();
        bundles.sort();
        for bundle in bundles {
            push(format!("{bundle}/stats"), root.join(&bundle).join("stats"));
            push(format!("{bundle}/spans"), root.join(&bundle).join("spans"));
        }
        if sources.is_empty() {
            return Err(ScopeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{}: no store or post-mortem bundle found", root.display()),
            )));
        }
        Ok(QueryEngine { sources })
    }

    /// Every discovered source, in search order.
    #[must_use]
    pub fn sources(&self) -> &[SourceRef] {
        &self.sources
    }

    fn selected<'a>(&'a self, q: &'a Query) -> impl Iterator<Item = &'a SourceRef> {
        self.sources.iter().filter(move |s| {
            q.within
                .as_ref()
                .is_none_or(|pat| glob_match(pat, &s.label))
        })
    }

    /// Runs `q` through the index-aware planner.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on unreadable segments or sidecar rebuild
    /// failures; damaged blocks are skipped, not fatal.
    pub fn query(&self, q: &Query) -> Result<QueryOutcome> {
        self.query_tier(q, 0)
    }

    /// Runs `q` against one glod pyramid tier: tier 0 searches every
    /// raw frame; a coarser tier searches only its pre-decimated
    /// min/max envelope frames — same planner, a fraction of the
    /// blocks.
    ///
    /// # Errors
    ///
    /// Same as [`QueryEngine::query`].
    pub fn query_tier(&self, q: &Query, tier: u16) -> Result<QueryOutcome> {
        let mut stats = QueryStats::default();
        let mut matches = Vec::new();
        for source in self.selected(q) {
            stats.sources += 1;
            for seg in tier_segments(&source.path, tier).map_err(ScopeError::Io)? {
                stats.segments_total += 1;
                query_segment(&seg, &source.label, q, &mut stats, &mut matches)
                    .map_err(ScopeError::Io)?;
            }
        }
        Ok(QueryOutcome { matches, stats })
    }

    /// The reference implementation: replay every selected source
    /// linearly through [`StoreReader`] and filter with the same
    /// [`frame_matches`]. Exists so tests (and the benchmark) can
    /// prove the planner returns byte-identical results for a fraction
    /// of the work.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] from the underlying reader.
    pub fn linear_scan(&self, q: &Query) -> Result<QueryOutcome> {
        let mut stats = QueryStats::default();
        let mut matches = Vec::new();
        for source in self.selected(q) {
            stats.sources += 1;
            let mut reader = StoreReader::open(&source.path)?;
            while let Some(t) = reader.next_tuple()? {
                if frame_matches(q, t.time.as_micros(), t.value, t.name.as_deref()) {
                    stats.frames_matched += 1;
                    matches.push(Match {
                        source: source.label.clone(),
                        time_us: t.time.as_micros(),
                        value: t.value,
                        name: t.name,
                    });
                }
            }
            let r = reader.stats();
            stats.segments_total += r.segments_indexed;
            stats.segments_opened += r.segments_indexed;
            stats.blocks_decoded += r.blocks_decoded;
            stats.frames_decoded += r.frames_decoded;
        }
        Ok(QueryOutcome { matches, stats })
    }
}

/// Plans and (only if necessary) decodes one segment.
fn query_segment(
    seg: &Path,
    label: &str,
    q: &Query,
    stats: &mut QueryStats,
    out: &mut Vec<Match>,
) -> std::io::Result<()> {
    let (idx, rebuilt) = load_or_rebuild_index(seg)?;
    stats.indexes_rebuilt += u64::from(rebuilt);

    // One posting set per class predicate; a frame matching the whole
    // query must appear in every one of them.
    let mut sets: Vec<BTreeMap<u64, Bounds>> = Vec::new();
    if let Some(pat) = &q.name {
        let mut set = BTreeMap::new();
        if pat.contains('*') {
            for class in [TermClass::Signal, TermClass::Span] {
                for term in idx.terms_of(class).filter(|t| glob_match(pat, &t.name)) {
                    union_postings(&mut set, term);
                }
            }
        } else {
            for class in [TermClass::Signal, TermClass::Span] {
                if let Some(term) = idx.find(class, pat) {
                    union_postings(&mut set, term);
                }
            }
        }
        sets.push(set);
    }
    if let Some(tid) = q.thread {
        let mut set = BTreeMap::new();
        if let Some(term) = idx.find(TermClass::Thread, &tid.to_string()) {
            union_postings(&mut set, term);
        }
        sets.push(set);
    }
    if q.breach {
        let mut set = BTreeMap::new();
        if let Some(term) = idx.find(TermClass::Severity, "breach") {
            union_postings(&mut set, term);
        }
        sets.push(set);
    }
    if sets.is_empty() {
        // No class predicate: every frame is a candidate. Each frame
        // carries exactly one Signal term, so the union over the
        // Signal class covers the whole segment.
        let mut set = BTreeMap::new();
        for term in idx.terms_of(TermClass::Signal) {
            union_postings(&mut set, term);
        }
        sets.push(set);
    }

    // Intersect by block offset, tightening the envelope: a matching
    // frame lies in every set, so its time/value sit inside the
    // *intersection* of the per-set envelopes.
    sets.sort_by_key(BTreeMap::len);
    let mut candidates = sets.remove(0);
    for set in &sets {
        candidates.retain(|offset, b| {
            let Some(o) = set.get(offset) else {
                return false;
            };
            b.first_us = b.first_us.max(o.first_us);
            b.last_us = b.last_us.min(o.last_us);
            b.min_v = b.min_v.max(o.min_v);
            b.max_v = b.max_v.min(o.max_v);
            true
        });
    }

    // Time / value envelope pruning.
    candidates.retain(|_, b| {
        let alive = q.from_us.is_none_or(|t0| b.last_us >= t0)
            && q.to_us.is_none_or(|t1| b.first_us <= t1)
            && q.value
                .iter()
                .all(|(cmp, rhs)| cmp.feasible(b.min_v, b.max_v, *rhs));
        if !alive {
            stats.blocks_pruned += 1;
        }
        alive
    });

    if candidates.is_empty() {
        stats.segments_skipped += 1;
        return Ok(());
    }

    // Only now does the segment file get opened; block offsets come
    // straight from the postings, so no header scan either.
    let mut file = File::open(seg)?;
    stats.segments_opened += 1;
    for &offset in candidates.keys() {
        let Some(meta) = read_block_header_at(&mut file, offset)? else {
            continue;
        };
        let Some(payload) = read_block_payload(&mut file, &meta)? else {
            continue; // CRC mismatch: same skip a linear replay does
        };
        let (frames, _) = decode_records(&payload, meta.first_us);
        stats.blocks_decoded += 1;
        stats.frames_decoded += frames.len() as u64;
        for f in frames {
            if frame_matches(q, f.time_us, f.value, f.name.as_deref()) {
                stats.frames_matched += 1;
                out.push(Match {
                    source: label.to_string(),
                    time_us: f.time_us,
                    value: f.value,
                    name: f.name,
                });
            }
        }
    }
    Ok(())
}

fn union_postings(set: &mut BTreeMap<u64, Bounds>, term: &gstore::TermEntry) {
    for p in &term.postings {
        set.entry(p.offset)
            .and_modify(|b| {
                b.first_us = b.first_us.min(p.first_us);
                b.last_us = b.last_us.max(p.last_us);
                b.min_v = b.min_v.min(p.min_value);
                b.max_v = b.max_v.max(p.max_value);
            })
            .or_insert(Bounds {
                first_us: p.first_us,
                last_us: p.last_us,
                min_v: p.min_value,
                max_v: p.max_value,
            });
    }
}
