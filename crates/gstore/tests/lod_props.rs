//! glod pyramid properties: tier-K+1 envelope segments are exactly
//! `decimate_minmax` of their tier-K sources (including NaN values and
//! equal-timestamp frames), a compactor killed mid-fold recovers to a
//! pyramid with no torn or double-counted tier segments, and the
//! retention policy never deletes history that no tier >= 1 envelope
//! covers.

use gel::{TimeDelta, TimeStamp};
use gscope::{decimate_minmax, Cols};
use gstore::lod::{watermark, Compactor, CompactorConfig};
use gstore::segment::{read_block_payload, read_seg_header, scan_headers};
use gstore::{catalog_segments, probe_index, IndexProbe, SegmentInfo, Store, StoreConfig};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gstore-lod-props").join(name);
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

fn lod_cfg(group: u64) -> CompactorConfig {
    CompactorConfig {
        group,
        max_tier: 3,
        min_fold_frames: 1,
        block_frames: 16,
        ..CompactorConfig::default()
    }
}

/// Decodes every complete frame of one segment file, in order.
fn read_frames(path: &Path) -> Vec<(u64, f64, Option<String>)> {
    let mut file = File::open(path).unwrap();
    read_seg_header(&mut file).unwrap();
    let scan = scan_headers(&mut file).unwrap();
    let mut out = Vec::new();
    for meta in &scan.blocks {
        let Some(payload) = read_block_payload(&mut file, meta).unwrap() else {
            continue;
        };
        let (frames, _) = gstore::segment::decode_records(&payload, meta.first_us);
        for f in frames {
            out.push((f.time_us, f.value, f.name.as_deref().map(str::to_owned)));
        }
    }
    out
}

/// Groups frames per signal, preserving time order.
fn per_signal(frames: &[(u64, f64, Option<String>)]) -> BTreeMap<Option<String>, Vec<(u64, f64)>> {
    let mut map: BTreeMap<Option<String>, Vec<(u64, f64)>> = BTreeMap::new();
    for (t, v, name) in frames {
        map.entry(name.clone()).or_default().push((*t, *v));
    }
    map
}

/// The reference fold: `decimate_minmax` of `src` at `group`, as
/// `(band_time, lo, hi)` rows — band time is the first source frame
/// landing in the band (the same `i * width / n` partition the
/// decimation uses).
fn reference_bands(src: &[(u64, f64)], group: u64) -> Vec<(u64, f64, f64)> {
    let n = src.len();
    if n == 0 {
        return Vec::new();
    }
    let width = n.div_ceil(group as usize);
    let samples: Vec<Option<f64>> = src.iter().map(|&(_, v)| Some(v)).collect();
    let bands = decimate_minmax(Cols::from_slices(&samples, &[]), width);
    let mut first_t: Vec<Option<u64>> = vec![None; bands.len()];
    for (i, &(t, _)) in src.iter().enumerate() {
        let b = i * bands.len() / n;
        if first_t[b].is_none() {
            first_t[b] = Some(t);
        }
    }
    bands
        .into_iter()
        .enumerate()
        .map(|(b, band)| {
            let (lo, hi) = band.expect("every band holds >= 1 sample");
            (first_t[b].unwrap(), lo, hi)
        })
        .collect()
}

/// Every tier-0 segment's frames by sequence: what the store appended,
/// kept by the test because retention deletes the sources.
type Appended = BTreeMap<u64, Vec<(u64, f64, Option<String>)>>;

/// Records the tier-0 segments now on disk into `appended`. Retention
/// deletes only sealed segments, so a snapshot before each pass sees
/// every evicted segment complete.
fn snapshot_tier0(dir: &Path, appended: &mut Appended) {
    for seg in catalog_segments(dir)
        .unwrap()
        .iter()
        .filter(|s| s.tier == 0)
    {
        appended.insert(seg.seq, read_frames(&seg.path));
    }
}

/// Every evicted tier-0 segment's time range, per signal, that lies
/// inside no span a surviving tier >= 1 segment summarizes. A segment
/// named `S` summarizes, per signal, from its first band to the
/// signal's last appended frame at or under sequence `S`.
fn uncovered_evictions(dir: &Path, appended: &Appended) -> Vec<(u64, Option<String>, u64, u64)> {
    let catalog = catalog_segments(dir).unwrap();
    let mut spans: BTreeMap<Option<String>, Vec<(u64, u64)>> = BTreeMap::new();
    for seg in catalog.iter().filter(|s| s.tier >= 1) {
        for (name, bands) in per_signal(&read_frames(&seg.path)) {
            let end = appended
                .range(..=seg.seq)
                .flat_map(|(_, frames)| frames)
                .filter(|f| f.2 == name)
                .map(|f| f.0)
                .max()
                .expect("an envelope has source frames");
            spans.entry(name).or_default().push((bands[0].0, end));
        }
    }
    let live: BTreeSet<u64> = catalog
        .iter()
        .filter(|s| s.tier == 0)
        .map(|s| s.seq)
        .collect();
    let mut uncovered = Vec::new();
    for (&seq, frames) in appended.iter().filter(|(s, _)| !live.contains(s)) {
        for (name, src) in per_signal(frames) {
            let (from, to) = (src[0].0, src[src.len() - 1].0);
            let inside = |&(lo, hi): &(u64, u64)| lo <= from && to <= hi;
            if !spans.get(&name).is_some_and(|v| v.iter().any(inside)) {
                uncovered.push((seq, name, from, to));
            }
        }
    }
    uncovered
}

/// True when `got` holds exactly the reference fold of `src`, signal
/// for signal, bit for bit.
fn folds_exactly(
    src: &[(u64, f64, Option<String>)],
    got: &BTreeMap<Option<String>, Vec<(u64, f64)>>,
    group: u64,
) -> bool {
    let want = per_signal(src);
    want.len() == got.len()
        && want.iter().all(|(name, frames)| {
            let pairs: Vec<(u64, f64, f64)> = got.get(name).map_or(Vec::new(), |p| {
                p.chunks(2).map(|c| (c[0].0, c[0].1, c[1].1)).collect()
            });
            let reference = reference_bands(frames, group);
            pairs.len() == reference.len()
                && pairs.iter().zip(&reference).all(|(a, b)| {
                    a.0 == b.0 && a.1.to_bits() == b.1.to_bits() && a.2.to_bits() == b.2.to_bits()
                })
        })
}

/// Checks every surviving tier-1 segment against `decimate_minmax` of
/// the appended frames of its sources, `(previous tier-1 seq, seq]`.
/// The oldest survivor's predecessor may have been evicted, so its
/// sources may start after any earlier appended segment.
fn check_tier1_against_appended(dir: &Path, appended: &Appended, group: u64) {
    let catalog = catalog_segments(dir).unwrap();
    let mut prev: Option<u64> = None;
    for (i, out) in tier_of(&catalog, 1).into_iter().enumerate() {
        let got = per_signal(&read_frames(&out.path));
        let starts: Vec<Option<u64>> = if i == 0 {
            std::iter::once(None)
                .chain(appended.range(..out.seq).map(|(&s, _)| Some(s)))
                .collect()
        } else {
            vec![prev]
        };
        let matches = starts.iter().any(|&after| {
            let src: Vec<_> = appended
                .range(..=out.seq)
                .filter(|(&s, _)| after.is_none_or(|a| s > a))
                .flat_map(|(_, frames)| frames.iter().cloned())
                .collect();
            folds_exactly(&src, &got, group)
        });
        assert!(
            matches,
            "tier-1 seg {} is not decimate_minmax of its appended sources",
            out.seq
        );
        prev = Some(out.seq);
    }
}

/// Tier-`k` segments in seq order.
fn tier_of(catalog: &[SegmentInfo], k: u16) -> Vec<&SegmentInfo> {
    let mut v: Vec<_> = catalog.iter().filter(|s| s.tier == k).collect();
    v.sort_by_key(|s| s.seq);
    v
}

/// Checks every tier-`k+1` output against the reference fold of its
/// tier-`k` source window (derived from the watermark names: output
/// seq S covers sources in `(previous output seq, S]`). The output
/// whose seq is `allow_prefix_for` may be a *prefix* of the reference
/// — what a recovered torn tail legitimately looks like — but never
/// disagree on any pair it does hold, and never exceed the reference
/// (the double-count signature).
fn check_fold_equivalence(dir: &Path, k: u16, group: u64, allow_prefix_for: Option<u64>) {
    let catalog = catalog_segments(dir).unwrap();
    let sources = tier_of(&catalog, k);
    let outputs = tier_of(&catalog, k + 1);
    let mut prev: Option<u64> = None;
    for out in outputs {
        let allow_prefix = allow_prefix_for == Some(out.seq);
        let window: Vec<_> = sources
            .iter()
            .filter(|s| prev.is_none_or(|p| s.seq > p) && s.seq <= out.seq)
            .collect();
        prev = Some(out.seq);
        let mut src_frames = Vec::new();
        for seg in window {
            src_frames.extend(read_frames(&seg.path));
        }
        let got = per_signal(&read_frames(&out.path));
        let want = per_signal(&src_frames);
        for (name, pairs) in &got {
            let reference = reference_bands(&want[name], group);
            assert_eq!(
                pairs.len() % 2,
                0,
                "tier {} seg {} signal {:?}: odd envelope frame count",
                k + 1,
                out.seq,
                name
            );
            if allow_prefix {
                assert!(
                    pairs.len() / 2 <= reference.len(),
                    "tier {} seg {} signal {:?}: more bands than the source folds to (double count)",
                    k + 1,
                    out.seq,
                    name
                );
            } else {
                assert_eq!(
                    pairs.len() / 2,
                    reference.len(),
                    "tier {} seg {} signal {:?}: band count mismatch",
                    k + 1,
                    out.seq,
                    name
                );
            }
            for (b, &(t, lo, hi)) in reference.iter().enumerate().take(pairs.len() / 2) {
                let (t_lo, v_lo) = pairs[2 * b];
                let (t_hi, v_hi) = pairs[2 * b + 1];
                assert_eq!(t_lo, t, "band {b} lo time");
                assert_eq!(t_hi, t, "band {b} hi time");
                assert_eq!(v_lo.to_bits(), lo.to_bits(), "band {b} min");
                assert_eq!(v_hi.to_bits(), hi.to_bits(), "band {b} max");
            }
        }
        // Every source signal that has frames must appear in the
        // output: silently dropping one would also be "not torn" yet
        // wrong.
        if !allow_prefix {
            for name in want.keys() {
                assert!(got.contains_key(name), "signal {name:?} lost in fold");
            }
        }
    }
}

/// Writes `n` frames with equal-timestamp runs, NaN values, and a mix
/// of named/unnamed signals, sealing through close.
fn fill_random(dir: &Path, seed: u64, n: usize, start_us: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let names = ["alpha", "beta"];
    let mut store = Store::open(dir, small_cfg()).unwrap();
    let mut t = start_us;
    for _ in 0..n {
        // 30% zero deltas: equal timestamps are legal (§3.3) and must
        // not break band attribution.
        if !rng.gen_bool(0.3) {
            t += rng.gen_range(1u64..2_000);
        }
        // 10% NaN: f64::min/max ignore NaN unless the whole band is
        // NaN, and the fold must reproduce that exactly.
        let v = if rng.gen_bool(0.1) {
            f64::NAN
        } else {
            (rng.gen_range(-1_000_000i64..1_000_000) as f64) / 64.0
        };
        let name = if rng.gen_bool(0.2) {
            None
        } else {
            Some(names[rng.gen_range(0usize..names.len())])
        };
        store.append(TimeStamp::from_micros(t), v, name).unwrap();
    }
    store.close().unwrap();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every pyramid tier is *exactly* `decimate_minmax` of the tier
    /// below: same band partition, same min/max bits (NaN included),
    /// band timestamps anchored to the first source frame — for every
    /// power-of-two group and for every tier the compactor built.
    #[test]
    fn pyramid_tiers_equal_decimate_minmax_of_sources(
        seed in 0u64..1_000_000,
        n in 64usize..600,
        group_pow in 1u32..4,
    ) {
        let group = 1u64 << group_pow;
        let dir = tmp_dir(&format!("equiv-{seed}-{n}-{group}"));
        fill_random(&dir, seed, n, 0);
        let mut c = Compactor::new(&dir, lod_cfg(group)).unwrap();
        let report = c.pass().unwrap();
        prop_assert!(report.folds > 0, "{report:?}");
        for k in 0..report.top_tier {
            check_fold_equivalence(&dir, k, group, None);
        }
        // Envelope frames must stay §3.3-ordered per segment.
        let catalog = catalog_segments(&dir).unwrap();
        for seg in catalog.iter().filter(|s| s.tier >= 1) {
            let frames = read_frames(&seg.path);
            for w in frames.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "tier {} out of order", seg.tier);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Retention deletes only covered history: under any byte budget
    /// and age horizon, with a tail too short for `pass` to fold, every
    /// evicted tier-0 range of every signal lies inside some tier >= 1
    /// segment after `pass` and then `drain`, and tier 1 still folds the
    /// appended frames exactly.
    #[test]
    fn retention_evicts_only_history_a_coarser_tier_covers(
        seed in 0u64..1_000_000,
        n in 200usize..1_500,
        tail in 1usize..256,
        group_pow in 1u32..4,
        retain_bytes in proptest::option::of(0u64..12_000),
        retain_age_ms in proptest::option::of(0u64..1_000),
    ) {
        let group = 1u64 << group_pow;
        let dir = tmp_dir(&format!("retain-{seed}-{n}-{group}"));
        let cfg = CompactorConfig {
            min_fold_frames: 256,
            retain_bytes,
            retain_age: retain_age_ms.map(TimeDelta::from_millis),
            ..lod_cfg(group)
        };
        let mut c = Compactor::new(&dir, cfg).unwrap();
        let mut appended = Appended::new();
        let end = fill_random(&dir, seed, n, 0);
        snapshot_tier0(&dir, &mut appended);
        c.pass().unwrap();
        fill_random(&dir, seed ^ 1, tail, end);
        snapshot_tier0(&dir, &mut appended);
        c.pass().unwrap();
        c.drain().unwrap();
        let uncovered = uncovered_evictions(&dir, &appended);
        prop_assert!(uncovered.is_empty(), "evicted without an envelope: {uncovered:?}");
        check_tier1_against_appended(&dir, &appended, group);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A byte budget on a live store, with passes between appends, keeps
/// an envelope for every evicted stretch of history.
#[test]
fn retention_keeps_an_envelope_for_every_evicted_range() {
    let dir = tmp_dir("retain-live");
    let mut store = Store::open(&dir, small_cfg()).unwrap();
    let cfg = CompactorConfig {
        retain_bytes: Some(8192),
        ..lod_cfg(4)
    };
    let mut c = Compactor::new(&dir, cfg).unwrap();
    let mut appended = Appended::new();
    let mut evicted = 0;
    for i in 0..4_000u64 {
        let v = (i as f64 * 0.05).sin() * 50.0;
        store
            .append(TimeStamp::from_micros(i * 1_000), v, Some("wave"))
            .unwrap();
        if i % 400 == 399 {
            store.flush().unwrap();
            snapshot_tier0(&dir, &mut appended);
            evicted += c.pass().unwrap().segments_evicted;
        }
    }
    store.close().unwrap();
    snapshot_tier0(&dir, &mut appended);
    evicted += c.drain().unwrap().segments_evicted;
    assert!(evicted >= 3, "{evicted} segments evicted");
    let uncovered: Vec<_> = uncovered_evictions(&dir, &appended)
        .into_iter()
        .map(|(_, _, from, to)| (from / 1_000, to / 1_000))
        .collect();
    assert!(uncovered.is_empty(), "ms ranges lost: {uncovered:?}");
    check_tier1_against_appended(&dir, &appended, 4);
}

/// Kills the compactor "mid-fold" — a partial scratch file on disk and
/// a published pyramid output torn mid-block with a stale sidecar —
/// and proves recovery converges: scratch swept, torn segment
/// truncated to a clean verified prefix, no band double-counted,
/// refold resumes from the watermark, and a second pass is a no-op.
///
/// The tear hits the *top* tier: its sources are intact, so the
/// recovered prefix can be re-verified band-for-band against a fresh
/// reference fold. (Tearing a mid-pyramid tier would orphan its
/// already-folded descendants — they hold pre-tear data and a refold
/// of the truncated source partitions its bands differently, so
/// band-exact re-verification is only meaningful where the source
/// still exists in full.)
#[test]
fn compactor_crash_recovery_leaves_no_torn_or_double_counted_tiers() {
    let group = 4u64;
    let dir = tmp_dir("crash");
    let end = fill_random(&dir, 0xc4a5, 1_500, 0);
    let mut c = Compactor::new(&dir, lod_cfg(group)).unwrap();
    let first = c.pass().unwrap();
    assert!(first.top_tier >= 2, "need a multi-level pyramid: {first:?}");

    // More sealed history arrives after the first fold round.
    fill_random(&dir, 0xc4a6, 1_500, end + 1);

    // Crash artifact 1: a fold died before publishing — its scratch
    // output is partial garbage.
    std::fs::write(dir.join("lod-tmp-99999999-t1.gseg"), b"GSG1 torn mid write").unwrap();

    // Crash artifact 2: a published top-tier segment lost its tail
    // (torn mid-block); its sidecar is now stale.
    let catalog = catalog_segments(&dir).unwrap();
    let victim = catalog
        .iter()
        .filter(|s| s.tier == first.top_tier)
        .min_by_key(|s| s.seq)
        .expect("first pass built the top tier")
        .clone();
    let len = std::fs::metadata(&victim.path).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&victim.path)
        .unwrap();
    file.set_len(len - 7).unwrap();
    drop(file);

    let report = c.pass().unwrap();
    assert!(
        report.recovered >= 2,
        "swept scratch + repaired tear: {report:?}"
    );
    assert!(
        report.folds > 0,
        "pending sealed history refolds: {report:?}"
    );

    // No scratch survives recovery.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("lod-tmp-"))
        })
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");

    // Every pyramid segment verifies clean: sidecar matches the file
    // exactly (recover_segment rebuilt the torn one's).
    let catalog = catalog_segments(&dir).unwrap();
    for seg in catalog.iter().filter(|s| s.tier >= 1) {
        assert!(
            matches!(probe_index(&seg.path).unwrap(), IndexProbe::Valid(_)),
            "{} not sealed/clean after recovery",
            seg.path.display()
        );
    }

    // The torn segment kept a verified prefix and nothing else; every
    // other output still folds bit-for-bit — no double count anywhere.
    for k in 0..report.top_tier.max(1) {
        let torn = (k + 1 == victim.tier).then_some(victim.seq);
        check_fold_equivalence(&dir, k, group, torn);
    }

    // Watermark covers every sealed tier-0 segment (the unsealed
    // active segment was closed, so all of them)...
    let wm = watermark(&dir, 1).unwrap();
    let max_t0 = catalog
        .iter()
        .filter(|s| s.tier == 0)
        .map(|s| s.seq)
        .max()
        .unwrap();
    assert_eq!(wm, max_t0, "pyramid caught up to the append head");

    // ...and having converged, another pass folds nothing (refolding
    // covered sources would be the double-count bug).
    let again = c.pass().unwrap();
    assert_eq!(again.folds, 0, "{again:?}");
    std::fs::remove_dir_all(&dir).ok();
}
