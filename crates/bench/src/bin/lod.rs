//! glod zoom-pyramid benchmark: emits `BENCH_lod.json`.
//!
//! One store grows decade by decade (10^5 → 10^9 frames); the
//! compactor folds sealed history into min/max envelope tiers as the
//! append runs, and folded tier-0 segments are evicted under a byte
//! budget so disk stays bounded at every size. At each checkpoint the
//! pyramid drains and `query(signal, 0, now, px)` is timed over the
//! *full* recorded span.
//!
//! The claim under test: p50 stays flat (±2x) as frames grow four
//! decades, because the planner answers from the coarsest tier whose
//! column count tracks `px_width`, not N — the scan touches ~2·px
//! envelope frames no matter how much history exists. The `before`
//! column (sizes where tier 0 is still complete) forces a tier-0 scan
//! of the same window — the cost every zoom-out paid without the
//! pyramid.
//!
//! Usage: lod [--quick] [--out DIR] [--dir DIR] [--keep]
//!   --quick   sizes 10^5..10^7 and fewer iterations (CI smoke)
//!   --out DIR directory for BENCH_lod.json (default `.`)
//!   --dir DIR store directory (default under the system temp dir)
//!   --keep    leave the store directory behind for inspection

use std::path::{Path, PathBuf};
use std::time::Instant;

use gel::TimeStamp;
use gstore::{Compactor, CompactorConfig, Store, StoreConfig};

const SIGNAL: &str = "lod.sig";
const PX: usize = 1024;

/// Cheap value stream with spiky extremes: a multiplicative hash of
/// the frame index, so every band's min/max is data-dependent and the
/// fold cannot be optimised away.
fn value(i: u64) -> f64 {
    (i.wrapping_mul(2654435761) & 0xffff) as f64 - 32768.0
}

struct Checkpoint {
    frames: u64,
    tag: String,
    /// Forced tier-0 scan of the same window (None once tier 0 has
    /// been partially evicted or is too large to scan honestly).
    tier0_p50_us: Option<f64>,
    p50_us: f64,
    p90_us: f64,
    tier: u16,
    blocks_pruned: u64,
    blocks_scanned: u64,
    frames_scanned: u64,
    store_bytes: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Times `iters` runs of one query shape; returns (p50, p90, last
/// result) in microseconds.
fn time_query(
    dir: &Path,
    to_us: u64,
    px: usize,
    forced_tier: Option<u16>,
    iters: usize,
) -> (f64, f64, gstore::LodResult) {
    let mut samples = Vec::with_capacity(iters);
    let mut last = None;
    for i in 0..iters + 2 {
        let t = Instant::now();
        let res = gstore::lod::query_at(
            dir,
            Some(SIGNAL),
            TimeStamp::ZERO,
            TimeStamp::from_micros(to_us),
            px,
            forced_tier,
        )
        .expect("query");
        let us = t.elapsed().as_secs_f64() * 1e6;
        // First two iterations are page-cache warmup.
        if i >= 2 {
            samples.push(us);
        }
        last = Some(res);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    (
        percentile(&samples, 0.50),
        percentile(&samples, 0.90),
        last.expect("at least one query ran"),
    )
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

fn write_json(out: &str, rows: &[Checkpoint]) -> std::io::Result<String> {
    std::fs::create_dir_all(out)?;
    let fmt = |x: f64| format!("{x:.1}");
    let opt = |x: Option<f64>| x.map_or_else(|| "null".to_owned(), fmt);
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"lod\",\n");
    s.push_str(&format!(
        "  \"unit\": \"query(signal, 0, now, px={PX}) latency us over the full span; \
         before = forced tier-0 scan of the same window\",\n"
    ));
    s.push_str("  \"results\": {\n");
    for r in rows {
        s.push_str(&format!(
            "    \"lod/query/{}_frames\": {{ \"frames\": {}, \"before\": {}, \"p50_us\": {}, \
             \"p90_us\": {}, \"tier\": {}, \"blocks_pruned\": {}, \"blocks_scanned\": {}, \
             \"frames_scanned\": {}, \"store_bytes\": {} }},\n",
            r.tag,
            r.frames,
            opt(r.tier0_p50_us),
            fmt(r.p50_us),
            fmt(r.p90_us),
            r.tier,
            r.blocks_pruned,
            r.blocks_scanned,
            r.frames_scanned,
            r.store_bytes,
        ));
    }
    let p50s: Vec<f64> = rows.iter().map(|r| r.p50_us).collect();
    let (lo, hi) = p50s
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    s.push_str(&format!(
        "    \"lod/flatness\": {{ \"p50_min_us\": {}, \"p50_max_us\": {}, \
         \"max_over_min\": {:.2}, \"flat_within_2x\": {} }}\n",
        fmt(lo),
        fmt(hi),
        hi / lo.max(1e-9),
        hi / lo.max(1e-9) <= 2.0,
    ));
    s.push_str("  }\n}\n");
    let path = format!("{out}/BENCH_lod.json");
    std::fs::write(&path, &s)?;
    Ok(path)
}

fn main() {
    let mut quick = false;
    let mut keep = false;
    let mut out = ".".to_owned();
    let mut dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--keep" => keep = true,
            "--out" => out = args.next().expect("--out requires a directory"),
            "--dir" => dir = Some(PathBuf::from(args.next().expect("--dir requires a path"))),
            other => {
                eprintln!(
                    "unknown flag {other:?}; usage: lod [--quick] [--out DIR] [--dir DIR] [--keep]"
                );
                std::process::exit(2);
            }
        }
    }
    let dir = dir.unwrap_or_else(|| std::env::temp_dir().join("gscope-bench-lod"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");

    let (sizes, iters): (&[u64], usize) = if quick {
        (&[100_000, 1_000_000, 10_000_000], 10)
    } else {
        (
            &[100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000],
            30,
        )
    };
    // The tier-0 baseline scans the whole span — honest up to 10^7,
    // unpayable (and partially evicted) beyond.
    let baseline_cap = 10_000_000u64;

    // Large-ish segments keep the catalog small at 10^9 frames; the
    // pyramid's own outputs stay block-prunable via the compactor's
    // `block_frames`.
    let store_cfg = StoreConfig {
        segment_bytes: 16 << 20,
        ..StoreConfig::default()
    };
    // group 8 steps 4x per tier in *frames* (a band is two frames),
    // keeping adjacent tiers close enough that the planner's scan
    // stays between px and 4*px columns at any N — which is what
    // makes p50 flat across decades. Twelve tiers reach 4^12 ~ 10^7:1
    // decimation, ample for 10^9 frames at px=1024.
    let lod_cfg = CompactorConfig {
        group: 8,
        max_tier: 12,
        batch_frames: 4_000_000,
        // Fold a tier only once 4M source frames are pending: smaller
        // thresholds sprout hundreds of tiny mid-tier segments (one
        // per pass per tier), and the per-query directory walk ends
        // up costing more than the scan.
        min_fold_frames: 4_000_000,
        // Folded history is evicted past 64 MiB per tier: the tier
        // above answers for it, so disk, the per-query directory
        // walk, and the sidecar planning walk stay bounded at 10^9.
        retain_bytes: Some(64 << 20),
        ..CompactorConfig::default()
    };
    let mut store = Store::open(&dir, store_cfg.clone()).expect("open store");
    let mut compactor = Compactor::new(&dir, lod_cfg).expect("compactor");

    let mut rows: Vec<Checkpoint> = Vec::new();
    let mut written = 0u64;
    for &target in sizes {
        let t0 = Instant::now();
        while written < target {
            store
                .append(
                    TimeStamp::from_micros(written),
                    value(written),
                    Some(SIGNAL),
                )
                .expect("append");
            written += 1;
            // Fold + evict as history seals, like the background
            // thread would; a pass with nothing pending is cheap.
            if written.is_multiple_of(4_000_000) {
                store.flush().expect("flush");
                compactor.pass().expect("compactor pass");
            }
        }
        // Seal the active segment so the checkpoint folds *all*
        // history: the measured claim is about the pyramid, not about
        // however much unfolded tail happens to be in flight. Reopen
        // rolls to a fresh segment (the watermark gate refuses to
        // resume a folded one).
        store.close().expect("close");
        let report = compactor.drain().expect("drain");
        let tag = format!("1e{}", (target as f64).log10().round() as u32);
        eprintln!(
            "[lod] {tag}: appended to {written} frames in {:.1}s (pyramid top tier {}, {} evicted)",
            t0.elapsed().as_secs_f64(),
            report.top_tier,
            report.segments_evicted,
        );

        let to_us = written;
        let tier0_p50_us = if target <= baseline_cap {
            let (p50, _, res) = time_query(&dir, to_us, PX, Some(0), iters);
            eprintln!(
                "[lod]   before (tier-0 scan): p50 {p50:.0} us, {} frames decoded",
                res.stats.frames_scanned
            );
            Some(p50)
        } else {
            None
        };
        let (p50, p90, res) = time_query(&dir, to_us, PX, None, iters);
        eprintln!(
            "[lod]   after  (planned tier {}): p50 {p50:.0} us, p90 {p90:.0} us, \
             {} blocks pruned / {} scanned, {} frames",
            res.tier, res.stats.blocks_pruned, res.stats.blocks_scanned, res.stats.frames_scanned,
        );
        rows.push(Checkpoint {
            frames: written,
            tag,
            tier0_p50_us,
            p50_us: p50,
            p90_us: p90,
            tier: res.tier,
            blocks_pruned: res.stats.blocks_pruned,
            blocks_scanned: res.stats.blocks_scanned,
            frames_scanned: res.stats.frames_scanned,
            store_bytes: dir_bytes(&dir),
        });
        store = Store::open(&dir, store_cfg.clone()).expect("reopen store");
    }
    store.close().expect("close");

    match write_json(&out, &rows) {
        Ok(path) => eprintln!("[lod] wrote {path}"),
        Err(e) => {
            eprintln!("[lod] write failed: {e}");
            std::process::exit(1);
        }
    }
    if !keep {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
