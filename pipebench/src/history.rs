//! The recorded history every run's store starts with, and the
//! correctness oracle over it. Both run in the generator process, so
//! their allocations never show in the hub process's memory.

use std::path::Path;

use gel::TimeStamp;
use gstore::{Compactor, CompactorConfig, Store, StoreConfig};

use crate::clock::shared_now_us;
use crate::inputs::{self, History, Rng, SIGNALS, ZOOM_PX};

/// Input stream of the oracle's zoom and search.
const ORACLE_STREAM: u64 = 1;

/// `gtool serve --store`'s compactor settings.
pub fn lod_config() -> CompactorConfig {
    CompactorConfig {
        min_fold_frames: 4096,
        ..CompactorConfig::default()
    }
}

/// Appends `frames` frames of history ending a second ago, seals the
/// store and drains it into the pyramid.
pub fn record(dir: &Path, frames: u64, seed: u64) -> Result<History, String> {
    let hist = History::ending_at(frames, shared_now_us() - 1_000_000);
    let names: Vec<String> = (0..SIGNALS).map(inputs::signal_name).collect();
    let mut store = Store::open(dir, StoreConfig::default()).map_err(|e| e.to_string())?;
    for i in 0..frames {
        let (t, s) = hist.frame(i);
        store
            .append(
                TimeStamp::from_micros(t),
                inputs::history_value(seed, i),
                Some(&names[s]),
            )
            .map_err(|e| format!("history append: {e}"))?;
    }
    store.close().map_err(|e| e.to_string())?;
    Compactor::new(dir, lod_config())
        .and_then(|mut c| c.drain().map_err(gscope::ScopeError::Io))
        .map_err(|e| format!("history drain: {e}"))?;
    Ok(hist)
}

/// One zoom against a forced tier-0 fold and one search against a
/// linear replay, over the recorded history.
pub fn oracle(dir: &Path, hist: &History, seed: u64) -> Result<(), String> {
    let mut rng = Rng::new(seed, ORACLE_STREAM);
    let name = inputs::signal_name(rng.range(0, SIGNALS as u64) as usize);
    let (t0, t1) = (
        TimeStamp::from_micros(hist.from_us),
        TimeStamp::from_micros(hist.to_us),
    );
    let planned =
        gstore::lod::query(dir, Some(&name), t0, t1, ZOOM_PX).map_err(|e| e.to_string())?;
    let tier0 = gstore::lod::query_at(dir, Some(&name), t0, t1, ZOOM_PX, Some(0))
        .map_err(|e| e.to_string())?;
    check_zoom(&planned.columns, &tier0.columns)
        .map_err(|e| format!("zoom of {name} (tier {}): {e}", planned.tier))?;

    let expr = inputs::search(&mut rng, hist);
    let q = gquery::parse_query(&expr)?;
    let engine = gquery::QueryEngine::open(dir).map_err(|e| e.to_string())?;
    let found = engine.query(&q).map_err(|e| e.to_string())?;
    let linear = engine.linear_scan(&q).map_err(|e| e.to_string())?;
    if found.matches != linear.matches {
        return Err(format!(
            "search {expr:?}: planner found {} matches, linear replay {}",
            found.matches.len(),
            linear.matches.len()
        ));
    }
    Ok(())
}

type Cols = [Option<(f64, f64)>];

/// The min/max hull of some columns.
fn hull(cols: &Cols) -> Option<(f64, f64)> {
    cols.iter()
        .flatten()
        .fold(None, |acc, &(lo, hi)| match acc {
            None => Some((lo, hi)),
            Some((a, b)) => Some((a.min(lo), b.max(hi))),
        })
}

/// Checks a planned zoom over a whole history against the tier-0 fold
/// of the same window. An envelope band sits in the column of its first
/// frame and is narrower than a column, so: the overall envelopes are
/// identical; a planned column is never set where tier 0 has no frame;
/// each planned band lies within the tier-0 frames of its column and
/// the next; each tier-0 column lies within the planned bands of its
/// column and the one before.
fn check_zoom(planned: &Cols, tier0: &Cols) -> Result<(), String> {
    let n = planned.len();
    if n != tier0.len() {
        return Err(format!("{n} planned columns vs {} tier-0", tier0.len()));
    }
    if hull(planned) != hull(tier0) {
        return Err(format!(
            "envelope {:?} vs tier-0 {:?}",
            hull(planned),
            hull(tier0)
        ));
    }
    let within = |(lo, hi): (f64, f64), bound: Option<(f64, f64)>| {
        bound.is_some_and(|(a, b)| a <= lo && hi <= b)
    };
    for c in 0..n {
        let next = &tier0[c..(c + 2).min(n)];
        if let Some(band) = planned[c] {
            if tier0[c].is_none() || !within(band, hull(next)) {
                return Err(format!("column {c}: band {band:?} outside tier-0 {next:?}"));
            }
        }
        let prev = &planned[c.saturating_sub(1)..=c];
        if let Some(frames) = tier0[c] {
            if !within(frames, hull(prev)) {
                return Err(format!(
                    "column {c}: tier-0 {frames:?} outside bands {prev:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoom_check_accepts_bands_straddling_a_column_edge() {
        // Tier 0: frames 1, 9 | 5, 2. One band holding 9 and 5 starts
        // in column 0 and ends in column 1.
        let tier0 = [Some((1.0, 9.0)), Some((2.0, 5.0))];
        let planned = [Some((1.0, 9.0)), Some((2.0, 2.0))];
        assert_eq!(check_zoom(&planned, &tier0), Ok(()));
    }

    #[test]
    fn zoom_check_rejects_lost_or_invented_extremes() {
        let tier0 = [Some((1.0, 9.0)), Some((2.0, 5.0)), None];
        // A lost maximum changes the overall envelope.
        assert!(check_zoom(&[Some((1.0, 8.0)), Some((2.0, 5.0)), None], &tier0).is_err());
        // A band where tier 0 has no frame.
        assert!(check_zoom(
            &[Some((1.0, 9.0)), Some((2.0, 5.0)), Some((3.0, 3.0))],
            &tier0
        )
        .is_err());
        // A value two columns away from where it was recorded.
        let far = [Some((1.0, 1.0)), Some((2.0, 5.0)), Some((9.0, 9.0))];
        let tier0 = [Some((1.0, 9.0)), Some((2.0, 5.0)), Some((3.0, 3.0))];
        assert!(check_zoom(&far, &tier0).is_err());
    }
}
