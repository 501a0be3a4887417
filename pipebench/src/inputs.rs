//! Seeded inputs: signal names, the recorded history a run starts
//! from, and the query windows. The same seed gives the same inputs;
//! the hub only ever sees the generated tuples and queries.

/// Signals every producer writes.
pub const SIGNALS: usize = 16;

/// Per-signal sampling period of the recorded history (100 Hz).
pub const HISTORY_PERIOD_US: u64 = 10_000;

/// Length of one replay read.
pub const REPLAY_WINDOW_US: u64 = 10_000_000;

/// Pixel width of one zoom.
pub const ZOOM_PX: usize = 1024;

/// Name of signal `i`.
pub fn signal_name(i: usize) -> String {
    format!("pipe.s{i:02}")
}

/// SplitMix64: a tiny, fully deterministic generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and an input `stream`, so independent
    /// inputs drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5851_f42d_4c95_7f2d))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[lo, hi)`; `lo` when the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.next_u64() % (hi - lo)
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Value of history frame `i`: a hash in `[-32768, 32767]`, so every
/// envelope band's extremes depend on the data.
pub fn history_value(seed: u64, i: u64) -> f64 {
    (mix(seed ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d)) & 0xffff) as f64 - 32768.0
}

/// The recorded history a run's store starts with: `frames` frames
/// round-robin over the signals, every signal sampled at the same
/// instants, ending just before the run.
#[derive(Clone, Copy, Debug)]
pub struct History {
    /// Time of the first frame, shared-clock µs.
    pub from_us: u64,
    /// Time of the last frame.
    pub to_us: u64,
}

impl History {
    /// History of `frames` frames ending at `end_us`.
    pub fn ending_at(frames: u64, end_us: u64) -> History {
        let instants = frames.div_ceil(SIGNALS as u64);
        let span = instants.saturating_sub(1) * HISTORY_PERIOD_US;
        History {
            from_us: end_us - span,
            to_us: end_us,
        }
    }

    /// `(time, signal)` of frame `i`.
    pub fn frame(&self, i: u64) -> (u64, usize) {
        let n = SIGNALS as u64;
        (self.from_us + (i / n) * HISTORY_PERIOD_US, (i % n) as usize)
    }
}

/// One zoom: signal, inclusive window.
#[derive(Clone, Debug)]
pub struct Zoom {
    /// Signal index.
    pub signal: usize,
    /// Window start, µs.
    pub from_us: u64,
    /// Window end, µs.
    pub to_us: u64,
}

/// A seeded zoom: one signal over half of the history — zooming
/// out over recorded time.
pub fn zoom(rng: &mut Rng, h: &History) -> Zoom {
    let len = (h.to_us - h.from_us) / 2;
    let from_us = rng.range(h.from_us, h.to_us - len + 1);
    Zoom {
        signal: rng.range(0, SIGNALS as u64) as usize,
        from_us,
        to_us: from_us + len,
    }
}

/// Length of one search window.
pub const SEARCH_WINDOW_US: u64 = 30_000_000;

/// A seeded search expression: one signal, a value threshold matching
/// about one frame in a hundred, and a [`SEARCH_WINDOW_US`] window.
pub fn search(rng: &mut Rng, h: &History) -> String {
    let len = SEARCH_WINDOW_US.min(h.to_us - h.from_us);
    let from_us = rng.range(h.from_us, h.to_us - len + 1);
    format!(
        "name={} val>{} from={}us to={}us",
        signal_name(rng.range(0, SIGNALS as u64) as usize),
        32_767 - rng.range(100, 1_200),
        from_us,
        from_us + len
    )
}

/// A seeded replay start: a full [`REPLAY_WINDOW_US`] inside the history.
pub fn replay_from(rng: &mut Rng, h: &History) -> u64 {
    let len = REPLAY_WINDOW_US.min(h.to_us - h.from_us);
    rng.range(h.from_us, h.to_us - len + 1)
}
