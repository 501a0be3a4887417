//! gstore — a segmented, indexed, crash-safe tuple store.
//!
//! The paper's gscope records and replays §3.3 text tuples; that works
//! at demo scale but burns bytes (decimal floats), CPU (`f64` Display
//! on the record path), and offers no way to start replay at time *T*
//! without reading everything before it. `gstore` is the storage
//! subsystem that fixes all three:
//!
//! * **Segmented binary log** — a store is a directory of fixed-size
//!   segment files of CRC-protected blocks; frames carry delta-encoded
//!   microsecond times, block-scoped interned name ids, and raw `f64`
//!   bits (see [`segment`] for the byte layout).
//! * **Indexed** — block headers double as a sparse time index:
//!   [`StoreReader::seek`] binary-searches segment first-times, then
//!   one segment's block headers, and decodes a single landing block —
//!   O(log n), never scanning prior segments ([`ReaderStats`] proves
//!   it).
//! * **Searchable** — every sealed segment carries a `.gidx` inverted
//!   index sidecar ([`index`]) keyed by signal name, span label,
//!   thread id, and breach class; the `gquery` crate plans queries
//!   over it so a search opens only matching segments and decodes
//!   only matching blocks.
//! * **Crash-safe** — [`Store::open`] verifies the newest segment,
//!   truncates torn or corrupt tails, and salvages every complete
//!   frame from a torn block; loss is bounded to the frame being
//!   written at the crash, and open never refuses.
//! * **Zoomable** — the [`lod`] pyramid ("glod") folds sealed tier-K
//!   segments into tier-K+1 min/max envelopes in the background and
//!   answers [`Store::query`]`(signal, t0, t1, px_width)` off the
//!   coarsest tier with one column per pixel, so zooming over a year
//!   of history costs the same as a minute.
//! * **Retention with graceful degradation** — the same [`Compactor`]
//!   owns the disk budget: under `retain_bytes`/`retain_age` it deletes
//!   the oldest segments of a tier only once the next tier's envelopes
//!   cover them, so old history coarsens instead of disappearing.
//!
//! [`Store`] implements gscope's `TupleSink` and [`StoreReader`]
//! implements `TupleSource`, so the scope recorder, the network
//! server's catch-up tee, and `gtool record`/`replay` all plug in
//! without special cases.

pub mod codec;
pub mod flight;
pub mod index;
pub mod lod;
pub mod reader;
pub mod segment;
pub mod store;

pub use flight::{read_bundle, BundleInfo, BundleSummary, ClockRow, FlightRecorder};
pub use index::{
    build_index, index_path, load_or_rebuild_index, probe_index, read_index, split_thread,
    write_index, IndexProbe, Posting, SegIndex, TermClass, TermEntry,
};
pub use lod::{
    CompactReport, Compactor, CompactorConfig, CompactorHandle, LodResult, LodSlice, LodStats,
};
pub use reader::{ReaderStats, StoreReader};
pub use segment::{recover_segment, Recovery, SalvagedFrame};
pub use store::{catalog_segments, SegmentInfo, Store, StoreConfig, StoreStats, StoreTelemetry};
