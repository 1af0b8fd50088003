//! # ulp-fleet — population-scale LDP aggregation for DP-Box devices
//!
//! The paper's device model ([`dp_box`]) certifies what *one* ultra-low-power
//! sensor may release; this crate builds the other half of the local-DP
//! deployment story: millions of such devices reporting to an **untrusted
//! collector** that must recover accurate population statistics from
//! privatized, window-clamped, occasionally-corrupted reports.
//!
//! The pipeline, stage by stage:
//!
//! * [`wire`] — a compact versioned report frame (magic, version, device,
//!   query, epoch, payload, checksum) with typed rejection of corrupt or
//!   truncated frames, and the resync walk ([`decode_stream`]) that
//!   decodes a stream on the 20-byte grid and scans past corrupt regions;
//! * [`collector`] — per-query moment accumulators plus an exact grid
//!   quantile [`sketch`], sharded by device id (`d mod shards`, each shard
//!   keeping one row of per-device state per sender), ingesting report batches
//!   through one sequential streaming drain — decode and classify a block,
//!   then accumulate it — with bit-identical totals at any thread or shard
//!   count (and vs the scalar reference path, an in-process test oracle);
//! * [`estimator`] — debiased estimators (mean, variance, median, RR
//!   frequency and count) built on the sampler's *exact* output PMF, each
//!   returning an analytic standard error and, where proven, a
//!   deterministic bias envelope;
//! * [`driver`] — the simulated fleet and its one driver,
//!   [`FleetDriver::run_service`]: N full DP-Box devices (budget ledgers,
//!   URNG health self-tests, fail-safe exclusion) streaming through the
//!   [`service`] round by round — each round simulated, offered and sealed
//!   before the next, so the driver holds the rounds in flight, not the
//!   run — every fresh randomization charged once from the run's one spend
//!   log into an auditable ledger as its window seals. A batch run is one
//!   window over every epoch ([`FleetDriver::one_window`]). The scalar
//!   reference device engine and ingest path stay as in-process
//!   differential-test oracles ([`FleetDriver::with_engine`],
//!   [`FleetDriver::with_ingest_path`]), never as environment knobs;
//! * [`chaos`] — seeded, deterministic lossy-transport fault injection
//!   (drop, duplicate, reorder, corrupt, truncate, delay in correlated
//!   bursts), driving the replay-safe retry and idempotent-ingest paths;
//! * [`window`] — epoch-window spans (pending → accepting → sealed into
//!   the rollup), sealed-window records, and order-canonicalized
//!   multi-epoch [`Rollup`]s, which own their windows and re-audit every
//!   window's ledger bitwise in one streaming pass;
//! * [`service`] — the long-running streaming aggregation service:
//!   bounded per-lane ingest queues with typed [`Busy`] backpressure,
//!   watermark-driven window sealing, live snapshot queries over sealed
//!   windows, and rollup folding.
//!
//! Everything is deterministic by construction: device streams are
//! [`ulp_rng::stream_seed`]-derived, parallelism partitions by data (never
//! by schedule), and accumulator folds are exact integer arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod collector;
pub mod driver;
pub mod estimator;
pub mod service;
pub mod sketch;
pub mod window;
pub mod wire;

pub use chaos::{
    chaos_seed_from_env, Attempt, ChaosConfig, ChaosConfigError, Delivery, DeviceChaos, FaultClass,
    FaultKind, InlineFrame, MAX_DELAY_ROUNDS,
};
pub use collector::{
    ingest_phase_totals, Collector, EpochSeal, IngestPath, IngestPhaseTotals, IngestStats,
    QueryConfig, QueryKind, QueryTotals, SealStatus,
};
pub use driver::{
    sim_phase_ns, DeviceEngine, FleetConfig, FleetDriver, FleetError, ServiceOutcome, RR_QUERY,
    VALUE_QUERY,
};
pub use estimator::{Estimate, NoiseModel};
pub use service::{
    AllWindowsSealed, Busy, FleetService, ServiceConfig, ServiceSnapshot, WindowEstimates,
};
pub use sketch::GridSketch;
pub use window::{window_spans, Rollup, RollupError, RollupOutcome, SealedWindow, Window};
pub use wire::{
    decode_counter_totals, decode_stream, DecodeCounterTotals, DecodedStream, Payload, Report,
    WireError, FRAME_LEN,
};
