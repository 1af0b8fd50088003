//! The typed wire-error counters (`fleet.wire.err.*`): the collector
//! counts every rejected frame once, in its own class, and both ingest
//! paths count the same.
//!
//! The counters are process-global, so this binary holds a single test.

use ulp_fleet::{Collector, IngestPath, Payload, QueryConfig, QueryKind, Report};
use ulp_obs::{set_level, snapshot, MetricsLevel};

const CLASSES: [&str; 8] = [
    "truncated",
    "bad_magic",
    "unsupported_version",
    "unknown_kind",
    "non_zero_reserved",
    "checksum_mismatch",
    "seq_mismatch",
    "payload_out_of_range",
];

/// A counter's value, read from the snapshot's JSON rendering (the
/// `--metrics` text): 0 until the counter first records.
fn counter(name: &str) -> u64 {
    let json = snapshot().to_json();
    json.split_once(&format!("\"{name}\":"))
        .map_or(0, |(_, rest)| {
            let digits = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..digits].parse().expect("a counter renders as a u64")
        })
}

fn counters() -> [u64; 8] {
    CLASSES.map(|class| counter(&format!("fleet.wire.err.{class}")))
}

fn value_at(device: u32, epoch: u32, v: i32) -> [u8; 20] {
    Report::new(device, 0, epoch, Payload::Value(v)).encode()
}

/// A frame whose sequence field drifted, resealed so that only the
/// semantic violation remains (a re-randomizing retrier).
fn drifted(device: u32, epoch: u32) -> [u8; 20] {
    let mut f = value_at(device, epoch, 1);
    f[3] = f[3].wrapping_add(1);
    let mut h: u32 = 0x811C_9DC5;
    for &b in &f[..18] {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    let sum = ((h >> 16) ^ (h & 0xFFFF)) as u16;
    f[18..20].copy_from_slice(&sum.to_le_bytes());
    f
}

#[test]
fn each_rejected_frame_counts_once_in_its_class_on_both_paths() {
    set_level(MetricsLevel::Counters);
    let mut batch = Vec::new();
    batch.extend_from_slice(&value_at(1, 0, 5));
    // A checksum-corrupted frame, aligned: no resync.
    let mut bad = value_at(2, 0, 6);
    bad[6] ^= 0xFF;
    batch.extend_from_slice(&bad);
    batch.extend_from_slice(&value_at(3, 0, 7));
    // Two sequence drifts from one sender.
    batch.extend_from_slice(&drifted(12, 0));
    batch.extend_from_slice(&drifted(12, 1));
    batch.extend_from_slice(&value_at(4, 0, 8));
    // A trailing partial frame.
    batch.extend_from_slice(&value_at(5, 0, 9)[..2]);

    let numeric = QueryConfig {
        id: 0,
        kind: QueryKind::Numeric {
            sketch_min_k: -64,
            sketch_max_k: 64,
        },
    };
    let mut expected = [0; 8];
    expected[0] = 1; // truncated
    expected[5] = 1; // checksum_mismatch
    expected[6] = 2; // seq_mismatch
    for path in [IngestPath::Reference, IngestPath::Columnar] {
        let before = counters();
        let mut c = Collector::new(2, &[numeric]).with_ingest_path(path);
        let stats = c.ingest_frames(&batch);
        let after = counters();
        assert_eq!(stats.accepted, 3, "{path:?}");
        assert_eq!(stats.rejected, 4, "{path:?}");
        let moved: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(moved, expected, "{path:?}: per-class counts {CLASSES:?}");
    }
}
