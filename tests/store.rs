//! Durability properties of the campaign cell cache (`tp_bench::store`):
//! arbitrary damage to a cell's cache file never serves a different
//! record, and a cell served from the cache re-serialises byte-identically.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use tp_bench::campaign::{golden_json, results_json, ChannelResult, ExperimentResult};
use tp_bench::store::{cache_path, lookup, store_cell, CellRecord};
use tp_sim::Platform;

/// Synthetic but awkward channel values: non-round floats whose printed
/// form loses precision, so only the bit-exact record fields can
/// round-trip them.
fn channel(i: u64, mech: &'static str) -> ChannelResult {
    ChannelResult {
        channel: "L1-D",
        mechanism: mech,
        metric: "M_mb",
        value: f64::from_bits(0x4065_0000_0000_0000 + i * 0x0123_4567),
        baseline: 40.25 + i as f64 / 3.0,
        leaks: i.is_multiple_of(2),
        samples: 100 + i as usize,
    }
}

fn record(i: u64) -> CellRecord {
    let names = ["l1d", "tlb", "btb", "bhb", "bus", "l2"];
    let platforms = [Platform::Haswell, Platform::Skylake, Platform::Sabre];
    CellRecord::new(
        names[(i % 6) as usize],
        platforms[((i / 6) % 3) as usize],
        0.125 + i as f64 / 7.0,
        &[channel(i, "raw"), channel(i + 100, "protected")],
    )
}

/// The ground truth: one cell written through the real cache
/// (`store_cell`, i.e. `write_atomic`), read back as bytes. Built once.
fn ground_truth() -> &'static (Vec<u8>, CellRecord) {
    static TRUTH: OnceLock<(Vec<u8>, CellRecord)> = OnceLock::new();
    TRUTH.get_or_init(|| {
        let dir = scratch("truth");
        let rec = record(7);
        store_cell(&dir, &rec).expect("cache the cell");
        let bytes = std::fs::read(cache_path(&dir, &rec.experiment, &rec.platform, rec.key))
            .expect("read the cache file back");
        let _ = std::fs::remove_dir_all(&dir);
        (bytes, rec)
    })
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tp-store-prop-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Write `bytes` as the ground-truth cell's cache file in `dir` (no
/// `.bak` beside it) and look the cell up. A hit must be the bit-exact
/// record; anything else must be reported damage — which `fetch_cell`
/// counts as `cells_damaged` and recomputes — never a silent miss.
/// Returns whether the record was served.
fn served_after_damage(dir: &std::path::Path, bytes: &[u8]) -> bool {
    let (_, truth) = ground_truth();
    let (exp, plat) = (&truth.experiment, &truth.platform);
    std::fs::write(cache_path(dir, exp, plat, truth.key), bytes).expect("write damaged file");
    match lookup(dir, exp, plat, truth.key) {
        Ok(Some(got)) => {
            assert_eq!(&got, truth, "a served record must be bit-exact");
            assert_eq!(got.seconds.to_bits(), truth.seconds.to_bits());
            true
        }
        Ok(None) => panic!("an existing damaged file must not be a silent miss"),
        Err(_) => false,
    }
}

proptest! {
    /// Truncating the cache file at an arbitrary byte offset serves the
    /// bit-exact record or reports damage; losing any of the payload or
    /// of the trailer's checksum is always damage.
    #[test]
    fn truncation_never_changes_final_results(cut in 0usize..20_000) {
        let (bytes, _) = ground_truth();
        let cut = cut % (bytes.len() + 1);
        let served = served_after_damage(&scratch("cut"), &bytes[..cut]);
        prop_assert!(!served || cut > bytes.len() - "\"}}\n".len(), "cut at {}", cut);
    }

    /// Flipping any single byte anywhere in the cache file — record body,
    /// checksum, even inside the trailer tag — serves the bit-exact record
    /// or reports damage; a flip in the payload is always damage.
    #[test]
    fn byte_flip_never_changes_final_results(offset in 0usize..20_000, x in 1u8..=255) {
        let (bytes, truth) = ground_truth();
        let mut damaged = bytes.clone();
        let offset = offset % damaged.len();
        damaged[offset] ^= x;
        let served = served_after_damage(&scratch("flip"), &damaged);
        prop_assert!(!served || offset > truth.body().len(), "flip at {}", offset);
    }
}

/// Shards write disjoint files; serving their union (what `--merge N`
/// does) covers the whole matrix with the exact records they computed.
#[test]
fn shard_cache_files_merge_to_full_coverage() {
    let dir = scratch("shards");
    let truth: Vec<CellRecord> = (0..12).map(record).collect();
    for shard in 0..3 {
        for rec in truth.iter().skip(shard).step_by(3) {
            store_cell(&dir, rec).expect("shard caches its cell");
        }
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), truth.len());
    for rec in &truth {
        let got = lookup(&dir, &rec.experiment, &rec.platform, rec.key);
        assert_eq!(got, Ok(Some(rec.clone())));
    }
}

/// A cell served from the cache serialises byte-identically to the
/// original run: the `*_bits` record fields round-trip the exact `f64`s,
/// so `--resume` reproduces `results.json` and the golden file without a
/// byte of churn.
#[test]
fn replayed_cells_reserialize_byte_identically() {
    let names = ["l1d", "tlb", "btb", "bhb", "bus", "l2"];
    let originals: Vec<ExperimentResult> = (0..12)
        .map(|i| {
            let rec = record(i);
            ExperimentResult {
                experiment: names[(i % 6) as usize],
                platform: Platform::from_key(&rec.platform).unwrap(),
                seconds: rec.seconds,
                channels: rec.channels.clone(),
            }
        })
        .collect();
    let dir = scratch("reserialize");
    let replayed: Vec<ExperimentResult> = originals
        .iter()
        .map(|r| {
            let rec = CellRecord::new(r.experiment, r.platform, r.seconds, &r.channels);
            store_cell(&dir, &rec).expect("cache the cell");
            let served = lookup(&dir, &rec.experiment, &rec.platform, rec.key);
            let served = served.expect("verifies").expect("served from the cache");
            ExperimentResult::from_record(r.experiment, r.platform, &served)
        })
        .collect();
    assert_eq!(
        results_json(&originals, 1.5),
        results_json(&replayed, 1.5),
        "results.json must not change across a cache roundtrip"
    );
    assert_eq!(
        golden_json(&originals),
        golden_json(&replayed),
        "the golden file must not change across a cache roundtrip"
    );
}
