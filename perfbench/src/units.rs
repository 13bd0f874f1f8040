//! The workloads as lists of units, generated from the workload seed.
//!
//! A unit is the closed-loop step a workload pass is timed in: one voted
//! campaign cell (`channels`), one `run_workload` call (`splash`) or one
//! cloud run (`fleet`). The specs mirror the campaign registry and the
//! Figure 7 / Table 8 functions exactly, so that on the campaign's own seed
//! a pass reproduces `goldens/verdicts.json`.

use tp_attacks::harness::{ChannelOutcome, IntraCoreSpec, Scenario};
use tp_attacks::{branchchan, bus, cache, flush_latency, interrupt, kernel_image, tlbchan};
use tp_bench::campaign::VOTE_SEED_BASE;
use tp_bench::cloud::CloudSpec;
use tp_bench::util::samples;
use tp_core::{ProtectionConfig, SimError};
use tp_sim::Platform;
use tp_workloads::{all_benchmarks, Benchmark, WorkloadRun};

/// Number of distinct input sets. The workload seed picks set
/// `seed % INPUT_SETS`; each set has its own reference digests.
pub const INPUT_SETS: u64 = 8;

/// Vote-seed base of the input set the workload seed picks. The set that
/// holds [`VOTE_SEED_BASE`] itself is the campaign's: its base is
/// `VOTE_SEED_BASE` and its salt is zero.
#[must_use]
pub fn vote_base(seed: u64) -> u64 {
    let k = (seed % INPUT_SETS) ^ (VOTE_SEED_BASE % INPUT_SETS);
    VOTE_SEED_BASE ^ (k << 16)
}

/// The three vote seeds of a cell, derived from the base as the campaign
/// derives them from `VOTE_SEED_BASE`.
#[must_use]
pub fn vote_seeds(base: u64) -> [u64; 3] {
    [base, base ^ 0x9E37_79B9, base ^ 0x6A09_E667]
}

/// One seeded channel measurement (attack run plus its leakage test).
pub type Measure = Box<dyn Fn(u64) -> Result<ChannelOutcome, SimError>>;

/// What a unit runs.
pub enum Job {
    /// A campaign cell: one measurement per vote seed, majority verdict.
    Cell(Measure),
    /// The LLC ElGamal attack: one seeded run, verdict from accuracy.
    Llc {
        /// Protection of the attacked system.
        prot: ProtectionConfig,
        /// Time slots the spy observes.
        slots: usize,
        /// Attack seed.
        seed: u64,
    },
    /// One Splash-2 stream run.
    Splash(Benchmark, WorkloadRun),
    /// One cloud consolidation run.
    Cloud(CloudSpec),
}

/// One unit of a workload pass.
pub struct Unit {
    /// Stable name, unique within the workload.
    pub name: String,
    /// Campaign experiment (`splash` for the Splash-2 study).
    pub experiment: &'static str,
    /// Platform it runs on.
    pub platform: Platform,
    /// Channel name as pinned in the goldens (empty for `splash`).
    pub channel: &'static str,
    /// Mechanism as pinned in the goldens (run label for `splash`).
    pub mechanism: String,
    /// The work.
    pub job: Job,
}

/// The units of one pass of `workload` at `seed`, or `None` for an
/// unknown workload name.
#[must_use]
pub fn units(workload: &str, seed: u64) -> Option<Vec<Unit>> {
    let base = vote_base(seed);
    match workload {
        "channels" => Some(channels(base)),
        "splash" => Some(splash(base ^ VOTE_SEED_BASE)),
        "fleet" => Some(fleet(base)),
        _ => None,
    }
}

fn cell(
    experiment: &'static str,
    platform: Platform,
    channel: &'static str,
    mechanism: &str,
    measure: Measure,
) -> Unit {
    Unit {
        name: format!("{experiment}/{}/{mechanism}", platform.key()),
        experiment,
        platform,
        channel,
        mechanism: mechanism.to_string(),
        job: Job::Cell(measure),
    }
}

type Attack = fn(&IntraCoreSpec) -> Result<ChannelOutcome, SimError>;

/// Every non-cloud campaign cell, in registry order.
fn channels(base: u64) -> Vec<Unit> {
    let intra: [(&str, &str, Attack); 6] = [
        ("l1d", "L1-D", cache::try_l1d_channel),
        ("l1i", "L1-I", cache::try_l1i_channel),
        ("tlb", "TLB", tlbchan::try_tlb_channel),
        ("btb", "BTB", branchchan::try_btb_channel),
        ("bhb", "BHB", branchchan::try_bhb_channel),
        ("l2", "L2", cache::try_l2_channel),
    ];
    let mut out = Vec::new();
    for (experiment, channel, attack) in intra {
        for p in Platform::ALL {
            for (scenario, mech) in [
                (Scenario::Raw, "raw"),
                (Scenario::FullFlush, "full-flush"),
                (Scenario::Protected, "protected"),
            ] {
                let n = if channel == "L2" {
                    samples(500)
                } else {
                    samples(250)
                };
                let n_symbols = if channel == "BHB" { 2 } else { 8 };
                let measure: Measure = Box::new(move |seed| {
                    let mut spec = IntraCoreSpec::new(p, scenario, n_symbols, n).with_seed(seed);
                    if channel == "L2" {
                        spec = spec.with_slice_us(cache::l2_slice_us(&p.config()));
                    }
                    attack(&spec)
                });
                out.push(cell(experiment, p, channel, mech, measure));
            }
        }
    }
    for p in Platform::ALL {
        for (mech, prot) in [
            ("coloured-only", kernel_image::coloured_userland_config()),
            ("protected", ProtectionConfig::protected()),
        ] {
            let measure: Measure = Box::new(move |seed| {
                kernel_image::kernel_image_channel(&IntraCoreSpec {
                    platform: p,
                    prot,
                    n_symbols: 4,
                    samples: samples(300),
                    slice_us: 50.0,
                    seed,
                })
            });
            out.push(cell("kernel-image", p, "kernel-image", mech, measure));
        }
    }
    for p in Platform::ALL {
        let pad = flush_latency::table4_pad_us(p);
        for (mech, timing, pad_us) in [
            ("online-nopad", flush_latency::Timing::Online, None),
            ("online-pad", flush_latency::Timing::Online, Some(pad)),
            ("offline-nopad", flush_latency::Timing::Offline, None),
            ("offline-pad", flush_latency::Timing::Offline, Some(pad)),
        ] {
            let measure: Measure = Box::new(move |seed| {
                let spec = IntraCoreSpec {
                    platform: p,
                    prot: flush_latency::flush_channel_config(pad_us),
                    n_symbols: 8,
                    samples: samples(250),
                    slice_us: 50.0,
                    seed,
                };
                flush_latency::flush_channel(&spec, timing)
            });
            out.push(cell("flush-latency", p, "flush-latency", mech, measure));
        }
    }
    for p in Platform::ALL {
        for (mech, part) in [("raw", false), ("partitioned", true)] {
            let measure: Measure = Box::new(move |seed| {
                let spec = interrupt::paper_spec(p, part, samples(250)).with_seed(seed);
                interrupt::try_interrupt_channel(&spec)
            });
            out.push(cell("interrupt", p, "interrupt", mech, measure));
        }
    }
    for p in Platform::ALL {
        for (mech, scenario) in [("raw", Scenario::Raw), ("protected", Scenario::Protected)] {
            let measure: Measure = Box::new(move |seed| {
                let spec = IntraCoreSpec::new(p, scenario, 2, samples(150))
                    .with_slice_us(30.0)
                    .with_seed(seed);
                bus::bus_channel(&spec)
            });
            out.push(cell("bus", p, "bus", mech, measure));
        }
    }
    let llc_seed = 42 ^ (base ^ VOTE_SEED_BASE);
    for p in Platform::ALL
        .into_iter()
        .filter(|p| p.config().llc.is_some())
    {
        let slots = samples(6_000).max(3_000);
        for (mech, prot, slots) in [
            ("raw", ProtectionConfig::raw(), slots),
            ("protected", ProtectionConfig::protected(), slots / 2),
        ] {
            out.push(Unit {
                name: format!("llc/{}/{mech}", p.key()),
                experiment: "llc",
                platform: p,
                channel: "LLC-ElGamal",
                mechanism: mech.to_string(),
                job: Job::Llc {
                    prot,
                    slots,
                    seed: llc_seed,
                },
            });
        }
    }
    out
}

/// The Figure 7 and Table 8 runs. `salt` is zero in the campaign's input
/// set, which then runs the studies' own seed.
fn splash(salt: u64) -> Vec<Unit> {
    let ops = samples(60_000);
    let mut out = Vec::new();
    for p in Platform::ALL {
        let pad = flush_latency::table4_pad_us(p);
        for bench in all_benchmarks() {
            let fig7 = [
                ("raw", ProtectionConfig::raw(), (1, 1)),
                ("raw", ProtectionConfig::raw(), (3, 4)),
                ("raw", ProtectionConfig::raw(), (1, 2)),
                ("protected", ProtectionConfig::protected(), (1, 1)),
                ("protected", ProtectionConfig::protected(), (3, 4)),
                ("protected", ProtectionConfig::protected(), (1, 2)),
            ]
            .map(|(label, prot, colors)| (label, WorkloadRun::solo(p, prot, colors)));
            let table8 = [
                ("raw", ProtectionConfig::raw()),
                ("protected", ProtectionConfig::protected()),
                ("padded", ProtectionConfig::protected().with_pad_us(pad)),
            ]
            .map(|(label, prot)| (label, WorkloadRun::shared(p, prot, (1, 2))));
            for (label, run) in fig7.into_iter().chain(table8) {
                let mut run = run.with_ops(ops);
                run.seed ^= salt;
                let shape = if run.time_shared { "shared" } else { "solo" };
                let (num, den) = run.colors;
                let mechanism = format!("{shape}-{label}-{num}of{den}");
                out.push(Unit {
                    name: format!("{}/{}/{mechanism}", bench.name, p.key()),
                    experiment: "splash",
                    platform: p,
                    channel: "",
                    mechanism,
                    job: Job::Splash(bench, run),
                });
            }
        }
    }
    out
}

/// The cloud scenario: raw and protected on every platform, one unit per
/// vote seed.
fn fleet(base: u64) -> Vec<Unit> {
    let mut out = Vec::new();
    for p in Platform::ALL {
        for (mech, prot) in [
            ("raw", ProtectionConfig::raw()),
            ("protected", ProtectionConfig::protected()),
        ] {
            for (i, seed) in vote_seeds(base).into_iter().enumerate() {
                out.push(Unit {
                    name: format!("cloud/{}/{mech}/s{i}", p.key()),
                    experiment: "cloud",
                    platform: p,
                    channel: "cloud",
                    mechanism: mech.to_string(),
                    job: Job::Cloud(CloudSpec::new(p, prot, 96).with_seed(seed)),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const WORKLOADS: [&str; 3] = ["channels", "splash", "fleet"];

    #[test]
    fn unit_counts_per_workload() {
        // TP_SAMPLES only scales sample counts, never the unit lists.
        let count = |w| units(w, VOTE_SEED_BASE).expect("known workload").len();
        assert_eq!(count("channels"), 116);
        assert_eq!(count("splash"), 396);
        assert_eq!(count("fleet"), 24);
        assert!(units("nope", 0).is_none());
    }

    #[test]
    fn unit_names_are_unique() {
        for w in WORKLOADS {
            let us = units(w, 3).expect("known workload");
            let names: BTreeSet<&str> = us.iter().map(|u| u.name.as_str()).collect();
            assert_eq!(names.len(), us.len(), "{w}");
        }
    }

    #[test]
    fn campaign_seed_is_the_campaign_input_set() {
        assert_eq!(vote_base(VOTE_SEED_BASE), VOTE_SEED_BASE);
        let bases: BTreeSet<u64> = (0..INPUT_SETS).map(vote_base).collect();
        assert_eq!(bases.len() as u64, INPUT_SETS);
        assert_eq!(vote_base(1), vote_base(1 + INPUT_SETS));
    }
}
