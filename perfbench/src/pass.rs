//! One pass of a workload: every unit, one after another, timed on the
//! host, with a digest of each unit's simulated results.
//!
//! With tracing on, the pass also records spans around each call into a
//! layer, re-runs the §5.1 leakage test on every returned dataset (the
//! re-run must reproduce the attack's M and M0 bit-for-bit, and its time
//! splits attack self time from analysis time), and folds the spans into
//! the per-layer ledger.

use crate::trace::Tracer;
use crate::units::{vote_base, vote_seeds, Job, Unit};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use tp_analysis::leakage_test;
use tp_attacks::harness::ChannelOutcome;
use tp_core::{boot_stats, health_stats, BootStats, HealthStats, SimError};

/// Experiments of the `channels` workload, in registry order; each gets
/// an `attacks.measure_ms.<experiment>` ledger entry.
pub const EXPERIMENTS: [&str; 11] = [
    "l1d",
    "l1i",
    "tlb",
    "btb",
    "bhb",
    "l2",
    "kernel-image",
    "flush-latency",
    "interrupt",
    "bus",
    "llc",
];

/// FNV-1a over 64-bit words: the unit digest. Kept here rather than
/// borrowed from the program so that a change to the program's hashing
/// cannot move the reference.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn outcome(&mut self, o: &ChannelOutcome) {
        self.word(o.dataset.len() as u64);
        self.f64(o.verdict.m.bits);
        self.f64(o.verdict.m0_bits);
        self.f64(o.verdict.null_mean_bits);
        self.f64(o.verdict.null_sd_bits);
        self.word(u64::from(o.verdict.leaks));
    }
}

/// Host-time accounting of a traced pass, in ns.
#[derive(Default)]
struct Ledger {
    /// Per experiment: (seeded measurements, self ns).
    measure: BTreeMap<&'static str, (u64, u64)>,
    leakage_tests: u64,
    leakage_ns: u64,
    splash_runs: u64,
    splash_ns: u64,
    splash_ops: u64,
    splash_cycles: u64,
    cloud: CloudTally,
}

/// Host time of `run_cloud` calls, against the requests and simulated
/// time they produced.
#[derive(Default)]
pub struct CloudTally {
    runs: u64,
    ns: u64,
    requests: u64,
    sim_s: f64,
}

impl CloudTally {
    /// Count one run that took `ns` host ns.
    pub fn add(&mut self, ns: u64, r: &tp_bench::cloud::CloudReport) {
        self.runs += 1;
        self.ns += ns;
        self.requests += r.completed as u64;
        self.sim_s += r.sim_seconds;
    }

    /// The `cloud.*` ledger entries.
    #[must_use]
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let sim_ms_per_host_s = if self.ns == 0 {
            0.0
        } else {
            self.sim_s * 1e3 / (self.ns as f64 / 1e9)
        };
        vec![
            (
                "cloud.run_ms".into(),
                mean(self.ns as f64 * 1e-6, self.runs),
            ),
            (
                "cloud.host_us_per_request".into(),
                mean(self.ns as f64 / 1e3, self.requests),
            ),
            ("cloud.sim_ms_per_host_s".into(), sim_ms_per_host_s),
        ]
    }
}

/// The result of one unit.
struct UnitOut {
    ns: u64,
    digest: u64,
    leaks: Option<bool>,
    error: Option<String>,
}

/// Re-run the leakage test the attack ran on its dataset; the verdict
/// must match bit-for-bit. Returns the re-run's host ns.
fn cross_check(
    t: &mut Tracer,
    ledger: &mut Ledger,
    unit: usize,
    parent: usize,
    o: &ChannelOutcome,
    seed: u64,
) -> Result<u64, String> {
    let sp = t.open("analysis.leakage_test", unit, Some(parent));
    let v = leakage_test(&o.dataset, seed ^ 0x0F0F_F0F0);
    let ns = t.close(sp);
    ledger.leakage_tests += 1;
    ledger.leakage_ns += ns;
    if v.m.bits.to_bits() != o.verdict.m.bits.to_bits()
        || v.m0_bits.to_bits() != o.verdict.m0_bits.to_bits()
    {
        return Err(format!(
            "leakage_test re-run differs: M {} vs {}, M0 {} vs {}",
            v.m.bits, o.verdict.m.bits, v.m0_bits, o.verdict.m0_bits
        ));
    }
    Ok(ns)
}

fn run_job(
    unit: &Unit,
    idx: usize,
    base: u64,
    t: &mut Tracer,
    ledger: &mut Ledger,
    span: usize,
) -> Result<(u64, Option<bool>), String> {
    let sim = |e: SimError| e.to_string();
    let mut h = Digest::new();
    let leaks = match &unit.job {
        Job::Cell(measure) => {
            let mut votes = 0;
            for seed in vote_seeds(base) {
                let sp = t.open("attacks.measure", idx, Some(span));
                let o = measure(seed).map_err(sim)?;
                let ns = t.close(sp);
                h.outcome(&o);
                votes += usize::from(o.verdict.leaks);
                if t.on() {
                    let analysis = cross_check(t, ledger, idx, span, &o, seed)?;
                    let e = ledger.measure.entry(unit.experiment).or_default();
                    e.0 += 1;
                    e.1 += ns.saturating_sub(analysis);
                }
            }
            Some(votes * 2 > 3)
        }
        Job::Llc { prot, slots, seed } => {
            let sp = t.open("attacks.measure", idx, Some(span));
            let r = tp_attacks::llc::try_llc_attack_on(unit.platform, *prot, *slots, *seed)
                .map_err(sim)?;
            let ns = t.close(sp);
            let e = ledger.measure.entry(unit.experiment).or_default();
            e.0 += 1;
            e.1 += ns;
            h.f64(r.accuracy);
            h.word(u64::from(r.activity_detected));
            h.word(r.trace.len() as u64);
            for &b in &r.recovered_bits {
                h.word(u64::from(b));
            }
            Some(r.activity_detected && r.accuracy > 0.65)
        }
        Job::Splash(bench, run) => {
            let sp = t.open("workloads.run", idx, Some(span));
            let r = tp_workloads::run_workload(bench, run).map_err(sim)?;
            ledger.splash_ns += t.close(sp);
            ledger.splash_runs += 1;
            ledger.splash_ops += r.ops as u64;
            ledger.splash_cycles += r.cycles;
            h.word(r.cycles);
            h.word(r.ops as u64);
            None
        }
        Job::Cloud(spec) => {
            let sp = t.open("cloud.run", idx, Some(span));
            let r = tp_bench::cloud::run_cloud(spec).map_err(sim)?;
            ledger.cloud.add(t.close(sp), &r);
            if r.failed_tenants > 0 {
                return Err(format!("{} tenants failed", r.failed_tenants));
            }
            h.outcome(&r.outcome);
            h.word(r.completed as u64);
            h.f64(r.throughput_rps);
            h.f64(r.sim_seconds);
            h.f64(r.p50_us);
            h.f64(r.p95_us);
            if t.on() {
                cross_check(t, ledger, idx, span, &r.outcome, spec.seed)?;
            }
            Some(r.outcome.verdict.leaks)
        }
    };
    Ok((h.0, leaks))
}

fn health_delta(a: &HealthStats, b: &HealthStats) -> u64 {
    (b.env_failed - a.env_failed)
        + (b.deadlocks - a.deadlocks)
        + (b.stack_overflows - a.stack_overflows)
}

fn run_unit(unit: &Unit, idx: usize, base: u64, t: &mut Tracer, ledger: &mut Ledger) -> UnitOut {
    let health0 = health_stats();
    let span = t.open("unit", idx, None);
    let t0 = Instant::now();
    let res = run_job(unit, idx, base, t, ledger, span);
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    t.close(span);
    let sick = health_delta(&health0, &health_stats());
    let (digest, leaks, mut error) = match res {
        Ok((d, l)) => (d, l, None),
        Err(e) => (0, None, Some(e)),
    };
    if sick > 0 && error.is_none() {
        error = Some(format!("{sick} executor health events"));
    }
    UnitOut {
        ns,
        digest,
        leaks,
        error,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn mean(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// The per-layer ledger of a traced pass, as metric name → value. A
/// layer the workload never enters reads 0, except `cloud.*`, which is
/// left out.
fn ledger_metrics(l: &Ledger, boot: &BootStats, units_ns: u64) -> Vec<(String, f64)> {
    let ms = 1e-6;
    let boots = boot.cold_boots + boot.warm_boots;
    let mut m = vec![
        (
            "boot.cold_ms".into(),
            mean(boot.cold_nanos as f64 * ms, boot.cold_boots),
        ),
        (
            "boot.warm_ms".into(),
            mean(boot.warm_nanos as f64 * ms, boot.warm_boots),
        ),
        ("boot.cold_count".into(), boot.cold_boots as f64),
        ("boot.warm_count".into(), boot.warm_boots as f64),
        (
            "boot.warm_ratio".into(),
            mean(boot.warm_boots as f64, boots),
        ),
        (
            "analysis.leakage_test_ms".into(),
            mean(l.leakage_ns as f64 * ms, l.leakage_tests),
        ),
        ("analysis.leakage_test_count".into(), l.leakage_tests as f64),
        // The re-runs double the analysis work of a traced pass; the
        // share is taken of the pass without them.
        (
            "analysis.share".into(),
            mean(l.leakage_ns as f64, units_ns.saturating_sub(l.leakage_ns)),
        ),
    ];
    for e in EXPERIMENTS {
        let (n, ns) = l.measure.get(e).copied().unwrap_or_default();
        m.push((format!("attacks.measure_ms.{e}"), mean(ns as f64 * ms, n)));
    }
    m.extend([
        (
            "workloads.run_ms".into(),
            mean(l.splash_ns as f64 * ms, l.splash_runs),
        ),
        (
            "workloads.host_ns_per_op".into(),
            mean(l.splash_ns as f64, l.splash_ops),
        ),
        (
            "workloads.sim_cycles_per_host_us".into(),
            if l.splash_ns == 0 {
                0.0
            } else {
                l.splash_cycles as f64 / (l.splash_ns as f64 / 1e3)
            },
        ),
    ]);
    // Passes that run no cloud scenario leave `cloud.*` to the probe.
    if l.cloud.runs > 0 {
        m.extend(l.cloud.metrics());
    }
    m
}

/// Run one pass of `units` and return its JSON record (one line). With
/// `spans` set, tracing is on and the spans are written there.
///
/// # Errors
/// Returns an error only if the span file cannot be written; unit
/// failures are reported in the record.
pub fn run(
    workload: &str,
    seed: u64,
    units: &[Unit],
    spans: Option<&str>,
) -> std::io::Result<String> {
    let base = vote_base(seed);
    let mut t = Tracer::new(spans.is_some());
    let mut ledger = Ledger::default();
    let boot0 = boot_stats();
    let outs: Vec<UnitOut> = units
        .iter()
        .enumerate()
        .map(|(i, u)| run_unit(u, i, base, &mut t, &mut ledger))
        .collect();
    let b1 = boot_stats();
    let boot = BootStats {
        cold_boots: b1.cold_boots - boot0.cold_boots,
        warm_boots: b1.warm_boots - boot0.warm_boots,
        cold_nanos: b1.cold_nanos - boot0.cold_nanos,
        warm_nanos: b1.warm_nanos - boot0.warm_nanos,
        fallback_boots: b1.fallback_boots - boot0.fallback_boots,
    };

    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": {}, \"seed\": {seed}, \"boot_s\": {:.9}, \"units\": [",
        json_str(workload),
        (boot.cold_nanos + boot.warm_nanos) as f64 / 1e9
    );
    for (i, (u, o)) in units.iter().zip(&outs).enumerate() {
        let comma = if i > 0 { ", " } else { "" };
        let leaks = o.leaks.map_or("null".to_string(), |l| l.to_string());
        let error = o.error.as_deref().map_or("null".to_string(), json_str);
        let _ = write!(
            s,
            "{comma}{{\"name\": {}, \"experiment\": {}, \"platform\": \"{}\", \"channel\": {}, \"mechanism\": {}, \"ms\": {:.6}, \"digest\": \"{:016x}\", \"leaks\": {leaks}, \"error\": {error}}}",
            json_str(&u.name),
            json_str(u.experiment),
            u.platform.key(),
            json_str(u.channel),
            json_str(&u.mechanism),
            o.ns as f64 / 1e6,
            o.digest
        );
    }
    s.push_str("], \"ledger\": ");
    if let Some(path) = spans {
        let units_ns = outs.iter().map(|o| o.ns).sum();
        let metrics = ledger_metrics(&ledger, &boot, units_ns);
        s.push('{');
        for (i, (k, v)) in metrics.iter().enumerate() {
            let comma = if i > 0 { ", " } else { "" };
            let _ = write!(s, "{comma}{}: {v:.9}", json_str(k));
        }
        s.push('}');
        std::fs::write(path, t.to_json())?;
    } else {
        s.push_str("null");
    }
    s.push('}');
    Ok(s)
}
