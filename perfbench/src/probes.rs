//! Fixed-shape probes of each layer's public functions.
//!
//! Every probe runs a fixed amount of work in `REPS` batches and reports
//! the median batch, per call. The shapes follow the workspace's
//! criterion benches, so a probe and its bench measure the same thing.

use crate::pass::CloudTally;
use std::hint::black_box;
use std::time::Instant;
use tp_analysis::kde::Kde;
use tp_analysis::{mutual_information, Dataset};
use tp_bench::campaign::VOTE_SEED_BASE;
use tp_bench::cloud::{run_cloud, CloudSpec};
use tp_core::kernel::{Kernel, Syscall};
use tp_core::objects::{CapObject, Capability, Rights};
use tp_core::{boot_stats, ProtectionConfig, SystemBuilder, UserEnv};
use tp_sim::mem::Mapping;
use tp_sim::{Asid, BatchOut, ColorSet, Machine, PAddr, PhysMap, Platform, VAddr, FRAME_SIZE};

const REPS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median over `REPS` batches of host ns per call of `f`, `iters` calls a
/// batch.
fn per_call_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect(),
    )
}

/// A deterministic SplitMix64 step (inputs for the analysis probes).
fn mix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn host_calib_ns() -> f64 {
    // A dependent multiply-xorshift chain: pure CPU, no memory traffic.
    per_call_ns(4_000_000, {
        let mut x = 0x1234_5678_u64;
        move || {
            x = black_box((x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        }
    })
}

fn sim_probes(out: &mut Vec<(String, f64)>) {
    let cfg = Platform::Haswell.config();
    let mut m = Machine::new(cfg, 1);
    m.data_access(0, Asid(1), VAddr(0x1000), PAddr(0x1000), false, false);
    out.push((
        "sim.access_l1_hit_ns".into(),
        per_call_ns(200_000, || {
            black_box(m.data_access(0, Asid(1), VAddr(0x1000), PAddr(0x1000), false, false));
        }),
    ));

    // A 4 KiB probe sweep: 64 lines through one plan, warmed into L1.
    let pas: Vec<PAddr> = (0..64).map(|i| PAddr(0x40_0000 + i * 64)).collect();
    let plan = m.plan_sweep(false, &pas);
    m.access_batch(0, Asid(1), &plan, false, false, &mut BatchOut::default());
    out.push((
        "sim.sweep_4k_ns".into(),
        per_call_ns(20_000, || {
            black_box(m.access_batch(0, Asid(1), &plan, false, false, &mut BatchOut::default()));
        }),
    ));

    // Streaming past the LLC (64 MiB span), three stores in ten.
    let mut i = 0u64;
    out.push((
        "sim.access_stream_ns".into(),
        per_call_ns(200_000, || {
            i = i.wrapping_add(1);
            let a = 0x10_0000 + (i * 64) % (64 << 20);
            black_box(m.data_access(0, Asid(1), VAddr(a), PAddr(a), i % 10 < 3, false));
        }),
    ));

    let mut pm = PhysMap::new(Asid(1));
    for vpn in 0..1024u64 {
        let mapping = Mapping {
            pfn: 4096 + vpn,
            global: false,
            writable: true,
        };
        pm.map(0x10000 + vpn, mapping);
    }
    let mut j = 0u64;
    out.push((
        "sim.translate_ns".into(),
        per_call_ns(500_000, || {
            j = (j + 1) % 1024;
            black_box(pm.translate(VAddr((0x10000 + j) * FRAME_SIZE + 8)));
        }),
    ));

    // The §4.3 full flush as the switch path issues it, after dirtying
    // 256 lines; only the flush is timed.
    for p in Platform::ALL {
        let mut m = Machine::new(p.config(), 1);
        let x86 = m.cfg.llc.is_some();
        let mut samples = Vec::new();
        for _ in 0..REPS {
            let mut ns = 0u128;
            for _ in 0..20 {
                for k in 0..256u64 {
                    let a = 0x20_0000 + k * 64;
                    m.data_access(0, Asid(1), VAddr(a), PAddr(a), true, false);
                }
                let t0 = Instant::now();
                if x86 {
                    tp_sim::flush::wbinvd(&mut m, 0);
                    tp_sim::flush::flush_tlbs(&mut m, 0);
                    tp_sim::flush::flush_branch_predictor(&mut m, 0);
                } else {
                    tp_sim::flush::arm_full_flush(&mut m, 0);
                }
                ns += t0.elapsed().as_nanos();
            }
            samples.push(ns as f64 / 20.0 / 1e3);
        }
        out.push((format!("sim.flush_full_us.{}", p.key()), median(samples)));
    }
}

fn kernel_for(p: Platform, prot: ProtectionConfig) -> (Machine, Kernel) {
    let cfg = p.config();
    (
        Machine::new(cfg, 3),
        Kernel::new(cfg, prot, 16_384, u64::MAX / 4),
    )
}

fn kernel_probes(out: &mut Vec<(String, f64)>) {
    for (label, prot) in [
        ("raw", ProtectionConfig::raw()),
        ("protected", ProtectionConfig::protected()),
    ] {
        for p in Platform::ALL {
            let (mut m, mut k) = kernel_for(p, prot);
            let n = p.config().partition_colors();
            let d0 = k
                .create_domain(ColorSet::range(0, n / 2), 1024)
                .expect("domain");
            let d1 = k
                .create_domain(ColorSet::range(n / 2, n), 1024)
                .expect("domain");
            if prot.clone_kernel {
                k.clone_kernel_for_domain(&mut m, 0, d0).expect("clone");
                k.clone_kernel_for_domain(&mut m, 0, d1).expect("clone");
            }
            k.create_thread(d0, 0, 100).expect("thread");
            k.create_thread(d1, 0, 100).expect("thread");
            let iters = if prot.clone_kernel { 40 } else { 2_000 };
            let ns = per_call_ns(iters, || {
                black_box(k.handle_tick(&mut m, 0));
            });
            out.push((format!("kernel.tick_{label}_us.{}", p.key()), ns / 1e3));
        }
    }

    let (mut m, mut k) = kernel_for(Platform::Haswell, ProtectionConfig::raw());
    let t = k.create_thread(k.boot_domain, 0, 100).expect("thread");
    let n = k.create_notification(k.boot_domain).expect("notification");
    let cap = k.grant_cap(
        t,
        Capability {
            obj: CapObject::Notification(n),
            rights: Rights::all(),
        },
    );
    k.cores[0].cur = Some(t);
    out.push((
        "kernel.syscall_signal_ns".into(),
        per_call_ns(20_000, || {
            black_box(k.syscall(&mut m, 0, t, Syscall::Signal { cap }));
        }),
    ));

    let (mut m, mut k) = kernel_for(Platform::Haswell, ProtectionConfig::protected());
    let d = k
        .create_domain(ColorSet::range(0, 4), 4096)
        .expect("domain");
    out.push((
        "kernel.clone_destroy_us".into(),
        per_call_ns(20, || {
            let img = k.clone_kernel_for_domain(&mut m, 0, d).expect("clone");
            k.kernel_destroy(&mut m, 0, img).expect("destroy");
        }) / 1e3,
    ));
}

fn coro_round_trip_ns(thread: bool, iters: usize) -> f64 {
    let total = REPS * iters + 1;
    let body = move || {
        for _ in 0..total {
            tp_exec::suspend();
        }
    };
    let mut c = if thread {
        tp_exec::Coro::thread_backed(body)
    } else {
        tp_exec::Coro::new(body)
    };
    c.resume();
    let ns = per_call_ns(iters, || {
        black_box(c.resume());
    });
    while !c.resume() {}
    ns
}

/// Host µs per preemption tick of a raw Haswell system whose `envs`
/// environments all loop on `wait_preempt`; boot time is excluded.
fn preempt_us(envs: usize, rotations: usize) -> f64 {
    let frames = 64;
    let mut b = SystemBuilder::new(Platform::Haswell, ProtectionConfig::raw())
        .slice_us(50.0)
        .ram_frames((2 * envs * frames + 16_384) as u64)
        .max_cycles(1 << 42);
    for i in 0..envs {
        let d = b.domain_sized(None, frames);
        if i == 0 {
            b.spawn(d, 0, 100, move |env: &mut UserEnv| {
                for _ in 0..rotations {
                    let _ = env.wait_preempt();
                }
            });
        } else {
            b.spawn_daemon(d, 0, 100, |env: &mut UserEnv| loop {
                let _ = env.wait_preempt();
            });
        }
    }
    let boot0 = boot_stats();
    let t0 = Instant::now();
    let report = b.try_run().expect("preemption probe system runs");
    let ns = t0.elapsed().as_nanos() as f64;
    let boot1 = boot_stats();
    let boot_ns =
        (boot1.cold_nanos + boot1.warm_nanos - boot0.cold_nanos - boot0.warm_nanos) as f64;
    (ns - boot_ns) / report.stats.ticks.max(1) as f64 / 1e3
}

fn engine_probes(out: &mut Vec<(String, f64)>) {
    out.push((
        "exec.resume_suspend_ns.stack".into(),
        coro_round_trip_ns(false, 50_000),
    ));
    out.push((
        "exec.resume_suspend_ns.thread".into(),
        coro_round_trip_ns(true, 2_000),
    ));
    for (name, envs, rotations) in [("2env", 2, 1_000), ("104env", 104, 20)] {
        let us = median((0..REPS).map(|_| preempt_us(envs, rotations)).collect());
        out.push((format!("engine.preempt_us.{name}"), us));
    }
}

fn analysis_probes(out: &mut Vec<(String, f64)>) {
    let mut z = 5u64;
    let mut d = Dataset::new(8);
    for _ in 0..1_000 {
        let s = (mix(&mut z) % 8) as usize;
        let o = (mix(&mut z) % 10_000) as f64 / 100.0 + s as f64 * 10.0;
        d.push(s, o);
    }
    out.push((
        "analysis.mi_1k_us".into(),
        per_call_ns(50, || {
            black_box(mutual_information(&d));
        }) / 1e3,
    ));
    let samples = d.class(3);
    let kde = Kde::fit(&samples, 0.0, 180.0, 180.0 / 256.0);
    out.push((
        "analysis.kde_256_us".into(),
        per_call_ns(500, || {
            black_box(kde.density_grid_aligned(256));
        }) / 1e3,
    ));
}

/// `cloud.*` from one raw and one protected 96-tenant cloud run on
/// Haswell at the campaign seed, for traced runs of workloads that do not
/// run the cloud scenario themselves.
fn cloud_probe(out: &mut Vec<(String, f64)>) {
    let mut tally = CloudTally::default();
    for prot in [ProtectionConfig::raw(), ProtectionConfig::protected()] {
        let spec = CloudSpec::new(Platform::Haswell, prot, 96).with_seed(VOTE_SEED_BASE);
        let t0 = Instant::now();
        let r = run_cloud(&spec).expect("cloud probe runs");
        tally.add(
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            &r,
        );
    }
    out.extend(tally.metrics());
}

/// Run every probe; metric name → value.
#[must_use]
pub fn run_all() -> Vec<(String, f64)> {
    let mut out = vec![("host.calib_ns".to_string(), host_calib_ns())];
    sim_probes(&mut out);
    kernel_probes(&mut out);
    engine_probes(&mut out);
    analysis_probes(&mut out);
    cloud_probe(&mut out);
    out
}
