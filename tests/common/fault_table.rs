//! The fault classification table: every `TP_FAULT` class, the miniature
//! cell it is armed against, and the supervisor outcome it must produce.
//!
//! This is the one place that maps a fault class to its outcome. It is
//! included by `tests/health.rs`, which runs every row on the selected
//! coroutine backend, and by the unit tests of `tp_bench::supervise`, which
//! run one row per class. The includer brings `run_cell`, `CellOutcome`,
//! `CellReport` and `ChannelResult` into scope.

use super::{run_cell, CellOutcome, CellReport, ChannelResult};
use std::time::Duration;
use tp_core::{
    FaultPlan, ProtectionConfig, SimError, Syscall, SystemBuilder, SystemReport, UserEnv,
};
use tp_sim::{Platform, VAddr, FRAME_SIZE};

/// A miniature single-domain cell: enough syscalls to trip the env
/// faults, in well under a second.
fn probe_cell(seed: u64) -> Result<Vec<ChannelResult>, SimError> {
    let mut b = SystemBuilder::new(Platform::Haswell, ProtectionConfig::raw())
        .seed(seed)
        .max_cycles(200_000_000);
    let d = b.domain(None);
    b.spawn(d, 0, 100, |env: &mut UserEnv| {
        let (base, _) = env.map_pages(32);
        for i in 0..600u64 {
            env.load(VAddr(base.0 + (i % 32) * FRAME_SIZE));
            if i % 20 == 0 {
                let _ = env.syscall(Syscall::Yield);
            }
        }
    });
    b.try_run()?;
    Ok(Vec::new())
}

/// A two-core pair cell: one primary per core, each interleaving probe
/// loads with `Yield`s, so forward progress *requires* cross-core token
/// rotation — which `lost-wakeup` wedges.
pub fn pair_cell(seed: u64) -> Result<SystemReport, SimError> {
    let mut b = SystemBuilder::new(Platform::Haswell, ProtectionConfig::raw())
        .seed(seed)
        .max_cycles(400_000_000);
    let d0 = b.domain(None);
    let d1 = b.domain(None);
    for (core, d) in [d0, d1].into_iter().enumerate() {
        b.spawn(d, core, 100, move |env: &mut UserEnv| {
            let (base, _) = env.map_pages(16);
            for i in 0..400u64 {
                env.load(VAddr(base.0 + (i % 16) * FRAME_SIZE));
                if i % 25 == 0 {
                    let _ = env.syscall(Syscall::Yield);
                }
            }
        });
    }
    b.try_run()
}

/// A small fleet cell: one primary plus two daemon tenants in their own
/// domains on one core. The daemons issue all the early syscalls (tight
/// `Yield` loops), so a low-ordinal `env-panic@N` kills a *daemon*. With
/// `buggy`, the first daemon panics on its own after a few yields, with no
/// fault armed.
fn fleet_cell(seed: u64, buggy: bool) -> Result<Vec<ChannelResult>, SimError> {
    let mut b = SystemBuilder::new(Platform::Haswell, ProtectionConfig::raw())
        .seed(seed)
        .slice_us(50.0)
        .max_cycles(300_000_000);
    let d0 = b.domain(None);
    let d1 = b.domain(None);
    let d2 = b.domain(None);
    b.spawn(d0, 0, 100, |env: &mut UserEnv| {
        let (base, _) = env.map_pages(16);
        for i in 0..400u64 {
            env.load(VAddr(base.0 + (i % 16) * FRAME_SIZE));
            env.compute(500);
        }
    });
    for (i, d) in [d1, d2].into_iter().enumerate() {
        let dies = buggy && i == 0;
        b.spawn_daemon(d, 0, 100, move |env: &mut UserEnv| {
            for n in 0u64.. {
                assert!(!(dies && n == 5), "real daemon bug");
                let _ = env.syscall(Syscall::Yield);
            }
        });
    }
    b.try_run()?;
    Ok(Vec::new())
}

/// The synthetic cell a table row runs.
#[derive(Clone, Copy, Debug)]
pub enum Body {
    Probe,
    Pair,
    Fleet,
    BuggyFleet,
}

/// Every fault class, the outcome the supervisor must give it, and a
/// fragment its error must contain. An empty plan runs the cell unarmed.
pub const TABLE: &[(&str, Body, CellOutcome, &str)] = &[
    (
        "env-panic@3",
        Body::Probe,
        CellOutcome::Panicked,
        "env-panic",
    ),
    // The watchdog, not a hang.
    (
        "env-stall@3",
        Body::Probe,
        CellOutcome::TimedOut,
        "watchdog",
    ),
    // The deadlock detector, never the wall-clock watchdog.
    (
        "lost-wakeup@2",
        Body::Pair,
        CellOutcome::Deadlock,
        "deadlock: 1 environment(s) suspended with no runnable progress at interaction 17",
    ),
    (
        "stack-overflow",
        Body::Probe,
        CellOutcome::StackOverflow,
        "raise TP_STACK_KB",
    ),
    // An env-panic that lands on a fleet daemon is isolated: the cell
    // completes over the survivors.
    (
        "env-panic@2",
        Body::Fleet,
        CellOutcome::EnvFailed,
        "survivors",
    ),
    // A daemon that fails by itself, with no fault armed, is reported too.
    ("", Body::BuggyFleet, CellOutcome::EnvFailed, "survivors"),
    // A stall armed beyond the cell's interaction count never fires.
    ("env-stall@1000000", Body::Probe, CellOutcome::Ok, ""),
    // A plan scoped to another cell never arms this one.
    (
        "env-panic@3:cell=other/skylake",
        Body::Probe,
        CellOutcome::Ok,
        "",
    ),
];

/// Supervise the table row whose plan is `spec` and assert it classifies
/// as the row says: outcome, results present exactly when the cell
/// completed, the isolated-failure count, and the error fragment.
pub fn check(spec: &str) -> CellReport {
    let (i, &(_, body, expected, fragment)) = TABLE
        .iter()
        .enumerate()
        .find(|(_, row)| row.0 == spec)
        .unwrap_or_else(|| panic!("no table row for `{spec}`"));
    let plan = (!spec.is_empty()).then(|| FaultPlan::parse(spec).expect("table plan"));
    let seed = 0x0D1F_F000 + i as u64;
    // A stalled cell burns its whole deadline; keep that one short.
    let deadline = Duration::from_secs(if expected == CellOutcome::TimedOut {
        2
    } else {
        60
    });
    let r = run_cell(
        "probe",
        "haswell",
        plan.as_ref(),
        deadline,
        move || match body {
            Body::Probe => probe_cell(seed),
            Body::Pair => pair_cell(seed).map(|_| Vec::new()),
            Body::Fleet => fleet_cell(seed, false),
            Body::BuggyFleet => fleet_cell(seed, true),
        },
    );
    assert_eq!(
        r.outcome,
        expected,
        "`{spec}` on {body:?} classified {} (expected {}): {:?}",
        r.outcome.name(),
        expected.name(),
        r.error,
    );
    let completed = matches!(expected, CellOutcome::Ok | CellOutcome::EnvFailed);
    assert_eq!(r.channels.is_some(), completed, "`{spec}` on {body:?}");
    assert_eq!(r.env_failed > 0, expected == CellOutcome::EnvFailed);
    match &r.error {
        None => assert_eq!(expected, CellOutcome::Ok),
        Some(e) => assert!(
            e.contains(fragment) && !fragment.is_empty(),
            "`{spec}`: {e}"
        ),
    }
    r
}
