//! Executor health plane: the fault classification table and the
//! deterministic deadlock detector.
//!
//! Three contracts are pinned here, in their own process (fault injection
//! necessarily trips the supervisor's global counters, which
//! `tests/supervision.rs` asserts stay zero in a fault-free process):
//!
//! * **Classification**: [`TABLE`] (`tests/common/fault_table.rs`) is the
//!   one place that maps each `TP_FAULT` class to the supervisor outcome it
//!   must produce, including a real (unarmed) daemon failure and the inert
//!   stall ordinal.
//! * **Cause and confinement**: a fault in a real campaign cell names the
//!   failing vote seed, and the next unarmed run of that cell is
//!   byte-identical to an unsupervised one.
//! * **Deadlock pin**: a `lost-wakeup` wedge is classified by the driver
//!   as a typed [`tp_core::SimErrorKind::Deadlock`] at one exact
//!   interaction ordinal, never by the wall-clock watchdog.
//!
//! CI runs this file under both coroutine backends.

use std::sync::Once;
use std::time::Duration;
use tp_bench::campaign::{registry, results_json, ChannelResult, ExperimentResult, VOTE_SEED_BASE};
use tp_bench::supervise::{run_cell, CellOutcome, CellReport};
use tp_core::{fault, FaultKind, FaultPlan, SimErrorKind};
use tp_sim::Platform;

#[path = "common/fault_table.rs"]
mod fault_table;
use fault_table::{check, pair_cell, TABLE};

/// Every row of the table classifies as it says on the coroutine backend
/// `TP_CORO` selects; CI runs this file under both, so a fault class
/// classifies identically across executors.
#[test]
fn legacy_fault_classes_classify_identically_across_executors() {
    for &(spec, ..) in TABLE {
        check(spec);
    }
}

/// The env-stall ordinal counts interactions: a stall armed *beyond* the
/// cell's interaction count never fires.
#[test]
fn env_stall_ordinal_counts_interactions_identically() {
    let r = check("env-stall@1000000");
    assert_eq!(r.outcome, CellOutcome::Ok, "{:?}", r.error);
}

/// A fault in a real campaign cell fails its one attempt with an error
/// naming the fault and the vote seed it hit; the next, unarmed run of the
/// same cell is byte-identical to an unsupervised run, so the fault stayed
/// in its own cell. Interaction 2 of the tlb cell's first system belongs to
/// its primary (the receiver); interactions 1, 3 and 5 belong to the sender
/// daemon, where the fault would only degrade the cell to `env-failed`.
#[test]
fn real_cell_failure_names_its_seed_and_stays_in_its_cell() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::env::set_var("TP_SAMPLES", "0.05"));
    let def = registry()
        .into_iter()
        .find(|d| d.name == "tlb")
        .expect("tlb in the registry");
    let run = def.run;
    let p = Platform::Haswell;
    let plan = FaultPlan::parse("env-panic@2").expect("plan");
    let faulted = run_cell(
        "tlb",
        p.key(),
        Some(&plan),
        Duration::from_secs(600),
        move || run(p),
    );
    assert_eq!(
        faulted.outcome,
        CellOutcome::Panicked,
        "{:?}",
        faulted.error
    );
    let err = faulted.error.expect("failure detail");
    assert!(err.contains("env-panic"), "{err}");
    assert!(err.contains(&format!("seed {VOTE_SEED_BASE:#x}")), "{err}");

    let healthy = run_cell("tlb", p.key(), None, Duration::from_secs(600), move || {
        run(p)
    });
    assert_eq!(healthy.outcome, CellOutcome::Ok, "{:?}", healthy.error);
    let json = |channels| {
        results_json(
            &[ExperimentResult {
                experiment: "tlb",
                platform: p,
                seconds: 0.0,
                channels,
            }],
            0.0,
        )
    };
    assert_eq!(
        json(healthy.channels.expect("Ok report carries channels")),
        json(run(p).expect("direct run")),
    );
}

/// The deadlock detector fires deterministically: the typed error —
/// waiting environments *and* interaction ordinal — and its message match
/// the pinned reference, so logs are diffable across hosts and backends.
#[test]
fn lost_wakeup_deadlock_matches_pinned_detail() {
    fault::arm(Some(FaultKind::LostWakeup { at: 2 }));
    let r = pair_cell(0x0D1F_F200);
    fault::arm(None);
    let e = r.expect_err("the wedged token must be detected, not completed");
    assert_eq!(
        e.kind,
        SimErrorKind::Deadlock {
            waiting_envs: vec![0],
            at_interaction: 17,
        }
    );
    assert_eq!(
        e.message,
        "deadlock: 1 environment(s) suspended with no runnable progress at interaction 17"
    );
}
