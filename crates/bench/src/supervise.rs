//! The campaign supervisor: run every cell to a verdict, never to a hang.
//!
//! A *cell* is one experiment × platform combination. The supervisor runs
//! each cell exactly once, on its own worker thread, under `catch_unwind`
//! and a wall-clock watchdog, classifies the result into a
//! [`CellOutcome`], and hands the campaign binary enough structure to
//! quarantine a sick cell and keep going — a campaign always completes
//! with partial results.
//!
//! There are no retries. The simulator is deterministic: a cell that fails
//! on its canonical vote seeds fails the same way on every run, and a rerun
//! on other seeds would return verdicts the goldens do not describe. The
//! one failed attempt names the cell, the failing seed and the error.
//!
//! ```text
//!   spawn → run ─ Ok, no env failed ─────────────────────→ Ok
//!            ├─ Ok, a daemon failed in isolation ─────────→ EnvFailed
//!            ├─ SimError(watchdog) / recv timeout ────────→ TimedOut
//!            ├─ SimError(deadlock) ───────────────────────→ Deadlock
//!            ├─ SimError(stack overflow) ─────────────────→ StackOverflow
//!            └─ panic / SimError(program) ────────────────→ Panicked
//! ```
//!
//! All counters feed the `supervisor` object of `BENCH-campaign.json`; a
//! healthy campaign reports zeroes everywhere and CI gates on that.

use crate::campaign::ChannelResult;
use crate::store::{num_field, str_field};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tp_core::{fault, FaultPlan, SimError, SimErrorKind};

static TIMEOUTS: AtomicU64 = AtomicU64::new(0);
static PANICS: AtomicU64 = AtomicU64::new(0);
static QUARANTINED: AtomicU64 = AtomicU64::new(0);
static ENV_FAILED: AtomicU64 = AtomicU64::new(0);
static DEADLOCKS: AtomicU64 = AtomicU64::new(0);
static STACK_OVERFLOWS: AtomicU64 = AtomicU64::new(0);

/// Process-wide supervisor accounting, serialised into
/// `BENCH-campaign.json` as the `supervisor` object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorCounters {
    /// Cells stopped by the watchdog (engine or host side).
    pub timeouts: u64,
    /// Cells that panicked (host panic or simulated-program failure).
    pub panics: u64,
    /// Cells written to the quarantine ledger.
    pub quarantined: u64,
    /// Cells that completed with at least one environment failed in
    /// isolation (partial results over the survivors).
    pub env_failed: u64,
    /// Cells classified as a deterministic scheduler deadlock.
    pub deadlocks: u64,
    /// Cells killed by a dead stack guard canary.
    pub stack_overflows: u64,
}

/// Snapshot the supervisor counters.
#[must_use]
pub fn counters() -> SupervisorCounters {
    SupervisorCounters {
        timeouts: TIMEOUTS.load(Ordering::Relaxed),
        panics: PANICS.load(Ordering::Relaxed),
        quarantined: QUARANTINED.load(Ordering::Relaxed),
        env_failed: ENV_FAILED.load(Ordering::Relaxed),
        deadlocks: DEADLOCKS.load(Ordering::Relaxed),
        stack_overflows: STACK_OVERFLOWS.load(Ordering::Relaxed),
    }
}

/// Record that one cell was written to the quarantine ledger.
pub fn note_quarantined() {
    QUARANTINED.fetch_add(1, Ordering::Relaxed);
}

/// The supervisor's classification of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// The cell completed with every environment healthy.
    Ok,
    /// The cell panicked (host panic or simulated-program failure).
    Panicked,
    /// The cell was stopped by the watchdog (or abandoned outright).
    TimedOut,
    /// The cell completed, but one or more non-primary environments failed
    /// in isolation: partial results over the survivors, not a quarantine.
    EnvFailed,
    /// The cell ended in a deterministic scheduler deadlock (the driver
    /// proved no environment can ever be admitted again).
    Deadlock,
    /// The cell died on a clobbered stack guard canary.
    StackOverflow,
}

impl CellOutcome {
    /// Stable name used in the quarantine ledger.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CellOutcome::Ok => "ok",
            CellOutcome::Panicked => "panicked",
            CellOutcome::TimedOut => "timed-out",
            CellOutcome::EnvFailed => "env-failed",
            CellOutcome::Deadlock => "deadlock",
            CellOutcome::StackOverflow => "stack-overflow",
        }
    }

    fn counter(self) -> Option<&'static AtomicU64> {
        match self {
            CellOutcome::Ok => None,
            CellOutcome::Panicked => Some(&PANICS),
            CellOutcome::TimedOut => Some(&TIMEOUTS),
            CellOutcome::EnvFailed => Some(&ENV_FAILED),
            CellOutcome::Deadlock => Some(&DEADLOCKS),
            CellOutcome::StackOverflow => Some(&STACK_OVERFLOWS),
        }
    }
}

/// What the supervisor learned about one cell.
#[derive(Debug)]
pub struct CellReport {
    /// Final classification.
    pub outcome: CellOutcome,
    /// The cell's results, when the run completed (present for
    /// [`CellOutcome::Ok`] and [`CellOutcome::EnvFailed`]).
    pub channels: Option<Vec<ChannelResult>>,
    /// Environments that failed in isolation during the run (non-zero
    /// only for [`CellOutcome::EnvFailed`]).
    pub env_failed: u64,
    /// Human-readable failure description for non-`Ok` outcomes.
    pub error: Option<String>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Supervise one cell: run `f` once on a worker thread with the given
/// fault plan (if it matches this cell) and wall-clock deadline, and
/// classify the outcome.
pub fn run_cell(
    experiment: &str,
    platform: &str,
    plan: Option<&FaultPlan>,
    deadline: Duration,
    f: impl FnOnce() -> Result<Vec<ChannelResult>, SimError> + Send + 'static,
) -> CellReport {
    let armed = plan
        .filter(|p| p.matches(experiment, platform))
        .map(|p| p.kind);
    let (tx, rx) = mpsc::channel();
    let cutoff = Instant::now() + deadline;
    std::thread::spawn(move || {
        fault::arm(armed);
        fault::set_deadline(Some(cutoff));
        let r = catch_unwind(AssertUnwindSafe(f));
        // The driver runs inline on this thread, so the per-thread count is
        // exactly this cell's isolated environment failures.
        let _ = tx.send((r, tp_core::thread_env_failed()));
    });
    // Grace beyond the engine deadline: the engine watchdog should fire
    // first and return a classified error; the host-side timeout is the
    // backstop for a worker wedged outside the engine. A timed-out worker
    // is abandoned (detached), never joined.
    let grace = deadline + deadline / 4 + Duration::from_secs(10);
    let (outcome, channels, env_failed, error) = match rx.recv_timeout(grace) {
        Err(_) => (
            CellOutcome::TimedOut,
            None,
            0,
            Some(format!(
                "cell exceeded its {:.0}s deadline plus grace; worker abandoned",
                deadline.as_secs_f64()
            )),
        ),
        Ok((Err(payload), _)) => {
            // Cells whose experiments drive `SystemBuilder::run` (rather
            // than `try_run`) surface a watchdog abort as a panic carrying
            // the watchdog message; classify it by cause, not by transport.
            let msg = panic_message(payload.as_ref());
            let outcome = if msg.starts_with("watchdog") {
                CellOutcome::TimedOut
            } else if msg.starts_with("deadlock") {
                CellOutcome::Deadlock
            } else if msg.starts_with("stack overflow") {
                CellOutcome::StackOverflow
            } else {
                CellOutcome::Panicked
            };
            (outcome, None, 0, Some(msg))
        }
        Ok((Ok(Err(e)), _)) => {
            let outcome = match e.kind {
                SimErrorKind::Watchdog => CellOutcome::TimedOut,
                SimErrorKind::ProgramPanic => CellOutcome::Panicked,
                SimErrorKind::Deadlock { .. } => CellOutcome::Deadlock,
                SimErrorKind::StackOverflow => CellOutcome::StackOverflow,
            };
            (outcome, None, 0, Some(e.to_string()))
        }
        // Graceful degradation, not a quarantine: the cell completed with
        // partial results over the surviving environments.
        Ok((Ok(Ok(channels)), env_failed)) if env_failed > 0 => (
            CellOutcome::EnvFailed,
            Some(channels),
            env_failed,
            Some(format!(
                "{env_failed} environment(s) failed in isolation; \
                 results cover the survivors"
            )),
        ),
        Ok((Ok(Ok(channels)), _)) => (CellOutcome::Ok, Some(channels), 0, None),
    };
    if let Some(c) = outcome.counter() {
        c.fetch_add(1, Ordering::Relaxed);
    }
    CellReport {
        outcome,
        channels,
        env_failed,
        error,
    }
}

/// Parse a `TP_CELL_TIMEOUT` value (seconds). `None`/empty means "unset";
/// anything set but not a positive finite number is a hard error naming
/// the variable — a typo must never silently degrade to the default
/// deadline and let a wedged cell run 10× longer than asked.
///
/// # Errors
/// A human-readable message naming `TP_CELL_TIMEOUT` and the rejected
/// value.
pub fn parse_cell_timeout(raw: Option<&str>) -> Result<Option<Duration>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<f64>() {
        Ok(v) if v > 0.0 && v.is_finite() => Ok(Some(Duration::from_secs_f64(v))),
        _ => Err(format!(
            "TP_CELL_TIMEOUT: `{raw}` is not a positive number of seconds"
        )),
    }
}

/// The `TP_CELL_TIMEOUT` override, if set. Exits with status 2 on a
/// malformed value, naming the variable — same contract as `TP_FAULT`.
#[must_use]
pub fn cell_timeout_override() -> Option<Duration> {
    match parse_cell_timeout(std::env::var("TP_CELL_TIMEOUT").ok().as_deref()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// The wall-clock deadline for one cell: 20× its last recorded wall time
/// (clamped to \[30 s, 600 s\]), 120 s with no history, and whatever
/// `TP_CELL_TIMEOUT` (seconds) says when set.
#[must_use]
pub fn cell_deadline(history_seconds: Option<f64>) -> Duration {
    if let Some(d) = cell_timeout_override() {
        return d;
    }
    match history_seconds {
        Some(s) if s > 0.0 => Duration::from_secs_f64((s * 20.0).clamp(30.0, 600.0)),
        _ => Duration::from_secs(120),
    }
}

/// Parse the `cells` records of a previous `BENCH-campaign.json` into a
/// per-cell wall-time history (seconds), for deadline derivation. The
/// file is machine-written one cell object per line; unknown lines are
/// skipped, so a missing or stale file degrades to the default deadline.
#[must_use]
pub fn parse_bench_history(text: &str) -> BTreeMap<(String, String), f64> {
    let mut m = BTreeMap::new();
    for line in text.lines() {
        let (Some(exp), Some(plat), Some(secs)) = (
            str_field(line, "experiment"),
            str_field(line, "platform"),
            num_field(line, "seconds"),
        ) else {
            continue;
        };
        m.insert((exp.to_string(), plat.to_string()), secs);
    }
    m
}

/// One quarantined cell, as written to `goldens/quarantine.json`.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// Experiment name of the quarantined cell.
    pub experiment: String,
    /// Platform key of the quarantined cell.
    pub platform: String,
    /// Final classification (never `ok`).
    pub outcome: CellOutcome,
    /// The failure message, naming the failing seed when the cell's vote
    /// got that far.
    pub error: String,
}

/// Serialise the quarantine ledger: a JSON array, one entry per line,
/// `[]` when the campaign was healthy. Written on every campaign run so a
/// clean run visibly overwrites an old ledger.
#[must_use]
pub fn quarantine_json(entries: &[QuarantineEntry]) -> String {
    if entries.is_empty() {
        return "[]\n".to_string();
    }
    let mut s = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "  {{\"experiment\": \"{}\", \"platform\": \"{}\", \"outcome\": \"{}\", \"error\": \"{}\"}}{comma}",
            e.experiment,
            e.platform,
            e.outcome.name(),
            e.error.replace('\\', "\\\\").replace('"', "\\\""),
        );
    }
    s.push_str("]\n");
    s
}

/// The fault classification table, shared with `tests/health.rs`.
#[cfg(test)]
#[path = "../../../tests/common/fault_table.rs"]
mod fault_table;

#[cfg(test)]
mod tests {
    use super::fault_table::check;
    use super::*;
    use tp_core::FaultKind;

    /// A cell body that fails if any fault reached its worker thread.
    fn fault_free() -> Result<Vec<ChannelResult>, SimError> {
        assert_eq!(fault::armed(), None, "a fault reached this cell");
        Ok(Vec::new())
    }

    #[test]
    fn healthy_cell_is_ok_first_attempt() {
        let r = run_cell("tiny", "haswell", None, Duration::from_secs(60), fault_free);
        assert_eq!(r.outcome, CellOutcome::Ok, "{:?}", r.error);
        assert!(r.channels.is_some());
        assert!(r.error.is_none());
    }

    /// One attempt, and a second supervised run classifies the same cell
    /// identically: same outcome, same error.
    #[test]
    fn env_panic_classifies_as_panicked_with_deterministic_retries() {
        let first = check("env-panic@3");
        let again = check("env-panic@3");
        assert_eq!((again.outcome, again.error), (first.outcome, first.error));
    }

    #[test]
    fn env_stall_is_caught_by_the_watchdog_as_timed_out() {
        check("env-stall@3");
    }

    /// The detail is pinned to what the thread-per-environment engine and
    /// every worker-pool size reported before the single inline driver
    /// replaced them.
    #[test]
    fn lost_wakeup_classifies_as_deadlock_at_one_ordinal() {
        check("lost-wakeup@2");
    }

    #[test]
    fn stack_overflow_classifies_and_names_the_guard() {
        check("stack-overflow");
    }

    #[test]
    fn fleet_daemon_panic_degrades_to_env_failed() {
        check("env-panic@2");
    }

    #[test]
    fn scoped_plan_leaves_other_cells_alone() {
        let p = FaultPlan::parse("env-panic@3:cell=other/skylake").unwrap();
        let r = run_cell(
            "tiny",
            "haswell",
            Some(&p),
            Duration::from_secs(60),
            fault_free,
        );
        assert_eq!(r.outcome, CellOutcome::Ok, "{:?}", r.error);
        let r = run_cell(
            "other",
            "skylake",
            Some(&p),
            Duration::from_secs(60),
            || {
                assert_eq!(fault::armed(), Some(FaultKind::EnvPanic { at: 3 }));
                Ok(Vec::new())
            },
        );
        assert_eq!(r.outcome, CellOutcome::Ok, "{:?}", r.error);
    }

    #[test]
    fn cell_timeout_parses_or_errors_naming_the_variable() {
        assert_eq!(parse_cell_timeout(None), Ok(None));
        assert_eq!(parse_cell_timeout(Some("")), Ok(None));
        assert_eq!(parse_cell_timeout(Some("  ")), Ok(None));
        assert_eq!(
            parse_cell_timeout(Some("1.5")),
            Ok(Some(Duration::from_secs_f64(1.5)))
        );
        assert_eq!(
            parse_cell_timeout(Some(" 120 ")),
            Ok(Some(Duration::from_secs(120)))
        );
        for bad in ["soon", "0", "-5", "12s", "inf"] {
            let err = parse_cell_timeout(Some(bad)).unwrap_err();
            assert!(err.contains("TP_CELL_TIMEOUT"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn deadline_derivation_and_history_parse() {
        assert_eq!(cell_deadline(None), Duration::from_secs(120));
        assert_eq!(cell_deadline(Some(1.0)), Duration::from_secs(30));
        assert_eq!(cell_deadline(Some(10.0)), Duration::from_secs(200));
        assert_eq!(cell_deadline(Some(1e6)), Duration::from_secs(600));

        let hist = parse_bench_history(
            "{\n  \"cells\": [\n    {\"experiment\": \"l1d\", \"platform\": \"haswell\", \"seconds\": 1.250},\n    {\"experiment\": \"llc\", \"platform\": \"skylake\", \"seconds\": 9.000}\n  ]\n}\n",
        );
        assert_eq!(hist.len(), 2);
        assert!((hist[&("l1d".into(), "haswell".into())] - 1.25).abs() < 1e-9);
    }

    #[test]
    fn quarantine_ledger_roundtrips_shape() {
        assert_eq!(quarantine_json(&[]), "[]\n");
        let entries = vec![QuarantineEntry {
            experiment: "l1d".into(),
            platform: "haswell".into(),
            outcome: CellOutcome::Panicked,
            error: "seed 0x5eed: injected fault: env-panic at syscall 3".into(),
        }];
        let s = quarantine_json(&entries);
        assert!(s.contains("\"outcome\": \"panicked\""));
        assert!(s.contains("\"error\": \"seed 0x5eed: "));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }
}
