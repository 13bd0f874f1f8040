//! Chaos harness: prove that the durable store recovers a real `campaign`
//! process from death and from cell-cache damage.
//!
//! ```text
//! cargo build --release -p tp-bench --bin campaign
//! cargo run --release -p tp-bench --bin chaos                # every class
//! TP_FAULT=kill@2 cargo run --release -p tp-bench --bin chaos  # one class
//! ```
//!
//! The harness runs the real `campaign` binary as a subprocess in a scratch
//! directory, injures it — `kill@N` SIGKILLs it once N cell cache files
//! exist, `torn-write` truncates a cache file, `cache-rot` flips a byte
//! inside one (both on the lexicographically first file) — and then runs
//! `campaign --resume`, asserting the resumed run exits cleanly and
//! produces the same artifacts (byte-identical goldens, results modulo
//! wall times) as an undisturbed reference run.
//!
//! The in-process fault classes (`env-panic`, `env-stall`, `lost-wakeup`,
//! `stack-overflow`) need no subprocess: their classification table is
//! `tests/health.rs`. Any mismatch exits nonzero.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use tp_bench::cli;
use tp_bench::store::{u64_field, CACHE_DIR};
use tp_bench::util::Table;

/// The cell subset the store scenarios run: four cheap cells, enough to
/// kill a campaign between cache writes and still finish fast.
const CHILD_CELLS: &[&str] = &["--only", "tlb,btb", "--platform", "haswell,sabre"];

/// A process-level fault injected around the real `campaign` binary.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StoreFault {
    /// SIGKILL the campaign subprocess once N cell cache files exist.
    Kill(u64),
    /// Truncate the first cache file, as a crash mid-write would.
    TornWrite,
    /// Flip one byte inside the first cache file.
    CacheRot,
}

impl StoreFault {
    fn all() -> Vec<StoreFault> {
        vec![
            StoreFault::Kill(2),
            StoreFault::TornWrite,
            StoreFault::CacheRot,
        ]
    }

    fn parse(raw: &str) -> Option<StoreFault> {
        match raw.trim() {
            "torn-write" => Some(StoreFault::TornWrite),
            "cache-rot" => Some(StoreFault::CacheRot),
            "kill" => Some(StoreFault::Kill(2)),
            other => other
                .strip_prefix("kill@")
                .and_then(|n| n.parse().ok())
                .map(StoreFault::Kill),
        }
    }

    fn name(self) -> String {
        match self {
            StoreFault::Kill(n) => format!("kill@{n}"),
            StoreFault::TornWrite => "torn-write".to_string(),
            StoreFault::CacheRot => "cache-rot".to_string(),
        }
    }
}

/// The real `campaign` binary, expected next to this executable.
fn campaign_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate chaos binary: {e}"))?;
    let name = if cfg!(windows) {
        "campaign.exe"
    } else {
        "campaign"
    };
    let exe = me.with_file_name(name);
    if exe.exists() {
        Ok(exe)
    } else {
        Err(format!(
            "{} not found; build it first: cargo build --release -p tp-bench --bin campaign",
            exe.display()
        ))
    }
}

/// The effort scale forwarded to campaign subprocesses: the caller's
/// `TP_SAMPLES` when set, otherwise the CI default of 0.25.
fn child_samples() -> String {
    std::env::var("TP_SAMPLES")
        .ok()
        .filter(|s| !s.trim().is_empty())
        .unwrap_or_else(|| "0.25".to_string())
}

/// A campaign subprocess invocation in `dir`. `TP_THREADS=1` makes cells
/// finish one at a time, so `kill@N` lands between cache writes;
/// results are thread-count-invariant so the reference run matches.
fn campaign_cmd(exe: &Path, dir: &Path, resume: bool) -> Command {
    let mut c = Command::new(exe);
    c.current_dir(dir)
        .args(CHILD_CELLS)
        .args(["--json", "results.json", "--update-goldens", "goldens.json"])
        .env_remove("TP_FAULT")
        .env("TP_SAMPLES", child_samples())
        .env("TP_THREADS", "1")
        .stdout(Stdio::null());
    if resume {
        c.arg("--resume");
    }
    c
}

fn run_campaign(exe: &Path, dir: &Path, resume: bool) -> Result<(), String> {
    let out = campaign_cmd(exe, dir, resume)
        .output()
        .map_err(|e| format!("cannot spawn campaign: {e}"))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "campaign in {} exited with {}:\n{}",
            dir.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr),
        ))
    }
}

/// Strip wall-clock-dependent content from a `results.json`: the
/// `total_seconds` line, per-cell `"seconds"` fields, and the store
/// trailer (whose checksum covers the stripped bytes).
fn normalize_results(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        if line.contains("\"total_seconds\"") || line.starts_with("{\"tp_store\": ") {
            continue;
        }
        let mut line = line.to_string();
        if let Some(i) = line.find("\"seconds\": ") {
            if let Some(j) = line[i..].find(", ") {
                line.replace_range(i..i + j + 2, "");
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The cell cache files in `dir`'s cache, sorted by name (temp files
/// and `.bak` rotations excluded).
fn cache_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join(CACHE_DIR))
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

/// Rewrite the lexicographically first cache file in `dir` through
/// `injure`.
fn injure_first_cache_file(dir: &Path, injure: impl FnOnce(&mut Vec<u8>)) -> Result<(), String> {
    let path = cache_files(dir)
        .into_iter()
        .next()
        .ok_or("no cache file to injure")?;
    let mut bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    injure(&mut bytes);
    std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_to_string(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The undisturbed reference artifacts every damaged run must reproduce.
struct Reference {
    goldens: String,
    results_norm: String,
}

fn reference_run(exe: &Path, base: &Path) -> Result<Reference, String> {
    let dir = base.join("ref");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    run_campaign(exe, &dir, false)?;
    Ok(Reference {
        goldens: read_to_string(&dir.join("goldens.json"))?,
        results_norm: normalize_results(&read_to_string(&dir.join("results.json"))?),
    })
}

/// Assert a resumed run reproduced the reference artifacts; return the
/// (`cells_skipped`, `cells_damaged`) it recorded in its
/// `BENCH-campaign.json`.
fn check_recovery(dir: &Path, reference: &Reference) -> Result<(u64, u64), String> {
    let goldens = read_to_string(&dir.join("goldens.json"))?;
    if goldens != reference.goldens {
        return Err("resumed goldens.json differs from the reference run's".to_string());
    }
    let results = normalize_results(&read_to_string(&dir.join("results.json"))?);
    if results != reference.results_norm {
        return Err(
            "resumed results.json differs from the reference run's (beyond wall times)".to_string(),
        );
    }
    let bench = read_to_string(&dir.join("BENCH-campaign.json"))?;
    let resume = bench
        .find("\"resume\": ")
        .map(|i| &bench[i..])
        .ok_or("BENCH-campaign.json has no resume object")?;
    Ok((
        u64_field(resume, "cells_skipped").unwrap_or(0),
        u64_field(resume, "cells_damaged").unwrap_or(0),
    ))
}

/// Run one store-level fault scenario end to end. Returns the human
/// summary of what the recovery accounted for.
fn run_store_fault(
    fault: StoreFault,
    exe: &Path,
    base: &Path,
    reference: &Reference,
) -> Result<String, String> {
    let dir = base.join(fault.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    match fault {
        StoreFault::Kill(n) => {
            // Kill the campaign once n cells are cached, then prove
            // --resume finishes the rest.
            let mut child = campaign_cmd(exe, &dir, false)
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn campaign: {e}"))?;
            let deadline = Instant::now() + Duration::from_secs(300);
            while child
                .try_wait()
                .map_err(|e| format!("wait on campaign: {e}"))?
                .is_none()
            {
                let cached = cache_files(&dir).len() as u64 >= n;
                if cached || Instant::now() > deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    if !cached {
                        return Err(format!("campaign never cached {n} cell(s) in time"));
                    }
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        // A full run, then the first cache file torn through its trailer,
        // or one byte flipped inside its record: that cell recomputes,
        // every other cell is served.
        StoreFault::TornWrite => {
            run_campaign(exe, &dir, false)?;
            injure_first_cache_file(&dir, |b| b.truncate(b.len().saturating_sub(7)))?;
        }
        StoreFault::CacheRot => {
            run_campaign(exe, &dir, false)?;
            injure_first_cache_file(&dir, |b| {
                if let Some(x) = b.get_mut(60) {
                    *x ^= 1;
                }
            })?;
        }
    }

    run_campaign(exe, &dir, true)?;
    let (skipped, damaged) = check_recovery(&dir, reference)?;
    // The damage classes must actually have served and detected something
    // — a recovery that silently re-ran everything would also "match".
    if !matches!(fault, StoreFault::Kill(_)) && (damaged == 0 || skipped == 0) {
        return Err(format!(
            "resume served {skipped} cell(s) and detected {damaged} damaged; expected >= 1 each"
        ));
    }
    Ok(format!("skipped {skipped}, damaged {damaged}"))
}

fn main() -> ExitCode {
    // No flags: a typo'd invocation fails loudly under the shared
    // bad-flag convention (report + exit 2).
    cli::parse_or_exit("chaos", || match cli::ArgStream::from_env().next() {
        Some(arg) => Err(format!(
            "unknown argument {arg:?} (chaos takes no arguments; pick one class with \
             TP_FAULT=kill@N|torn-write|cache-rot)"
        )),
        None => Ok(()),
    });

    let faults = match std::env::var("TP_FAULT") {
        Ok(raw) if !raw.trim().is_empty() => match StoreFault::parse(&raw) {
            Some(f) => vec![f],
            None => {
                eprintln!(
                    "chaos: TP_FAULT: unknown store fault class `{}` (expected kill@N, \
                     torn-write or cache-rot; the in-process classes are tested by \
                     tests/health.rs)",
                    raw.trim()
                );
                return ExitCode::from(2);
            }
        },
        _ => StoreFault::all(),
    };

    let mut t = Table::new(&["Fault", "Result", "Detail"]);
    let mut failures = 0usize;
    let setup = campaign_exe().and_then(|exe| {
        let base = std::env::temp_dir().join(format!("tp-chaos-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        eprintln!("[reference campaign in {}]", base.display());
        reference_run(&exe, &base).map(|r| (exe, base, r))
    });
    match setup {
        Err(e) => {
            failures += faults.len();
            eprintln!("chaos: store scenarios failed to set up: {e}");
            for f in &faults {
                t.row(&[f.name(), "FAIL".to_string(), "setup failed".to_string()]);
            }
        }
        Ok((exe, base, reference)) => {
            for &fault in &faults {
                let (result, detail) = match run_store_fault(fault, &exe, &base, &reference) {
                    Ok(summary) => ("PASS", format!("recovered: {summary}")),
                    Err(e) => {
                        failures += 1;
                        eprintln!("chaos: {} NOT recovered: {e}", fault.name());
                        ("FAIL", "not recovered".to_string())
                    }
                };
                t.row(&[fault.name(), result.to_string(), detail]);
            }
            let _ = std::fs::remove_dir_all(&base);
        }
    }

    println!("{}", t.render());
    if failures == 0 {
        println!(
            "chaos: all {} store fault class(es) recovered",
            faults.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("chaos: {failures} recovery failure(s)");
        ExitCode::FAILURE
    }
}
