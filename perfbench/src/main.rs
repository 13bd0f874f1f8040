//! The benchmark's worker process, driven by `run.py`.
//!
//! ```text
//! perfbench pass <workload> <seed> [--spans FILE]   # one pass, JSON on stdout
//! perfbench probes                                  # layer probes, JSON on stdout
//! ```
//!
//! One pass runs in one fresh process, so every pass starts with an empty
//! warm-boot cache, as every `reproduce_all` or `campaign` run does.

mod pass;
mod probes;
mod trace;
mod units;

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench pass <channels|splash|fleet> <seed> [--spans FILE] | perfbench probes"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["probes"] => {
            let fields: Vec<String> = probes::run_all()
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v:.9}"))
                .collect();
            println!("{{{}}}", fields.join(", "));
            ExitCode::SUCCESS
        }
        ["pass", workload, seed, rest @ ..] => {
            let spans = match rest {
                [] => None,
                ["--spans", path] => Some(*path),
                _ => return usage(),
            };
            let Ok(seed) = seed.parse::<u64>() else {
                return usage();
            };
            let Some(units) = units::units(workload, seed) else {
                return usage();
            };
            match pass::run(workload, seed, &units, spans) {
                Ok(record) => {
                    println!("{record}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: writing spans: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
