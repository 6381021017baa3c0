//! The repository benchmark. Runs one seeded workload against the
//! `dpm` crates, checks its outputs and prints its metrics:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload design_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it
//! records the run's provenance. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones. See README.md.

mod calib;
mod fleet;
mod pin;
mod report;
mod stats;
mod sweep;

use std::process::ExitCode;

use report::{json_string, Outcome};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["design_sweep", "fleet_calm", "fleet_storm"];

/// The rustc that built this binary (set by `build.rs`).
const RUSTC: &str = env!("PERFBENCH_RUSTC");

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed section runs for.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Fleet worker threads. One: with two, every epoch waits for
/// whichever worker the shared host slowed most, and epoch times
/// spread twice as wide from run to run (see README.md).
pub const WORKERS: usize = 1;

/// The commit of the checkout the benchmark runs in, read from `.git`
/// when there is one (a plain source tree has none).
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|commit| commit.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance record: what ran, where, and how many samples each
/// end-to-end timing came from.
/// `nproc` is the processor count before pinning.
fn provenance(args: &Args, outcome: &Outcome, nproc: usize, pinned: Option<usize>) -> String {
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
         \"workers\": {}, \"nproc\": {}, \"pinned_cpu\": {}, \"rustc\": {}, \"commit\": {}, \"reference_ms\": {}, \"samples\": {}}}}}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        WORKERS,
        nproc,
        pinned.map_or_else(|| "null".to_string(), |cpu| cpu.to_string()),
        json_string(RUSTC),
        json_string(&git_commit()),
        outcome.reference_ms.unwrap_or(0.0),
        outcome.samples_json(),
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let outcome = match args.workload.as_str() {
        "design_sweep" => sweep::run(args)?,
        "fleet_calm" => fleet::run_calm(args)?,
        "fleet_storm" => fleet::run_storm(args)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let processors = nproc();
    let pinned = pin::pin_to_one_processor();
    let lines = run(&args).and_then(|outcome| {
        let line = outcome.render(args.trace)?;
        Ok((
            outcome.correct,
            provenance(&args, &outcome, processors, pinned),
            line,
        ))
    });
    match lines {
        Ok((correct, provenance, line)) => {
            println!("{provenance}");
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: a correctness gate failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "fleet_calm",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "fleet_calm");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "fleet_calm", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "fleet_calm",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--trace", "2"]).is_err());
    }

    /// `BENCHMARK.json` declares exactly this binary's workloads and
    /// metric catalogue, in the same order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let names = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).unwrap();
            let body = &json[start..];
            let end = body.find(']').unwrap();
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e: Vec<&str> = report::END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<&str> = report::PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("per_layer"), layers);
    }
}
