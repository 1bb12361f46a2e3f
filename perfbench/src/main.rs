//! `perfbench` — the repository's benchmark, one command for every
//! workload (see `README.md` in this directory).
//!
//! ```text
//! perfbench --workload tcp-closed-b|sim-ec2-a --seed N \
//!     --seconds S --trace 0|1 [--replicad PATH] [--out DIR]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`,
//! with the end-to-end metrics under `--trace 0` and the per-layer
//! metrics under `--trace 1`. Notes, the layer budget and the machine
//! record go to standard error and to a result file under `--out`. The
//! exit code is non-zero when a correctness check fails or the run
//! cannot complete.

mod cluster;
mod layers;
mod ops;
mod procfs;
mod report;
mod sim;
mod stats;
mod tcp;
mod trace;
mod wirecost;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// A traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `icg-replicad` executable (`tcp-closed-b`).
    pub replicad: Option<PathBuf>,
    /// Where result files and spans go.
    pub out_dir: PathBuf,
}

const USAGE: &str = "perfbench --workload tcp-closed-b|sim-ec2-a --seed N \
                     --seconds S --trace 0|1 [--replicad PATH] [--out DIR]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        replicad: None,
        out_dir: PathBuf::from("perfbench/out"),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds: bad value {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            "--replicad" => args.replicad = Some(PathBuf::from(value)),
            "--out" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let replicad = || {
        args.replicad
            .clone()
            .filter(|p| p.is_file())
            .ok_or_else(|| {
                "tcp-closed-b needs --replicad PATH to an icg-replicad build".to_string()
            })
    };
    let result = match args.workload.as_str() {
        "tcp-closed-b" => replicad().and_then(|r| tcp::run(&tcp::CLOSED_B, &args, &r)),
        "sim-ec2-a" => sim::run(&args),
        other => Err(format!("unknown workload {other:?}\nusage: {USAGE}")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report.correct = report.violations.is_empty();
    let machine = procfs::machine_record();
    eprintln!("machine: {machine}");
    for n in &report.notes {
        eprintln!("note: {n}");
    }
    for v in &report.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let header = format!(
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"machine\": {machine}",
        report::json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let file = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = report.write_file(&file, &header) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line(args.trace));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(argv("--workload sim-ec2-a --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim-ec2-a", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(argv("--trace 2")).is_err());
        assert!(parse(argv("--seconds 0")).is_err());
        assert!(parse(argv("--seed x")).is_err());
        assert!(parse(argv("--bogus 1")).is_err());
        assert!(parse(argv("--seed")).is_err());
    }
}
