//! End-to-end and per-layer benchmark of the Blox scheduling pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_philly_512|sim_burst_32k|net_submit> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs through the program's own entry
//! points (`BloxManager::run`, `blox_net::sched::serve`) and the
//! end-to-end metrics are reported; with `--trace 1` a traced replay of
//! the same run reports the per-layer metrics. Every run checks the
//! program's outputs; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`, and the
//! exit code is non-zero when an output check failed. Each result row,
//! with its provenance, is also appended to `.perfbench_out/results.jsonl`,
//! and the traced run writes its spans next to it.

mod layers;
mod net;
mod report;
mod sim;
mod stats;
mod trace;

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use report::{json_str, metrics_json, provenance};
use sim::Sim;

const OUT_DIR: &str = ".perfbench_out";
const USAGE: &str = "usage: perfbench --workload <sim_philly_512|sim_burst_32k|net_submit> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let traced = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    trace::stamp(Instant::now()); // Fix the trace epoch first.
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    let outcome = match args.workload.as_str() {
        "sim_philly_512" => sim::run(Sim::Philly, args.seed, args.seconds, args.traced, out_dir),
        "sim_burst_32k" => sim::run(Sim::Burst, args.seed, args.seconds, args.traced, out_dir),
        net::NAME => net::run(args.seed, args.seconds, args.traced, out_dir),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let prov = provenance(&args.workload, args.seed, args.traced);
    let checks = &outcome.checks;
    let failed = checks.failures.len();
    println!(
        "{} (seed {}, trace {})",
        args.workload,
        args.seed,
        u8::from(args.traced)
    );
    for m in &outcome.metrics {
        println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.extra {
        println!(
            "  {:<34} {:>14.4} {}  (this workload only)",
            m.name, m.value, m.unit
        );
    }
    for note in &outcome.notes {
        println!("  # {note}");
    }
    println!(
        "  error_ratio {:.4} ({failed} of {} output checks failed)",
        checks.error_ratio(),
        checks.attempted
    );
    for f in &checks.failures {
        println!("  FAILED: {f}");
    }
    println!("  provenance {{{prov}}}");

    let metrics = metrics_json(&outcome.metrics);
    let row = format!(
        "{{{prov},\"attempted\":{},\"failed\":{failed},\"error_ratio\":{},\"failures\":[{}],\"metrics\":{metrics},\"extra\":{}}}",
        checks.attempted,
        report::json_num(checks.error_ratio()),
        checks
            .failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(","),
        metrics_json(&outcome.extra),
    );
    let appended = std::fs::create_dir_all(out_dir).and_then(|()| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out_dir.join("results.jsonl"))?;
        writeln!(f, "{row}")
    });
    if let Err(e) = appended {
        eprintln!("could not append to {OUT_DIR}/results.jsonl: {e}");
    }

    let correct = failed == 0 && !outcome.metrics.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{metrics}}}",
        checks.attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
