//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and why each exists.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Prints one human-readable line per metric, then, as the last line, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! with code 1 when an output check failed and 2 on bad arguments.

mod check;
mod cpu;
mod exact;
mod inmem;
mod ooc;
mod report;
mod rss;
mod serve;
mod stats;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["build-ml1m", "ooc-dblp-1m", "serve-ml1m"];

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for spill files, graph files and the trace.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work_dir = PathBuf::from(".perfbench-work");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Opts {
        work_dir: work_dir.join(format!("{workload}-{}", std::process::id())),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Writes the traced run's spans next to the work directory and names the
/// file in the report.
pub fn write_trace(opts: &Opts, tracer: &trace::Tracer, rep: &mut Report) {
    let path = opts
        .work_dir
        .with_file_name(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
    if let Err(e) = tracer.write_chrome(&path) {
        rep.fail(false, format!("writing {}: {e}", path.display()));
    } else {
        println!("trace: {}", path.display());
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: creating {}: {e}", opts.work_dir.display());
        return ExitCode::from(2);
    }
    let rep = match opts.workload.as_str() {
        "build-ml1m" => {
            cpu::pin_to_last();
            inmem::run(&opts)
        }
        "ooc-dblp-1m" => {
            cpu::pin_to_last();
            ooc::run(&opts)
        }
        _ => serve::run(&opts),
    };
    std::fs::remove_dir_all(&opts.work_dir).ok();

    let catalogue: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    print!("{}", rep.describe(&opts.workload, catalogue));
    // A failed run may stop before measuring everything; its missing
    // metrics read 0 beside `"correct": false`.
    let fill_zero = opts.trace || !rep.correct();
    println!("{}", rep.result_json(catalogue, fill_zero).render());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
