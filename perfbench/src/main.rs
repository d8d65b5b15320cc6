//! `accturbo-perfbench --workload NAME --seconds S [--seed N] [--trace 0|1]`
//!
//! Prints progress and any failed check on stderr, and the result as one
//! JSON line, the last line of stdout. `--record-digests` prints each
//! workload's summary digest at its canonical seed instead.

use accturbo_perfbench::check;
use accturbo_perfbench::run::{run, Options};
use accturbo_perfbench::workloads::{self, WORKLOADS};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: accturbo-perfbench --workload NAME --seconds S [--seed N] [--trace 0|1]\n       \
         accturbo-perfbench --record-digests\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-digests" {
            return Ok(None);
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workloads::find(val).ok_or_else(|| format!("unknown workload `{val}`"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed `{val}`"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds `{val}`"))?,
                )
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{val}`")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(Some(Options {
        workload,
        seed: seed.unwrap_or(workload.canonical_seed),
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            for w in WORKLOADS {
                let spec = match check::parse(w.sentence, w.canonical_seed) {
                    Ok(spec) => spec,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let o = check::execute(&spec);
                println!(
                    "{} {:#018x} conserved={}",
                    w.name,
                    check::digest(&o),
                    o.conserved()
                );
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.failures {
        eprintln!("FAILED {f}");
    }
    for (m, v) in &report.metrics {
        if !v.is_finite() {
            eprintln!("error: metric {} is not finite ({v})", m.name);
            return ExitCode::FAILURE;
        }
        eprintln!("{:<32} {v:>16.4} {}", m.name, m.unit);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
