//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds and prints, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics of untraced runs; `--trace 1` adds one traced run and reports
//! the per-layer metrics. Exits 1 when an output or determinism check
//! fails, 2 on a usage error.

use perfbench::measure::{self, Measured};
use perfbench::metrics::{self, Def, Values, END_TO_END, PER_LAYER};
use perfbench::workload::{Spec, Workload};
use std::process::ExitCode;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Measurement time used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(format!(
                        "--seconds must be a non-negative number, not {value}"
                    ));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_metrics(defs: &[Def], values: &Values) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|&(name, unit, _)| {
            let v = values.get(name).copied().unwrap_or(metrics::NOT_MEASURED);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.workload, args.seed);
    let mut m: Measured = measure::measure(&spec, args.seconds);
    let (defs, values) = if args.trace {
        let traced = measure::traced(&spec);
        if let Some(t) = &traced {
            m.absorb(t, "traced run");
        }
        let transit = traced
            .as_ref()
            .and_then(|t| measure::transit_host_ns(&spec, t));
        (
            PER_LAYER,
            metrics::per_layer(args.workload, &m, traced.as_ref(), transit),
        )
    } else {
        (END_TO_END, metrics::end_to_end(&m))
    };

    println!(
        "# perfbench workload={} seed={} runs={} nproc={} shards={} commit={} rustc=\"{}\" profile={}",
        args.workload.name(),
        args.seed,
        m.iters.len(),
        perfbench::host::nproc(),
        spec.shards,
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    );
    let v = &m.iters[0].virt;
    println!(
        "# virtual: end {} ns, {} events, hash {:016x}",
        v.end_ns, v.events, v.hash
    );
    let walls: Vec<String> = m
        .iters
        .iter()
        .map(|i| format!("{:.3}", i.wall.as_secs_f64()))
        .collect();
    println!("# wall_s of each run: {}", walls.join(" "));
    let steals: Vec<String> = m
        .iters
        .iter()
        .map(|i| format!("{:.1}", 100.0 * measure::steal_share(i)))
        .collect();
    println!(
        "# CPU stolen by the hypervisor, % of each run: {}",
        steals.join(" ")
    );
    println!(
        "# host times are medians over {} of {} runs (runs with over {}% stolen are left out unless all are)",
        m.timed().len(),
        m.iters.len(),
        100.0 * measure::MAX_STEAL_SHARE
    );
    for &(name, unit, _) in defs {
        println!("# {name} = {} {unit}", values[name]);
    }
    for p in &m.problems {
        println!("# CHECK FAILED: {p}");
    }
    let correct = m.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.attempted,
        m.failed,
        json_metrics(defs, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
