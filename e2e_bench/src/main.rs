//! `fdjoin-e2e-bench --workload <warm_mix|cold_plan|delta_rw> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints notes (lines starting with `#`) and, as the last line, one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — end-to-end
//! with `--trace 0`, per-layer with `--trace 1`. Exits non-zero if any
//! answer was wrong or any operation failed.

use fdjoin_e2e_bench::probes;
use fdjoin_e2e_bench::report::{self, Metric};
use fdjoin_e2e_bench::tally::Tally;
use fdjoin_e2e_bench::trace::Tracer;
use fdjoin_e2e_bench::workloads::{self, Budget, State, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Least rounds of layer probes in a traced run.
const PROBE_ROUNDS: usize = 3;
/// Time the traced run gives the probes after its loop.
const PROBE_SECONDS: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn deadline(seconds: f64) -> Budget {
    Budget::Until(Instant::now() + Duration::from_secs_f64(seconds))
}

/// One run: the tally behind `attempted` and `failed`, the metrics and
/// the notes.
fn run(a: &Args) -> Result<(Tally, Vec<Metric>, Vec<String>), String> {
    if !a.trace {
        let mut setup_s = Vec::new();
        let mut state: Option<State> = None;
        for _ in 0..SETUP_REPEATS {
            drop(state.take());
            let t = Instant::now();
            state = Some(workloads::setup(a.workload, a.seed, &Tracer::off())?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let mut state = state.expect("at least one set-up");
        let tally = state.run(deadline(a.seconds), &Tracer::off());
        let (metrics, notes) = report::end_to_end(a.workload, &setup_s, &tally);
        return Ok((tally, metrics, notes));
    }
    // Traced run: half the time untraced, half traced on a fresh set-up
    // whose engine reports to the tracer, then the layer probes.
    let mut state = workloads::setup(a.workload, a.seed, &Tracer::off())?;
    let untraced = state.run(deadline(a.seconds / 2.0), &Tracer::off());
    drop(state);
    let tracer = Tracer::on();
    let mut state = workloads::setup(a.workload, a.seed, &tracer)?;
    tracer.finish();
    let traced = state.run(deadline(a.seconds / 2.0), &tracer);
    let ops = tracer.finish();
    let until = Instant::now() + Duration::from_secs_f64(PROBE_SECONDS);
    probes::run(&state.inputs(), &tracer, PROBE_ROUNDS, until);
    let probed = tracer.finish();
    let metrics = report::per_layer(&untraced, &traced, &ops, &probed);
    let mut notes: Vec<String> = traced
        .cells
        .iter()
        .map(|(cell, (alg, slack))| format!("cell {cell}: auto={alg} bound_slack_log2={slack}"))
        .collect();
    notes.push(format!("counts {:?}", traced.counts));
    let mut tally = untraced;
    tally.merge(traced);
    Ok((tally, metrics, notes))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (tally, metrics, notes) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for n in &notes {
        println!("# {n}");
    }
    println!(
        "# failed_ops_ratio = {} ({} of {} operations)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for e in &tally.errors {
        println!("# mismatch: {e}");
    }
    println!(
        "{}",
        report::json_line(tally.attempted, tally.failed, &metrics)
    );
    if tally.failed == 0 && tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
