//! The program's counters that the benchmark reports as exact counts —
//! `Stats::deterministic()`, `PrepStats::solves` and `DeltaStats` — must
//! repeat exactly across two runs of the same operations with the same
//! seed; only then can a count claim rest on them.

use fdjoin_e2e_bench::tally::Counts;
use fdjoin_e2e_bench::trace::Tracer;
use fdjoin_e2e_bench::workloads::{self, Budget, Workload};

fn counts(w: Workload, seed: u64, iterations: u64) -> Counts {
    let mut state = workloads::setup(w, seed, &Tracer::off()).expect("set-up succeeds");
    let tally = state.run(Budget::Iterations(iterations), &Tracer::off());
    assert_eq!(tally.failed, 0, "{}: {:?}", w.name(), tally.errors);
    tally.counts
}

fn repeated(w: Workload, iterations: u64) -> Counts {
    let first = counts(w, 7, iterations);
    assert_eq!(
        first,
        counts(w, 7, iterations),
        "{} counts differ between runs",
        w.name()
    );
    assert!(
        first.queries > 0 && first.pages > 0,
        "{}: {first:?}",
        w.name()
    );
    first
}

#[test]
fn warm_mix_counts_repeat_and_stay_warm() {
    let c = repeated(Workload::WarmMix, 6);
    assert_eq!(c.solves, 0, "warm queries plan nothing");
    assert_eq!(c.index_builds, 0, "warm reads build no tries");
}

#[test]
fn cold_plan_counts_repeat_and_plan() {
    let c = repeated(Workload::ColdPlan, 40);
    assert!(c.solves > 0, "cold queries plan");
    assert!(c.index_builds > 0, "cold reads build tries");
}

#[test]
fn delta_rw_counts_repeat_and_rebuild() {
    let c = repeated(Workload::DeltaRw, 24);
    assert_eq!(c.delta.batches, 24);
    assert!(c.delta.delta_joins > 0, "{:?}", c.delta);
    assert!(c.index_builds > 0, "reads after writes rebuild tries");
}
