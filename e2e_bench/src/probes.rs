//! Per-layer probes for the traced run: each layer's public functions,
//! called on the workload's own queries and databases, each call under a
//! harness span named after the per-layer metric it feeds.

use crate::trace::Tracer;
use fdjoin::bounds::chain::best_chain_bound;
use fdjoin::bounds::cllp::{solve_cllp, DegreePair};
use fdjoin::bounds::csm::csm_sequence;
use fdjoin::bounds::llp::solve_llp;
use fdjoin::bounds::smproof::{scale_weights, search_good_sm_proof};
use fdjoin::core::{atom_log_sizes, Engine, Expander, Stats};
use fdjoin::delta::{DeltaBatch, DeltaOptions, MaterializedView};
use fdjoin::query::Query;
use fdjoin::storage::{Database, IndexSet, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Rows deleted per relation by the storage and delta probes. Deleting
/// rows keeps every declared FD satisfied.
const PROBE_DELETES: usize = 2;

/// Probe every input at least `min_rounds` times, and keep going until
/// `until`.
pub fn run(inputs: &[(&Query, &Database)], tracer: &Tracer, min_rounds: usize, until: Instant) {
    let mut round = 0;
    while round < min_rounds || Instant::now() < until {
        for (q, db) in inputs {
            probe(q, db, tracer);
            tracer.collect();
        }
        round += 1;
    }
}

fn probe(q: &Query, db: &Database, tracer: &Tracer) {
    // query / lattice
    let pres = tracer.time("query.presentation_us", || q.lattice_presentation());
    let (lat, ins) = (&pres.lattice, &pres.inputs);

    // bounds, with lp and bigint under it
    let logs = atom_log_sizes(q, db).expect("generated databases hold every atom");
    black_box(tracer.time("bounds.chain_search_us", || {
        best_chain_bound(lat, ins, &logs)
    }));
    let llp = tracer.time("bounds.llp_solve_us", || solve_llp(lat, ins, &logs));
    black_box(tracer.time("bounds.sm_proof_search_us", || {
        let (weights, d) = scale_weights(&llp.input_duals);
        let mut multiset: BTreeMap<usize, u64> = BTreeMap::new();
        for (j, &w) in weights.iter().enumerate().filter(|(_, &w)| w > 0) {
            *multiset.entry(ins[j]).or_default() += w;
        }
        search_good_sm_proof(lat, &multiset.into_iter().collect::<Vec<_>>(), d)
    }));
    black_box(tracer.time("bounds.cllp_solve_us", || {
        let pairs: Vec<DegreePair> = ins
            .iter()
            .zip(&logs)
            .map(|(&e, log)| DegreePair::cardinality(lat, e, log.clone()))
            .collect();
        let sol = solve_cllp(lat, &pairs);
        csm_sequence(lat, &pairs, &sol)
    }));

    // storage
    for atom in q.atoms() {
        let rel = db
            .relation(&atom.name)
            .expect("generated databases hold every atom");
        let fresh = IndexSet::new();
        black_box(tracer.time("storage.trie_build_us", || {
            fresh.index_of(&atom.name, rel, rel.vars())
        }));
        let mut copy = rel.clone();
        let deletes = sample_rows(rel.rows(), rel.len());
        black_box(tracer.time("storage.apply_delta_us", || {
            copy.apply_delta(std::iter::empty::<&[Value]>(), &deletes)
        }));
    }

    // core
    let engine = Engine::new();
    let prepared = Arc::new(engine.prepare(q));
    black_box(
        tracer
            .time("core.estimate_us", || prepared.estimate(db))
            .ok(),
    );
    let paths = prepared
        .access_paths(db)
        .expect("generated databases hold every atom");
    let mut stats = Stats::default();
    let expander =
        Expander::new(q, db, &paths, &mut stats).expect("generated databases hold every atom");
    for atom in q.atoms() {
        let rel = db
            .relation(&atom.name)
            .expect("generated databases hold every atom");
        black_box(tracer.time("core.expand_relation_us", || {
            expander.expand_relation(rel, &mut stats)
        }));
    }

    // delta
    if let Ok(mut view) = MaterializedView::materialize(prepared, db.clone(), DeltaOptions::new()) {
        let mut batch = DeltaBatch::new();
        for atom in q.atoms() {
            let rel = db
                .relation(&atom.name)
                .expect("generated databases hold every atom");
            for row in sample_rows(rel.rows(), rel.len()) {
                batch.push_delete(atom.name.clone(), row);
            }
        }
        black_box(
            tracer
                .time("delta.apply_us", || view.apply_delta(&batch))
                .ok(),
        );
    }
}

/// [`PROBE_DELETES`] rows spread evenly over a relation.
fn sample_rows<'r>(rows: impl Iterator<Item = &'r [Value]>, len: usize) -> Vec<Vec<Value>> {
    let step = (len / PROBE_DELETES).max(1);
    rows.step_by(step)
        .take(PROBE_DELETES)
        .map(<[Value]>::to_vec)
        .collect()
}
