//! Generic-Join's options under intra-query parallelism: with footnote-1
//! FD binding (`bind_fds`) and with a non-identity variable order, runs at
//! parallelism 1, 2 and 8 must give byte-identical output and identical
//! [`Stats::deterministic`] totals, and the same answer as the default run.
//! The parallel runs split the first search variable's candidates over
//! blocks, and each block walks its subtrees through the shared descent.

use fdjoin::core::{Algorithm, Engine, ExecOptions, JoinResult, Stats};
use fdjoin::instances::{fig1_adversarial, random_instance};
use fdjoin::query::{examples, Query};
use fdjoin::storage::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PARALLELISMS: [usize; 3] = [1, 2, 8];

/// The four query families, each on instances large enough that the root
/// split yields several blocks.
fn cells() -> Vec<(&'static str, Query, Database)> {
    let mut rng = StdRng::seed_from_u64(13);
    let fig1 = examples::fig1_udf();
    let fig4 = examples::fig4_query();
    let fig9 = examples::fig9_query();
    let key = examples::composite_key();
    vec![
        ("fig1_adversarial_64", fig1.clone(), fig1_adversarial(64)),
        (
            "fig1_random",
            fig1.clone(),
            random_instance(&fig1, &mut rng, 60, 85),
        ),
        (
            "fig4_random",
            fig4.clone(),
            random_instance(&fig4, &mut rng, 80, 85),
        ),
        (
            "fig9_random",
            fig9.clone(),
            random_instance(&fig9, &mut rng, 40, 85),
        ),
        (
            "composite_key_random",
            key.clone(),
            random_instance(&key, &mut rng, 120, 85),
        ),
    ]
}

/// The option sets under test: FD binding, a reversed variable order, and
/// both together.
fn option_sets(q: &Query) -> Vec<(&'static str, ExecOptions)> {
    let reversed: Vec<u32> = (0..q.n_vars() as u32).rev().collect();
    let gj = ExecOptions::new().algorithm(Algorithm::GenericJoin);
    vec![
        ("bind_fds", gj.clone().bind_fds(true)),
        ("reversed order", gj.clone().var_order(reversed.clone())),
        (
            "bind_fds + reversed order",
            gj.bind_fds(true).var_order(reversed),
        ),
    ]
}

fn run(q: &Query, db: &Database, opts: ExecOptions) -> JoinResult {
    Engine::new()
        .execute(q, db, &opts)
        .unwrap_or_else(|e| panic!("{}: {e}", q.display_body()))
}

#[test]
fn gj_options_are_parallelism_invariant() {
    for (cell, q, db) in cells() {
        let default = run(
            &q,
            &db,
            ExecOptions::new().algorithm(Algorithm::GenericJoin),
        );
        assert!(
            default.output.len() > 4,
            "{cell}: instance must be non-trivial"
        );
        for (name, opts) in option_sets(&q) {
            let seq = run(&q, &db, opts.clone().parallelism(1));
            assert_eq!(
                seq.output, default.output,
                "{cell} with {name}: the answer must not depend on the options"
            );
            let seq_stats: Stats = seq.stats.deterministic();
            for p in PARALLELISMS {
                let par = run(&q, &db, opts.clone().parallelism(p));
                assert_eq!(
                    par.output, seq.output,
                    "{cell} with {name} at parallelism {p} changed the output"
                );
                assert_eq!(
                    par.stats.deterministic(),
                    seq_stats,
                    "{cell} with {name} at parallelism {p} changed deterministic stats"
                );
            }
        }
    }
}
