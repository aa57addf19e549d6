//! Compiled expansion plans.
//!
//! Every algorithm runs FD expansion through `Expander::plan` +
//! `Expander::run`. The plans must replay exactly the guard lookups and UDF
//! calls of the per-step derivation they replaced. Two checks hold them to
//! it:
//!
//! - each algorithm's answer bytes and `Stats::deterministic()` totals on
//!   small paper cells are pinned, as recorded with the per-step derivation
//!   (with UDF choice already ordered, so the counters are reproducible);
//! - a property test runs compiled plans against a local copy of that
//!   per-step derivation on random tuples and bound sets.

use fdjoin::bigint::rat;
use fdjoin::core::{
    naive_join, AccessPaths, Algorithm, Engine, ExecOptions, Expander, JoinError, Stats,
};
use fdjoin::instances;
use fdjoin::lattice::VarSet;
use fdjoin::query::{examples, Query};
use fdjoin::storage::{Database, IndexSet, Relation, TrieIndex, Value};
use fdjoin::stream::ResultStream;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pinned algorithms (`Auto` excluded: it is one of these).
const ALGORITHMS: [(&str, Algorithm, bool); 8] = [
    ("chain", Algorithm::Chain, false),
    ("chain_no_argmin", Algorithm::ChainNoArgmin, false),
    ("sma", Algorithm::Sma, false),
    ("csma", Algorithm::Csma, false),
    ("generic_join", Algorithm::GenericJoin, false),
    ("generic_join_bind_fds", Algorithm::GenericJoin, true),
    ("binary_join", Algorithm::BinaryJoin, false),
    ("naive", Algorithm::Naive, false),
];

/// Small versions of the benchmark's paper cells.
fn cells() -> Vec<(&'static str, Query, Database)> {
    let mut rng = StdRng::seed_from_u64(12);
    let fig4 = examples::fig4_query();
    let fig9 = examples::fig9_query();
    let path = examples::simple_fd_path();
    let fig4_worst = instances::normal_worst_case(&fig4, &vec![rat(6, 1); 4], &rat(8, 1))
        .expect("fig4 worst case at N = 2^6 is constructible");
    let fig9_random = instances::random_instance(&fig9, &mut rng, 80, 85);
    let path_random = instances::random_instance(&path, &mut rng, 400, 85);
    vec![
        (
            "fig1_adversarial_64",
            examples::fig1_udf(),
            instances::fig1_adversarial(64),
        ),
        ("fig4_worst_2^6", fig4, fig4_worst),
        ("fig9_random_80", fig9, fig9_random),
        (
            "m3_parity_12",
            examples::m3_query(),
            instances::m3_parity(12),
        ),
        ("simple_fd_path_400", path, path_random),
    ]
}

/// FNV-1a over the schema and the row values in stored order.
fn output_hash(rel: &Relation) -> u64 {
    let words = rel.vars().iter().map(|&v| v as u64);
    let values = rel.rows().flat_map(|row| row.iter().copied());
    words.chain(values).fold(0xCBF2_9CE4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
    })
}

fn line(cell: &str, alg: &str, out: &Relation, s: &Stats) -> String {
    let s = s.deterministic();
    format!(
        "{cell} {alg}: rows={} hash={:016x} probes={} intermediate={} output={} \
         expansions={} branches={} streamed={} pauses={}",
        out.len(),
        output_hash(out),
        s.probes,
        s.intermediate_tuples,
        s.output_tuples,
        s.expansions,
        s.branches,
        s.rows_streamed,
        s.stream_pauses,
    )
}

/// One line per (cell, algorithm) that accepts the cell, plus a drained
/// stream per cell.
fn observed() -> Vec<String> {
    let mut lines = Vec::new();
    for (cell, q, db) in cells() {
        let engine = Engine::new();
        let prepared = engine.prepare(&q);
        for (name, alg, bind_fds) in ALGORITHMS {
            let opts = ExecOptions::new()
                .algorithm(alg)
                .bind_fds(bind_fds)
                .parallelism(1);
            match prepared.execute(&db, &opts) {
                Ok(r) => lines.push(line(cell, name, &r.output, &r.stats)),
                Err(JoinError::NoGoodChain | JoinError::NoGoodProof) => {}
                Err(e) => panic!("{cell} {name}: {e}"),
            }
        }
        let mut stream = ResultStream::open(&prepared, &db).expect("stream opens");
        let drained = stream.collect_rows();
        lines.push(line(cell, "stream", &drained, &stream.stats()));
    }
    lines
}

const GOLDEN: &[&str] = &[
    "fig1_adversarial_64 chain: rows=94 hash=f473a01bb8ad5365 probes=381 intermediate=378 output=94 expansions=282 branches=0 streamed=0 pauses=0",
    "fig1_adversarial_64 chain_no_argmin: rows=94 hash=f473a01bb8ad5365 probes=1246 intermediate=378 output=94 expansions=3165 branches=0 streamed=0 pauses=0",
    "fig1_adversarial_64 sma: rows=94 hash=f473a01bb8ad5365 probes=380 intermediate=284 output=94 expansions=470 branches=2 streamed=0 pauses=0",
    "fig1_adversarial_64 csma: rows=94 hash=f473a01bb8ad5365 probes=3232 intermediate=4410 output=94 expansions=6236 branches=2 streamed=0 pauses=0",
    "fig1_adversarial_64 generic_join: rows=94 hash=f473a01bb8ad5365 probes=6394 intermediate=0 output=94 expansions=3102 branches=0 streamed=0 pauses=0",
    "fig1_adversarial_64 generic_join_bind_fds: rows=94 hash=f473a01bb8ad5365 probes=4441 intermediate=0 output=94 expansions=1243 branches=0 streamed=0 pauses=0",
    "fig1_adversarial_64 binary_join: rows=94 hash=f473a01bb8ad5365 probes=1118 intermediate=4063 output=94 expansions=3102 branches=0 streamed=0 pauses=0",
    "fig1_adversarial_64 naive: rows=94 hash=f473a01bb8ad5365 probes=70497 intermediate=4126 output=94 expansions=3102 branches=0 streamed=0 pauses=0",
    "fig1_adversarial_64 stream: rows=94 hash=f473a01bb8ad5365 probes=6394 intermediate=0 output=94 expansions=3102 branches=0 streamed=94 pauses=94",
    "fig4_worst_2^6 chain: rows=256 hash=be3a093f253ac844 probes=5698 intermediate=592 output=256 expansions=24576 branches=0 streamed=0 pauses=0",
    "fig4_worst_2^6 chain_no_argmin: rows=256 hash=be3a093f253ac844 probes=5537 intermediate=592 output=256 expansions=24576 branches=0 streamed=0 pauses=0",
    "fig4_worst_2^6 sma: rows=256 hash=be3a093f253ac844 probes=12192 intermediate=768 output=256 expansions=73728 branches=3 streamed=0 pauses=0",
    "fig4_worst_2^6 csma: rows=256 hash=be3a093f253ac844 probes=10162 intermediate=896 output=256 expansions=49408 branches=2 streamed=0 pauses=0",
    "fig4_worst_2^6 generic_join: rows=256 hash=be3a093f253ac844 probes=5808 intermediate=0 output=256 expansions=24576 branches=0 streamed=0 pauses=0",
    "fig4_worst_2^6 generic_join_bind_fds: rows=256 hash=be3a093f253ac844 probes=7600 intermediate=0 output=256 expansions=24576 branches=0 streamed=0 pauses=0",
    "fig4_worst_2^6 binary_join: rows=256 hash=be3a093f253ac844 probes=3648 intermediate=768 output=256 expansions=24576 branches=0 streamed=0 pauses=0",
    "fig4_worst_2^6 naive: rows=256 hash=be3a093f253ac844 probes=40000 intermediate=832 output=256 expansions=24576 branches=0 streamed=0 pauses=0",
    "fig4_worst_2^6 stream: rows=256 hash=be3a093f253ac844 probes=5808 intermediate=0 output=256 expansions=24576 branches=0 streamed=256 pauses=256",
    "fig9_random_80 chain: rows=57 hash=72932adf28e03b8e probes=2660 intermediate=494 output=57 expansions=15073 branches=0 streamed=0 pauses=0",
    "fig9_random_80 chain_no_argmin: rows=57 hash=72932adf28e03b8e probes=2702 intermediate=494 output=57 expansions=15452 branches=0 streamed=0 pauses=0",
    "fig9_random_80 csma: rows=57 hash=72932adf28e03b8e probes=17950 intermediate=1042 output=57 expansions=43574 branches=41 streamed=0 pauses=0",
    "fig9_random_80 generic_join: rows=57 hash=72932adf28e03b8e probes=3632 intermediate=0 output=57 expansions=12773 branches=0 streamed=0 pauses=0",
    "fig9_random_80 generic_join_bind_fds: rows=57 hash=72932adf28e03b8e probes=3655 intermediate=0 output=57 expansions=12356 branches=0 streamed=0 pauses=0",
    "fig9_random_80 binary_join: rows=57 hash=72932adf28e03b8e probes=3104 intermediate=319 output=57 expansions=12773 branches=0 streamed=0 pauses=0",
    "fig9_random_80 naive: rows=57 hash=72932adf28e03b8e probes=22144 intermediate=390 output=57 expansions=12773 branches=0 streamed=0 pauses=0",
    "fig9_random_80 stream: rows=57 hash=72932adf28e03b8e probes=3632 intermediate=0 output=57 expansions=12773 branches=0 streamed=57 pauses=57",
    "m3_parity_12 chain: rows=144 hash=0aa73bb669610706 probes=169 intermediate=192 output=144 expansions=576 branches=0 streamed=0 pauses=0",
    "m3_parity_12 chain_no_argmin: rows=144 hash=0aa73bb669610706 probes=157 intermediate=192 output=144 expansions=576 branches=0 streamed=0 pauses=0",
    "m3_parity_12 sma: rows=144 hash=0aa73bb669610706 probes=445 intermediate=168 output=144 expansions=1008 branches=1 streamed=0 pauses=0",
    "m3_parity_12 csma: rows=144 hash=0aa73bb669610706 probes=446 intermediate=348 output=144 expansions=1008 branches=0 streamed=0 pauses=0",
    "m3_parity_12 generic_join: rows=144 hash=0aa73bb669610706 probes=1884 intermediate=0 output=144 expansions=2016 branches=0 streamed=0 pauses=0",
    "m3_parity_12 generic_join_bind_fds: rows=144 hash=0aa73bb669610706 probes=300 intermediate=0 output=144 expansions=576 branches=0 streamed=0 pauses=0",
    "m3_parity_12 binary_join: rows=144 hash=0aa73bb669610706 probes=156 intermediate=1872 output=144 expansions=2016 branches=0 streamed=0 pauses=0",
    "m3_parity_12 naive: rows=144 hash=0aa73bb669610706 probes=1884 intermediate=1884 output=144 expansions=2016 branches=0 streamed=0 pauses=0",
    "m3_parity_12 stream: rows=144 hash=0aa73bb669610706 probes=1884 intermediate=0 output=144 expansions=2016 branches=0 streamed=144 pauses=144",
    "simple_fd_path_400 chain: rows=4475 hash=e13f7ee422946b85 probes=7005 intermediate=5910 output=4475 expansions=0 branches=0 streamed=0 pauses=0",
    "simple_fd_path_400 chain_no_argmin: rows=4475 hash=e13f7ee422946b85 probes=6537 intermediate=5910 output=4475 expansions=0 branches=0 streamed=0 pauses=0",
    "simple_fd_path_400 csma: rows=4475 hash=e13f7ee422946b85 probes=23485 intermediate=10262 output=4475 expansions=0 branches=2 streamed=0 pauses=0",
    "simple_fd_path_400 generic_join: rows=4475 hash=e13f7ee422946b85 probes=10916 intermediate=0 output=4475 expansions=0 branches=0 streamed=0 pauses=0",
    "simple_fd_path_400 generic_join_bind_fds: rows=4475 hash=e13f7ee422946b85 probes=10916 intermediate=0 output=4475 expansions=0 branches=0 streamed=0 pauses=0",
    "simple_fd_path_400 binary_join: rows=4475 hash=e13f7ee422946b85 probes=5111 intermediate=4778 output=4475 expansions=0 branches=0 streamed=0 pauses=0",
    "simple_fd_path_400 naive: rows=4475 hash=e13f7ee422946b85 probes=157142 intermediate=5111 output=4475 expansions=0 branches=0 streamed=0 pauses=0",
    "simple_fd_path_400 stream: rows=4475 hash=e13f7ee422946b85 probes=10916 intermediate=0 output=4475 expansions=0 branches=0 streamed=4475 pauses=4475",
];

#[test]
fn answers_and_counters_match_the_recorded_goldens() {
    let got = observed();
    let missing: Vec<&str> = GOLDEN
        .iter()
        .copied()
        .filter(|g| !got.iter().any(|l| l == g))
        .collect();
    assert!(
        missing.is_empty() && got.len() == GOLDEN.len(),
        "expected lines not observed:\n{}\nobserved:\n{}",
        missing.join("\n"),
        got.join("\n")
    );
}

/// The per-step derivation that compiled plans replaced, rebuilt from the
/// public API: the oracle for the property test below.
struct StepOracle<'a> {
    query: &'a Query,
    db: &'a Database,
    guards: Vec<(VarSet, u32, TrieIndex)>,
}

impl<'a> StepOracle<'a> {
    fn new(query: &'a Query, db: &'a Database) -> StepOracle<'a> {
        let mut guards = Vec::new();
        for fd in query.fds.fds() {
            if let Some(j) = query.guard_of(fd) {
                let rel = db.relation(&query.atoms()[j].name).unwrap();
                for v in fd.rhs.minus(fd.lhs).iter() {
                    let mut cols: Vec<u32> = fd.lhs.iter().collect();
                    cols.push(v);
                    guards.push((fd.lhs, v, TrieIndex::build(rel, &cols)));
                }
            }
        }
        StepOracle { query, db, guards }
    }

    fn call(&self, args: VarSet, out: u32, vals: &[Value]) -> Value {
        let (_, f) = self.db.udfs.find_applicable(args, out).unwrap();
        let argv: Vec<Value> = args.iter().map(|u| vals[u as usize]).collect();
        f(&argv)
    }

    /// One derivation step: `Ok(true)` on progress, `Ok(false)` when no FD
    /// applies, `Err(())` for a dangling or inconsistent tuple.
    fn step(
        &self,
        bound: &mut VarSet,
        vals: &mut [Value],
        target: VarSet,
        stats: &mut Stats,
    ) -> Result<bool, ()> {
        for (lhs, v, ix) in &self.guards {
            if !lhs.is_subset(*bound) {
                continue;
            }
            let already = bound.contains(*v);
            if already && !target.contains(*v) {
                continue;
            }
            stats.probes += 1;
            let mut probe = ix.probe();
            if !lhs.iter().all(|u| probe.descend(vals[u as usize])) || probe.is_empty() {
                return Err(());
            }
            let found = probe.current().unwrap();
            if already {
                if vals[*v as usize] != found {
                    return Err(());
                }
            } else {
                vals[*v as usize] = found;
                *bound = bound.insert(*v);
                return Ok(true);
            }
        }
        for fd in self.query.fds.fds() {
            if self.query.guard_of(fd).is_some() || !fd.lhs.is_subset(*bound) {
                continue;
            }
            for v in fd.rhs.iter() {
                if bound.contains(v) {
                    continue;
                }
                if let Some((args, _)) = self.db.udfs.find_applicable(*bound, v) {
                    stats.expansions += 1;
                    vals[v as usize] = self.call(args, v, vals);
                    *bound = bound.insert(v);
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    fn expand_tuple(
        &self,
        bound: &mut VarSet,
        vals: &mut [Value],
        target: VarSet,
        stats: &mut Stats,
    ) -> bool {
        while !target.is_subset(*bound) {
            match self.step(bound, vals, target, stats) {
                Err(()) => return false,
                Ok(true) => {}
                Ok(false) => panic!("the property test only draws reachable targets"),
            }
        }
        true
    }

    fn verify_fds(&self, bound: VarSet, vals: &[Value], stats: &mut Stats) -> bool {
        for (lhs, v, ix) in &self.guards {
            if lhs.is_subset(bound) && bound.contains(*v) {
                stats.probes += 1;
                let mut probe = ix.probe();
                if !lhs.iter().all(|u| probe.descend(vals[u as usize]))
                    || probe.current() != Some(vals[*v as usize])
                {
                    return false;
                }
            }
        }
        for fd in self.query.fds.fds() {
            if self.query.guard_of(fd).is_some() || !fd.lhs.is_subset(bound) {
                continue;
            }
            for v in fd.rhs.iter() {
                if !bound.contains(v) {
                    continue;
                }
                if let Some((args, _)) = self.db.udfs.find_applicable(fd.lhs, v) {
                    stats.expansions += 1;
                    if self.call(args, v, vals) != vals[v as usize] {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// A random subset of `set`.
fn subset_of(rng: &mut StdRng, set: VarSet) -> VarSet {
    VarSet::from_vars(set.iter().filter(|_| rng.gen_bool(0.5)))
}

/// Compare plans against the oracle on `trials` random shapes and tuples
/// of one query; returns how many runs with at least one lookup or UDF call
/// succeeded and how many failed.
fn compare_with_oracle(
    q: &Query,
    db: &Database,
    rng: &mut StdRng,
    trials: usize,
) -> (usize, usize) {
    let set = IndexSet::new();
    let paths = AccessPaths::new(&set, q, db).unwrap();
    let mut scratch = Stats::default();
    let ex = Expander::new(q, db, &paths, &mut scratch).unwrap();
    let oracle = StepOracle::new(q, db);
    let nv = q.n_vars();
    let all = VarSet::full(nv as u32);
    // Tuples: answers (every lookup hits), answers with one value
    // perturbed, and values drawn from each variable's active domain.
    let answers = naive_join(q, db).unwrap().output;
    let mut domain: Vec<Vec<Value>> = vec![vec![0]; nv];
    for a in q.atoms() {
        let rel = db.relation(&a.name).unwrap();
        for row in rel.rows() {
            for (&v, &x) in rel.vars().iter().zip(row) {
                domain[v as usize].push(x);
            }
        }
    }
    let (mut succeeded, mut failed) = (0, 0);
    for _ in 0..trials {
        let bound = subset_of(rng, all);
        let target = bound.union(subset_of(rng, q.closure(bound)));
        let verify = rng.gen_bool(0.5);
        let mut vals: Vec<Value> = (0..nv)
            .map(|v| domain[v][rng.gen_range(0..domain[v].len())])
            .collect();
        if !answers.is_empty() && rng.gen_bool(0.6) {
            vals.copy_from_slice(answers.row(rng.gen_range(0..answers.len())));
            if rng.gen_bool(0.3) {
                let v = rng.gen_range(0..nv);
                vals[v] = domain[v][rng.gen_range(0..domain[v].len())];
            }
        }

        let (mut want_vals, mut want_bound, mut want_stats) =
            (vals.clone(), bound, Stats::default());
        let want_ok = oracle.expand_tuple(&mut want_bound, &mut want_vals, target, &mut want_stats)
            && (!verify || oracle.verify_fds(target, &want_vals, &mut want_stats));

        let plan = ex.plan(bound, target, verify);
        let (mut got_vals, mut got_stats) = (vals.clone(), Stats::default());
        let got_ok = ex.run(&plan, &mut got_vals, &mut got_stats);

        let shape = format!(
            "{}: {bound} -> {target} verify={verify} {plan:?}",
            q.display_body()
        );
        assert_eq!(got_ok, want_ok, "{shape}");
        assert_eq!(got_vals, want_vals, "{shape}");
        assert_eq!(got_stats, want_stats, "{shape}");
        if want_ok {
            assert_eq!(plan.bound(), want_bound, "{shape}");
        }
        if want_stats.work() > 0 {
            *if want_ok { &mut succeeded } else { &mut failed } += 1;
        }
    }
    (succeeded, failed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn compiled_plans_replay_the_step_derivation(seed in any::<u64>(), rows in 8usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut succeeded, mut failed) = (0, 0);
        for q in [
            examples::fig1_udf(),
            examples::fig4_query(),
            examples::degree_triangle(),
            examples::composite_key(),
        ] {
            let db = instances::random_instance(&q, &mut rng, rows, 85);
            let (s, f) = compare_with_oracle(&q, &db, &mut rng, 60);
            succeeded += s;
            failed += f;
        }
        // Guard against a vacuous pass: both outcomes must occur on runs
        // that do look something up.
        prop_assert!(
            succeeded >= 20 && failed >= 20,
            "{succeeded} successful and {failed} failed runs that did work"
        );
    }
}

/// Fig. 5's query with no UDF backing its unguarded FD `xy→z`, over `R`.
fn fig5_without_udf(r: Relation) -> (Query, Database) {
    let mut db = Database::new();
    db.insert("R", r);
    db.insert("S", Relation::from_rows(vec![1], [[2]]));
    (examples::fig5_udf_product(), db)
}

#[test]
fn unreachable_shape_compiles_and_empty_input_never_reaches_it() {
    let (q, db) = fig5_without_udf(Relation::new(vec![0]));
    let out = naive_join(&q, &db).expect("no tuple reaches the missing UDF");
    assert!(out.output.is_empty());
}

#[test]
#[should_panic(expected = "register UDFs")]
fn unreachable_shape_panics_when_a_tuple_reaches_it() {
    let (q, db) = fig5_without_udf(Relation::from_rows(vec![0], [[1]]));
    let set = IndexSet::new();
    let paths = AccessPaths::new(&set, &q, &db).unwrap();
    let ex = Expander::new(&q, &db, &paths, &mut Stats::default()).unwrap();
    let plan = ex.plan(VarSet::from_vars([0, 1]), VarSet::full(3), true);
    ex.run(&plan, &mut [1, 2, 0], &mut Stats::default());
}
