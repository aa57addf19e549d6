//! Streaming through the facade: the Carmeli–Kröll enumeration class is
//! recorded on every Auto decision, and the cursor layer composes with the
//! engine's prepared queries end to end.

use fdjoin::core::{Algorithm, Engine, ExecOptions};
use fdjoin::lattice::VarSet;
use fdjoin::query::{examples, EnumerationClass, Query};
use fdjoin::storage::{Database, Relation, Value};
use fdjoin::stream::ResultStream;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn auto_class(q: &Query, seed: u64) -> EnumerationClass {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = fdjoin::instances::random_instance(q, &mut rng, 12, 80);
    let r = Engine::new()
        .execute(q, &db, &ExecOptions::new().algorithm(Algorithm::Auto))
        .expect("auto execution");
    let decision = r.auto.expect("auto runs record their decision");
    decision.enumeration
}

/// The acceptance criterion: an actual Auto execution reports
/// constant-delay for an acyclic query and not-constant-delay for a query
/// that provably has no constant-delay enumeration (the triangle, cyclic
/// even under its FD closure).
#[test]
fn auto_decisions_report_enumeration_class() {
    let cd = auto_class(&examples::simple_fd_path(), 1);
    assert_eq!(cd, EnumerationClass::ConstantDelay);
    assert!(cd.is_constant_delay());

    let ncd = auto_class(&examples::triangle(), 2);
    assert_eq!(ncd, EnumerationClass::NotConstantDelay);
    assert!(!ncd.is_constant_delay());

    // The interesting middle class: the triangle again, but an FD y→z
    // makes its closure acyclic — constant delay *because of* the FDs.
    let mut b = Query::builder();
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("R", &[x, y]).atom("S", &[y, z]).atom("T", &[z, x]);
    b.fd(&[y], &[z]);
    let via_fds = auto_class(&b.build(), 3);
    assert_eq!(via_fds, EnumerationClass::ConstantDelayViaFds);
    assert!(via_fds.is_constant_delay());
}

/// The recorded class is data-independent: every database, and every
/// prepared execution, reports the same class the prepared query exposes.
#[test]
fn enumeration_class_is_stable_across_data() {
    let q = examples::fig4_query();
    let prepared = Engine::new().prepare(&q);
    assert_eq!(
        prepared.enumeration_class(),
        EnumerationClass::NotConstantDelay
    );
    for seed in [10u64, 11] {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = fdjoin::instances::random_instance(&q, &mut rng, 15, 75);
        let r = prepared.execute(&db, &ExecOptions::new()).expect("execute");
        assert_eq!(
            r.auto.expect("auto decision").enumeration,
            prepared.enumeration_class()
        );
        // The stream layer reports the same class it enumerates under.
        let s = ResultStream::open(&prepared, &db).expect("open");
        assert_eq!(s.enumeration_class(), prepared.enumeration_class());
    }
}

/// Pause `q` on `db` at every row boundary, resume each checkpoint in a
/// fresh cursor, and require the concatenation to be exactly the
/// uninterrupted enumeration — nothing dropped or repeated — with the same
/// deterministic work.
fn checkpoint_at_every_boundary(q: &Query, db: &Database) {
    let prepared = Engine::new().prepare(q);
    let mut baseline = ResultStream::open(&prepared, db).expect("open");
    let mut uninterrupted: Vec<Vec<Value>> = Vec::new();
    while let Some(row) = baseline.next_row() {
        uninterrupted.push(row.to_vec());
    }
    assert!(uninterrupted.len() > 4, "instance must be non-trivial");
    for pause_after in 0..=uninterrupted.len() {
        let mut first = ResultStream::open(&prepared, db).expect("open");
        let mut rows: Vec<Vec<Value>> = (0..pause_after)
            .map(|_| {
                first
                    .next_row()
                    .expect("pause point within bounds")
                    .to_vec()
            })
            .collect();
        let ck = first.checkpoint();
        drop(first);
        let mut second = ResultStream::resume(&prepared, db, &ck).expect("resume");
        while let Some(row) = second.next_row() {
            rows.push(row.to_vec());
        }
        assert_eq!(
            rows,
            uninterrupted,
            "{}: resume after {pause_after} rows",
            q.display_body()
        );
        assert_eq!(
            second.stats().deterministic(),
            baseline.stats().deterministic(),
            "{}: deterministic work must be pause-invariant (pause at {pause_after})",
            q.display_body()
        );
    }
}

/// Checkpoints taken where the leaf step decides the rows: on the Fig. 1
/// adversarial instance most full bindings fail FD verification, and in
/// `fig5_udf_product` the variable `z` occurs in no atom and is filled by
/// a UDF at every leaf.
#[test]
fn checkpoints_resume_on_udf_leaves() {
    checkpoint_at_every_boundary(
        &examples::fig1_udf(),
        &fdjoin::instances::fig1_adversarial(64),
    );

    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0], (1..=8).map(|x| [x])));
    db.insert("S", Relation::from_rows(vec![1], (1..=6).map(|y| [10 * y])));
    db.udfs
        .register(VarSet::from_vars([0, 1]), 2, |v| v[0] + v[1]);
    checkpoint_at_every_boundary(&examples::fig5_udf_product(), &db);
}
