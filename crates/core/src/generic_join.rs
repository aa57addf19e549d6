//! Generic-Join (NPRR / LFTJ style): the FD-oblivious worst-case-optimal
//! baseline ([18, 19, 23] in the paper).
//!
//! The search itself is the shared leapfrog [`Descent`] — the same one
//! `fdjoin_stream::ResultStream` pauses after every row; this driver walks
//! it to exhaustion. Runs within the AGM bound of the FD-stripped query —
//! and therefore `Ω(N²)` on the paper's Fig. 1 instance, which is the point
//! of experiment E1.
//!
//! The optional `bind_fds` flag implements the paper's footnote 1: LFTJ
//! binds a variable by computing it the moment it is functionally determined
//! by the bound prefix, instead of intersecting. This helps constant
//! factors but provably not the worst-case exponent on the E1 instance.
//!
//! A parallel solve leapfrogs the first variable on the coordinating thread
//! and fans the matched root candidates out over `for_blocks` tasks
//! balanced by their child counts; each block walks its candidates'
//! subtrees. Output and deterministic counters equal the sequential walk's.

use crate::par::{for_blocks, merge, Fragment, ParCtx};
use crate::{AccessPaths, Descent, Stats};
use fdjoin_query::Query;
use fdjoin_storage::{Database, MissingRelation, Relation};

/// Evaluate `q` on `db` with Generic-Join, binding FD-determined variables
/// eagerly when `bind_fds` is set (footnote 1 of the paper) and searching
/// in `var_order` (default: ascending variable id). Output columns are all
/// query variables in ascending id.
pub(crate) fn execute(
    q: &Query,
    db: &Database,
    bind_fds: bool,
    var_order: Option<&[u32]>,
    paths: &AccessPaths<'_>,
    par: &ParCtx,
) -> Result<(Relation, Stats), MissingRelation> {
    let mut stats = Stats::default();
    let mut descent = Descent::open(q, db, paths, bind_fds, var_order, &mut stats)?;
    let all: Vec<u32> = (0..q.n_vars() as u32).collect();
    if par.tasks > 1 {
        if let Some((roots, weights)) = descent.roots(&mut stats) {
            let parts = for_blocks(
                par,
                roots.len(),
                Some(&weights),
                &mut stats,
                |range, stats| {
                    let mut block = descent.clone();
                    let mut part = Fragment::default();
                    for &c in &roots[range] {
                        block.walk_root(c, stats, |row| {
                            part.push(row);
                            true
                        });
                    }
                    part
                },
            );
            return Ok((merge(all, parts), stats));
        }
    }
    let mut out = Fragment::default();
    descent.walk(&mut stats, |row| {
        out.push(row);
        true
    });
    Ok((merge(all, vec![out]), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{generic_join, naive_join, Algorithm, Engine, ExecOptions};
    use fdjoin_lattice::VarSet;

    #[test]
    fn triangle_matches_naive() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 2], [1, 3], [2, 3], [4, 5]]),
        );
        db.insert(
            "S",
            Relation::from_rows(vec![1, 2], [[2, 3], [3, 1], [5, 4]]),
        );
        db.insert(
            "T",
            Relation::from_rows(vec![2, 0], [[3, 1], [1, 1], [4, 4]]),
        );
        let expect = naive_join(&q, &db).unwrap().output;
        let got = generic_join(&q, &db).unwrap();
        assert_eq!(got.output, expect);
        assert!(got.stats.probes > 0);
        assert!(got.stats.index_builds > 0, "atom tries built");
    }

    #[test]
    fn fig1_with_and_without_fd_binding() {
        let q = fdjoin_query::examples::fig1_udf();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 1], [2, 1]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[1, 1], [1, 2]]));
        db.insert("T", Relation::from_rows(vec![2, 3], [[1, 1], [2, 2]]));
        db.udfs.register(VarSet::from_vars([0, 2]), 3, |v| v[0]); // u = x
        db.udfs.register(VarSet::from_vars([1, 3]), 0, |v| v[1]); // x = u
        let expect = naive_join(&q, &db).unwrap().output;
        let plain = generic_join(&q, &db).unwrap();
        let fdbind = Engine::new()
            .execute(
                &q,
                &db,
                &ExecOptions::new()
                    .algorithm(Algorithm::GenericJoin)
                    .bind_fds(true),
            )
            .unwrap();
        assert_eq!(plain.output, expect);
        assert_eq!(fdbind.output, expect);
    }

    #[test]
    fn respects_variable_order() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3]]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
        for order in [vec![0, 1, 2], vec![2, 1, 0], vec![1, 0, 2]] {
            let opts = ExecOptions::new()
                .algorithm(Algorithm::GenericJoin)
                .var_order(order);
            let out = Engine::new().execute(&q, &db, &opts).unwrap();
            assert_eq!(out.output.len(), 1);
            assert_eq!(out.output.row(0), &[1, 2, 3]);
        }
    }

    #[test]
    fn empty_relation_short_circuits() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
        db.insert("S", Relation::new(vec![1, 2]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
        let out = generic_join(&q, &db).unwrap();
        assert!(out.output.is_empty());
    }

    #[test]
    fn rerun_reuses_atom_tries() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [2, 3]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1], [1, 2]]));
        let prepared = Engine::new().prepare(&q);
        let opts = ExecOptions::new().algorithm(Algorithm::GenericJoin);
        let first = prepared.execute(&db, &opts).unwrap();
        let second = prepared.execute(&db, &opts).unwrap();
        assert!(first.stats.index_builds > 0);
        assert_eq!(second.stats.index_builds, 0, "all tries cached");
        assert_eq!(second.stats.index_hits, first.stats.index_gets());
        assert_eq!(first.output, second.output);
        assert_eq!(first.stats.deterministic(), second.stats.deterministic());
    }
}
