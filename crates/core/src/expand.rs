//! The Expansion procedure (Sec. 2).
//!
//! Given a relation over attributes `X`, expansion fills in the attributes
//! of the closure `X⁺` by repeatedly applying FDs `U → v`: a guarded FD
//! looks the value up in a trie index of its guard relation (order
//! `U`-then-`v`, served by the shared access-path cache); an unguarded FD
//! calls its UDF. Tuples whose guarded lookups find no match are dangling
//! and dropped; tuples whose computed value contradicts an already-bound
//! attribute are inconsistent and dropped.
//!
//! Which FD fires next depends only on which variables are bound, never on
//! their values, so expansion is *compiled per shape*: [`Expander::plan`]
//! derives, once per `(bound, target)` pair, the straight-line list of
//! guard lookups, guard checks, UDF calls and UDF checks that the
//! derivation takes, and [`Expander::run`] replays that list on each tuple
//! in place. Callers compile their shapes outside their per-tuple loops;
//! [`Expander::expand_tuple`] and [`Expander::verify_fds`] are
//! compile-and-run conveniences over the same two calls. When several
//! registered UDFs could compute a variable, the registry's ordered lookup
//! ([`fdjoin_storage::UdfRegistry::find_applicable`]) picks the same one
//! every time, so plans — and the work counters their runs bump — do not
//! depend on registration order.
//!
//! [`Expander::run`] is allocation-free: guard lookups descend the trie one
//! bound value at a time straight out of the tuple buffer (no key vector),
//! and UDF argument lists live in a stack buffer.

use crate::par::Fragment;
use crate::{AccessPaths, Stats};
use fdjoin_lattice::VarSet;
use fdjoin_query::Query;
use fdjoin_storage::{Database, MissingRelation, Relation, TrieIndex, UdfFn, Value};
use std::sync::Arc;

/// Precomputed expansion machinery for a query + database.
#[derive(Clone)]
pub struct Expander<'a> {
    query: &'a Query,
    db: &'a Database,
    /// For each guarded FD: `(lhs, one rhs var, trie index of the guard on
    /// lhs-then-var column order)`.
    guards: Vec<(VarSet, u32, Arc<TrieIndex>)>,
    /// `(lhs, rhs)` of every unguarded FD, in declaration order.
    unguarded: Vec<(VarSet, VarSet)>,
}

/// One step of a compiled [`ExpandPlan`].
#[derive(Clone)]
enum Op {
    /// Bind a guard's variable to the unique extension of its bound `lhs`
    /// values; no extension means the tuple dangles.
    GuardAssign(usize),
    /// Require a guard's already-bound variable to equal that extension.
    GuardCheck(usize),
    /// Bind `var` to `f(args)`.
    UdfAssign { args: VarSet, var: u32, f: UdfFn },
    /// Require the already-bound `var` to equal `f(args)`.
    UdfCheck { args: VarSet, var: u32, f: UdfFn },
    /// No FD extends `bound` toward `target`: reached only by a tuple that
    /// passed every earlier op.
    Stuck { bound: VarSet, target: VarSet },
}

/// The straight-line expansion of one shape — tuples with the variables
/// `bound` bound, expanded to a `target` — compiled by [`Expander::plan`]
/// and replayed per tuple by [`Expander::run`]. A plan belongs to the
/// expander that compiled it.
#[derive(Clone)]
pub struct ExpandPlan {
    ops: Vec<Op>,
    bound: VarSet,
}

impl ExpandPlan {
    /// The variables bound after a successful run: the shape's `bound` plus
    /// every variable the derivation assigned (a superset of the target).
    pub fn bound(&self) -> VarSet {
        self.bound
    }
}

impl std::fmt::Debug for ExpandPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut list = f.debug_list();
        for op in &self.ops {
            match op {
                Op::GuardAssign(g) => list.entry(&format_args!("guard-assign #{g}")),
                Op::GuardCheck(g) => list.entry(&format_args!("guard-check #{g}")),
                Op::UdfAssign { args, var, .. } => {
                    list.entry(&format_args!("udf-assign {var} = f{args}"))
                }
                Op::UdfCheck { args, var, .. } => {
                    list.entry(&format_args!("udf-check {var} = f{args}"))
                }
                Op::Stuck { bound, target } => {
                    list.entry(&format_args!("stuck {bound} -> {target}"))
                }
            };
        }
        list.finish()
    }
}

impl<'a> Expander<'a> {
    /// Build the expander, acquiring guard indexes from the access-path
    /// cache (each is built at most once per guard-relation version).
    /// Fails if a guard atom's relation is absent from the database.
    pub fn new(
        query: &'a Query,
        db: &'a Database,
        paths: &AccessPaths<'_>,
        stats: &mut Stats,
    ) -> Result<Expander<'a>, MissingRelation> {
        let mut guards = Vec::new();
        let mut unguarded = Vec::new();
        for fd in query.fds.fds() {
            let Some(j) = query.guard_of(fd) else {
                unguarded.push((fd.lhs, fd.rhs));
                continue;
            };
            let atom = &query.atoms()[j];
            let rel = db.relation(&atom.name)?;
            for v in fd.rhs.minus(fd.lhs).iter() {
                let mut cols: Vec<u32> = fd.lhs.iter().collect();
                cols.push(v);
                guards.push((fd.lhs, v, paths.base(&atom.name, rel, &cols, stats)));
            }
        }
        Ok(Expander {
            query,
            db,
            guards,
            unguarded,
        })
    }

    /// Compile the expansion of tuples with the variables `bound` bound up
    /// to `target`, followed (with `verify`) by a check of every FD whose
    /// variables lie within `target`.
    ///
    /// The derivation takes, while `target ⊄ bound`, the first applicable
    /// step: guarded FDs in order (each guard whose variable is already
    /// bound and in the target is checked on the way; the first whose
    /// variable is unbound assigns it), then unguarded FDs via the ordered
    /// UDF lookup. Every op bumps the same counter a run of it always has:
    /// one probe per guard lookup, one expansion per UDF call. A shape that
    /// cannot reach its target ends in an op that panics when a tuple
    /// reaches it — so an empty input never panics.
    pub fn plan(&self, bound: VarSet, target: VarSet, verify: bool) -> ExpandPlan {
        let mut ops = Vec::new();
        let mut bound = bound;
        'derive: while !target.is_subset(bound) {
            // Guarded FDs first (cheap index lookups).
            for (g, &(lhs, v, _)) in self.guards.iter().enumerate() {
                if !lhs.is_subset(bound) {
                    continue;
                }
                if !bound.contains(v) {
                    ops.push(Op::GuardAssign(g));
                    bound = bound.insert(v);
                    continue 'derive;
                }
                if target.contains(v) {
                    ops.push(Op::GuardCheck(g));
                }
            }
            // Unguarded FDs via UDFs.
            for &(lhs, rhs) in &self.unguarded {
                if !lhs.is_subset(bound) {
                    continue;
                }
                for v in rhs.minus(bound).iter() {
                    if let Some((args, f)) = self.db.udfs.find_applicable(bound, v) {
                        ops.push(Op::UdfAssign {
                            args,
                            var: v,
                            f: Arc::clone(f),
                        });
                        bound = bound.insert(v);
                        continue 'derive;
                    }
                }
            }
            ops.push(Op::Stuck { bound, target });
            return ExpandPlan { ops, bound };
        }
        if verify {
            for (g, &(lhs, v, _)) in self.guards.iter().enumerate() {
                if lhs.is_subset(target) && target.contains(v) {
                    ops.push(Op::GuardCheck(g));
                }
            }
            for &(lhs, rhs) in &self.unguarded {
                if !lhs.is_subset(target) {
                    continue;
                }
                for v in rhs.intersect(target).iter() {
                    if let Some((args, f)) = self.db.udfs.find_applicable(lhs, v) {
                        ops.push(Op::UdfCheck {
                            args,
                            var: v,
                            f: Arc::clone(f),
                        });
                    }
                }
            }
        }
        ExpandPlan { ops, bound }
    }

    /// Replay `plan` on one tuple, given as values indexed by variable id
    /// with (at least) the plan's bound variables filled in. Assigned
    /// variables are written into `vals` in place. Returns `false` as soon
    /// as the tuple turns out dangling or inconsistent.
    pub fn run(&self, plan: &ExpandPlan, vals: &mut [Value], stats: &mut Stats) -> bool {
        for op in &plan.ops {
            match op {
                Op::GuardAssign(g) => match self.lookup(*g, vals, stats) {
                    Some(found) => vals[self.guards[*g].1 as usize] = found,
                    None => return false, // dangling
                },
                Op::GuardCheck(g) => {
                    if self.lookup(*g, vals, stats) != Some(vals[self.guards[*g].1 as usize]) {
                        return false; // dangling, or violates the FD
                    }
                }
                Op::UdfAssign { args, var, f } => {
                    stats.expansions += 1;
                    vals[*var as usize] = call_udf(f, *args, vals);
                }
                Op::UdfCheck { args, var, f } => {
                    stats.expansions += 1;
                    if call_udf(f, *args, vals) != vals[*var as usize] {
                        return false;
                    }
                }
                Op::Stuck { bound, target } => panic!(
                    "cannot expand tuple from {bound} to {target}: an FD on the \
                     derivation path has neither a guard relation nor a registered \
                     UDF — register UDFs for all unguarded FDs"
                ),
            }
        }
        true
    }

    /// Guard `g`'s unique extension of the bound lhs values: descend the
    /// guard trie through them straight out of `vals` (one probe, no key
    /// materialization).
    #[inline]
    fn lookup(&self, g: usize, vals: &[Value], stats: &mut Stats) -> Option<Value> {
        let (lhs, _, ix) = &self.guards[g];
        stats.probes += 1;
        let mut probe = ix.probe();
        if lhs.iter().all(|u| probe.descend(vals[u as usize])) {
            probe.current()
        } else {
            None
        }
    }

    /// Expand a single tuple given as (bound variable set, values indexed by
    /// variable id) up to `target ⊆ bound⁺`. Returns `false` if the tuple is
    /// dangling/inconsistent. Compiles a one-off plan: per-tuple loops
    /// should compile with [`Expander::plan`] once and call
    /// [`Expander::run`].
    pub fn expand_tuple(
        &self,
        bound: &mut VarSet,
        vals: &mut [Value],
        target: VarSet,
        stats: &mut Stats,
    ) -> bool {
        let plan = self.plan(*bound, target, false);
        *bound = plan.bound();
        self.run(&plan, vals, stats)
    }

    /// Verify every FD whose variables are within `bound` (guarded lookups
    /// must match; UDFs must reproduce the bound value). Compiles a one-off
    /// plan, like [`Expander::expand_tuple`].
    pub fn verify_fds(&self, bound: VarSet, vals: &[Value], stats: &mut Stats) -> bool {
        let plan = self.plan(bound, bound, true);
        // A verify-only plan assigns nothing, so it reads `vals` only.
        self.run(&plan, &mut vals.to_vec(), stats)
    }

    /// Expand a whole relation to the closure of its variable set
    /// (the `R ↦ R⁺` step used by all algorithms). The output column order
    /// is the input columns followed by the new variables in ascending id.
    pub fn expand_relation(&self, rel: &Relation, stats: &mut Stats) -> Relation {
        let src_vars = rel.var_set();
        let target = self.query.closure(src_vars);
        let plan = self.plan(src_vars, target, false);
        let mut out_vars: Vec<u32> = rel.vars().to_vec();
        out_vars.extend(target.minus(src_vars).iter());
        let mut vals = vec![0 as Value; self.query.n_vars()];
        let mut buf = vec![0 as Value; out_vars.len()];
        let mut out = Fragment::default();
        for row in rel.rows() {
            for (&v, &x) in rel.vars().iter().zip(row) {
                vals[v as usize] = x;
            }
            if self.run(&plan, &mut vals, stats) {
                for (slot, &v) in buf.iter_mut().zip(&out_vars) {
                    *slot = vals[v as usize];
                }
                out.push(&buf);
                stats.intermediate_tuples += 1;
            }
        }
        crate::par::merge(out_vars, vec![out])
    }
}

/// Apply a UDF to arguments gathered from `vals` into a stack buffer —
/// variable ids are bounded by `VarSet`'s 64-bit width, so no heap
/// allocation is ever needed per application.
#[inline]
fn call_udf(f: &UdfFn, args: VarSet, vals: &[Value]) -> Value {
    let mut argbuf = [0 as Value; 64];
    let mut n = 0usize;
    for u in args.iter() {
        argbuf[n] = vals[u as usize];
        n += 1;
    }
    f(&argbuf[..n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_query::Query;
    use fdjoin_storage::{Database, IndexSet};

    /// R(x,y), S(y,z), T(z,u) with xz→u (UDF), yu→x (UDF).
    fn fig1_db() -> (Query, Database) {
        let q = fdjoin_query::examples::fig1_udf();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [3, 2]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 5]]));
        db.insert("T", Relation::from_rows(vec![2, 3], [[5, 1], [5, 3]]));
        let xz = VarSet::from_vars([0, 2]);
        let yu = VarSet::from_vars([1, 3]);
        db.udfs.register(xz, 3, |v| v[0]); // u = f(x,z) = x
        db.udfs.register(yu, 0, |v| v[1]); // x = g(y,u) = u
        (q, db)
    }

    fn expander<'a>(
        q: &'a Query,
        db: &'a Database,
        set: &IndexSet,
        stats: &mut Stats,
    ) -> Expander<'a> {
        let paths = AccessPaths::new(set, q, db).unwrap();
        Expander::new(q, db, &paths, stats).unwrap()
    }

    #[test]
    fn expand_via_udf() {
        let (q, db) = fig1_db();
        let set = IndexSet::new();
        let mut stats = Stats::default();
        let ex = expander(&q, &db, &set, &mut stats);
        // Tuple over {x,z}: closure adds u (= x), then... {x,z,u}+ = xzu.
        let rel = Relation::from_rows(vec![0, 2], [[7, 5]]);
        let expanded = ex.expand_relation(&rel, &mut stats);
        assert_eq!(expanded.len(), 1);
        assert_eq!(expanded.vars(), &[0, 2, 3]);
        assert_eq!(expanded.row(0), &[7, 5, 7]); // u = x = 7.
        assert!(stats.expansions > 0);
    }

    #[test]
    fn expand_checks_consistency() {
        let (q, db) = fig1_db();
        let set = IndexSet::new();
        let mut stats = Stats::default();
        let ex = expander(&q, &db, &set, &mut stats);
        // Tuple over {x,y,z,u} where u ≠ f(x,z): verify_fds must reject.
        let bound = VarSet::from_vars([0, 1, 2, 3]);
        let good = [7, 2, 5, 7];
        let bad = [7, 2, 5, 8];
        assert!(ex.verify_fds(bound, &good, &mut stats));
        assert!(!ex.verify_fds(bound, &bad, &mut stats));
    }

    #[test]
    fn guarded_expansion_looks_up_relation() {
        // T(x,y,z) guards xy→z.
        let q = fdjoin_query::examples::composite_key();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0], [[1], [2]]));
        db.insert("S", Relation::from_rows(vec![1], [[10]]));
        db.insert(
            "T",
            Relation::from_rows(vec![0, 1, 2], [[1, 10, 100], [2, 10, 200]]),
        );
        let set = IndexSet::new();
        let mut stats = Stats::default();
        let ex = expander(&q, &db, &set, &mut stats);
        assert_eq!(stats.index_builds, 1, "one guard index built");
        let rel = Relation::from_rows(vec![0, 1], [[1, 10], [2, 10], [3, 10]]);
        let expanded = ex.expand_relation(&rel, &mut stats);
        // (3,10) is dangling — no z in T.
        assert_eq!(expanded.len(), 2);
        assert!(expanded.contains_row(&[1, 10, 100]));
        assert!(expanded.contains_row(&[2, 10, 200]));
        // A second expander over the same database hits the cached index.
        let mut stats2 = Stats::default();
        let _ex2 = expander(&q, &db, &set, &mut stats2);
        assert_eq!(stats2.index_builds, 0);
        assert_eq!(stats2.index_hits, 1);
    }

    #[test]
    fn expansion_of_closed_set_is_identity_with_semijoin_semantics() {
        let (q, db) = fig1_db();
        let set = IndexSet::new();
        let mut stats = Stats::default();
        let ex = expander(&q, &db, &set, &mut stats);
        let rel = Relation::from_rows(vec![0, 1], [[1, 2], [9, 9]]);
        let expanded = ex.expand_relation(&rel, &mut stats);
        // {x,y} is closed: nothing added, nothing removed.
        assert_eq!(expanded.len(), 2);
        assert_eq!(expanded.vars(), &[0, 1]);
    }
}
