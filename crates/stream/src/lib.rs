//! Cursor-based result streaming: enumerate join answers one tuple at a
//! time, on demand, without ever materializing the full output.
//!
//! Every materializing execution in `fdjoin_core` runs the same shape of
//! computation — a Generic-Join-style descent over the shared trie access
//! paths (`fdjoin_storage::TrieIndex` + [`Probe`](fdjoin_storage::Probe)
//! cursors), FD-expanding and verifying each full binding. [`ResultStream`]
//! is that descent turned inside out: instead of a recursive search pushing
//! rows into a `Relation`, the cursor levels of the search live *in the
//! stream* as plain-data [`ProbeSnapshot`]s, and every
//! [`ResultStream::next_row`] call resumes the descent exactly where the
//! previous row suspended it. Between calls the stream holds no borrows of
//! its indexes' interiors — only `(depth, lo, hi)` positions — so it can be
//! paused indefinitely, shipped across threads, or serialized as a
//! [`StreamCheckpoint`] and reattached to an equal-content database later.
//!
//! The enumeration visits the same leaves in the same order as
//! `Algorithm::GenericJoin` and meters the same deterministic
//! [`Stats`] — a fully drained stream performs *exactly* the work of the
//! materializing run (plus the streaming counters
//! [`Stats::rows_streamed`] / [`Stats::stream_pauses`]). The pruning entry
//! points stop early and therefore do strictly less:
//!
//! - [`ResultStream::exists`] — suspend after the first answer;
//! - [`ResultStream::limit`] — materialize only a `k`-prefix;
//! - [`ResultStream::offset`] — skip rows without delivering them;
//! - [`ResultStream::count`] — drain without materializing rows.
//!
//! Whether the *delay* between consecutive rows is guaranteed constant is a
//! property of the query, decided by the Carmeli–Kröll dichotomy
//! ([`fdjoin_query::EnumerationClass`], surfaced here as
//! [`ResultStream::enumeration_class`]): acyclic queries stream with
//! constant delay after the tries are built, FD-rescued cyclic queries too,
//! and for the rest the gap between rows can grow with the data.
//!
//! ```
//! use fdjoin_core::Engine;
//! use fdjoin_storage::{Database, Relation};
//! use fdjoin_stream::ResultStream;
//!
//! let q = fdjoin_query::examples::triangle();
//! let mut db = Database::new();
//! db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [2, 3]]));
//! db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
//! db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1], [1, 2]]));
//!
//! let prepared = Engine::new().prepare(&q);
//! let mut stream = ResultStream::open(&prepared, &db).unwrap();
//! assert_eq!(stream.next_row(), Some(&[1, 2, 3][..]));
//! assert_eq!(stream.next_row(), Some(&[2, 3, 1][..]));
//! assert_eq!(stream.next_row(), None);
//! assert_eq!(stream.stats().rows_streamed, 2);
//! ```

use fdjoin_core::{ExpandPlan, Expander, JoinError, PreparedQuery, Stats};
use fdjoin_lattice::VarSet;
use fdjoin_obs::{Observer, SpanKind};
use fdjoin_storage::{Database, ProbeSnapshot, Relation, TrieIndex, Value};
use std::fmt;
use std::sync::Arc;

/// One atom's access path: its cached trie (columns in global binding
/// order) — the object the per-depth snapshots address into.
struct AtomState {
    idx: Arc<TrieIndex>,
    ordered_vars: Vec<u32>,
}

/// A suspended-and-resumable cursor over the answers of a prepared query.
///
/// Open one with [`ResultStream::open`]; pull rows with
/// [`ResultStream::next_row`] (or the pruning fast paths). The stream
/// borrows the [`PreparedQuery`] and [`Database`] it was opened over, but
/// between calls its search position is plain data — see the
/// [module docs](self) for the design and [`StreamCheckpoint`] for
/// detaching the position entirely.
pub struct ResultStream<'a> {
    prepared: &'a PreparedQuery,
    ex: Expander<'a>,
    atoms: Vec<AtomState>,
    /// Search variables in binding order (ascending id, atom vars only;
    /// UDF-only variables are filled by expansion at the leaves).
    order: Vec<u32>,
    /// Atoms participating at each search depth.
    at_depth: Vec<Vec<usize>>,
    /// Expand UDF-only variables and verify every FD once all of `order`
    /// is bound — compiled at open, since the bound set at a leaf is
    /// always the same.
    leaf: ExpandPlan,
    /// Content versions of each atom's relation at open time, stamped into
    /// checkpoints so a resume against drifted data is rejected.
    versions: Vec<u64>,
    udf_version: u64,
    // --- the suspended search position (all plain data) ---
    /// `levels[d][ai]` is atom `ai`'s cursor with its variables among
    /// `order[..d]` descended. Depth `d+1` is always rewritten from depth
    /// `d`, so backtracking needs no undo. The lead cursor at the current
    /// depth is *pre-advanced* past the candidate it last descended into,
    /// so resuming is nothing but continuing the leapfrog loop.
    levels: Vec<Vec<ProbeSnapshot>>,
    /// The leapfrog lead (smallest-range participating atom) per depth.
    lead: Vec<usize>,
    vals: Vec<Value>,
    depth: usize,
    done: bool,
    row_buf: Vec<Value>,
    stats: Stats,
    /// The prepared query's tracing handle: each delivered row is a
    /// `stream_advance` span (no-op when the engine has no observer).
    obs: Observer,
}

impl<'a> ResultStream<'a> {
    /// Open a cursor over `prepared`'s answers on `db`, positioned before
    /// the first row. Builds (or reuses from the engine-wide cache) one
    /// trie per atom plus the FD-guard tries; no output is computed yet.
    pub fn open(
        prepared: &'a PreparedQuery,
        db: &'a Database,
    ) -> Result<ResultStream<'a>, JoinError> {
        let mut stats = Stats::default();
        let paths = prepared.access_paths(db)?;
        let q = prepared.query();
        let ex = Expander::new(q, db, &paths, &mut stats)?;
        let nv = q.n_vars();
        let atom_vars: VarSet = q
            .atoms()
            .iter()
            .fold(VarSet::EMPTY, |s, a| s.union(a.var_set()));
        let order: Vec<u32> = (0..nv as u32).filter(|&v| atom_vars.contains(v)).collect();
        let rank: Vec<usize> = {
            let mut r = vec![usize::MAX; nv];
            for (i, &v) in order.iter().enumerate() {
                r[v as usize] = i;
            }
            r
        };
        let mut atoms: Vec<AtomState> = Vec::with_capacity(q.atoms().len());
        let mut versions: Vec<u64> = Vec::with_capacity(q.atoms().len());
        for a in q.atoms() {
            let rel = db.relation(&a.name)?;
            versions.push(rel.version());
            let mut ordered: Vec<u32> = a.vars.clone();
            ordered.sort_by_key(|&v| rank[v as usize]);
            atoms.push(AtomState {
                idx: paths.base(&a.name, rel, &ordered, &mut stats),
                ordered_vars: ordered,
            });
        }
        let at_depth: Vec<Vec<usize>> = order
            .iter()
            .map(|&v| {
                (0..atoms.len())
                    .filter(|&ai| atoms[ai].ordered_vars.contains(&v))
                    .collect()
            })
            .collect();
        let leaf = ex.plan(
            VarSet::from_vars(order.iter().copied()),
            VarSet::full(nv as u32),
            true,
        );
        let levels: Vec<Vec<ProbeSnapshot>> = (0..=order.len())
            .map(|_| atoms.iter().map(|a| a.idx.probe().snapshot()).collect())
            .collect();
        let mut lead = vec![0usize; order.len()];
        if !order.is_empty() {
            lead[0] = at_depth[0]
                .iter()
                .copied()
                .min_by_key(|&ai| atoms[ai].idx.len())
                .expect("search variables occur in some atom");
        }
        Ok(ResultStream {
            prepared,
            ex,
            atoms,
            order,
            at_depth,
            leaf,
            versions,
            udf_version: db.udfs.version(),
            levels,
            lead,
            vals: vec![0 as Value; nv],
            depth: 0,
            done: false,
            row_buf: Vec::new(),
            stats,
            obs: prepared.observer().clone(),
        })
    }

    /// Advance the suspended descent to the next answer, leaving it in
    /// `row_buf`. This is the whole state machine: reconstruct live probes
    /// from the current depth's snapshots, leapfrog to the next candidate,
    /// narrow into its subtrie, and either emit (at the leaf) or descend.
    /// Exactly mirrors `fdjoin_core`'s Generic-Join recursion — same visit
    /// order, same [`Stats`] accounting — with the call stack replaced by
    /// `levels`/`lead`/`depth`.
    fn advance(&mut self) -> bool {
        if self.done {
            return false;
        }
        if self.order.is_empty() {
            // No atom variables to search (nullary atoms only): at most one
            // answer, produced entirely by expansion from the empty prefix.
            self.done = true;
            if self.ex.run(&self.leaf, &mut self.vals, &mut self.stats) {
                self.stats.output_tuples += 1;
                self.row_buf.clone_from(&self.vals);
                return true;
            }
            return false;
        }
        // Disjoint field borrows: probes borrow `atoms` (shared) while the
        // cursor state and counters are mutated alongside.
        let ResultStream {
            ex,
            atoms,
            order,
            at_depth,
            leaf,
            levels,
            lead,
            vals,
            depth,
            done,
            row_buf,
            stats,
            ..
        } = self;
        let atoms: &[AtomState] = atoms;
        'outer: loop {
            let d = *depth;
            let participating = &at_depth[d];
            let li = lead[d];
            // The lead cursor is live across the whole leapfrog at this
            // depth; everyone else is resumed per seek from its snapshot.
            let mut lp = atoms[li].idx.resume(levels[d][li]);
            while let Some(candidate) = lp.current() {
                let mut ok = true;
                let mut overshoot: Option<Value> = None;
                for &ai in participating.iter() {
                    if ai == li {
                        continue;
                    }
                    stats.probes += 1;
                    // Forward-only seek; the moved position persists in the
                    // snapshot so each cursor sweeps its range at most once
                    // over the whole level — across pauses too.
                    let mut p = atoms[ai].idx.resume(levels[d][ai]);
                    let res = p.seek(candidate);
                    levels[d][ai] = p.snapshot();
                    match res {
                        Some(w) if w == candidate => {}
                        other => {
                            ok = false;
                            overshoot = other;
                            break;
                        }
                    }
                }
                if ok {
                    // Narrow every participating cursor into the candidate's
                    // subtrie at depth d+1 (all are positioned at the
                    // candidate, so these descends are cheap).
                    let (cur, rest) = levels.split_at_mut(d + 1);
                    let next = &mut rest[0];
                    next.copy_from_slice(&cur[d]);
                    for &ai in participating.iter() {
                        stats.probes += 1;
                        let mut p = atoms[ai].idx.resume(next[ai]);
                        let descended = p.descend(candidate);
                        debug_assert!(descended, "all cursors verified to contain candidate");
                        next[ai] = p.snapshot();
                    }
                    vals[order[d] as usize] = candidate;
                    // Pre-advance the lead past this candidate *before*
                    // descending: when the search later backtracks to this
                    // depth — possibly in a different `next_row` call, or
                    // after a checkpoint round-trip — continuing the loop
                    // is all it takes.
                    lp.next_value();
                    cur[d][li] = lp.snapshot();
                    if d + 1 == order.len() {
                        // Leaf: all atom variables bound. Expand UDF-only
                        // variables in place (they are never read by the
                        // search), verify the FDs, emit on success. The
                        // depth stays put — dead leaves keep leapfrogging.
                        if ex.run(leaf, vals, stats) {
                            stats.output_tuples += 1;
                            row_buf.clone_from(vals);
                            return true;
                        }
                    } else {
                        // Tie-break by matching *row* count (snapshots hold
                        // node coordinates, whose width is the distinct-value
                        // count) so the choice — and the deterministic stats —
                        // agree with the materialized Generic-Join driver.
                        lead[d + 1] = at_depth[d + 1]
                            .iter()
                            .copied()
                            .min_by_key(|&ai| atoms[ai].idx.resume(next[ai]).len())
                            .expect("search variables occur in some atom");
                        *depth = d + 1;
                        continue 'outer;
                    }
                } else {
                    match overshoot {
                        // Leapfrog: jump the lead straight to the overshot
                        // value — the next possible intersection member.
                        Some(w) => {
                            lp.seek(w);
                        }
                        // An atom ran out entirely: this depth is exhausted.
                        None => break,
                    }
                }
            }
            // Depth d exhausted: backtrack (or finish at the root).
            levels[d][li] = lp.snapshot();
            if d == 0 {
                *done = true;
                return false;
            }
            *depth = d - 1;
        }
    }

    /// The next answer, or `None` when the enumeration is exhausted. Each
    /// delivered row suspends the descent ([`Stats::stream_pauses`]) and
    /// counts into [`Stats::rows_streamed`]. Rows come out in lexicographic
    /// order of the atom variables (ascending id) and are distinct; the
    /// slice covers *all* query variables in ascending id, UDF-filled ones
    /// included — the same schema as a materialized `JoinResult::output`.
    #[allow(clippy::should_implement_trait)] // lending semantics, not Iterator
    pub fn next_row(&mut self) -> Option<&[Value]> {
        // One span per delivered (or attempted) row: the descent work
        // between two suspensions. Gated so the disabled path costs one
        // branch per row.
        let mut span = if self.obs.is_enabled() {
            Some(self.obs.span(SpanKind::StreamAdvance, "next_row"))
        } else {
            None
        };
        let got = self.advance();
        if let Some(span) = &mut span {
            span.field("emitted", got);
            span.field("rows_streamed", self.stats.rows_streamed + got as u64);
        }
        if got {
            self.stats.rows_streamed += 1;
            self.stats.stream_pauses += 1;
            Some(&self.row_buf)
        } else {
            None
        }
    }

    /// Whether at least one (more) answer exists, stopping the descent at
    /// the first one — the strongest pruning: on a nonempty result this
    /// does a vanishing fraction of the full enumeration's work. Consumes
    /// the witnessing row.
    pub fn exists(&mut self) -> bool {
        self.advance()
    }

    /// Drain the remaining answers and return how many there were, without
    /// materializing or delivering any row (no [`Stats::rows_streamed`]).
    pub fn count(&mut self) -> u64 {
        let mut n = 0;
        while self.advance() {
            n += 1;
        }
        n
    }

    /// Skip up to `n` answers without delivering them, then return `self`
    /// for chaining (`stream.offset(100).limit(10)`). Skipping still walks
    /// the descent — constant delay per skipped row on constant-delay
    /// queries, but never free.
    pub fn offset(&mut self, n: usize) -> &mut Self {
        for _ in 0..n {
            if !self.advance() {
                break;
            }
        }
        self
    }

    /// Materialize at most `k` further answers, in arrival (enumeration)
    /// order. Stops the descent after the `k`-th row: on large results this
    /// does strictly less deterministic work than any materializing
    /// execution.
    pub fn limit(&mut self, k: usize) -> Relation {
        let mut out = Relation::new((0..self.vals.len() as u32).collect());
        for _ in 0..k {
            match self.next_row() {
                Some(row) => out.push_row(row),
                None => break,
            }
        }
        out
    }

    /// Drain the stream into a relation equal to the materialized
    /// `JoinResult::output` of the same query (sorted, deduplicated).
    pub fn collect_rows(&mut self) -> Relation {
        let mut out = Relation::new((0..self.vals.len() as u32).collect());
        while let Some(row) = self.next_row() {
            out.push_row(row);
        }
        out.sort_dedup();
        out
    }

    /// Work counters so far: the deterministic descent/expansion counters
    /// (identical to the materializing run's once drained), the cache-warmth
    /// split, and the streaming counters.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Whether the enumeration has been exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.done
    }

    /// The Carmeli–Kröll enumeration class of the underlying query: whether
    /// the delay between consecutive [`ResultStream::next_row`] answers is
    /// guaranteed constant (see [`fdjoin_query::EnumerationClass`]).
    pub fn enumeration_class(&self) -> fdjoin_query::EnumerationClass {
        self.prepared.enumeration_class()
    }

    /// Detach the suspended search position as plain data. The checkpoint
    /// is stamped with the content versions of everything the enumeration
    /// reads, so [`ResultStream::resume`] can verify it still addresses the
    /// same rows.
    pub fn checkpoint(&self) -> StreamCheckpoint {
        StreamCheckpoint {
            levels: self.levels.clone(),
            lead: self.lead.clone(),
            vals: self.vals.clone(),
            depth: self.depth,
            done: self.done,
            versions: self.versions.clone(),
            udf_version: self.udf_version,
            stats: self.stats,
        }
    }

    /// Reattach a [`StreamCheckpoint`] to `prepared` over `db`, continuing
    /// the enumeration exactly where [`ResultStream::checkpoint`] left it —
    /// no row is duplicated or dropped. Fails with
    /// [`StreamError::StaleCheckpoint`] if any relation the enumeration
    /// reads (atoms and FD guards are all atoms) or the UDF registry has
    /// changed content since the checkpoint was taken; cursor positions are
    /// trie-node ranges, meaningful only against identical content.
    pub fn resume(
        prepared: &'a PreparedQuery,
        db: &'a Database,
        ck: &StreamCheckpoint,
    ) -> Result<ResultStream<'a>, StreamError> {
        let mut s = ResultStream::open(prepared, db)?;
        if ck.versions.len() != s.versions.len()
            || ck.levels.len() != s.levels.len()
            || ck.levels.iter().any(|row| row.len() != s.atoms.len())
            || ck.lead.len() != s.lead.len()
            || ck.vals.len() != s.vals.len()
            || ck.lead.iter().any(|&ai| ai >= s.atoms.len())
            || ck.depth >= ck.levels.len()
        {
            return Err(StreamError::Join(JoinError::InvalidOptions(
                "checkpoint shape does not match the prepared query".into(),
            )));
        }
        for (ai, (&have, &want)) in s.versions.iter().zip(&ck.versions).enumerate() {
            if have != want {
                return Err(StreamError::StaleCheckpoint {
                    relation: prepared.query().atoms()[ai].name.clone(),
                });
            }
        }
        if s.udf_version != ck.udf_version {
            return Err(StreamError::StaleCheckpoint {
                relation: "<udf registry>".into(),
            });
        }
        // Continue the checkpoint's deterministic metering; the index
        // acquisitions this reopen just performed are genuine traffic of
        // the resumed stream, so they merge on top.
        let reopened = s.stats;
        s.stats = ck.stats;
        s.stats.index_builds += reopened.index_builds;
        s.stats.index_hits += reopened.index_hits;
        s.levels = ck.levels.clone();
        s.lead = ck.lead.clone();
        s.vals = ck.vals.clone();
        s.depth = ck.depth;
        s.done = ck.done;
        Ok(s)
    }
}

impl fmt::Debug for ResultStream<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultStream")
            .field("depth", &self.depth)
            .field("done", &self.done)
            .field("rows_streamed", &self.stats.rows_streamed)
            .finish()
    }
}

/// A suspended [`ResultStream`] position as plain data: the per-depth
/// cursor snapshots, the partial binding, and the content versions they are
/// valid against. Detached from every lifetime — hold it as long as you
/// like, then [`ResultStream::resume`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamCheckpoint {
    levels: Vec<Vec<ProbeSnapshot>>,
    lead: Vec<usize>,
    vals: Vec<Value>,
    depth: usize,
    done: bool,
    versions: Vec<u64>,
    udf_version: u64,
    stats: Stats,
}

impl StreamCheckpoint {
    /// The work counters accumulated up to the checkpoint.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Rows delivered before the checkpoint was taken.
    pub fn rows_streamed(&self) -> u64 {
        self.stats.rows_streamed
    }
}

/// Why a stream could not be (re)opened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The underlying engine error (missing relation, invalid checkpoint
    /// shape, budget rejection, …).
    Join(JoinError),
    /// A [`StreamCheckpoint`] was presented against a database whose named
    /// relation (or UDF registry) no longer has the content the checkpoint
    /// was taken over — its cursor positions would address the wrong rows.
    StaleCheckpoint {
        /// The first relation whose content version drifted.
        relation: String,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Join(e) => e.fmt(f),
            StreamError::StaleCheckpoint { relation } => write!(
                f,
                "stale checkpoint: relation {relation:?} changed content since the \
                 checkpoint was taken"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<JoinError> for StreamError {
    fn from(e: JoinError) -> StreamError {
        StreamError::Join(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_core::{Algorithm, Engine, ExecOptions};

    fn triangle_db() -> Database {
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
        db
    }

    #[test]
    fn drains_to_the_materialized_answer() {
        let q = fdjoin_query::examples::triangle();
        let db = triangle_db();
        let prepared = Engine::new().prepare(&q);
        let expect = prepared
            .execute(&db, &ExecOptions::new().algorithm(Algorithm::GenericJoin))
            .unwrap();
        let mut s = ResultStream::open(&prepared, &db).unwrap();
        let got = s.collect_rows();
        assert_eq!(got, expect.output);
        assert!(s.is_exhausted());
        assert_eq!(s.next_row(), None, "exhaustion is stable");
        // A drained stream performed exactly the materializing run's
        // deterministic work (streaming counters aside).
        let mut ours = s.stats().deterministic();
        assert_eq!(ours.rows_streamed, expect.output.len() as u64);
        assert_eq!(ours.stream_pauses, ours.rows_streamed);
        ours.rows_streamed = 0;
        ours.stream_pauses = 0;
        assert_eq!(ours, expect.stats.deterministic());
    }

    #[test]
    fn exists_stops_early() {
        let q = fdjoin_query::examples::triangle();
        let db = triangle_db();
        let prepared = Engine::new().prepare(&q);
        let full = prepared
            .execute(&db, &ExecOptions::new().algorithm(Algorithm::GenericJoin))
            .unwrap();
        let mut s = ResultStream::open(&prepared, &db).unwrap();
        assert!(s.exists());
        assert!(
            s.stats().deterministic().work() < full.stats.deterministic().work(),
            "exists() pruned the enumeration"
        );
    }

    #[test]
    fn offset_limit_paginate_without_overlap() {
        let q = fdjoin_query::examples::triangle();
        let db = triangle_db();
        let prepared = Engine::new().prepare(&q);
        let mut all = ResultStream::open(&prepared, &db).unwrap();
        let everything = all.collect_rows();
        let mut pages = Relation::new(vec![0, 1, 2]);
        let mut start = 0usize;
        loop {
            let mut s = ResultStream::open(&prepared, &db).unwrap();
            let page = s.offset(start).limit(2);
            if page.is_empty() {
                break;
            }
            for row in page.rows() {
                pages.push_row(row);
            }
            start += page.len();
        }
        pages.sort_dedup();
        assert_eq!(pages, everything);
    }

    #[test]
    fn checkpoint_rejects_content_drift() {
        let q = fdjoin_query::examples::triangle();
        let mut db = triangle_db();
        let prepared = Engine::new().prepare(&q);
        let ck = {
            let mut s = ResultStream::open(&prepared, &db).unwrap();
            s.next_row();
            s.checkpoint()
        };
        // Same data, same versions: resumes fine.
        assert!(ResultStream::resume(&prepared, &db, &ck).is_ok());
        // Touch one relation: its version moves, the checkpoint is stale.
        db.relation_mut("S")
            .unwrap()
            .apply_delta([[9u64, 9]], [] as [&[Value]; 0]);
        match ResultStream::resume(&prepared, &db, &ck) {
            Err(StreamError::StaleCheckpoint { relation }) => assert_eq!(relation, "S"),
            other => panic!("expected StaleCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn udf_filled_variables_expand_at_leaves() {
        // `z` occurs in no atom: it is bound by expansion, not search.
        let q = fdjoin_query::examples::fig5_udf_product();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0], [[1], [2]]));
        db.insert("S", Relation::from_rows(vec![1], [[10]]));
        db.udfs
            .register(VarSet::from_vars([0, 1]), 2, |v| v[0] + v[1]);
        let prepared = Engine::new().prepare(&q);
        let expect = prepared
            .execute(&db, &ExecOptions::new().algorithm(Algorithm::GenericJoin))
            .unwrap();
        let mut s = ResultStream::open(&prepared, &db).unwrap();
        assert_eq!(s.collect_rows(), expect.output);
    }
}
