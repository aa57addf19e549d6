//! The leapfrog descent: the engine's one Generic-Join search (NPRR / LFTJ
//! style), written as a resumable state machine.
//!
//! Variables are bound one at a time in a fixed search order; at each depth
//! the candidates are the intersection of the matching ranges of every atom
//! containing the variable. Each atom is a cached trie index (columns in
//! search order, served by the access-path layer), and the descent keeps one
//! cursor per atom per depth: a parent's cursor *narrows* into its child's,
//! so intersection is leapfrog seeking inside the already-established
//! range, never a from-scratch search over the whole relation.
//!
//! The cursors are kept as plain-data [`ProbeSnapshot`]s in a
//! [`DescentPosition`] together with the partial binding, so the search can
//! stop after any answer and continue later exactly where it stopped — no
//! call stack, no borrows of the tries between calls. Three callers share
//! it:
//!
//! - `Algorithm::GenericJoin` walks it to exhaustion into a fragment;
//! - its parallel root split leapfrogs depth 0 once on the coordinating
//!   thread, and each `for_blocks` block enters its root candidates at
//!   depth 1 and walks their subtrees, backtracking no lower than depth 1;
//! - `fdjoin_stream::ResultStream` stops after every row and can detach the
//!   position as a checkpoint.
//!
//! The footnote-1 option (`bind_fds`) binds a variable by computing it the
//! moment the bound prefix determines it, instead of intersecting: such a
//! depth is entered by running its compiled bind plan and descending into
//! the single candidate, and backtracking skips it.

use crate::expand::ExpandPlan;
use crate::{AccessPaths, Expander, Stats};
use fdjoin_lattice::VarSet;
use fdjoin_query::Query;
use fdjoin_storage::{Database, MissingRelation, Probe, ProbeSnapshot, TrieIndex, Value};
use std::sync::Arc;

/// A resumable Generic-Join search over one query and database: leapfrog
/// intersection per variable over cached tries, with a plain-data
/// [`DescentPosition`] that [`Descent::walk`] continues from.
#[derive(Clone)]
pub struct Descent<'a> {
    shape: Shape<'a>,
    pos: DescentPosition,
}

/// What the search is over; fixed at open.
#[derive(Clone)]
struct Shape<'a> {
    ex: Expander<'a>,
    /// One cached trie per atom, columns in search order.
    tries: Vec<Arc<TrieIndex>>,
    /// Search variables in binding order: atom variables only. UDF-only
    /// variables are filled by the leaf expansion.
    order: Vec<u32>,
    /// The atoms containing each search variable.
    at_depth: Vec<Vec<usize>>,
    /// Per depth: the compiled footnote-1 binding of its variable, when
    /// `bind_fds` is on and the bound prefix determines it.
    bind: Vec<Option<ExpandPlan>>,
    /// Expand UDF-only variables and verify every FD once all of `order`
    /// is bound.
    leaf: ExpandPlan,
}

/// A suspended [`Descent`] as plain data: per-depth cursor snapshots, the
/// leapfrog leads and the partial binding. Only meaningful against tries
/// with the content it was taken over.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DescentPosition {
    /// `levels[d][ai]` is atom `ai`'s cursor with its variables among
    /// `order[..d]` descended. Depth `d+1` is always rewritten from depth
    /// `d`, so backtracking needs no undo. Nothing reads below the last
    /// depth, so there is no level for it.
    levels: Vec<Vec<ProbeSnapshot>>,
    /// The leapfrog lead per depth. Once the search leaves a depth, its
    /// lead's snapshot already points past the candidate it descended
    /// into, so coming back is just continuing the loop.
    lead: Vec<usize>,
    vals: Vec<Value>,
    depth: usize,
    /// Whether depth 0 has been entered.
    entered: bool,
    done: bool,
}

/// Where entering a depth left the search.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// At a leapfrog depth, ready to intersect.
    Positioned,
    /// At the leaf, with an answer in `vals`.
    Row,
    /// The binding died on the way down.
    Dead,
}

impl<'a> Descent<'a> {
    /// Open a descent over `q` on `db`, positioned before the first
    /// answer: with footnote-1 FD binding when `bind_fds` is set, and in
    /// `var_order` (default: ascending variable id). Acquires one trie per
    /// atom plus the FD-guard tries through `paths`.
    pub fn open(
        q: &'a Query,
        db: &'a Database,
        paths: &AccessPaths<'_>,
        bind_fds: bool,
        var_order: Option<&[u32]>,
        stats: &mut Stats,
    ) -> Result<Descent<'a>, MissingRelation> {
        let ex = Expander::new(q, db, paths, stats)?;
        let nv = q.n_vars();
        let ascending: Vec<u32> = (0..nv as u32).collect();
        let order: Vec<u32> = var_order
            .unwrap_or(&ascending)
            .iter()
            .copied()
            .filter(|&v| q.atoms().iter().any(|a| a.vars.contains(&v)))
            .collect();
        let mut tries = Vec::with_capacity(q.atoms().len());
        for a in q.atoms() {
            let mut cols = a.vars.clone();
            cols.sort_by_key(|&v| order.iter().position(|&o| o == v));
            tries.push(paths.base(&a.name, db.relation(&a.name)?, &cols, stats));
        }
        let at_depth = order
            .iter()
            .map(|&v| {
                (0..tries.len())
                    .filter(|&ai| q.atoms()[ai].vars.contains(&v))
                    .collect()
            })
            .collect();
        // The bound set at depth d is always order[..d], so each depth's
        // binding and the leaf are one compiled plan each.
        let mut prefix = VarSet::EMPTY;
        let mut bind = Vec::with_capacity(order.len());
        for &v in &order {
            let determined = bind_fds && q.closure(prefix).contains(v);
            bind.push(determined.then(|| ex.plan(prefix, prefix.insert(v), false)));
            prefix = prefix.insert(v);
        }
        let leaf = ex.plan(prefix, VarSet::full(nv as u32), true);
        let root: Vec<ProbeSnapshot> = tries.iter().map(|t| t.probe().snapshot()).collect();
        let pos = DescentPosition {
            levels: vec![root; order.len()],
            lead: vec![0; order.len()],
            vals: vec![0; nv],
            ..DescentPosition::default()
        };
        Ok(Descent {
            shape: Shape {
                ex,
                tries,
                order,
                at_depth,
                bind,
                leaf,
            },
            pos,
        })
    }

    /// Continue the search, handing each answer (all query variables in
    /// ascending id) to `emit` until it returns `false` — the descent then
    /// rests just past that answer, which stays readable as
    /// [`Descent::vals`] — or the answers run out. Returns whether `emit`
    /// stopped it. Answers come in lexicographic search order, each once.
    pub fn walk(&mut self, stats: &mut Stats, emit: impl FnMut(&[Value]) -> bool) -> bool {
        if self.pos.entered {
            return self.run(0, stats, emit);
        }
        self.pos.entered = true;
        let entry = self.shape.enter(&mut self.pos, 0, stats);
        self.settle(entry, 0, stats, emit)
    }

    /// The current binding: after a [`Descent::walk`] that `emit` stopped,
    /// the answer it stopped at.
    pub fn vals(&self) -> &[Value] {
        &self.pos.vals
    }

    /// Whether the answers have run out.
    pub fn is_done(&self) -> bool {
        self.pos.done
    }

    /// The search position as plain data.
    pub fn position(&self) -> &DescentPosition {
        &self.pos
    }

    /// Continue from `pos`, taken from a descent of the same query over
    /// content-equal data. Returns `false`, changing nothing, when its
    /// shape does not fit this descent.
    pub fn restore(&mut self, pos: &DescentPosition) -> bool {
        let (n, atoms) = (self.shape.order.len(), self.shape.tries.len());
        let fits = pos.levels.len() == n
            && pos.levels.iter().all(|level| level.len() == atoms)
            && pos.lead.len() == n
            && pos.lead.iter().all(|&ai| ai < atoms)
            && pos.vals.len() == self.pos.vals.len()
            && pos.depth < n.max(1);
        if fits {
            self.pos = pos.clone();
        }
        fits
    }

    /// The root split: leapfrog depth 0 once, without moving this descent,
    /// and return the candidates with their weights (child rows summed over
    /// the participating tries). The seeks count as the walk's would.
    /// `None` when there is nothing to split: no search variable, or the
    /// first one is FD-bound (a single computed candidate).
    pub(crate) fn roots(&self, stats: &mut Stats) -> Option<(Vec<Value>, Vec<u64>)> {
        let s = &self.shape;
        if s.order.is_empty() || s.bind[0].is_some() {
            return None;
        }
        let mut level = self.pos.levels[0].clone();
        let li = s.lead(&level, 0);
        let mut lp = s.tries[li].resume(level[li]);
        let (mut roots, mut weights) = (Vec::new(), Vec::new());
        while let Some(c) = s.leapfrog(&mut level, 0, li, &mut lp, stats) {
            level[li] = lp.snapshot();
            // Every cursor sits at `c`: `group` is a local bound scan, not
            // a counted probe.
            let w: u64 = s.at_depth[0]
                .iter()
                .map(|&ai| s.tries[ai].resume(level[ai]).group().len() as u64)
                .sum();
            roots.push(c);
            weights.push(w.max(1));
            lp.next_value();
        }
        Some((roots, weights))
    }

    /// Walk the subtree of root candidate `c` (one of [`Descent::roots`])
    /// to exhaustion, entering at depth 1 from this descent's untouched
    /// root cursors. Descending from the root gives the same child range
    /// as descending from a seek position, so a block of candidates counts
    /// exactly the sequential walk's probes.
    pub(crate) fn walk_root(
        &mut self,
        c: Value,
        stats: &mut Stats,
        emit: impl FnMut(&[Value]) -> bool,
    ) {
        let (s, pos) = (&self.shape, &mut self.pos);
        pos.done = false;
        pos.vals[s.order[0] as usize] = c;
        let entry = if s.narrow(pos, 0, c, stats) {
            s.enter(pos, 1, stats)
        } else {
            Entry::Dead
        };
        self.settle(entry, 1, stats, emit);
    }

    /// Go on from an entry made outside the leapfrog loop: from a leapfrog
    /// depth the walk continues, backtracking no lower than `floor`;
    /// otherwise nothing is left to search, and a row goes to `emit`.
    /// Returns whether `emit` stopped the walk.
    fn settle(
        &mut self,
        entry: Entry,
        floor: usize,
        stats: &mut Stats,
        mut emit: impl FnMut(&[Value]) -> bool,
    ) -> bool {
        if entry == Entry::Positioned {
            return self.run(floor, stats, emit);
        }
        self.pos.done = true;
        entry == Entry::Row && !emit(&self.pos.vals)
    }

    /// The leapfrog loop from the current depth, backtracking no lower than
    /// `floor`. Returns whether `emit` stopped it.
    fn run(
        &mut self,
        floor: usize,
        stats: &mut Stats,
        mut emit: impl FnMut(&[Value]) -> bool,
    ) -> bool {
        let Descent { shape, pos } = self;
        let s: &Shape<'_> = shape;
        if pos.done {
            return false;
        }
        'depth: loop {
            let d = pos.depth;
            let li = pos.lead[d];
            // The lead stays live across this depth; it is written back
            // only when the search leaves the depth with work left here.
            let mut lp = s.tries[li].resume(pos.levels[d][li]);
            while let Some(c) = s.leapfrog(&mut pos.levels[d], d, li, &mut lp, stats) {
                pos.vals[s.order[d] as usize] = c;
                let entry = if d + 1 == s.order.len() {
                    // The leaf step, kept lean: every participant sits at
                    // `c`, so copies descend (one probe each), the live
                    // lead among them, and nothing is stored.
                    for &ai in &s.at_depth[d] {
                        stats.probes += 1;
                        let mut p = if ai == li {
                            lp
                        } else {
                            s.tries[ai].resume(pos.levels[d][ai])
                        };
                        let descended = p.descend(c);
                        debug_assert!(descended, "every participant holds the candidate");
                    }
                    s.leaf(&mut pos.vals, stats)
                } else {
                    pos.levels[d][li] = lp.snapshot();
                    if s.narrow(pos, d, c, stats) {
                        s.enter(pos, d + 1, stats)
                    } else {
                        Entry::Dead
                    }
                };
                lp.next_value();
                match entry {
                    Entry::Dead => {}
                    Entry::Row if emit(&pos.vals) => {}
                    Entry::Row => {
                        pos.levels[d][li] = lp.snapshot();
                        return true;
                    }
                    Entry::Positioned => {
                        pos.levels[d][li] = lp.snapshot();
                        continue 'depth;
                    }
                }
            }
            // Depth d is exhausted: back to the nearest leapfrog depth at
            // or above the floor (a footnote-1 depth had one candidate).
            match (floor..d).rev().find(|&e| s.bind[e].is_none()) {
                Some(e) => pos.depth = e,
                None => {
                    pos.done = true;
                    return false;
                }
            }
        }
    }
}

impl Shape<'_> {
    /// The leapfrog lead at depth `d`: the participating cursor over the
    /// fewest rows (the first on ties).
    fn lead(&self, level: &[ProbeSnapshot], d: usize) -> usize {
        self.at_depth[d]
            .iter()
            .copied()
            .min_by_key(|&ai| self.tries[ai].resume(level[ai]).len())
            .expect("search variables occur in some atom")
    }

    /// Seek the other participants of depth `d` forward to the lead's value
    /// until all agree, returning that candidate; `None` once any cursor
    /// runs out. A cursor that overshoots names the next possible match,
    /// and the lead jumps straight to it. Seeks only move forward, so each
    /// cursor sweeps its range at most once per visit of the depth — across
    /// pauses too, since positions persist in `level`.
    fn leapfrog<'t>(
        &'t self,
        level: &mut [ProbeSnapshot],
        d: usize,
        li: usize,
        lp: &mut Probe<'t>,
        stats: &mut Stats,
    ) -> Option<Value> {
        loop {
            let c = lp.current()?;
            let mut overshoot = None;
            for &ai in &self.at_depth[d] {
                if ai == li {
                    continue;
                }
                stats.probes += 1;
                let mut p = self.tries[ai].resume(level[ai]);
                let at = p.seek(c);
                level[ai] = p.snapshot();
                if at != Some(c) {
                    overshoot = Some(at);
                    break;
                }
            }
            match overshoot {
                None => return Some(c),
                Some(at) => lp.seek(at?),
            };
        }
    }

    /// Narrow depth `d`'s participants into candidate `c`'s subtries, one
    /// probe each, stopping at the first miss. Above the last depth the
    /// children become `levels[d+1]`. At the last depth nothing reads
    /// them: copies descend, and nothing is stored.
    fn narrow(&self, pos: &mut DescentPosition, d: usize, c: Value, stats: &mut Stats) -> bool {
        let last = d + 1 == self.order.len();
        if !last {
            let (cur, next) = pos.levels.split_at_mut(d + 1);
            next[0].copy_from_slice(&cur[d]);
        }
        for &ai in &self.at_depth[d] {
            stats.probes += 1;
            let mut p = self.tries[ai].resume(pos.levels[d][ai]);
            if !p.descend(c) {
                return false;
            }
            if !last {
                pos.levels[d + 1][ai] = p.snapshot();
            }
        }
        true
    }

    /// The leaf: expand UDF-only variables in place and verify every FD.
    fn leaf(&self, vals: &mut [Value], stats: &mut Stats) -> Entry {
        if !self.ex.run(&self.leaf, vals, stats) {
            return Entry::Dead;
        }
        stats.output_tuples += 1;
        Entry::Row
    }

    /// Enter depth `e`, with `order[..e]` bound in `vals` and `levels[e]`
    /// narrowed to them. A footnote-1 depth runs its bind plan and descends
    /// straight into the single candidate; the leaf expands UDF-only
    /// variables in place and verifies every FD; the first leapfrog depth
    /// picks its lead and becomes the current depth.
    fn enter(&self, pos: &mut DescentPosition, mut e: usize, stats: &mut Stats) -> Entry {
        loop {
            if e == self.order.len() {
                return self.leaf(&mut pos.vals, stats);
            }
            let Some(plan) = &self.bind[e] else {
                pos.lead[e] = self.lead(&pos.levels[e], e);
                pos.depth = e;
                return Entry::Positioned;
            };
            if !self.ex.run(plan, &mut pos.vals, stats) {
                return Entry::Dead;
            }
            let c = pos.vals[self.order[e] as usize];
            if !self.narrow(pos, e, c, stats) {
                return Entry::Dead;
            }
            e += 1;
        }
    }
}
