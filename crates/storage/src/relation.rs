//! Row-major relations: the sorted row store every trie index is built from.

use crate::index::TrieIndex;
use crate::stats::{RelationStats, StatsAcc};
use crate::Value;
use fdjoin_lattice::VarSet;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Source of relation content versions. Monotonic and *global*, so a
/// version is a unique content-snapshot id: two relations carry the same
/// version only if one is an untouched clone of the other — in which case
/// their rows are identical. That property is what lets the access-path
/// layer ([`crate::IndexSet`]) key cached indexes by `(name, version,
/// order)` and share them soundly across databases, clones, and threads.
static VERSION_COUNTER: AtomicU64 = AtomicU64::new(0);

pub(crate) fn next_version() -> u64 {
    VERSION_COUNTER.fetch_add(1, AtomicOrdering::Relaxed) + 1
}

/// A relation instance: a bag of fixed-arity rows over named variables.
///
/// Rows are stored contiguously (`data[row * arity + col]`). After
/// [`Relation::sort_dedup`] they are in lexicographic column order, so
/// prefix ranges and membership are binary searches over the rows; the
/// cursor the join algorithms navigate is a [`TrieIndex`] built from them.
///
/// Relations are *versioned*: [`Relation::version`] takes a fresh,
/// globally unique value on every content mutation ([`Relation::push_row`],
/// [`Relation::append_rows`], [`Relation::apply_delta`]), so incremental-maintenance layers detect
/// drift — and index caches key content — without diffing rows. The
/// version is bookkeeping, not content — equality compares rows only.
///
/// Sorted relations also carry exact per-prefix degree/skew statistics
/// ([`Relation::stats`]), accumulated inside the same passes that sort and
/// merge the data; the cost model in `fdjoin_core::cost` plans from them.
#[derive(Clone, Debug)]
pub struct Relation {
    vars: Vec<u32>,
    data: Vec<Value>,
    sorted: bool,
    version: u64,
    /// Invariant: `Some` iff `sorted` (statistics describe the stored rows
    /// exactly; any unsorted mutation clears them).
    stats: Option<RelationStats>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        // Structural equality minus the version counter: schema, raw row
        // storage, and sortedness — exactly the old derived semantics, so
        // two sorted+deduplicated relations compare by row set no matter
        // how many deltas produced them, while an unsorted relation still
        // differs from its sorted twin (as it always has).
        self.vars == other.vars && self.data == other.data && self.sorted == other.sorted
    }
}

impl Eq for Relation {}

/// What [`Relation::apply_delta`] actually changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaApplied {
    /// Rows inserted that were not already present (post-deletion).
    pub added: usize,
    /// Rows removed that were present and not re-inserted.
    pub removed: usize,
}

impl DeltaApplied {
    /// Total rows whose presence changed.
    pub fn changed(&self) -> usize {
        self.added + self.removed
    }
}

impl Relation {
    /// Create an empty relation with the given column variables (order
    /// matters: it is the sort/index order).
    pub fn new(vars: Vec<u32>) -> Relation {
        let mut seen = VarSet::EMPTY;
        for &v in &vars {
            assert!(
                !seen.contains(v),
                "duplicate variable {v} in relation schema"
            );
            seen = seen.insert(v);
        }
        let arity = vars.len();
        Relation {
            vars,
            data: Vec::new(),
            sorted: true,
            version: next_version(),
            stats: Some(StatsAcc::new(arity).finish()),
        }
    }

    /// Create from rows that are already lexicographically sorted and
    /// duplicate-free (e.g. a walk over [`TrieIndex`] rows or a filtered
    /// subsequence of a sorted relation). Skips the sort a
    /// [`Relation::sort_dedup`] would pay; the precondition is checked in
    /// debug builds.
    pub fn from_sorted_unique_rows<'r>(
        vars: Vec<u32>,
        rows: impl IntoIterator<Item = &'r [Value]>,
    ) -> Relation {
        let arity = vars.len();
        let mut acc = StatsAcc::new(arity);
        let mut data: Vec<Value> = Vec::new();
        for (n, row) in rows.into_iter().enumerate() {
            assert_eq!(row.len(), arity, "row arity mismatch");
            if arity == 0 {
                debug_assert!(n == 0, "a nullary relation has at most one row");
                data.push(1);
                acc.push(row);
            } else {
                debug_assert!(
                    n == 0 || data[(n - 1) * arity..n * arity] < *row,
                    "rows must be strictly increasing"
                );
                data.extend_from_slice(row);
                acc.push(row);
            }
        }
        Relation {
            vars,
            data,
            sorted: true,
            version: next_version(),
            stats: Some(acc.finish()),
        }
    }

    /// Create from explicit rows.
    pub fn from_rows<R: AsRef<[Value]>>(
        vars: Vec<u32>,
        rows: impl IntoIterator<Item = R>,
    ) -> Relation {
        let mut rel = Relation::new(vars);
        for r in rows {
            rel.push_row(r.as_ref());
        }
        rel
    }

    /// Column variables in storage order.
    pub fn vars(&self) -> &[u32] {
        &self.vars
    }

    /// The set of variables.
    pub fn var_set(&self) -> VarSet {
        VarSet::from_vars(self.vars.iter().copied())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        if self.vars.is_empty() {
            // Zero-arity relation: row count tracked via data sentinel is
            // impossible; represent as 0 or 1 rows through `nullary`.
            self.data.len()
        } else {
            self.data.len() / self.vars.len()
        }
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a row (marks the relation unsorted).
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.arity(), "row arity mismatch");
        if self.vars.is_empty() {
            // Zero-arity: store a sentinel so `len` counts rows.
            self.data.push(1);
        } else {
            self.data.extend_from_slice(row);
        }
        self.sorted = false;
        self.stats = None;
        self.version = next_version();
    }

    /// Append `rows` rows laid out back to back in `flat` (this relation's
    /// column order) — one copy and one version bump for the whole batch,
    /// where [`Relation::push_row`] pays one of each per row. Appending no
    /// rows changes nothing.
    pub fn append_rows(&mut self, flat: &[Value], rows: usize) {
        assert_eq!(flat.len(), rows * self.arity(), "row arity mismatch");
        if rows == 0 {
            return;
        }
        if self.vars.is_empty() {
            // Zero-arity: one sentinel per row, as in `push_row`.
            self.data.resize(self.data.len() + rows, 1);
        } else {
            self.data.extend_from_slice(flat);
        }
        self.sorted = false;
        self.stats = None;
        self.version = next_version();
    }

    /// Exact degree/skew statistics of this relation, per prefix length of
    /// the column (sort) order. `Some` exactly when the relation is sorted
    /// ([`Relation::is_sorted`]); [`Relation::sort_dedup`] and
    /// [`Relation::apply_delta`] keep them current as part of their own
    /// passes over the data.
    pub fn stats(&self) -> Option<&RelationStats> {
        debug_assert_eq!(self.sorted, self.stats.is_some());
        self.stats.as_ref()
    }

    /// Content version: a globally unique snapshot id, refreshed on every
    /// mutation that can change the row set ([`Relation::push_row`],
    /// [`Relation::apply_delta`]). Monotonic over time, and — because the
    /// counter is global — equal versions imply equal content (clones share
    /// a version exactly until either side mutates), which is what makes
    /// version-keyed index caching ([`crate::IndexSet`]) sound across
    /// databases and threads.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Apply a tuple delta in place: remove `deletes`, then add `inserts`
    /// (a row both deleted and inserted in the same delta is present
    /// afterwards). Rows must be in this relation's column order.
    ///
    /// The relation is left sorted + deduplicated, the merge is linear in
    /// `len + |delta| log |delta|`, and the returned [`DeltaApplied`]
    /// counts only *actual* changes — deleting an absent row or inserting
    /// a present one is a no-op. The version is bumped iff something
    /// changed.
    pub fn apply_delta<I, D>(&mut self, inserts: I, deletes: D) -> DeltaApplied
    where
        I: IntoIterator,
        I::Item: AsRef<[Value]>,
        D: IntoIterator,
        D::Item: AsRef<[Value]>,
    {
        self.sort_dedup();
        let a = self.arity();
        if a == 0 {
            // Nullary: {()} or {} — deletes clear, inserts (re)fill.
            let had = !self.is_empty();
            let del = deletes.into_iter().next().is_some();
            let ins = inserts.into_iter().next().is_some();
            let present = (had && !del) || ins;
            let applied = DeltaApplied {
                added: (!had && present) as usize,
                removed: (had && !present) as usize,
            };
            if applied.changed() > 0 {
                self.data.clear();
                if present {
                    self.data.push(1);
                }
                let mut acc = StatsAcc::new(0);
                if present {
                    acc.push(&[]);
                }
                self.stats = Some(acc.finish());
                self.version = next_version();
            }
            return applied;
        }
        let mut del = Relation::new(self.vars.clone());
        for r in deletes {
            del.push_row(r.as_ref());
        }
        del.sort_dedup();
        let mut ins = Relation::new(self.vars.clone());
        for r in inserts {
            ins.push_row(r.as_ref());
        }
        ins.sort_dedup();
        if del.is_empty() && ins.is_empty() {
            return DeltaApplied::default();
        }

        // Merge the two sorted row sequences; deletes filter the existing
        // side only (an inserted row survives its own deletion). The
        // delete cursor `k` advances monotonically alongside the existing
        // rows, keeping the whole merge genuinely linear. Surviving rows
        // stream through the statistics accumulator as they are emitted, so
        // the post-delta [`Relation::stats`] are exact at no extra pass.
        let mut applied = DeltaApplied::default();
        let mut acc = StatsAcc::new(a);
        let mut data = Vec::with_capacity(self.data.len() + ins.data.len());
        let (n, m) = (self.len(), ins.len());
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        while i < n || j < m {
            let ord = if i == n {
                Ordering::Greater
            } else if j == m {
                Ordering::Less
            } else {
                self.row(i).cmp(ins.row(j))
            };
            match ord {
                Ordering::Less => {
                    let row = self.row(i);
                    while k < del.len() && del.row(k) < row {
                        k += 1;
                    }
                    if k < del.len() && del.row(k) == row {
                        applied.removed += 1;
                    } else {
                        acc.push(row);
                        data.extend_from_slice(row);
                    }
                    i += 1;
                }
                Ordering::Greater => {
                    acc.push(ins.row(j));
                    data.extend_from_slice(ins.row(j));
                    applied.added += 1;
                    j += 1;
                }
                Ordering::Equal => {
                    // Already present (and, if also deleted, re-inserted).
                    acc.push(self.row(i));
                    data.extend_from_slice(self.row(i));
                    i += 1;
                    j += 1;
                }
            }
        }
        self.data = data;
        self.sorted = true;
        self.stats = Some(acc.finish());
        if applied.changed() > 0 {
            self.version = next_version();
        }
        applied
    }

    /// Row accessor.
    pub fn row(&self, i: usize) -> &[Value] {
        let a = self.arity();
        if a == 0 {
            &[]
        } else {
            &self.data[i * a..(i + 1) * a]
        }
    }

    /// Iterate over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        let a = self.arity();
        if a == 0 {
            RowIter::Nullary(self.len())
        } else {
            RowIter::Chunks(self.data.chunks_exact(a))
        }
    }

    /// Position of a column for variable `v`.
    pub fn col_of(&self, v: u32) -> Option<usize> {
        self.vars.iter().position(|&w| w == v)
    }

    /// Sort rows lexicographically and remove duplicates.
    pub fn sort_dedup(&mut self) {
        let a = self.arity();
        if a == 0 {
            // A zero-arity relation is {} or {()}.
            let nonempty = !self.data.is_empty();
            self.data.clear();
            if nonempty {
                self.data.push(1);
            }
            self.sorted = true;
            let mut acc = StatsAcc::new(0);
            if nonempty {
                acc.push(&[]);
            }
            self.stats = Some(acc.finish());
            return;
        }
        if self.sorted {
            // Defensive: re-establish the stats invariant if it was ever
            // broken (no known path does this).
            if self.stats.is_none() {
                self.stats = Some(RelationStats::of(self));
            }
            return;
        }
        let n = self.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let data = &self.data;
        order.sort_unstable_by(|&i, &j| {
            data[i as usize * a..(i as usize + 1) * a]
                .cmp(&data[j as usize * a..(j as usize + 1) * a])
        });
        let mut acc = StatsAcc::new(a);
        let mut new_data = Vec::with_capacity(self.data.len());
        let mut last: Option<&[Value]> = None;
        for &i in &order {
            let row = &self.data[i as usize * a..(i as usize + 1) * a];
            if last != Some(row) {
                acc.push(row);
                new_data.extend_from_slice(row);
            }
            last = Some(row);
        }
        self.data = new_data;
        self.sorted = true;
        self.stats = Some(acc.finish());
    }

    /// Whether the relation is known sorted + deduplicated.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// The first row index in `from..len` whose leading `key.len()` columns
    /// are `≥ key` (`> key` when `strict`) — the binary search behind
    /// [`Relation::prefix_range`] and [`Relation::contains_row`]. Requires
    /// the relation to be sorted.
    fn search(&self, from: usize, key: &[Value], strict: bool) -> usize {
        let (mut lo, mut hi) = (from, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid)[..key.len()].cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal if strict => lo = mid + 1,
                _ => hi = mid,
            }
        }
        lo
    }

    /// The range of row indices whose first `prefix.len()` columns equal
    /// `prefix`. Requires the relation to be sorted.
    pub fn prefix_range(&self, prefix: &[Value]) -> Range<usize> {
        debug_assert!(self.sorted, "prefix_range requires a sorted relation");
        if self.arity() == 0 || prefix.is_empty() {
            return 0..self.len();
        }
        debug_assert!(prefix.len() <= self.arity());
        let start = self.search(0, prefix, false);
        start..self.search(start, prefix, true)
    }

    /// Membership test (requires sorted): one lexicographic lower bound
    /// over the row store plus an equality check. A row of any other
    /// length than the arity is never a member.
    pub fn contains_row(&self, row: &[Value]) -> bool {
        debug_assert!(self.sorted, "contains_row requires a sorted relation");
        if row.len() != self.arity() {
            return false;
        }
        if self.arity() == 0 {
            return !self.is_empty();
        }
        let i = self.search(0, row, false);
        i < self.len() && self.row(i) == row
    }

    /// Project onto the given columns (in the given order), sorted + deduped.
    pub fn project(&self, onto: &[u32]) -> Relation {
        let cols: Vec<usize> = onto
            .iter()
            .map(|&v| self.col_of(v).expect("projection variable not in relation"))
            .collect();
        let mut out = Relation::new(onto.to_vec());
        let mut buf = vec![0 as Value; onto.len()];
        for row in self.rows() {
            for (slot, &c) in buf.iter_mut().zip(&cols) {
                *slot = row[c];
            }
            out.push_row(&buf);
        }
        out.sort_dedup();
        out
    }

    /// Reorder columns to `new_order` (a permutation of `vars`), then sort.
    pub fn reorder(&self, new_order: &[u32]) -> Relation {
        assert_eq!(
            new_order.len(),
            self.arity(),
            "reorder must be a permutation"
        );
        self.project(new_order)
    }

    /// Keep rows whose projection onto the shared variables appears in
    /// `other` (semijoin reduction `self ⋉ other`). The filter runs through
    /// the access-path layer: a [`TrieIndex`] of `other` on the shared
    /// columns, probed with zero per-row key allocation.
    pub fn semijoin(&self, other: &Relation) -> Relation {
        let shared: Vec<u32> = self
            .vars
            .iter()
            .copied()
            .filter(|&v| other.col_of(v).is_some())
            .collect();
        if shared.is_empty() {
            return if other.is_empty() {
                Relation::new(self.vars.clone())
            } else {
                self.clone()
            };
        }
        let ix = TrieIndex::build(other, &shared);
        let cols: Vec<usize> = shared.iter().map(|&v| self.col_of(v).unwrap()).collect();
        let mut out = Relation::new(self.vars.clone());
        for row in self.rows() {
            let mut p = ix.probe();
            if cols.iter().all(|&c| p.descend(row[c])) {
                out.push_row(row);
            }
        }
        out.sort_dedup();
        out
    }

    /// Group ranges by the first `prefix_len` columns (requires sorted).
    pub fn group_ranges(&self, prefix_len: usize) -> Vec<Range<usize>> {
        debug_assert!(self.sorted);
        let n = self.len();
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < n {
            let mut end = start + 1;
            while end < n && self.row(end)[..prefix_len] == self.row(start)[..prefix_len] {
                end += 1;
            }
            out.push(start..end);
            start = end;
        }
        out
    }

    /// Maximum degree over distinct prefixes of length `prefix_len`
    /// (requires sorted). Returns 0 for an empty relation.
    pub fn max_degree(&self, prefix_len: usize) -> usize {
        self.group_ranges(prefix_len)
            .into_iter()
            .map(|r| r.end - r.start)
            .max()
            .unwrap_or(0)
    }

    /// Number of distinct prefixes of length `prefix_len` (requires sorted).
    pub fn distinct_prefixes(&self, prefix_len: usize) -> usize {
        self.group_ranges(prefix_len).len()
    }

    /// Retain only rows at the given indices (used for partitioning).
    pub fn select_rows(&self, rows: impl IntoIterator<Item = usize>) -> Relation {
        let mut out = Relation::new(self.vars.clone());
        for i in rows {
            out.push_row(self.row(i));
        }
        out.sort_dedup();
        out
    }

    /// The nullary relation containing the single empty tuple (the starting
    /// point `Q₀ = {()}` of the Chain Algorithm).
    pub fn nullary_unit() -> Relation {
        let mut r = Relation::new(Vec::new());
        r.push_row(&[]);
        r.sort_dedup();
        r
    }
}

enum RowIter<'a> {
    Chunks(std::slice::ChunksExact<'a, Value>),
    Nullary(usize),
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Value];
    fn next(&mut self) -> Option<&'a [Value]> {
        match self {
            RowIter::Chunks(c) => c.next(),
            RowIter::Nullary(n) => {
                if *n == 0 {
                    None
                } else {
                    *n -= 1;
                    Some(&[])
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel3() -> Relation {
        let mut r = Relation::from_rows(vec![0, 1], [[1, 10], [1, 11], [2, 10], [1, 10], [3, 30]]);
        r.sort_dedup();
        r
    }

    #[test]
    fn sort_dedup_removes_duplicates() {
        let r = rel3();
        assert_eq!(r.len(), 4);
        assert_eq!(r.row(0), &[1, 10]);
        assert_eq!(r.row(3), &[3, 30]);
    }

    #[test]
    fn prefix_range_counts() {
        let r = rel3();
        assert_eq!(r.prefix_range(&[1]), 0..2);
        assert_eq!(r.prefix_range(&[2]), 2..3);
        assert!(r.prefix_range(&[9]).is_empty());
        assert_eq!(r.prefix_range(&[1, 11]), 1..2);
        assert_eq!(r.prefix_range(&[]), 0..4);
    }

    #[test]
    fn contains_row_works() {
        let r = rel3();
        assert!(r.contains_row(&[1, 11]));
        assert!(!r.contains_row(&[1, 12]));
        assert!(r.contains_row(&[3, 30]), "last row");
        assert!(!r.contains_row(&[0, 0]) && !r.contains_row(&[9, 9]));
    }

    #[test]
    fn contains_row_rejects_wrong_length_rows() {
        let mut r = Relation::from_rows(vec![0, 1], [[1, 10], [2, 20]]);
        r.sort_dedup();
        assert!(r.contains_row(&[1, 10]));
        assert!(!r.contains_row(&[1]), "a prefix is not a member");
        assert!(!r.contains_row(&[]), "the empty prefix is not a member");
        assert!(
            !r.contains_row(&[1, 10, 5]),
            "an over-long row is not a member"
        );
        assert!(!Relation::nullary_unit().contains_row(&[1]));
    }

    #[test]
    fn projection_dedups() {
        let r = rel3();
        let p = r.project(&[0]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.vars(), &[0]);
        // Projection onto reordered columns.
        let q = r.project(&[1, 0]);
        assert_eq!(q.len(), 4);
        assert_eq!(q.vars(), &[1, 0]);
        assert!(q.contains_row(&[10, 1]));
    }

    #[test]
    fn semijoin_filters() {
        let r = rel3();
        let s = Relation::from_rows(vec![1, 5], [[10, 99]]);
        let mut s = s;
        s.sort_dedup();
        let rs = r.semijoin(&s);
        assert_eq!(rs.len(), 2); // rows with y=10.
        for row in rs.rows() {
            assert_eq!(row[1], 10);
        }
    }

    #[test]
    fn semijoin_disjoint_schemas() {
        let r = rel3();
        let nonempty = Relation::from_rows(vec![7], [[1]]);
        assert_eq!(r.semijoin(&nonempty).len(), r.len());
        let empty = Relation::new(vec![7]);
        assert_eq!(r.semijoin(&empty).len(), 0);
    }

    #[test]
    fn degrees_and_groups() {
        let r = rel3();
        assert_eq!(r.max_degree(1), 2);
        assert_eq!(r.distinct_prefixes(1), 3);
        assert_eq!(r.group_ranges(1).len(), 3);
        assert_eq!(r.max_degree(0), 4); // one group: everything
    }

    #[test]
    fn nullary_relations() {
        let unit = Relation::nullary_unit();
        assert_eq!(unit.len(), 1);
        assert_eq!(unit.arity(), 0);
        assert!(unit.contains_row(&[]));
        assert_eq!(unit.rows().count(), 1);
        let empty = Relation::new(vec![]);
        assert!(empty.is_empty());
        assert!(!empty.contains_row(&[]));
    }

    #[test]
    fn select_rows_subset() {
        let r = rel3();
        let s = r.select_rows([0, 3]);
        assert_eq!(s.len(), 2);
        assert!(s.contains_row(&[1, 10]));
        assert!(s.contains_row(&[3, 30]));
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_schema_vars_panic() {
        Relation::new(vec![1, 1]);
    }

    #[test]
    fn apply_delta_merges_sorted() {
        let mut r = rel3(); // {(1,10),(1,11),(2,10),(3,30)}
        let v0 = r.version();
        let applied = r.apply_delta(
            [[0u64, 5], [1, 10], [9, 9]], // (1,10) already present
            [[1u64, 11], [7, 7]],         // (7,7) absent
        );
        assert_eq!(
            applied,
            DeltaApplied {
                added: 2,
                removed: 1
            }
        );
        assert_eq!(applied.changed(), 3);
        assert!(r.is_sorted());
        assert_eq!(r.len(), 5);
        for row in [[0u64, 5], [1, 10], [2, 10], [3, 30], [9, 9]] {
            assert!(r.contains_row(&row), "{row:?} must be present");
        }
        assert!(!r.contains_row(&[1, 11]));
        assert!(r.version() > v0);
    }

    #[test]
    fn apply_delta_insert_wins_over_delete() {
        let mut r = rel3();
        // Deleting and re-inserting the same row leaves it present and
        // counts as no change; a brand-new row that is also deleted stays.
        let applied = r.apply_delta([[1u64, 10], [5, 50]], [[1u64, 10], [5, 50]]);
        assert_eq!(
            applied,
            DeltaApplied {
                added: 1,
                removed: 0
            }
        );
        assert!(r.contains_row(&[1, 10]));
        assert!(r.contains_row(&[5, 50]));
    }

    #[test]
    fn apply_delta_noop_keeps_version() {
        let mut r = rel3();
        r.sort_dedup();
        let v0 = r.version();
        let none: [&[Value]; 0] = [];
        assert_eq!(r.apply_delta(none, none), DeltaApplied::default());
        let applied = r.apply_delta([[1u64, 10]], [[9u64, 9]]); // both no-ops
        assert_eq!(applied, DeltaApplied::default());
        assert_eq!(r.version(), v0, "no content change, no version bump");
    }

    #[test]
    fn apply_delta_nullary() {
        let mut unit = Relation::nullary_unit();
        let none: [&[Value]; 0] = [];
        let row: [&[Value]; 1] = [&[]];
        assert_eq!(
            unit.apply_delta(none, row),
            DeltaApplied {
                added: 0,
                removed: 1
            }
        );
        assert!(unit.is_empty());
        assert_eq!(
            unit.apply_delta(row, none),
            DeltaApplied {
                added: 1,
                removed: 0
            }
        );
        assert_eq!(unit.len(), 1);
        // Delete + insert in one delta: the insert wins.
        assert_eq!(unit.apply_delta(row, row), DeltaApplied::default());
        assert_eq!(unit.len(), 1);
    }

    #[test]
    fn version_is_not_content() {
        let mut a = rel3();
        let b = rel3();
        let none: [&[Value]; 0] = [];
        a.apply_delta([[9u64, 9]], none);
        a.apply_delta(none, [[9u64, 9]]);
        assert_ne!(a.version(), b.version());
        assert_eq!(a, b, "equality ignores the version counter");
    }

    #[test]
    fn append_rows_matches_push_row_with_one_version_bump() {
        let rows = [[3u64, 30], [1, 10], [3, 30]];
        let mut pushed = Relation::new(vec![0, 1]);
        for row in &rows {
            pushed.push_row(row);
        }
        let mut appended = Relation::new(vec![0, 1]);
        let v0 = appended.version();
        appended.append_rows(&rows.concat(), rows.len());
        assert_eq!(appended, pushed);
        assert!(appended.version() > v0 && !appended.is_sorted());
        let v1 = appended.version();
        appended.append_rows(&[], 0);
        assert_eq!(appended.version(), v1, "no rows, no version bump");

        // Nullary: row counts survive (two `()` rows dedup to one).
        let mut unit = Relation::new(vec![]);
        unit.append_rows(&[], 2);
        assert_eq!(unit.len(), 2);
        unit.sort_dedup();
        assert_eq!(unit, Relation::nullary_unit());
    }
}
