//! The engine's view of the shared access-path layer.
//!
//! [`AccessPaths`] binds one execution's `(query, database)` pair to the
//! [`IndexSet`] cached on the `PreparedQuery`: algorithms ask it for trie
//! indexes instead of materializing [`fdjoin_storage::Relation::project`]
//! copies, and every acquisition is metered into [`Stats::index_builds`] /
//! [`Stats::index_hits`] so reuse is observable per run.
//!
//! Two key spaces cover everything the algorithms probe:
//!
//! - **base** indexes ([`AccessPaths::base`]) over database relations,
//!   keyed by the relation's globally unique
//!   [`fdjoin_storage::Relation::version`] — Expander guard lookups,
//!   Generic-Join atom tries and binary-join build sides all live here;
//! - **expanded** indexes ([`AccessPaths::expanded`]) over the FD-expanded
//!   atom relations `R_j⁺` that chain/SMA/CSMA iterate, keyed by an
//!   interned signature over every input of the expansion: a per-query
//!   token (expansion is query-dependent — two queries with different FDs
//!   expand the same relation differently, so their derived entries must
//!   never alias in the engine-wide cache), the atom's own version, every
//!   guard relation's version, and the UDF-registry version. A delta that
//!   touches one relation therefore invalidates only the expanded indexes
//!   whose derivation actually read it; everything else keeps hitting.

use crate::Stats;
use fdjoin_obs::{Observer, SpanKind};
use fdjoin_query::Query;
use fdjoin_storage::{Database, IndexKey, IndexSet, MissingRelation, Relation, TrieIndex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Source of per-query expansion tokens (see [`AccessPaths::new`]).
static TOKEN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Allocate a fresh expansion token — one per `PreparedQuery`, folded into
/// every derived-index signature so query-dependent expansions never alias
/// across queries sharing one engine-wide [`IndexSet`].
pub(crate) fn next_token() -> u64 {
    TOKEN_COUNTER.fetch_add(1, Ordering::Relaxed) + 1
}

/// Per-execution handle over the prepared query's [`IndexSet`].
///
/// Construction walks the query once to stamp each atom's expansion
/// signature; acquisitions afterwards are cache lookups plus (on a miss) a
/// single index build that every later execution, batch worker, and delta
/// join then shares.
pub struct AccessPaths<'a> {
    set: &'a IndexSet,
    /// Interned expansion signature per atom (see module docs).
    atom_sigs: Vec<u64>,
    /// Tracing handle: cache *misses* emit an `index_build` span (hits are
    /// deliberately silent — they are counted, not traced). Disabled by
    /// default; `PreparedQuery` attaches its engine's observer.
    obs: Observer,
}

impl<'a> AccessPaths<'a> {
    /// Bind `set` to one `(query, database)` execution. `query_token` is
    /// the owning `PreparedQuery`'s unique expansion token (callers
    /// outside the engine may pass any fixed value consistently, or
    /// allocate one via a single prepared query).
    pub fn new(
        set: &'a IndexSet,
        q: &Query,
        db: &Database,
    ) -> Result<AccessPaths<'a>, MissingRelation> {
        AccessPaths::with_token(set, q, db, 0)
    }

    /// [`AccessPaths::new`] with an explicit per-query expansion token
    /// (what `PreparedQuery::execute` uses over the engine-wide cache).
    pub fn with_token(
        set: &'a IndexSet,
        q: &Query,
        db: &Database,
        query_token: u64,
    ) -> Result<AccessPaths<'a>, MissingRelation> {
        // Expansion reads the guard relation of every guarded FD plus the
        // UDF registry; collect those versions once.
        let mut guard_versions: Vec<u64> = Vec::new();
        for fd in q.fds.fds() {
            if let Some(j) = q.guard_of(fd) {
                guard_versions.push(db.relation(&q.atoms()[j].name)?.version());
            }
        }
        let udf_version = db.udfs.version();
        let mut inputs = Vec::with_capacity(guard_versions.len() + 3);
        let mut atom_sigs = Vec::with_capacity(q.atoms().len());
        for a in q.atoms() {
            inputs.clear();
            inputs.push(query_token);
            inputs.push(db.relation(&a.name)?.version());
            inputs.extend_from_slice(&guard_versions);
            inputs.push(udf_version);
            atom_sigs.push(set.signature(&inputs));
        }
        Ok(AccessPaths {
            set,
            atom_sigs,
            obs: Observer::disabled(),
        })
    }

    /// Attach an observer: every index *build* this handle performs from
    /// now on is traced as an `index_build` span keyed by relation, order,
    /// and content version.
    pub fn with_observer(mut self, obs: Observer) -> Self {
        self.obs = obs;
        self
    }

    /// The underlying cache (for observability).
    pub fn index_set(&self) -> &IndexSet {
        self.set
    }

    /// The trie index of database relation `name` (content `rel`) for
    /// `order`, built at most once per relation version.
    pub fn base(
        &self,
        name: &str,
        rel: &Relation,
        order: &[u32],
        stats: &mut Stats,
    ) -> Arc<TrieIndex> {
        let started = self.obs.is_enabled().then(Instant::now);
        let (ix, built) = self.set.index_of(name, rel, order);
        self.meter(built, stats);
        if built {
            self.trace_build(started, name, "base", rel.version(), order, ix.len());
        }
        ix
    }

    /// The trie index of atom `atom`'s *expanded* relation (`rel`, as just
    /// materialized by the caller) for `order`, keyed by the atom's
    /// expansion signature — reused until a delta touches something the
    /// expansion reads.
    pub fn expanded(
        &self,
        atom: usize,
        name: &str,
        rel: &Relation,
        order: &[u32],
        stats: &mut Stats,
    ) -> Arc<TrieIndex> {
        let started = self.obs.is_enabled().then(Instant::now);
        let sig = self.atom_sigs[atom];
        let key = IndexKey::derived(name, sig, order.to_vec());
        let (ix, built) = self.set.get_or_build(key, || TrieIndex::build(rel, order));
        self.meter(built, stats);
        if built {
            self.trace_build(started, name, "derived", sig, order, ix.len());
        }
        ix
    }

    /// Record one cache miss as a retroactive `index_build` span: the
    /// probe-first protocol means the span exists only when a trie was
    /// actually materialized, timed from before the cache lookup.
    fn trace_build(
        &self,
        started: Option<Instant>,
        name: &str,
        kind: &'static str,
        version: u64,
        order: &[u32],
        rows: usize,
    ) {
        let Some(started) = started else { return };
        let mut span = self
            .obs
            .span_started_at(SpanKind::IndexBuild, name, started);
        span.field("kind", kind);
        span.field("version", version);
        span.field("order", format!("{order:?}"));
        span.field("rows", rows);
    }

    fn meter(&self, built: bool, stats: &mut Stats) {
        if built {
            stats.index_builds += 1;
        } else {
            stats.index_hits += 1;
        }
    }
}
