//! What one run of a workload's loop records: latencies per operation
//! kind, the correctness tally, and the program's exact counters.

use fdjoin::core::Stats;
use fdjoin::delta::DeltaStats;
use std::collections::BTreeMap;

/// The program's own counters summed over a run. Every field is a pure
/// function of (seed, operations run): two runs of the same operations
/// agree exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub queries: u64,
    pub pages: u64,
    /// `Stats::deterministic()` of every materialized query, summed.
    pub query_stats: Stats,
    /// `Stats::deterministic()` of every page read, summed.
    pub page_stats: Stats,
    /// Access-path builds and hits over queries and pages.
    pub index_builds: u64,
    pub index_hits: u64,
    /// `PrepStats::solves` over the queries' windows.
    pub solves: u64,
    /// Every delta batch's `DeltaStats`, summed.
    pub delta: DeltaStats,
}

impl Counts {
    pub fn merge(&mut self, o: &Counts) {
        self.queries += o.queries;
        self.pages += o.pages;
        self.query_stats.merge(&o.query_stats);
        self.page_stats.merge(&o.page_stats);
        self.index_builds += o.index_builds;
        self.index_hits += o.index_hits;
        self.solves += o.solves;
        self.delta.merge(&o.delta);
    }

    pub fn note_stats(&mut self, s: &Stats, page: bool) {
        self.index_builds += s.index_builds;
        self.index_hits += s.index_hits;
        if page {
            self.pages += 1;
            self.page_stats.merge(&s.deterministic());
        } else {
            self.queries += 1;
            self.query_stats.merge(&s.deterministic());
        }
    }
}

#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Operations completed inside the timed loop.
    pub ops: u64,
    pub elapsed_s: f64,
    pub query_ms: Vec<f64>,
    pub page_ms: Vec<f64>,
    pub delta_ms: Vec<f64>,
    pub page_rows: u64,
    pub counts: Counts,
    /// Per cell: the algorithm Auto chose and log2(work) minus the
    /// predicted log bound, from its last query.
    pub cells: BTreeMap<&'static str, (String, f64)>,
    /// Query latencies per cell, in ms.
    pub cell_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Largest `IndexSet::memory_bytes` seen at the end of an operation.
    pub index_bytes: u64,
    /// Every mismatch, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.ops += o.ops;
        self.elapsed_s = self.elapsed_s.max(o.elapsed_s);
        self.query_ms.extend(o.query_ms);
        self.page_ms.extend(o.page_ms);
        self.delta_ms.extend(o.delta_ms);
        self.page_rows += o.page_rows;
        self.counts.merge(&o.counts);
        self.cells.extend(o.cells);
        for (cell, ms) in o.cell_ms {
            self.cell_ms.entry(cell).or_default().extend(ms);
        }
        self.index_bytes = self.index_bytes.max(o.index_bytes);
        self.errors.extend(o.errors);
    }

    /// Count one checked operation; `Err` carries what was wrong.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Nearest-rank quantile of unsorted samples; 0 for none.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}
