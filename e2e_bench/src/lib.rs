//! Whole-query benchmark for `fdjoin`.
//!
//! Three closed-loop workloads drive the public facade end to end —
//! `Engine::prepare` → `Executor::submit` → `PreparedQuery::execute`,
//! `ResultStream` page reads and `MaterializedView::apply_delta` — and
//! check every answer:
//!
//! - `warm_mix`: six paper cells, prepared once with warm plans and tries,
//!   two requests in flight on a two-worker `Executor`; the search and
//!   expansion in `core` and the `exec` pool do the work.
//! - `cold_plan`: ten query shapes on small instances, every request on a
//!   fresh `Engine`; presentation, bounds and trie builds do the work.
//! - `delta_rw`: two maintained views taking FD-respecting insert/delete
//!   batches, each followed by a page read; `delta`, relation deltas,
//!   index rebuilds and `stream` do the work.
//!
//! The untraced run gives the end-to-end metrics; the traced run adds
//! spans around each layer's public calls ([`probes`]) and reads the spans
//! the program emits ([`trace`]). See `RATIONALE.md` for which per-layer
//! metric should move which end-to-end metric on which workload.

pub mod inputs;
pub mod probes;
pub mod report;
pub mod tally;
pub mod trace;
pub mod workloads;
