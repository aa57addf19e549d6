//! Turning tallies and spans into named metrics, and the result line.

use crate::tally::{median, quantile, Tally};
use crate::trace::SpanAgg;
use crate::workloads::Workload;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The tail percentile reported per workload, for queries and for pages:
/// the highest of p90, p95, p98, p99, p99.5 that keeps at least ten
/// samples beyond it in a 30 s run even when the machine runs a quarter
/// slower than usual. Each run notes how many samples it had beyond.
fn tail_percentiles(w: Workload) -> (f64, f64) {
    match w {
        Workload::WarmMix => (0.98, 0.98),
        Workload::ColdPlan => (0.995, 0.995),
        Workload::DeltaRw => (0.95, 0.98),
    }
}

/// The tail percentile of `delta_rw`'s apply latency, by the same rule.
const DELTA_TAIL: f64 = 0.98;

/// A note naming the tail percentile of `samples` reported as `metric`,
/// its value, and how many samples lay beyond it.
fn tail_note(metric: &str, samples: &[f64], p: f64) -> String {
    let beyond = samples.len() - (p * samples.len() as f64).ceil() as usize;
    format!(
        "{metric} = {} ms: p{} over {} samples ({beyond} beyond{})",
        quantile(samples, p),
        p * 100.0,
        samples.len(),
        if beyond < 10 { ", FEWER THAN 10" } else { "" }
    )
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run, plus notes for the reader.
pub fn end_to_end(w: Workload, setup_s: &[f64], t: &Tally) -> (Vec<Metric>, Vec<String>) {
    let (qp, pp) = tail_percentiles(w);
    let metrics = vec![
        m("setup_s", "s", median(setup_s)),
        m("query_p50_ms", "ms", median(&t.query_ms)),
        m("query_tail_ms", "ms", quantile(&t.query_ms, qp)),
        m("page_p50_ms", "ms", median(&t.page_ms)),
        m("page_tail_ms", "ms", quantile(&t.page_ms, pp)),
        m("ops_per_s", "1/s", t.ops as f64 / t.elapsed_s),
        m("peak_rss_mb", "MiB", peak_rss_mb()),
    ];
    let mut notes = vec![
        tail_note("query_tail_ms", &t.query_ms, qp),
        tail_note("page_tail_ms", &t.page_ms, pp),
        format!(
            "setup_s = median of {} set-ups {:?}",
            setup_s.len(),
            setup_s
        ),
    ];
    for (cell, ms) in &t.cell_ms {
        notes.push(format!(
            "cell {cell}: query p50 {} ms over {}",
            median(ms),
            ms.len()
        ));
    }
    if !t.delta_ms.is_empty() {
        // Writes happen on delta_rw only, so these are notes, not metrics.
        notes.push(format!("delta_apply_p50_ms = {}", median(&t.delta_ms)));
        notes.push(tail_note("delta_apply_tail_ms", &t.delta_ms, DELTA_TAIL));
    }
    (metrics, notes)
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The per-layer metrics of a traced run: `untraced` and `traced` are the
/// two halves of the run's loop, `ops` the spans of the traced half and
/// `probes` those of the layer probes after it.
pub fn per_layer(untraced: &Tally, traced: &Tally, ops: &SpanAgg, probes: &SpanAgg) -> Vec<Metric> {
    let c = &traced.counts;
    let reads = c.queries + c.pages;
    let qs = &c.query_stats;
    let rows = qs.output_tuples;
    let probe = |metric: &'static str| m(metric, "us", median(probes.harness_us(metric)));
    let op = |metric: &'static str| m(metric, "us", median(ops.harness_us(metric)));
    let page_s: f64 = traced.page_ms.iter().sum::<f64>() / 1e3;
    let slack = traced
        .cells
        .values()
        .map(|(_, s)| *s)
        .fold(f64::NEG_INFINITY, f64::max);
    vec![
        probe("query.presentation_us"),
        probe("bounds.chain_search_us"),
        probe("bounds.llp_solve_us"),
        probe("bounds.sm_proof_search_us"),
        probe("bounds.cllp_solve_us"),
        m("bounds.solves_per_query", "count", per(c.solves, c.queries)),
        probe("storage.trie_build_us"),
        m(
            "storage.index_builds_per_op",
            "count",
            per(c.index_builds, reads),
        ),
        m(
            "storage.index_hits_per_op",
            "count",
            per(c.index_hits, reads),
        ),
        m(
            "storage.index_hit_ratio",
            "ratio",
            if c.index_builds + c.index_hits == 0 {
                1.0
            } else {
                per(c.index_hits, c.index_builds + c.index_hits)
            },
        ),
        m(
            "storage.index_resident_bytes",
            "bytes",
            traced.index_bytes as f64,
        ),
        probe("storage.apply_delta_us"),
        m("core.execute_us", "us", median(&ops.solve_us)),
        m(
            "core.ns_per_work",
            "ns",
            per(
                (ops.solve_us.iter().sum::<f64>() * 1e3) as u64,
                ops.solve_work,
            ),
        ),
        m("core.work_per_row", "count", per(qs.work(), rows)),
        m("core.probes_per_row", "count", per(qs.probes, rows)),
        m("core.expansions_per_row", "count", per(qs.expansions, rows)),
        m(
            "core.intermediate_per_row",
            "count",
            per(qs.intermediate_tuples, rows),
        ),
        probe("core.estimate_us"),
        probe("core.expand_relation_us"),
        m(
            "core.solve_parts_per_solve",
            "count",
            per(ops.solve_parts, ops.solve_us.len() as u64),
        ),
        m(
            "core.bound_slack_log2",
            "log2",
            if slack.is_finite() { slack } else { 0.0 },
        ),
        m("exec.queue_wait_us", "us", median(&ops.queue_waits_us())),
        op("stream.open_us"),
        op("stream.first_row_us"),
        m(
            "stream.rows_per_s",
            "1/s",
            if page_s > 0.0 {
                traced.page_rows as f64 / page_s
            } else {
                0.0
            },
        ),
        probe("delta.apply_us"),
        m(
            "delta.join_work_per_batch",
            "count",
            per(c.delta.join_work, c.delta.batches),
        ),
        m(
            "delta.delta_joins_per_batch",
            "count",
            per(c.delta.delta_joins, c.delta.batches),
        ),
        m(
            "delta.revalidated_per_batch",
            "count",
            per(c.delta.revalidated, c.delta.batches),
        ),
        m(
            "delta.full_recomputes",
            "count",
            c.delta.full_recomputes as f64,
        ),
        m(
            "delta.planning_solves",
            "count",
            c.delta.planning_solves as f64,
        ),
        m(
            "obs.trace_overhead_ratio",
            "ratio",
            median(&traced.query_ms) / median(&untraced.query_ms),
        ),
        m(
            "obs.spans_dropped",
            "count",
            (ops.dropped + probes.dropped) as f64,
        ),
    ]
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
