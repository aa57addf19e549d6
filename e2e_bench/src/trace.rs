//! The traced run's span plumbing.
//!
//! A [`Tracer`] is either off (a disabled `Observer`: every span is a
//! no-op branch) or on: one enabled `Observer` shared by the engine, the
//! executor and the harness. The harness opens `request` spans of its own,
//! labelled with the per-layer metric they time, around calls into each
//! layer's public functions; the program adds its own `prepare`, `solve`,
//! `solve_part`, `index_build`, `submit`, `batch` and `delta_apply` spans.
//! Spans are drained into a [`SpanAgg`] after every operation, so the ring
//! never fills.

use fdjoin::obs::{FieldValue, ObsConfig, Observer, SpanKind, SpanRecord};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

#[derive(Clone)]
pub struct Tracer {
    obs: Observer,
    agg: Arc<Mutex<SpanAgg>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            obs: Observer::disabled(),
            agg: Arc::default(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            obs: Observer::new(ObsConfig {
                max_spans: 1 << 20,
                ..ObsConfig::default()
            }),
            agg: Arc::default(),
        }
    }

    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// Time `f`, one call into a layer, under a harness span named after
    /// the per-layer metric it feeds.
    pub fn time<R>(&self, metric: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.obs.span(SpanKind::Request, metric);
        let r = f();
        span.finish();
        r
    }

    /// Move every finished span into the aggregate.
    pub fn collect(&self) {
        if self.obs.is_enabled() {
            let spans = self.obs.drain_spans();
            self.agg.lock().expect("span aggregate lock").absorb(spans);
        }
    }

    /// Collect, then hand over the aggregate with the drop count.
    pub fn finish(&self) -> SpanAgg {
        self.collect();
        let mut agg = std::mem::take(&mut *self.agg.lock().expect("span aggregate lock"));
        agg.dropped = self.obs.dropped_spans();
        agg
    }
}

/// What the traced run keeps of its spans.
#[derive(Default)]
pub struct SpanAgg {
    /// Harness spans: metric label → durations in µs.
    pub harness: BTreeMap<String, Vec<f64>>,
    /// `solve` span durations in µs.
    pub solve_us: Vec<f64>,
    /// Total `work` field of the `solve` spans.
    pub solve_work: u64,
    pub solve_parts: u64,
    pub dropped: u64,
    submit_start: HashMap<u64, u64>,
    /// `(parent submit id, batch start ns)`.
    batch_start: Vec<(u64, u64)>,
}

impl SpanAgg {
    fn absorb(&mut self, spans: Vec<SpanRecord>) {
        for s in spans {
            let us = s.duration_ns() as f64 / 1e3;
            match s.kind {
                SpanKind::Request => self.harness.entry(s.label).or_default().push(us),
                SpanKind::Solve => {
                    self.solve_us.push(us);
                    if let Some(FieldValue::U64(w)) = s.field("work") {
                        self.solve_work += w;
                    }
                }
                SpanKind::SolvePart => self.solve_parts += 1,
                SpanKind::Submit => {
                    self.submit_start.insert(s.id, s.start_ns);
                }
                SpanKind::Batch => {
                    if let Some(parent) = s.parent {
                        self.batch_start.push((parent, s.start_ns));
                    }
                }
                _ => {}
            }
        }
    }

    /// Pool queue wait of every batch job: its start minus its submit's.
    pub fn queue_waits_us(&self) -> Vec<f64> {
        self.batch_start
            .iter()
            .filter_map(|(parent, start)| {
                let submitted = self.submit_start.get(parent)?;
                Some(start.saturating_sub(*submitted) as f64 / 1e3)
            })
            .collect()
    }

    pub fn harness_us(&self, metric: &str) -> &[f64] {
        self.harness.get(metric).map_or(&[], Vec::as_slice)
    }
}
