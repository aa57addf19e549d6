//! The three closed-loop workloads.
//!
//! Every workload drives the public `fdjoin` facade: materialized queries
//! go through `Executor::submit` (→ `PreparedQuery::execute`), page reads
//! through `ResultStream::open` plus the first [`PAGE_ROWS`] rows, and
//! writes through `MaterializedView::apply_delta`. Every answer is checked.

use crate::inputs::{self, Answer, Cell, RowPool};
use crate::tally::Tally;
use crate::trace::Tracer;
use fdjoin::core::{Engine, ExecOptions, JoinError, JoinResult, PrepStats, PreparedQuery, Stats};
use fdjoin::delta::{DeltaBatch, DeltaOptions, MaterializedView};
use fdjoin::exec::Executor;
use fdjoin::query::Query;
use fdjoin::storage::{Database, Relation, Value};
use fdjoin::stream::ResultStream;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Rows in one page read.
pub const PAGE_ROWS: usize = 100;
/// `warm_mix` clients, each keeping one request in flight: two requests in
/// flight in all, one per core of the reference machine.
pub const WARM_CLIENTS: usize = 2;
/// `delta_rw` rows deleted, and as many held-out rows inserted, per
/// relation per batch.
const DELTA_ROWS_PER_RELATION: usize = 2;
/// `delta_rw` checks a view against a fresh `execute` every this many of
/// its batches.
const CHECK_EVERY: u64 = 4;
/// The view each `delta_rw` batch goes to, repeating: two Fig. 4 batches
/// per simple-FD-path batch, so each latency's median falls inside the
/// Fig. 4 view's mode instead of between the two views' modes.
const DELTA_SCHEDULE: [usize; 3] = [0, 0, 1];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmMix,
    ColdPlan,
    DeltaRw,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::WarmMix, Workload::ColdPlan, Workload::DeltaRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmMix => "warm_mix",
            Workload::ColdPlan => "cold_plan",
            Workload::DeltaRw => "delta_rw",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// When a workload's loop stops.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// At this instant (the timed runs).
    Until(Instant),
    /// After this many loop iterations (per client on `warm_mix`, one
    /// batch with its reads on `delta_rw`): the exact-count runs.
    Iterations(u64),
}

impl Budget {
    fn more(&self, done: u64) -> bool {
        match *self {
            Budget::Until(t) => Instant::now() < t,
            Budget::Iterations(n) => done < n,
        }
    }
}

/// A workload after set-up: inputs generated, references fixed, queries
/// prepared and warmed where the workload is warm.
pub enum State {
    Warm(Warm),
    Cold(Cold),
    Delta(Delta),
}

pub fn setup(w: Workload, seed: u64, tracer: &Tracer) -> Result<State, String> {
    let mut rng = inputs::rng_for(w.name(), seed);
    Ok(match w {
        Workload::WarmMix => State::Warm(Warm::setup(&mut rng, tracer)?),
        Workload::ColdPlan => State::Cold(Cold {
            exec: Executor::with_threads(1),
            cells: inputs::cold_cells(&mut rng)?
                .into_iter()
                .map(Served::new)
                .collect(),
        }),
        Workload::DeltaRw => State::Delta(Delta::setup(rng, tracer)?),
    })
}

impl State {
    pub fn run(&mut self, budget: Budget, tracer: &Tracer) -> Tally {
        let t = Instant::now();
        let mut tally = match self {
            State::Warm(s) => s.run(budget, tracer),
            State::Cold(s) => s.run(budget, tracer),
            State::Delta(s) => s.run(budget, tracer),
        };
        tally.elapsed_s = t.elapsed().as_secs_f64();
        tally
    }

    /// The `(query, database)` pairs the workload serves, for the layer
    /// probes.
    pub fn inputs(&self) -> Vec<(&Query, &Database)> {
        match self {
            State::Warm(s) => s.cells.iter().map(|c| (&c.query, c.db())).collect(),
            State::Cold(s) => s.cells.iter().map(|c| (&c.query, c.db())).collect(),
            State::Delta(s) => s
                .views
                .iter()
                .map(|v| (v.view.prepared().query(), v.view.database()))
                .collect(),
        }
    }
}

/// A cell with its database behind the `Arc` an `Executor` submission
/// takes.
struct Served {
    name: &'static str,
    query: Query,
    dbs: Arc<Vec<Database>>,
    reference: Relation,
    answer: Answer,
}

impl Served {
    fn new(c: Cell) -> Served {
        Served {
            name: c.name,
            query: c.query,
            dbs: Arc::new(vec![c.db]),
            reference: c.reference,
            answer: c.answer,
        }
    }

    fn db(&self) -> &Database {
        &self.dbs[0]
    }
}

/// One materialized query through the executor: latency from submit to
/// the `JoinResult`.
fn submit(
    exec: &Executor,
    prepared: &Arc<PreparedQuery>,
    dbs: &Arc<Vec<Database>>,
) -> (f64, Result<JoinResult, JoinError>) {
    let t = Instant::now();
    let mut batch = exec.submit(prepared, dbs, &ExecOptions::new()).wait();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (
        ms,
        batch.results.pop().expect("one database per submission"),
    )
}

/// Open a stream and read the first page, under the stream layer's
/// harness spans.
fn read_page(
    prepared: &PreparedQuery,
    db: &Database,
    tracer: &Tracer,
) -> Result<(Vec<Vec<Value>>, Stats), JoinError> {
    let mut stream = tracer.time("stream.open_us", || ResultStream::open(prepared, db))?;
    let mut rows = Vec::with_capacity(PAGE_ROWS);
    if let Some(first) = tracer.time("stream.first_row_us", || {
        stream.next_row().map(<[Value]>::to_vec)
    }) {
        rows.push(first);
        while rows.len() < PAGE_ROWS {
            match stream.next_row() {
                Some(row) => rows.push(row.to_vec()),
                None => break,
            }
        }
    }
    Ok((rows, stream.stats()))
}

/// A page is right when it holds `min(PAGE_ROWS, |answer|)` distinct rows,
/// each one an answer.
fn check_page(name: &str, rows: &[Vec<Value>], answer: &Relation) -> Result<(), String> {
    let want = answer.len().min(PAGE_ROWS);
    let mut distinct = rows.to_vec();
    distinct.sort();
    distinct.dedup();
    if rows.len() != want || distinct.len() != want {
        return Err(format!(
            "{name}: page has {} rows ({} distinct), expected {want}",
            rows.len(),
            distinct.len()
        ));
    }
    match rows.iter().find(|r| !answer.contains_row(r)) {
        Some(r) => Err(format!("{name}: page row {r:?} is not an answer")),
        None => Ok(()),
    }
}

/// Check a query's answer; on success note its counters and bound slack.
fn check_query(
    tally: &mut Tally,
    name: &'static str,
    ms: f64,
    r: Result<JoinResult, JoinError>,
    answer: Answer,
) {
    tally.query_ms.push(ms);
    let outcome = r.map_err(|e| format!("{name}: {e}")).and_then(|r| {
        tally.cell_ms.entry(name).or_default().push(ms);
        let got = Answer::of(&r.output);
        if got != answer {
            return Err(format!("{name}: answer {got:?}, reference {answer:?}"));
        }
        tally.counts.note_stats(&r.stats, false);
        if let Some(bound) = &r.predicted_log_bound {
            let slack = (r.stats.work().max(1) as f64).log2() - bound.to_f64();
            tally
                .cells
                .insert(name, (r.algorithm_used.to_string(), slack));
        }
        Ok(())
    });
    tally.check(outcome);
}

fn check_read(
    tally: &mut Tally,
    name: &'static str,
    r: Result<(Vec<Vec<Value>>, Stats), JoinError>,
    answer: &Relation,
) {
    let outcome = r
        .map_err(|e| format!("{name}: {e}"))
        .and_then(|(rows, stats)| {
            check_page(name, &rows, answer)?;
            tally.counts.note_stats(&stats, true);
            tally.page_rows += rows.len() as u64;
            Ok(())
        });
    tally.check(outcome);
}

// ---------------------------------------------------------------- warm_mix

pub struct Warm {
    engine: Engine,
    exec: Executor,
    cells: Vec<Served>,
    prepared: Vec<Arc<PreparedQuery>>,
}

impl Warm {
    fn setup(rng: &mut StdRng, tracer: &Tracer) -> Result<Warm, String> {
        let engine = Engine::new().observe(tracer.observer().clone());
        let cells: Vec<Served> = inputs::warm_cells(rng)?
            .into_iter()
            .map(Served::new)
            .collect();
        let mut prepared = Vec::new();
        for c in &cells {
            let p = Arc::new(engine.prepare(&c.query));
            // Two executions settle the plans and the executions' tries;
            // one page read builds the stream's tries.
            for _ in 0..2 {
                let r = p
                    .execute(c.db(), &ExecOptions::new())
                    .map_err(|e| e.to_string())?;
                if Answer::of(&r.output) != c.answer {
                    return Err(format!(
                        "{}: warm-up answer differs from the reference",
                        c.name
                    ));
                }
            }
            let (rows, _) = read_page(&p, c.db(), &Tracer::off()).map_err(|e| e.to_string())?;
            check_page(c.name, &rows, &c.reference)?;
            prepared.push(p);
        }
        Ok(Warm {
            engine,
            exec: Executor::with_threads(WARM_CLIENTS),
            cells,
            prepared,
        })
    }

    fn run(&self, budget: Budget, tracer: &Tracer) -> Tally {
        let before: Vec<PrepStats> = self.prepared.iter().map(|p| p.prep_stats()).collect();
        let rounds = Rounds {
            barrier: Barrier::new(WARM_CLIENTS),
            allowed: AtomicU64::new(0),
        };
        let mut tally = std::thread::scope(|s| {
            let clients: Vec<_> = (0..WARM_CLIENTS)
                .map(|c| {
                    let rounds = &rounds;
                    s.spawn(move || self.client(c, budget, rounds, tracer))
                })
                .collect();
            let mut tally = Tally::default();
            for c in clients {
                tally.merge(c.join().expect("warm_mix client panicked"));
            }
            tally
        });
        // Summed per prepared query, so concurrent clients cannot blur
        // the windows.
        tally.counts.solves = self
            .prepared
            .iter()
            .zip(&before)
            .map(|(p, b)| p.prep_stats().since(b).solves())
            .sum();
        tally.index_bytes = self.engine.index_set().memory_bytes() as u64;
        tally
    }

    /// One client. Each round it submits one cell's query, then reads a
    /// page of the same cell; the clients start every round together, on
    /// cells half the table apart, so which requests share the cores is
    /// the same in every run.
    fn client(&self, client: usize, budget: Budget, rounds: &Rounds, tracer: &Tracer) -> Tally {
        let n = self.cells.len();
        let mut tally = Tally::default();
        let mut i = 0u64;
        while rounds.start(client, i, budget) {
            let k = (i as usize + client * n / WARM_CLIENTS) % n;
            let c = &self.cells[k];
            let (ms, r) = submit(&self.exec, &self.prepared[k], &c.dbs);
            check_query(&mut tally, c.name, ms, r, c.answer);
            let t = Instant::now();
            let r = read_page(&self.prepared[k], c.db(), tracer);
            tally.page_ms.push(t.elapsed().as_secs_f64() * 1e3);
            check_read(&mut tally, c.name, r, &c.reference);
            tally.ops += 2;
            tracer.collect();
            i += 1;
        }
        tally
    }
}

/// Round starts shared by the `warm_mix` clients. Client 0 alone consults
/// the budget; `allowed` only grows, so a client that reads it late still
/// sees its own round admitted.
struct Rounds {
    barrier: Barrier,
    allowed: AtomicU64,
}

impl Rounds {
    /// Whether round `i` runs; every client calls this once per round.
    fn start(&self, client: usize, i: u64, budget: Budget) -> bool {
        if client == 0 && budget.more(i) {
            self.allowed.store(i + 1, Ordering::SeqCst);
        }
        self.barrier.wait();
        self.allowed.load(Ordering::SeqCst) > i
    }
}

// ---------------------------------------------------------------- cold_plan

pub struct Cold {
    exec: Executor,
    cells: Vec<Served>,
}

impl Cold {
    /// Alternates a query request and a page request per shape, each on a
    /// fresh `Engine` (no plans, no tries).
    fn run(&self, budget: Budget, tracer: &Tracer) -> Tally {
        let mut tally = Tally::default();
        let mut i = 0u64;
        while budget.more(i) {
            let c = &self.cells[(i as usize / 2) % self.cells.len()];
            let t = Instant::now();
            let engine = Engine::new().observe(tracer.observer().clone());
            if i.is_multiple_of(2) {
                let prepared = Arc::new(engine.prepare(&c.query));
                let mut batch = self
                    .exec
                    .submit(&prepared, &c.dbs, &ExecOptions::new())
                    .wait();
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let r = batch.results.pop().expect("one database per submission");
                tally.counts.solves += prepared.prep_stats().solves();
                check_query(&mut tally, c.name, ms, r, c.answer);
            } else {
                let prepared = engine.prepare(&c.query);
                let r = read_page(&prepared, c.db(), tracer);
                tally.page_ms.push(t.elapsed().as_secs_f64() * 1e3);
                check_read(&mut tally, c.name, r, &c.reference);
            }
            tally.index_bytes = tally
                .index_bytes
                .max(engine.index_set().memory_bytes() as u64);
            tally.ops += 1;
            tracer.collect();
            i += 1;
        }
        tally
    }
}

// ---------------------------------------------------------------- delta_rw

pub struct Delta {
    engine: Engine,
    exec: Executor,
    views: Vec<View>,
    rng: StdRng,
    batches: u64,
}

struct View {
    name: &'static str,
    view: MaterializedView,
    batches: u64,
    pools: Vec<RowPool>,
}

impl View {
    /// Delete a few present rows and insert as many held-out ones; the
    /// deleted rows join the held-out pool, so relation sizes stay put.
    fn next_batch(&mut self, rng: &mut StdRng) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        for pool in &mut self.pools {
            let mut deleted = Vec::new();
            for _ in 0..DELTA_ROWS_PER_RELATION {
                if pool.present.is_empty() || pool.held.is_empty() {
                    break;
                }
                let gone = pool
                    .present
                    .swap_remove(rng.gen_range(0..pool.present.len()));
                let back = pool.held.swap_remove(rng.gen_range(0..pool.held.len()));
                batch.push_delete(pool.relation.clone(), gone.clone());
                batch.push_insert(pool.relation.clone(), back.clone());
                deleted.push(gone);
                pool.present.push(back);
            }
            pool.held.extend(deleted);
        }
        batch
    }
}

impl Delta {
    fn setup(mut rng: StdRng, tracer: &Tracer) -> Result<Delta, String> {
        let engine = Engine::new().observe(tracer.observer().clone());
        let exec = Executor::with_threads(1);
        let mut views = Vec::new();
        for input in inputs::delta_inputs(&mut rng) {
            let prepared = Arc::new(engine.prepare(&input.query));
            let view = MaterializedView::materialize(prepared, input.db, DeltaOptions::new())
                .map_err(|e| format!("{}: {e}", input.name))?;
            let dbs = Arc::new(vec![view.database().clone()]);
            let (_, r) = submit(&exec, view.prepared(), &dbs);
            let fresh = r.map_err(|e| format!("{}: {e}", input.name))?;
            if Answer::of(&fresh.output) != Answer::of(view.output()) {
                return Err(format!("{}: view differs from a fresh execute", input.name));
            }
            let (rows, _) = read_page(view.prepared(), view.database(), &Tracer::off())
                .map_err(|e| e.to_string())?;
            check_page(input.name, &rows, view.output())?;
            views.push(View {
                name: input.name,
                view,
                batches: 0,
                pools: input.pools,
            });
        }
        Ok(Delta {
            engine,
            exec,
            views,
            rng,
            batches: 0,
        })
    }

    /// Each iteration writes one batch to one view ([`DELTA_SCHEDULE`]), reads a
    /// page right after the write, and every [`CHECK_EVERY`]th batch of a
    /// view runs a fresh query against it.
    fn run(&mut self, budget: Budget, tracer: &Tracer) -> Tally {
        let mut tally = Tally::default();
        let mut i = 0u64;
        while budget.more(i) {
            let v = DELTA_SCHEDULE[(self.batches % DELTA_SCHEDULE.len() as u64) as usize];
            self.batches += 1;
            let view = &mut self.views[v];
            view.batches += 1;
            let check = view.batches.is_multiple_of(CHECK_EVERY);
            let batch = view.next_batch(&mut self.rng);

            let t = Instant::now();
            let applied = view.view.apply_delta(&batch);
            tally.delta_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let name = view.name;
            let outcome = match applied {
                Ok(ds) => {
                    tally.counts.delta.merge(&ds);
                    Ok(())
                }
                Err(e) => Err(format!("{name}: apply_delta: {e}")),
            };
            tally.check(outcome);

            let t = Instant::now();
            let r = read_page(view.view.prepared(), view.view.database(), tracer);
            tally.page_ms.push(t.elapsed().as_secs_f64() * 1e3);
            check_read(&mut tally, name, r, view.view.output());
            tally.ops += 2;

            if check {
                let before = view.view.prepared().prep_stats();
                let (ms, r) = fresh_query(&self.exec, &view.view);
                tally.counts.solves += view.view.prepared().prep_stats().since(&before).solves();
                check_query(&mut tally, name, ms, r, Answer::of(view.view.output()));
                tally.ops += 1;
            }
            tracer.collect();
            i += 1;
        }
        // Final check of every view, outside the timed operations.
        for view in &self.views {
            let (_, r) = fresh_query(&self.exec, &view.view);
            let want = Answer::of(view.view.output());
            tally.check(match r {
                Ok(r) if Answer::of(&r.output) == want => Ok(()),
                Ok(_) => Err(format!("{}: view differs from a fresh execute", view.name)),
                Err(e) => Err(format!("{}: {e}", view.name)),
            });
        }
        tally.index_bytes = self.engine.index_set().memory_bytes() as u64;
        tally
    }
}

/// A fresh `execute` of the view's query on its current database.
fn fresh_query(exec: &Executor, view: &MaterializedView) -> (f64, Result<JoinResult, JoinError>) {
    let dbs = Arc::new(vec![view.database().clone()]);
    submit(exec, view.prepared(), &dbs)
}
