//! Generated inputs and their reference answers.
//!
//! Every input is built with `fdjoin::instances` from a seeded `StdRng`, so
//! one seed always gives the same databases. Each cell's reference answer
//! is fixed at set-up, outside the timed loop: by a closed form where the
//! paper gives one, otherwise by a second algorithm (Generic-Join, which
//! `Algorithm::Auto` never picks).

use fdjoin::bigint::rat;
use fdjoin::core::{Algorithm, Engine, ExecOptions};
use fdjoin::instances;
use fdjoin::query::{examples, Query};
use fdjoin::storage::{Database, Relation, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row count plus an order-independent hash of a query answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    pub rows: u64,
    pub hash: u64,
}

impl Answer {
    pub fn of(rel: &Relation) -> Answer {
        let hash = rel
            .rows()
            .fold(0u64, |acc, row| acc.wrapping_add(row_hash(row)));
        Answer {
            rows: rel.len() as u64,
            hash,
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn row_hash(row: &[Value]) -> u64 {
    row.iter().fold(0x5EED, |h, &v| splitmix(h ^ v))
}

/// The RNG for one workload: the seed is mixed with the workload name so
/// two workloads run with the same seed draw different inputs.
pub fn rng_for(workload: &str, seed: u64) -> StdRng {
    let salt = workload.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
    });
    StdRng::seed_from_u64(splitmix(seed ^ salt))
}

/// One query over one generated database, with its reference answer.
pub struct Cell {
    pub name: &'static str,
    pub query: Query,
    pub db: Database,
    /// The reference output: row-membership checks for pages read from
    /// this cell, and the [`Answer`] every materialized query must match.
    pub reference: Relation,
    pub answer: Answer,
}

impl Cell {
    fn new(name: &'static str, query: Query, db: Database, reference: Relation) -> Cell {
        let answer = Answer::of(&reference);
        Cell {
            name,
            query,
            db,
            reference,
            answer,
        }
    }

    /// A cell whose reference is a Generic-Join run.
    fn by_generic_join(name: &'static str, query: Query, db: Database) -> Result<Cell, String> {
        let reference = Engine::new()
            .prepare(&query)
            .execute(&db, &ExecOptions::new().algorithm(Algorithm::GenericJoin))
            .map_err(|e| format!("{name}: reference run failed: {e}"))?
            .output;
        Ok(Cell::new(name, query, db, reference))
    }
}

/// The six paper cells of `warm_mix`.
pub fn warm_cells(rng: &mut StdRng) -> Result<Vec<Cell>, String> {
    let fig4 = examples::fig4_query();
    let fig9 = examples::fig9_query();
    let path = examples::simple_fd_path();
    let fig4_random = instances::random_instance(&fig4, rng, 2000, 85);
    let fig9_random = instances::random_instance(&fig9, rng, 300, 85);
    let path_random = instances::random_instance(&path, rng, 5000, 85);
    // Fig. 4 worst case at N = 2^9: the output is exactly N^{4/3} = 2^12.
    let fig4_worst = instances::normal_worst_case(&fig4, &vec![rat(9, 1); 4], &rat(12, 1))
        .ok_or("fig4 worst-case instance is not constructible")?;
    let worst = Cell::by_generic_join("fig4_worst_2^9", fig4.clone(), fig4_worst)?;
    if worst.answer.rows != 1 << 12 {
        return Err(format!(
            "fig4_worst_2^9: reference has {} rows, the closed form says 4096",
            worst.answer.rows
        ));
    }
    let half = (1u64 << 13) / 2;
    Ok(vec![
        Cell::new(
            "fig1_adversarial_2^13",
            examples::fig1_udf(),
            instances::fig1_adversarial(1 << 13),
            fig1_adversarial_answer(half),
        ),
        Cell::by_generic_join("fig4_random_2000", fig4.clone(), fig4_random)?,
        worst,
        Cell::by_generic_join("fig9_random_300", fig9, fig9_random)?,
        Cell::new(
            "m3_parity_256",
            examples::m3_query(),
            instances::m3_parity(256),
            m3_parity_answer(256),
        ),
        Cell::by_generic_join("simple_fd_path_5000", path, path_random)?,
    ])
}

/// Closed form of the Fig. 1 query on `fig1_adversarial`: every edge of the
/// star touches 1, so the answers `(x, y, z, u = x)` are the triangles
/// `(1,1,z)`, `(1,y,1)` and `(x,1,1)` — `3·half − 2` rows.
fn fig1_adversarial_answer(half: u64) -> Relation {
    let mut rows: Vec<[Value; 4]> = Vec::new();
    for i in 1..=half {
        rows.push([1, 1, i, 1]);
        rows.push([1, i, 1, 1]);
        rows.push([i, 1, 1, i]);
    }
    let mut rel = Relation::from_rows(vec![0, 1, 2, 3], rows);
    rel.sort_dedup();
    rel
}

/// Closed form of M3 on the parity instance: `{(i, j, k) : i+j+k ≡ 0 mod
/// N}`, exactly `N²` rows.
fn m3_parity_answer(n: u64) -> Relation {
    let rows: Vec<[Value; 3]> = (0..n)
        .flat_map(|i| (0..n).map(move |j| [i, j, (2 * n - i - j) % n]))
        .collect();
    let mut rel = Relation::from_rows(vec![0, 1, 2], rows);
    rel.sort_dedup();
    rel
}

/// Instances per `cold_plan` shape: planning cost depends on the size
/// profile, so a run rotates over several profiles per shape.
pub const COLD_INSTANCES_PER_SHAPE: usize = 8;

/// The ten query shapes of `cold_plan`, each on
/// [`COLD_INSTANCES_PER_SHAPE`] small random instances, shapes interleaved.
pub fn cold_cells(rng: &mut StdRng) -> Result<Vec<Cell>, String> {
    let shapes: [(&'static str, Query); 10] = [
        ("triangle", examples::triangle()),
        ("fig1", examples::fig1_udf()),
        ("degree_triangle", examples::degree_triangle()),
        ("four_cycle_key", examples::four_cycle_key()),
        ("composite_key", examples::composite_key()),
        ("fig5", examples::fig5_udf_product()),
        ("m3", examples::m3_query()),
        ("fig4", examples::fig4_query()),
        ("fig7", examples::fig7_query()),
        ("simple_fd_path", examples::simple_fd_path()),
    ];
    let mut cells = Vec::new();
    for _ in 0..COLD_INSTANCES_PER_SHAPE {
        for (name, q) in &shapes {
            let db = instances::random_instance(q, rng, 200, 85);
            cells.push(Cell::by_generic_join(name, q.clone(), db)?);
        }
    }
    Ok(cells)
}

/// One `delta_rw` view's inputs: the database the view starts from and,
/// per relation, the rows held out of it. Both come from one generated
/// instance, so every mix of present and held-out rows satisfies the
/// declared FDs (a projection of one FD-respecting family, Prop. 3.6).
pub struct DeltaInput {
    pub name: &'static str,
    pub query: Query,
    pub db: Database,
    pub pools: Vec<RowPool>,
}

/// One relation's rows, in column order, split into those in the database
/// and those held out of it.
pub struct RowPool {
    pub relation: String,
    pub present: Vec<Vec<Value>>,
    pub held: Vec<Vec<Value>>,
}

/// Share of each relation held out at set-up as the insert pool.
const HELD_OUT_PCT: u32 = 10;

pub fn delta_inputs(rng: &mut StdRng) -> Vec<DeltaInput> {
    [
        ("fig4_random_2000", examples::fig4_query(), 2000),
        ("simple_fd_path_5000", examples::simple_fd_path(), 5000),
    ]
    .into_iter()
    .map(|(name, query, rows)| {
        let mut db = instances::random_instance(&query, rng, rows, 100);
        let names: Vec<String> = db.iter().map(|(n, _)| n.to_string()).collect();
        let mut pools = Vec::new();
        for rel_name in names {
            let rel = db.relation(&rel_name).expect("generated relation");
            let vars = rel.vars().to_vec();
            let (mut present, mut held) = (Vec::new(), Vec::new());
            for row in rel.rows() {
                if rng.gen_range(0..100) < HELD_OUT_PCT {
                    held.push(row.to_vec());
                } else {
                    present.push(row.to_vec());
                }
            }
            db.replace(rel_name.clone(), Relation::from_rows(vars, &present));
            pools.push(RowPool {
                relation: rel_name,
                present,
                held,
            });
        }
        DeltaInput {
            name,
            query,
            db,
            pools,
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_match_a_join() {
        let engine = Engine::new();
        let gj = ExecOptions::new().algorithm(Algorithm::GenericJoin);
        let fig1 = engine
            .prepare(&examples::fig1_udf())
            .execute(&instances::fig1_adversarial(64), &gj)
            .unwrap();
        assert_eq!(
            Answer::of(&fig1.output),
            Answer::of(&fig1_adversarial_answer(32))
        );
        let m3 = engine
            .prepare(&examples::m3_query())
            .execute(&instances::m3_parity(16), &gj)
            .unwrap();
        assert_eq!(Answer::of(&m3.output), Answer::of(&m3_parity_answer(16)));
    }
}
