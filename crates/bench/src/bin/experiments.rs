//! Run the paper's experiments and print them to stdout: one section per
//! paper figure/example, the paper's claim next to the measured value.
//!
//! ```sh
//! cargo run --release -p fdjoin-bench --bin experiments          # all
//! cargo run --release -p fdjoin-bench --bin experiments e1 e12   # subset
//! ```

use fdjoin_bench::{fit_exponent, print_table, series, Row};
use fdjoin_bigint::rat;
use fdjoin_bounds::chain::{best_chain_bound, Chain};
use fdjoin_bounds::cllp::{solve_cllp, DegreePair};
use fdjoin_bounds::llp::solve_llp;
use fdjoin_bounds::normal::{coatomic_hypergraph, is_normal_lattice};
use fdjoin_bounds::smproof::{
    check_goodness, scale_weights, search_good_sm_proof, search_sm_proof, Goodness, SmProof, SmStep,
};
use fdjoin_core::{
    binary_join, chain_join, chain_join_no_argmin, csma_join, generic_join, naive_join, sma_join,
    Algorithm, Engine, ExecOptions, UserDegreeBound,
};
use fdjoin_instances as instances;
use fdjoin_lattice::build;
use fdjoin_query::examples;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |s: &str| args.is_empty() || args.iter().any(|a| a == s || a == "all");

    println!("fdjoin experiment harness — paper: Abo Khamis, Ngo, Suciu (PODS 2016)");
    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("e6") {
        e6();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("e9") {
        e9();
    }
    if want("e10") {
        e10();
    }
    if want("e11") {
        e11();
    }
    if want("e12") {
        e12();
    }
    if want("e13") {
        e13();
    }
    if want("e14") {
        e14();
    }
    if want("e15") {
        e15();
    }
    if want("a1") {
        a1();
    }
    if want("a2") {
        a2();
    }
    if want("a3") {
        a3();
    }
}

/// E1 — Eq. (1) / Fig 1 / Examples 5.5, 5.8: the UDF query.
fn e1() {
    println!("\n== E1: UDF query (Eq. 1, Fig 1) — paper: GLVV = N^1.5; CA optimal; WCOJ Ω(N²)");
    let q = examples::fig1_udf();
    let pres = q.lattice_presentation();
    let glvv = solve_llp(&pres.lattice, &pres.inputs, &vec![rat(1, 1); 3]).value;
    println!("  GLVV exponent (paper 3/2): {glvv}");

    let mut rows = Vec::new();
    for exp in [6u32, 8, 10, 12] {
        let n = 1u64 << exp;
        let db = instances::fig1_adversarial(n);
        let ca = chain_join(&q, &db).unwrap();
        let gj = generic_join(&q, &db).unwrap();
        let bj = binary_join(&q, &db).unwrap();
        assert_eq!(ca.output, gj.output);
        rows.push(Row {
            n,
            values: vec![
                ("chain", ca.stats.work() as f64),
                ("generic", gj.stats.work() as f64),
                ("binary", bj.stats.work() as f64),
                ("output", ca.output.len() as f64),
            ],
        });
    }
    print_table(
        "adversarial instance (R=S=T: star graph), work counters:",
        &rows,
    );
    println!(
        "  measured exponents: chain {:.2} | generic {:.2} | binary {:.2}  (paper shape: CA ≪ N², baselines = N²)",
        fit_exponent(&series(&rows, "chain")),
        fit_exponent(&series(&rows, "generic")),
        fit_exponent(&series(&rows, "binary")),
    );

    let mut rows = Vec::new();
    for s in [4u64, 8, 16, 32] {
        let db = instances::fig1_tight(s);
        let n = s * s;
        let ca = chain_join(&q, &db).unwrap();
        rows.push(Row {
            n,
            values: vec![
                ("chain", ca.stats.work() as f64),
                ("output", ca.output.len() as f64),
                ("N^1.5", (n as f64).powf(1.5)),
            ],
        });
    }
    print_table(
        "tight instance (R=S=T = [√N]²): output = N^1.5 exactly:",
        &rows,
    );
    println!(
        "  measured exponents: chain {:.2}, output {:.2}  (paper: 1.5 — bound is tight)",
        fit_exponent(&series(&rows, "chain")),
        fit_exponent(&series(&rows, "output")),
    );
}

/// E2 — Eq. (2) / Appendix A: degree-bounded triangle via CSMA + CLLP.
fn e2() {
    println!("\n== E2: degree-bounded triangle (Eq. 2) — paper: output ≤ min(N^1.5, N·d1, N·d2)");
    let q = examples::triangle();
    let n = 512u64;
    let mut rows = Vec::new();
    for d in [1u64, 2, 8, 32, 128, 512] {
        let db = instances::bounded_degree_triangle(n, d);
        let real_d = db.relation("R").unwrap().max_degree(1) as u64;
        let opts = ExecOptions::new()
            .algorithm(Algorithm::Csma)
            .degree_bound(UserDegreeBound {
                atom: 0,
                on: vec![0],
                max_degree: real_d,
            });
        let out = Engine::new().execute(&q, &db, &opts).unwrap();
        let nn = db.relation("R").unwrap().len() as f64;
        let cllp_bound = out.predicted_log_bound.as_ref().unwrap().to_f64();
        let paper_bound = (1.5 * nn.log2()).min(nn.log2() + (real_d as f64).log2());
        rows.push(Row {
            n: real_d,
            values: vec![
                ("CLLP(log2)", cllp_bound),
                ("paper(log2)", paper_bound),
                ("output", out.output.len() as f64),
                ("work", out.stats.work() as f64),
            ],
        });
    }
    print_table(
        "N = 512, sweep on degree bound d (column N shows d):",
        &rows,
    );
    println!("  CLLP tracks min(3/2·log N, log N + log d) — Eq. (2)'s bound shape.");
}

/// E3 — Eq. (4) / Theorem 2.1: AGM tightness on product instances.
fn e3() {
    println!("\n== E3: triangle AGM bound (Eq. 4) — paper: tight on product instances");
    let q = examples::triangle();
    let mut rows = Vec::new();
    for nlog in [2i64, 4, 6, 8] {
        let db = instances::normal_worst_case(&q, &vec![rat(nlog, 1); 3], &rat(3 * nlog / 2, 1))
            .unwrap();
        let n = db.relation("R").unwrap().len() as u64;
        let gj = generic_join(&q, &db).unwrap();
        rows.push(Row {
            n,
            values: vec![
                ("output", gj.output.len() as f64),
                ("AGM=N^1.5", (n as f64).powf(1.5)),
                ("GJ work", gj.stats.work() as f64),
            ],
        });
    }
    print_table("product instances (N = 2^k per relation):", &rows);
    println!(
        "  output equals AGM exactly; GJ work exponent {:.2} (worst-case optimal)",
        fit_exponent(&series(&rows, "GJ work"))
    );
}

/// E4 — Sec. 2 closure examples.
fn e4() {
    println!("\n== E4: closure technique (Sec. 2) — simple keys vs composite keys");
    let q = examples::four_cycle_key();
    let logs = vec![rat(8, 1); 4];
    let plain = fdjoin_bounds::agm::agm_log_bound(&q, &logs).unwrap().value;
    let closed = fdjoin_bounds::agm::agm_closure_log_bound(&q, &logs)
        .unwrap()
        .value;
    println!(
        "  4-cycle + y→z: AGM = 2^{} → AGM(Q⁺) = 2^{}   (paper: min adds |R||K| term)",
        plain, closed
    );
    let q = examples::composite_key();
    let logs = vec![rat(5, 1), rat(5, 1), rat(30, 1)];
    let plain = fdjoin_bounds::agm::agm_log_bound(&q, &logs).unwrap().value;
    let closed = fdjoin_bounds::agm::agm_closure_log_bound(&q, &logs)
        .unwrap()
        .value;
    let pres = q.lattice_presentation();
    let glvv = solve_llp(&pres.lattice, &pres.inputs, &logs).value;
    println!("  R(x),S(y),T(x,y,z), xy→z (|T|=2^30): AGM = AGM(Q⁺) = 2^{plain} vs GLVV = 2^{glvv}");
    assert_eq!(plain, closed);
    println!("  (paper: closure technique fails for non-simple keys; GLVV = N²) ✓");
}

/// E5 — Prop 3.2 / Cor 5.17: simple FDs ⇒ distributive ⇒ CA optimal.
fn e5() {
    println!("\n== E5: simple FDs (Prop 3.2, Cor 5.17) — chain bound tight, CA optimal");
    let q = examples::simple_fd_path();
    let pres = q.lattice_presentation();
    println!(
        "  lattice distributive: {} (paper: yes, simple FDs)",
        pres.lattice.is_distributive()
    );
    for nlog in [3i64, 5, 7] {
        let logs = vec![rat(nlog, 1); 3];
        let llp = solve_llp(&pres.lattice, &pres.inputs, &logs).value;
        let cb = best_chain_bound(&pres.lattice, &pres.inputs, &logs)
            .unwrap()
            .log_bound;
        println!(
            "  n = {nlog}: chain bound {cb} == GLVV {llp}: {}",
            cb == llp
        );
    }
}

/// E6 — Fig 3 / M3 / Example 5.12 / parity instance.
fn e6() {
    println!("\n== E6: M3 (Fig 3) — parity instance attains N²; co-atomic bound invalid");
    let q = examples::m3_query();
    let pres = q.lattice_presentation();
    println!(
        "  lattice normal: {} (paper: NO — M3 with shared top)",
        is_normal_lattice(&pres.lattice, &pres.inputs)
    );
    let hco = coatomic_hypergraph(&pres.lattice, &pres.inputs);
    println!(
        "  co-atomic ρ* = {} (would claim N^1.5; the parity instance refutes it)",
        hco.rho_star().unwrap()
    );
    let mut rows = Vec::new();
    for n in [4u64, 8, 16, 32] {
        let db = instances::m3_parity(n);
        let out = naive_join(&q, &db).unwrap().output;
        let csma = csma_join(&q, &db).unwrap();
        assert_eq!(csma.output.len(), out.len());
        rows.push(Row {
            n,
            values: vec![
                ("output", out.len() as f64),
                ("N^2", (n * n) as f64),
                ("csma work", csma.stats.work() as f64),
            ],
        });
    }
    print_table("parity instance {i+j+k ≡ 0 mod N}:", &rows);
    println!(
        "  output exponent {:.2} (paper: 2.0 — GLVV N² is tight, chain bound matches)",
        fit_exponent(&series(&rows, "output"))
    );
}

/// E7 — Fig 4 / Examples 5.18–5.27: chain gap + SMA at N^{4/3}.
fn e7() {
    println!("\n== E7: Fig 4 query — chain bound N^1.5 not tight; SM bound N^4/3 tight");
    let q = examples::fig4_query();
    let pres = q.lattice_presentation();
    let logs = vec![rat(6, 1); 4];
    let cb = best_chain_bound(&pres.lattice, &pres.inputs, &logs)
        .unwrap()
        .log_bound;
    let llp = solve_llp(&pres.lattice, &pres.inputs, &logs).value;
    println!(
        "  exponents at n=6: chain {} vs LLP/SM {} (paper: 3/2 vs 4/3)",
        cb.to_f64() / 6.0,
        llp.to_f64() / 6.0
    );
    let mut rows = Vec::new();
    for nlog in [3i64, 6, 9] {
        let db = instances::normal_worst_case(&q, &vec![rat(nlog, 1); 4], &rat(4 * nlog / 3, 1))
            .unwrap();
        let n = db.relation(&q.atoms()[0].name).unwrap().len() as u64;
        let sma = sma_join(&q, &db).unwrap();
        let nv = generic_join(&q, &db).unwrap().output;
        assert_eq!(sma.output, nv);
        rows.push(Row {
            n,
            values: vec![
                ("output", sma.output.len() as f64),
                ("N^4/3", (n as f64).powf(4.0 / 3.0)),
                ("sma work", sma.stats.work() as f64),
            ],
        });
    }
    print_table("canonical quasi-product worst case:", &rows);
    println!(
        "  output exponent {:.3}, SMA work exponent {:.3} (paper: 4/3 ≈ 1.333)",
        fit_exponent(&series(&rows, "output")),
        fit_exponent(&series(&rows, "sma work")),
    );
}

/// E8 — Fig 5 / Example 5.10 / Cor 5.9.
fn e8() {
    println!("\n== E8: Fig 5 query R(x),S(y),z=f(x,y) — Cor 5.9 chain needed");
    let q = examples::fig5_udf_product();
    let pres = q.lattice_presentation();
    let logs = vec![rat(5, 1); 2];
    let finite_maximal = pres
        .lattice
        .maximal_chains()
        .into_iter()
        .filter(|c| {
            fdjoin_bounds::chain::chain_bound(
                &pres.lattice,
                &pres.inputs,
                &logs,
                &Chain::new(&pres.lattice, c.clone()),
            )
            .is_some()
        })
        .count();
    println!("  maximal chains with finite bound: {finite_maximal} (paper: 0 — isolated vertices)");
    let cb = best_chain_bound(&pres.lattice, &pres.inputs, &logs).unwrap();
    println!(
        "  Cor 5.9 chain: {:?}, bound exponent {} (paper: 0̂ ≺ x ≺ 1̂, N²)",
        cb.chain
            .elems
            .iter()
            .map(|&e| pres.lattice.name(e))
            .collect::<Vec<_>>(),
        cb.log_bound.to_f64() / 5.0
    );
    let mut db = fdjoin_storage::Database::new();
    let rows_r: Vec<[u64; 1]> = (0..32).map(|i| [i]).collect();
    db.insert(
        "R",
        fdjoin_storage::Relation::from_rows(vec![0], rows_r.clone()),
    );
    db.insert("S", fdjoin_storage::Relation::from_rows(vec![1], rows_r));
    db.udfs
        .register(fdjoin_lattice::VarSet::from_vars([0, 1]), 2, |v| {
            v[0] * 1000 + v[1]
        });
    let ca = chain_join(&q, &db).unwrap();
    println!("  CA output on N=32: {} = N² ✓", ca.output.len());
}

/// E9 — Fig 6 / Theorem 5.14 / Example 5.16.
fn e9() {
    println!(
        "\n== E9: condition (15) on the Fig 1 lattice (Fig 6) — chain tight beyond distributive"
    );
    let q = examples::fig1_udf();
    let pres = q.lattice_presentation();
    let lat = &pres.lattice;
    let v = |s: &str| q.var_id(s).unwrap();
    let vs = |v_: &[u32]| fdjoin_lattice::VarSet::from_vars(v_.iter().copied());
    let chain = Chain::new(
        lat,
        vec![
            lat.bottom(),
            lat.elem_of_set(vs(&[v("y")])).unwrap(),
            lat.elem_of_set(vs(&[v("y"), v("z")])).unwrap(),
            lat.top(),
        ],
    );
    println!(
        "  lattice distributive: {} (paper: no)",
        lat.is_distributive()
    );
    println!(
        "  chain 0̂ ≺ y ≺ yz ≺ 1̂ satisfies condition (15): {} (paper: yes ⇒ tight)",
        chain.tightness_condition(lat)
    );
    for name in ["{1}", "{2}", "{0}"] {
        if let Some(e) = lat.elems().find(|&e| lat.name(e) == name) {
            println!("  e({name}) = {:?}", chain.e_set(lat, e));
        }
    }
    println!(
        "  e(1̂) = {:?} (paper Fig 6: {{1,2,3}})",
        chain.e_set(lat, lat.top())
    );
}

/// E10 — Fig 7 / Example 5.29: a bad and a good SM sequence.
fn e10() {
    println!("\n== E10: Fig 7 (Example 5.29) — SM sequence goodness");
    let lat = build::fig7();
    let e = |s: &str| lat.elems().find(|&x| lat.name(x) == s).unwrap();
    let multiset = vec![(e("X"), 1), (e("Y"), 1), (e("Z"), 1), (e("U"), 1)];
    let bad = SmProof {
        multiset: multiset.clone(),
        d: 2,
        steps: vec![
            SmStep {
                x: e("X"),
                y: e("Y"),
            },
            SmStep {
                x: e("A"),
                y: e("Z"),
            },
            SmStep {
                x: e("B"),
                y: e("U"),
            },
            SmStep {
                x: e("C"),
                y: e("D"),
            },
        ],
    };
    println!(
        "  paper's 4-step sequence: {:?} (paper: A(C,D) = ∅)",
        check_goodness(&lat, &bad)
    );
    let good = search_good_sm_proof(&lat, &multiset, 2).expect("alternative exists");
    println!(
        "  searched alternative ({} steps): {:?} (paper: good)",
        good.steps.len(),
        check_goodness(&lat, &good)
    );
}

/// E11 — Fig 8 / Example 5.30: label lost.
fn e11() {
    println!("\n== E11: Fig 8 (Example 5.30) — label 1 never reaches 1̂");
    let lat = build::fig8();
    let e = |s: &str| lat.elems().find(|&x| lat.name(x) == s).unwrap();
    let proof = SmProof {
        multiset: vec![(e("X"), 1), (e("Y"), 1), (e("Z"), 1), (e("W"), 1)],
        d: 2,
        steps: vec![
            SmStep {
                x: e("X"),
                y: e("Y"),
            },
            SmStep {
                x: e("Z"),
                y: e("W"),
            },
            SmStep {
                x: e("A"),
                y: e("D"),
            },
            SmStep {
                x: e("B"),
                y: e("C"),
            },
        ],
    };
    match check_goodness(&lat, &proof) {
        Goodness::LostLabels(l) => {
            println!("  goodness: LostLabels{l:?} (paper: label 1 not in any Labels(1̂)) ✓")
        }
        other => println!("  unexpected: {other:?}"),
    }
}

/// E12 — Fig 9 / Example 5.31 / Theorem 5.34: CSMA territory.
fn e12() {
    println!("\n== E12: Fig 9 (Example 5.31) — no SM proof; CSMA meets N^1.5");
    let q = examples::fig9_query();
    let pres = q.lattice_presentation();
    let lat = &pres.lattice;
    let multiset: Vec<(usize, u64)> = pres.inputs.iter().map(|&e| (e, 1)).collect();
    println!(
        "  SM proof (d=2) exists: {} (paper: no)",
        search_sm_proof(lat, &multiset, 2).is_some()
    );
    println!(
        "  lattice normal: {} (paper: yes, 'more surprisingly')",
        is_normal_lattice(lat, &pres.inputs)
    );
    let pairs: Vec<DegreePair> = pres
        .inputs
        .iter()
        .map(|&r| DegreePair::cardinality(lat, r, rat(2, 1)))
        .collect();
    let sol = solve_cllp(lat, &pairs);
    println!(
        "  CLLP OPT = {} = (3/2)·n; dual c = 1/2 each: {:?}",
        sol.value,
        sol.pair_duals
            .iter()
            .map(|c| c.to_f64())
            .collect::<Vec<_>>()
    );
    let (_, d) = scale_weights(&sol.pair_duals);
    println!("  dual denominator d = {d} (paper: 2)");

    let mut rows = Vec::new();
    for nlog in [2i64, 4, 6] {
        let db = instances::normal_worst_case(&q, &vec![rat(nlog, 1); 3], &rat(3 * nlog / 2, 1))
            .unwrap();
        let n = 1u64 << nlog;
        let csma = csma_join(&q, &db).unwrap();
        let nv = generic_join(&q, &db).unwrap().output;
        assert_eq!(csma.output, nv);
        rows.push(Row {
            n,
            values: vec![
                ("output", csma.output.len() as f64),
                ("N^1.5", (n as f64).powf(1.5)),
                ("csma work", csma.stats.work() as f64),
                ("branches", csma.stats.branches as f64),
            ],
        });
    }
    print_table("canonical worst case (output = N^1.5 exactly):", &rows);
    println!(
        "  output exponent {:.2}, CSMA work exponent {:.2} (paper: 3/2 up to polylog)",
        fit_exponent(&series(&rows, "output")),
        fit_exponent(&series(&rows, "csma work")),
    );
}

/// E13 — Fig 10 classification.
fn e13() {
    println!("\n== E13: lattice classification (Fig 10)");
    let classify = |name: &str, lat: &fdjoin_lattice::Lattice, inputs: &[usize]| {
        println!(
            "  {name:<22} distributive={:<5} normal={:<5} M3@top={:<5}",
            lat.is_distributive(),
            is_normal_lattice(lat, inputs),
            lat.find_m3_with_top().is_some(),
        );
    };
    let b3 = build::boolean(3);
    let b3in = b3.coatoms();
    classify("Boolean 2^3", &b3, &b3in);
    let sp = examples::simple_fd_path().lattice_presentation();
    classify("simple-FD path", &sp.lattice, &sp.inputs);
    let f1 = examples::fig1_udf().lattice_presentation();
    classify("Fig 1 (UDF)", &f1.lattice, &f1.inputs);
    let f4 = examples::fig4_query().lattice_presentation();
    classify("Fig 4", &f4.lattice, &f4.inputs);
    let f9 = examples::fig9_query().lattice_presentation();
    classify("Fig 9", &f9.lattice, &f9.inputs);
    let m3 = build::m3();
    let m3in = m3.atoms();
    classify("M3", &m3, &m3in);
    let n5 = build::n5();
    let e = |s: &str| n5.elems().find(|&x| n5.name(x) == s).unwrap();
    classify("N5", &n5, &[e("a"), e("b"), e("c")]);
    println!("  (paper: Boolean ⊂ simple-FD ⊂ distributive ⊂ normal; M3 outside, N5 inside)");
}

/// E14 — Prop 4.10 on a constructed family.
fn e14() {
    println!("\n== E14: Prop 4.10 — M3 sublattice sharing the top ⇒ non-normal");
    for extra in 0..3 {
        // M3 with a chain of `extra` elements glued below the atoms.
        let mut names = vec!["0".to_string()];
        let mut covers: Vec<(String, String)> = Vec::new();
        let mut prev = "0".to_string();
        for i in 0..extra {
            let nm = format!("p{i}");
            covers.push((prev.clone(), nm.clone()));
            names.push(nm.clone());
            prev = nm;
        }
        for a in ["x", "y", "z"] {
            names.push(a.to_string());
            covers.push((prev.clone(), a.to_string()));
            covers.push((a.to_string(), "1".to_string()));
        }
        names.push("1".to_string());
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let cover_refs: Vec<(&str, &str)> = covers
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let lat = fdjoin_lattice::Lattice::from_covers(&name_refs, &cover_refs).unwrap();
        let (u, x, y, z) = lat.find_m3_with_top().expect("M3 at top");
        let normal = is_normal_lattice(&lat, &[x, y, z]);
        println!(
            "  chain-pad {extra}: M3 at top through {} — normal w.r.t. {{X,Y,Z}}: {normal} (paper: false)",
            lat.name(u)
        );
    }
}

/// E15 — N5 is normal.
fn e15() {
    println!("\n== E15: N5 normality (Sec. 1.2 remark)");
    let n5 = build::n5();
    let e = |s: &str| n5.elems().find(|&x| n5.name(x) == s).unwrap();
    let combos: Vec<Vec<usize>> = vec![
        vec![e("a"), e("b")],
        vec![e("c"), e("b")],
        vec![e("a"), e("b"), e("c")],
    ];
    for inputs in combos {
        let names: Vec<&str> = inputs.iter().map(|&i| n5.name(i)).collect();
        println!(
            "  inputs {:?}: normal = {} (paper: N5 is normal)",
            names,
            is_normal_lattice(&n5, &inputs)
        );
    }
}

/// A1 — ablation: CA's per-tuple argmin.
fn a1() {
    println!("\n== A1: ablation — Chain Algorithm per-tuple argmin (the 'crucial fact')");
    let q = examples::fig1_udf();
    let mut rows = Vec::new();
    for exp in [6u32, 8, 10] {
        let n = 1u64 << exp;
        let db = instances::fig1_adversarial(n);
        let with = chain_join(&q, &db).unwrap();
        let without = chain_join_no_argmin(&q, &db).unwrap();
        assert_eq!(with.output, without.output);
        rows.push(Row {
            n,
            values: vec![
                ("argmin", with.stats.work() as f64),
                ("fixed j", without.stats.work() as f64),
            ],
        });
    }
    print_table("adversarial instance:", &rows);
    println!(
        "  exponents: argmin {:.2} vs fixed {:.2} — the per-tuple choice carries Thm 5.7",
        fit_exponent(&series(&rows, "argmin")),
        fit_exponent(&series(&rows, "fixed j")),
    );
}

/// A2 — ablation: FD-binding in LFTJ-style search (footnote 1).
fn a2() {
    println!("\n== A2: ablation — LFTJ FD-binding (footnote 1): helps constants, not the exponent");
    let q = examples::fig1_udf();
    let mut rows = Vec::new();
    for exp in [6u32, 8, 10] {
        let n = 1u64 << exp;
        let db = instances::fig1_adversarial(n);
        let plain = generic_join(&q, &db).unwrap();
        let fd_bind = Engine::new()
            .execute(
                &q,
                &db,
                &ExecOptions::new()
                    .algorithm(Algorithm::GenericJoin)
                    .bind_fds(true),
            )
            .unwrap();
        assert_eq!(plain.output, fd_bind.output);
        rows.push(Row {
            n,
            values: vec![
                ("gj plain", plain.stats.work() as f64),
                ("gj fd-bind", fd_bind.stats.work() as f64),
            ],
        });
    }
    print_table("adversarial instance:", &rows);
    println!(
        "  exponents: plain {:.2} vs fd-bind {:.2} (paper: both Ω(N²) here)",
        fit_exponent(&series(&rows, "gj plain")),
        fit_exponent(&series(&rows, "gj fd-bind")),
    );
}

/// A3 — ablation: SMA threshold sensitivity.
fn a3() {
    println!(
        "\n== A3: ablation — SMA correctness is threshold-robust (output equal), Fig 4 worst case"
    );
    let q = examples::fig4_query();
    for nlog in [3i64, 6] {
        let db = instances::normal_worst_case(&q, &vec![rat(nlog, 1); 4], &rat(4 * nlog / 3, 1))
            .unwrap();
        let sma = sma_join(&q, &db).unwrap();
        let nv = generic_join(&q, &db).unwrap().output;
        println!(
            "  n={nlog}: SMA output {} == naive {} (heavy/light split at 2^(h(Y)−h(Z)))",
            sma.output.len(),
            nv.len()
        );
        assert_eq!(sma.output, nv);
    }
}
