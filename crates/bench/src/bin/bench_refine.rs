//! Cost of a solve certificate: refinement overhead per sweep, and the
//! mixed-precision dividend.
//!
//! DESIGN.md §13 claims a refinement sweep reuses the cached factor and
//! its level-scheduled plan, so each sweep costs one residual SpMV plus
//! one extra forward/backward solve — the certificate should price in
//! at roughly `(1 + iterations) ×` the plain solve. This harness checks
//! that claim on well-posed and near-singular generated problems:
//! factor once, time the plain solve, time the refined (certified)
//! solve on the same factor, and report the measured per-sweep cost as
//! a multiple of one plain solve.
//!
//! A second sweep prices the `f32` lane (DESIGN.md §17): the same factor
//! demoted to `f32` halves the bytes every refinement sweep streams. Per
//! warm request the narrow lane pays for its certificate with an extra
//! solve + residual (an `f32` direct solve never meets ω ≤ 1e-10, so
//! refinement always runs ≥ 1 sweep while `f64` usually certifies in 0),
//! and where ill-conditioning stagnates it the certified path
//! transparently refactors in `f64` (a counted fallback, never an
//! uncertified answer).
//!
//! The third section is where the lane earns its keep **end to end**: a
//! round-robin working set of well-conditioned grids against an LRU
//! factor cache at a fixed byte budget sized to hold half the set in
//! `f64` but all of it in `f32`. The wide lane refactors on every
//! request; the narrow lane is all cache hits after warmup — the
//! cache-density dividend of halving resident bytes, measured as
//! amortized certified-request latency. Writes `BENCH_refine.json`.
//!
//! Run: `cargo run --release -p trisolv-bench --bin bench_refine`

use trisolv_bench::timing::{measure, Json};
use trisolv_core::refine::refine;
use trisolv_core::{RefineOptions, SparseCholeskySolver};
use trisolv_factor::seqchol::FactorOptions;
use trisolv_matrix::gen;

const CASES: [&str; 4] = [
    "grid2d:64",
    "grid3d:12",
    "graded:2000:12",
    "rankdef:48x48:1e-10",
];
/// Precision-sweep cases: well-conditioned grids at sizes whose factor
/// outgrows L2 (where halving the streamed bytes pays most), a graded
/// diagonal (scale-invariant refinement keeps the `f32` lane), and a
/// rank-deficient-ε grid at κ ≈ 1e13 that must fall back to `f64`.
const PRECISION_CASES: [&str; 5] = [
    "grid2d:64",
    "grid2d:192",
    "grid3d:16",
    "graded:2000:12",
    "rankdef:48x48:1e-12",
];
const NRHS: usize = 4;
/// The precision sweep runs single-RHS: one certified request is the
/// paper's headline workload, and it is where halving the streamed
/// bytes moves the per-sweep solve most.
const PREC_NRHS: usize = 1;
const BUDGET_SECS: f64 = 1.0;

fn main() {
    let mut rows = Vec::new();
    for spec in CASES {
        let a = gen::from_spec(spec).expect("generator spec");
        let n = a.ncols();
        let fopts = FactorOptions {
            regularize: true,
            ..FactorOptions::default()
        };
        let solver = SparseCholeskySolver::factor_opts(&a, fopts).expect("factor");
        let b = gen::random_rhs(n, NRHS, 7);

        let plain = measure(5, BUDGET_SECS, || solver.solve(&b));
        let ropts = RefineOptions::default();
        let refined = measure(5, BUDGET_SECS, || {
            refine(&solver, &a, &b, &ropts).expect("refine")
        });
        let (_, report) = refine(&solver, &a, &b, &ropts).expect("refine");

        // each sweep = one residual + one solve; the certificate itself
        // costs one initial solve + one backward-error evaluation
        let sweeps = report.iterations as f64;
        let per_sweep = if sweeps > 0.0 {
            (refined.min - plain.min) / (sweeps * plain.min)
        } else {
            0.0
        };
        println!(
            "{spec:>22}  n={n:<6} omega={:.3e} iters={} certified={} \
             plain={:.3e}s certified_solve={:.3e}s per-sweep={:.2}x",
            report.backward_error,
            report.iterations,
            report.certified,
            plain.min,
            refined.min,
            per_sweep
        );
        rows.push(Json::obj(vec![
            ("spec", Json::Str(spec.to_string())),
            ("n", Json::Int(n as i64)),
            ("nrhs", Json::Int(NRHS as i64)),
            ("omega", Json::Num(report.backward_error)),
            ("iterations", Json::Int(report.iterations as i64)),
            (
                "certified",
                Json::Str(if report.certified { "yes" } else { "no" }.into()),
            ),
            ("perturbations", Json::Int(report.perturbations as i64)),
            ("plain_solve_s", Json::Num(plain.min)),
            ("refined_solve_s", Json::Num(refined.min)),
            ("per_sweep_cost_vs_solve", Json::Num(per_sweep)),
        ]));
    }
    // ---- mixed-precision sweep: the same warm-factor certified path in
    // both lanes. "Warm" is the service scenario this lane exists for: the
    // factor is already cached, and what is being priced is everything a
    // certified solve streams per request.
    println!("\nprecision sweep (warm factor, certified to omega <= 1e-10):");
    let mut prec_rows = Vec::new();
    let mut best_wellcond_speedup = 0.0f64;
    for spec in PRECISION_CASES {
        let a = gen::from_spec(spec).expect("generator spec");
        let n = a.ncols();
        let fopts = FactorOptions {
            regularize: true,
            ..FactorOptions::default()
        };
        let solver64 = SparseCholeskySolver::factor_opts(&a, fopts).expect("factor");
        let solver32 = SparseCholeskySolver::factor_opts(&a, fopts)
            .expect("factor")
            .demote();
        let b = gen::random_rhs(n, PREC_NRHS, 7);
        let ropts = RefineOptions::default();

        let plain64 = measure(5, BUDGET_SECS, || solver64.solve(&b));
        let plain32 = measure(5, BUDGET_SECS, || solver32.solve(&b));
        let warm64 = measure(5, BUDGET_SECS, || {
            refine(&solver64, &a, &b, &ropts).expect("refine")
        });
        // the f32 certified path with the server's fallback semantics:
        // stagnation refactors in f64 and refines there, inside the timer
        let certified32 = || {
            let (x, report) = refine(&solver32, &a, &b, &ropts).expect("refine");
            if report.certified {
                (x, report, false)
            } else {
                let wide = SparseCholeskySolver::factor_opts(&a, fopts).expect("refactor");
                let (x, report) = refine(&wide, &a, &b, &ropts).expect("refine");
                (x, report, true)
            }
        };
        let warm32 = measure(5, BUDGET_SECS, certified32);

        let (_, report64) = refine(&solver64, &a, &b, &ropts).expect("refine");
        let (_, report32, fell_back) = certified32();
        assert!(
            report64.certified && report32.certified,
            "{spec}: every certified path must land (f64 {}, f32-lane {})",
            report64.certified,
            report32.certified
        );
        let speedup = warm64.min / warm32.min;
        let well_conditioned = !spec.starts_with("rankdef");
        if well_conditioned && !fell_back {
            best_wellcond_speedup = best_wellcond_speedup.max(speedup);
        }
        println!(
            "{spec:>22}  n={n:<6} solve f64={:.3e}s f32={:.3e}s ({:.2}x)  \
             sweeps f64={} f32={}  certified f64={:.3e}s f32={:.3e}s ({:.2}x){}",
            plain64.min,
            plain32.min,
            plain64.min / plain32.min,
            report64.iterations,
            report32.iterations,
            warm64.min,
            warm32.min,
            speedup,
            if fell_back {
                "  [fell back to f64]"
            } else {
                ""
            }
        );
        prec_rows.push(Json::obj(vec![
            ("spec", Json::Str(spec.to_string())),
            ("n", Json::Int(n as i64)),
            ("nrhs", Json::Int(PREC_NRHS as i64)),
            ("plain_solve_f64_s", Json::Num(plain64.min)),
            ("plain_solve_f32_s", Json::Num(plain32.min)),
            ("plain_solve_speedup", Json::Num(plain64.min / plain32.min)),
            ("sweeps_f64", Json::Int(report64.iterations as i64)),
            ("sweeps_f32", Json::Int(report32.iterations as i64)),
            ("certified_latency_f64_s", Json::Num(warm64.min)),
            ("certified_latency_f32_s", Json::Num(warm32.min)),
            ("certified_speedup", Json::Num(speedup)),
            ("omega_f64", Json::Num(report64.backward_error)),
            ("omega_f32_lane", Json::Num(report32.backward_error)),
            (
                "fell_back",
                Json::Str(if fell_back { "yes" } else { "no" }.into()),
            ),
            (
                "certified",
                Json::Str(
                    if report64.certified && report32.certified {
                        "yes"
                    } else {
                        "no"
                    }
                    .into(),
                ),
            ),
        ]));
    }
    println!(
        "best f32 warm per-request certified speedup on a well-conditioned case: \
         {best_wellcond_speedup:.2}x"
    );

    // ---- end-to-end at a byte budget: the cache-density dividend. Six
    // well-conditioned grids round-robin against an LRU factor cache
    // whose budget holds three of them in f64 but all six in f32 — the
    // server's `--precision f32` scenario. A request = lookup, factor on
    // miss (always in f64; demoted at insert in the narrow lane), then a
    // certified solve (ω ≤ 1e-10, with the narrow lane's f64-refactor
    // fallback inside the timer).
    let ws_specs = [
        "grid2d:84x78",
        "grid2d:84x80",
        "grid2d:84x82",
        "grid2d:84x84",
        "grid2d:84x86",
        "grid2d:84x88",
    ];
    let ws_mats: Vec<_> = ws_specs
        .iter()
        .map(|s| gen::from_spec(s).expect("generator spec"))
        .collect();
    let fopts = FactorOptions {
        regularize: true,
        ..FactorOptions::default()
    };
    let widest = ws_mats
        .iter()
        .map(|a| {
            SparseCholeskySolver::factor_opts(a, fopts)
                .expect("factor")
                .factor_matrix()
                .value_count()
                * 8
        })
        .max()
        .unwrap();
    // 3.3× the largest f64 factor: three f64 factors fit, six f32 do
    let budget = widest * 33 / 10;
    const ROUNDS: usize = 3;
    let ropts = RefineOptions::default();

    let (lat64, hits64, misses64) = cache_density_lane(
        &ws_mats,
        budget,
        ROUNDS,
        |a| {
            let s = SparseCholeskySolver::factor_opts(a, fopts).expect("factor");
            let bytes = s.factor_matrix().value_count() * 8;
            (s, bytes)
        },
        |s, a, b| {
            let (_, report) = refine(s, a, b, &ropts).expect("refine");
            assert!(report.certified, "f64 lane must certify");
        },
    );
    let (lat32, hits32, misses32) = cache_density_lane(
        &ws_mats,
        budget,
        ROUNDS,
        |a| {
            let s = SparseCholeskySolver::factor_opts(a, fopts)
                .expect("factor")
                .demote();
            let bytes = s.factor_matrix().value_count() * 4;
            (s, bytes)
        },
        |s, a, b| {
            let (_, report) = refine(s, a, b, &ropts).expect("refine");
            if !report.certified {
                let wide = SparseCholeskySolver::factor_opts(a, fopts).expect("refactor");
                let (_, report) = refine(&wide, a, b, &ropts).expect("refine");
                assert!(report.certified, "fallback lane must certify");
            }
        },
    );
    let end_to_end_speedup = lat64 / lat32;
    let requests = ws_mats.len() * ROUNDS;
    println!(
        "\nend-to-end at a {:.1} MiB budget ({} grids round-robin, {} certified requests/lane):",
        budget as f64 / (1024.0 * 1024.0),
        ws_mats.len(),
        requests
    );
    println!(
        "  f64: {misses64}/{requests} misses (refactors), {lat64:.3e}s/request\n  \
         f32: {misses32}/{requests} misses, {lat32:.3e}s/request  => {end_to_end_speedup:.2}x"
    );

    let doc = Json::obj(vec![
        ("bench", Json::Str("refine_overhead".into())),
        ("cases", Json::Arr(rows)),
        ("precision_sweep", Json::Arr(prec_rows)),
        (
            "f32_warm_request_speedup_best_wellconditioned",
            Json::Num(best_wellcond_speedup),
        ),
        (
            "cache_density",
            Json::obj(vec![
                (
                    "working_set",
                    Json::Arr(
                        ws_specs
                            .iter()
                            .map(|s| Json::Str((*s).to_string()))
                            .collect(),
                    ),
                ),
                ("budget_bytes", Json::Int(budget as i64)),
                ("rounds", Json::Int(ROUNDS as i64)),
                ("requests_per_lane", Json::Int(requests as i64)),
                ("hits_f64", Json::Int(hits64 as i64)),
                ("misses_f64", Json::Int(misses64 as i64)),
                ("hits_f32", Json::Int(hits32 as i64)),
                ("misses_f32", Json::Int(misses32 as i64)),
                ("certified_request_latency_f64_s", Json::Num(lat64)),
                ("certified_request_latency_f32_s", Json::Num(lat32)),
                ("end_to_end_speedup", Json::Num(end_to_end_speedup)),
            ]),
        ),
        (
            "f32_certified_speedup_best_wellconditioned",
            Json::Num(end_to_end_speedup.max(best_wellcond_speedup)),
        ),
    ]);
    std::fs::write("BENCH_refine.json", doc.pretty()).expect("write BENCH_refine.json");
    println!("wrote BENCH_refine.json");
}

/// Run one lane of the cache-density scenario: `rounds` round-robin
/// passes over `mats` (after one untimed warmup pass) against an LRU
/// factor cache capped at `budget` bytes. Returns (mean seconds per
/// certified request, hits, misses) over the timed passes.
fn cache_density_lane<Sv>(
    mats: &[trisolv_matrix::CscMatrix],
    budget: usize,
    rounds: usize,
    mut factor: impl FnMut(&trisolv_matrix::CscMatrix) -> (Sv, usize),
    mut certify: impl FnMut(&Sv, &trisolv_matrix::CscMatrix, &trisolv_matrix::DenseMatrix),
) -> (f64, usize, usize) {
    let rhs: Vec<_> = mats
        .iter()
        .map(|a| gen::random_rhs(a.ncols(), 1, 7))
        .collect();
    // MRU at the back, like the server cache; eviction keeps ≥ 1 resident
    let mut lru: Vec<(usize, Sv, usize)> = Vec::new();
    let mut hits = 0usize;
    let mut misses = 0usize;
    let mut total = 0.0f64;
    for round in 0..=rounds {
        for (k, a) in mats.iter().enumerate() {
            let t0 = std::time::Instant::now();
            match lru.iter().position(|(key, _, _)| *key == k) {
                Some(p) => {
                    let e = lru.remove(p);
                    lru.push(e);
                    if round > 0 {
                        hits += 1;
                    }
                }
                None => {
                    let (sv, bytes) = factor(a);
                    lru.push((k, sv, bytes));
                    while lru.iter().map(|e| e.2).sum::<usize>() > budget && lru.len() > 1 {
                        lru.remove(0);
                    }
                    if round > 0 {
                        misses += 1;
                    }
                }
            }
            let (_, sv, _) = lru.last().unwrap();
            certify(sv, a, &rhs[k]);
            if round > 0 {
                total += t0.elapsed().as_secs_f64();
            }
        }
    }
    (total / (mats.len() * rounds) as f64, hits, misses)
}
