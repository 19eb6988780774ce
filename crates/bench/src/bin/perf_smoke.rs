//! CI perf gate: the subtree-mapped executor at one thread must stay
//! within 10% of the sequential solver.
//!
//! The single-thread case is the executor's floor. At one thread the
//! executor runs the sequential solver's own shared forward and backward
//! sweeps through its reusable workspace, so the gate measures that
//! workspace wrapper against `seq::forward_backward` (which uses the
//! plan-less reference forward and allocates fresh buffers); any gap is
//! overhead the wrapper adds. The gate is deliberately narrow:
//! one matrix (grid2d 64×64), two RHS widths, best-of-three measurement
//! rounds so one noisy CI sample cannot fail the job. Bit-identity with
//! the sequential answer is asserted before any timing.
//!
//! Exits non-zero (after printing both timings) if any case falls below
//! the 0.9× floor.
//!
//! Run: `cargo run --release -p trisolv-bench --bin perf_smoke`

use trisolv_bench::timing::measure;
use trisolv_core::{seq, ThreadedSolver};
use trisolv_factor::seqchol::{analyze_with_perm, factor_supernodal};
use trisolv_graph::{nd, Graph};
use trisolv_matrix::gen;

/// Minimum acceptable `seq_time / threaded_t1_time`.
const FLOOR: f64 = 0.9;
/// Measurement rounds per variant; the best (smallest min) wins. The
/// two variants swap measurement order every round so slow clock drift
/// (turbo decay, thermal throttling) cannot systematically favor
/// whichever side is timed first.
const ROUNDS: usize = 4;

fn main() {
    let a = gen::grid2d_laplacian(64, 64);
    let g = Graph::from_sym_lower(&a);
    let perm = nd::nested_dissection(&g, nd::NdOptions::default());
    let an = analyze_with_perm(&a, &perm);
    let f = factor_supernodal(&an.pa, &an.part).expect("SPD");

    let mut failed = false;
    for nrhs in [1usize, 8] {
        let b = gen::random_rhs(f.n(), nrhs, 42);
        let expect = seq::forward_backward(&f, &b);
        let solver = ThreadedSolver::new(&f)
            .expect("valid partition")
            .with_threads(1);
        let mut ws = solver.workspace(nrhs);
        let got = solver.forward_backward_with(&b, &mut ws);
        assert_eq!(
            got.as_slice(),
            expect.as_slice(),
            "nrhs={nrhs}: t=1 executor is not bit-identical to seq"
        );

        let mut t_seq = f64::INFINITY;
        let mut t_thr = f64::INFINITY;
        for round in 0..ROUNDS {
            if round % 2 == 0 {
                t_seq = t_seq.min(measure(10, 0.25, || seq::forward_backward(&f, &b)).min);
                t_thr =
                    t_thr.min(measure(10, 0.25, || solver.forward_backward_with(&b, &mut ws)).min);
            } else {
                t_thr =
                    t_thr.min(measure(10, 0.25, || solver.forward_backward_with(&b, &mut ws)).min);
                t_seq = t_seq.min(measure(10, 0.25, || seq::forward_backward(&f, &b)).min);
            }
        }
        let ratio = t_seq / t_thr;
        let verdict = if ratio >= FLOOR { "ok" } else { "FAIL" };
        println!(
            "grid2d_64x64 nrhs={nrhs}: seq {:.3?}  subtree-map t=1 {:.3?}  ratio {ratio:.3} \
             (floor {FLOOR}) {verdict}",
            std::time::Duration::from_secs_f64(t_seq),
            std::time::Duration::from_secs_f64(t_thr),
        );
        failed |= ratio < FLOOR;
    }
    if failed {
        eprintln!("perf_smoke: single-thread executor overhead exceeds the 10% budget");
        std::process::exit(1);
    }
    println!("perf_smoke: pass");
}
