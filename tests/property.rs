//! Randomized property tests over the core invariants, spanning crates.
//!
//! Each test draws its own case parameters from the in-tree
//! deterministic PRNG ([`trisolv::matrix::rng::Rng`]) so the suite runs
//! fully offline and every failure reproduces from the printed case
//! index.

use trisolv::core::mapping::SubcubeMapping;
use trisolv::core::seq;
use trisolv::core::tree::{solve_fb, SolveConfig};
use trisolv::core::ThreadedSolver;
use trisolv::factor::seqchol;
use trisolv::graph::{nd, EliminationTree, Graph, Permutation};
use trisolv::machine::{BlockCyclic1d, MachineParams};
use trisolv::matrix::gen;
use trisolv::matrix::rng::Rng;
use trisolv::matrix::MatrixError;

/// The factor reconstructs the matrix: `L·Lᵀ·x = A·x` for random SPD
/// matrices and random probes.
#[test]
fn factorization_reconstructs_matrix() {
    let mut rng = Rng::seed_from_u64(0xA1);
    for case in 0..24 {
        let n = rng.range_usize(5, 60);
        let avg = rng.range_usize(1, 5);
        let seed = rng.next_u64() % 500;
        let a = gen::random_spd(n, avg, seed);
        let g = Graph::from_sym_lower(&a);
        let perm = nd::nested_dissection(&g, nd::NdOptions::default());
        let an = seqchol::analyze_with_perm(&a, &perm);
        let f = seqchol::factor_supernodal(&an.pa, &an.part).unwrap();
        let x = gen::random_rhs(n, 1, seed.wrapping_add(1));
        let ax = an.pa.spmv_sym_lower(&x).unwrap();
        let llx = f.llt_times(&x);
        let scale = ax.norm_max().max(1.0);
        assert!(
            ax.max_abs_diff(&llx).unwrap() / scale < 1e-9,
            "case {case}: n={n} avg={avg} seed={seed}"
        );
    }
}

/// The simulated parallel solver produces the sequential answer for
/// arbitrary processor counts, block sizes, and RHS widths.
#[test]
fn parallel_solve_matches_sequential() {
    let mut rng = Rng::seed_from_u64(0xA2);
    for case in 0..24 {
        let n = rng.range_usize(20, 80);
        let seed = rng.next_u64() % 200;
        let p = rng.range_usize(1, 9);
        let block = rng.range_usize(1, 5);
        let nrhs = rng.range_usize(1, 4);
        let a = gen::random_spd(n, 3, seed);
        let g = Graph::from_sym_lower(&a);
        let perm = nd::nested_dissection(&g, nd::NdOptions::default());
        let an = seqchol::analyze_with_perm(&a, &perm);
        let f = seqchol::factor_supernodal(&an.pa, &an.part).unwrap();
        let b = gen::random_rhs(n, nrhs, seed.wrapping_add(7));
        let expect = seq::forward_backward(&f, &b);
        let mapping = SubcubeMapping::new(&an.part, p);
        let config = SolveConfig {
            nprocs: p,
            block,
            params: MachineParams::t3d(),
        };
        let (x, _) = solve_fb(&f, &mapping, &b, &config);
        assert!(
            x.max_abs_diff(&expect).unwrap() < 1e-8,
            "case {case}: n={n} seed={seed} p={p} block={block} nrhs={nrhs}"
        );
    }
}

/// The shared-memory level-scheduled solver matches the sequential solver
/// on random SPD matrices at every RHS width 0..=8 (zero-width blocks are
/// a regression case: the executor must no-op, not divide by empty
/// strides).
#[test]
fn threaded_solve_matches_sequential_random_spd() {
    let mut rng = Rng::seed_from_u64(0xA3);
    for case in 0..20 {
        let n = rng.range_usize(10, 90);
        let seed = rng.next_u64() % 400;
        let nrhs = rng.range_usize(0, 9);
        let a = gen::random_spd(n, 3, seed);
        let g = Graph::from_sym_lower(&a);
        let perm = nd::nested_dissection(&g, nd::NdOptions::default());
        let an = seqchol::analyze_with_perm(&a, &perm);
        let f = seqchol::factor_supernodal(&an.pa, &an.part).unwrap();
        let solver = ThreadedSolver::new(&f).unwrap();
        let mut ws = solver.workspace(nrhs);
        let b = gen::random_rhs(n, nrhs, seed.wrapping_add(11));
        let y = solver.forward_with(&b, &mut ws);
        assert_eq!(
            y.as_slice(),
            seq::forward(&f, &b).as_slice(),
            "forward case {case}: n={n} seed={seed} nrhs={nrhs}"
        );
        let x = solver.backward_with(&y, &mut ws);
        assert_eq!(
            x.as_slice(),
            seq::backward(&f, &y).as_slice(),
            "backward case {case}: n={n} seed={seed} nrhs={nrhs}"
        );
    }
}

/// The threaded solver agrees with the sequential one on grid Laplacians
/// and forests of disconnected components, for both fundamental and
/// amalgamated supernode partitions.
#[test]
fn threaded_solve_matches_sequential_grids_and_forests() {
    let mut rng = Rng::seed_from_u64(0xA4);
    for case in 0..12 {
        let seed = rng.next_u64() % 100;
        let nrhs = rng.range_usize(1, 9);
        let a = match case % 3 {
            0 => gen::grid2d_laplacian(rng.range_usize(5, 14), rng.range_usize(5, 14)),
            1 => gen::grid3d_laplacian(
                rng.range_usize(3, 6),
                rng.range_usize(3, 6),
                rng.range_usize(3, 6),
            ),
            _ => {
                // forest: block-diagonal union of small chains
                let blocks = rng.range_usize(2, 6);
                let len = rng.range_usize(2, 7);
                let n = blocks * len;
                let mut t = trisolv::matrix::TripletMatrix::new(n, n);
                for i in 0..n {
                    t.push(i, i, 4.0).unwrap();
                }
                for b in 0..blocks {
                    for i in 0..len - 1 {
                        let r = b * len + i;
                        t.push(r + 1, r, -1.0).unwrap();
                    }
                }
                t.to_csc()
            }
        };
        let g = Graph::from_sym_lower(&a);
        let perm = nd::nested_dissection(&g, nd::NdOptions::default());
        let an = seqchol::analyze_with_perm(&a, &perm);
        // fundamental and amalgamated partitions over the same problem
        let relax = rng.range_usize(0, 16);
        let parts = [an.part.clone(), an.part.amalgamate(relax, 0.2)];
        for (which, part) in parts.iter().enumerate() {
            let f = seqchol::factor_supernodal(&an.pa, part).unwrap();
            let b = gen::random_rhs(a.ncols(), nrhs, seed.wrapping_add(13));
            let expect = seq::forward_backward(&f, &b);
            let solver = ThreadedSolver::new(&f).unwrap();
            let mut ws = solver.workspace(nrhs);
            let got = solver.forward_backward_with(&b, &mut ws);
            assert_eq!(
                got.as_slice(),
                expect.as_slice(),
                "case {case} part {which}: seed={seed} nrhs={nrhs} relax={relax}"
            );
        }
    }
}

/// The subtree-mapped executor reproduces the sequential relay order
/// bit-for-bit, not just to tolerance: forward, backward, and combined
/// solves are `assert_eq!`-identical to `seq::forward`/`seq::backward`
/// at every executor width 1..=8 and nrhs ∈ {1, 4, 30}, across
/// amalgamation settings, a forest-of-roots factor, and a fully dense
/// matrix that analyzes into a single supernode.
#[test]
fn subtree_mapped_bit_identical_to_sequential() {
    let mut rng = Rng::seed_from_u64(0xC1);

    // Bushy ND elimination tree, at several amalgamation settings.
    let grid = gen::grid2d_laplacian(12, 12);
    let g = Graph::from_sym_lower(&grid);
    let perm = nd::nested_dissection(&g, nd::NdOptions::default());
    let an = seqchol::analyze_with_perm(&grid, &perm);
    let mut factors = Vec::new();
    for part in [
        an.part.clone(),
        an.part.amalgamate(4, 0.0),
        an.part.amalgamate(16, 0.25),
    ] {
        factors.push((
            "grid2d_12",
            seqchol::factor_supernodal(&an.pa, &part).unwrap(),
        ));
    }

    // Forest of disconnected chains: the elimination forest has many
    // roots, so the subtree cut degenerates to whole-tree tasks.
    {
        let (blocks, len) = (6usize, 5usize);
        let n = blocks * len;
        let mut t = trisolv::matrix::TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0).unwrap();
        }
        for b in 0..blocks {
            for i in 0..len - 1 {
                let r = b * len + i;
                t.push(r + 1, r, -1.0).unwrap();
            }
        }
        let a = t.to_csc();
        let g = Graph::from_sym_lower(&a);
        let perm = nd::nested_dissection(&g, nd::NdOptions::default());
        let an = seqchol::analyze_with_perm(&a, &perm);
        factors.push((
            "forest_6x5",
            seqchol::factor_supernodal(&an.pa, &an.part).unwrap(),
        ));
    }

    // Fully dense SPD matrix: every column has identical structure below
    // the diagonal, so the whole factor is one supernode and the
    // executor has no parallel structure to exploit at all.
    {
        let n = 18usize;
        let vals = gen::random_rhs(n * n, 1, rng.next_u64() % 100);
        let mut t = trisolv::matrix::TripletMatrix::new(n, n);
        for j in 0..n {
            for i in j..n {
                let v = if i == j {
                    n as f64 + 2.0
                } else {
                    0.4 * vals.as_slice()[i + j * n]
                };
                t.push(i, j, v).unwrap();
            }
        }
        let a = t.to_csc();
        let g = Graph::from_sym_lower(&a);
        let perm = nd::nested_dissection(&g, nd::NdOptions::default());
        let an = seqchol::analyze_with_perm(&a, &perm);
        let f = seqchol::factor_supernodal(&an.pa, &an.part).unwrap();
        assert_eq!(f.nsup(), 1, "dense matrix must be a single supernode");
        factors.push(("dense_18", f));
    }

    for (name, f) in &factors {
        for nrhs in [1usize, 4, 30] {
            let b = gen::random_rhs(f.n(), nrhs, rng.next_u64() % 1000);
            let expect_y = seq::forward(f, &b);
            let expect_x = seq::backward(f, &expect_y);
            for t in 1..=8usize {
                let solver = ThreadedSolver::new(f).unwrap().with_threads(t);
                let mut ws = solver.workspace(nrhs);
                let y = solver.forward_with(&b, &mut ws);
                assert_eq!(
                    y.as_slice(),
                    expect_y.as_slice(),
                    "{name}: forward diverges at t={t} nrhs={nrhs}"
                );
                let x = solver.backward_with(&y, &mut ws);
                assert_eq!(
                    x.as_slice(),
                    expect_x.as_slice(),
                    "{name}: backward diverges at t={t} nrhs={nrhs}"
                );
                let fb = solver.forward_backward_with(&b, &mut ws);
                assert_eq!(
                    fb.as_slice(),
                    expect_x.as_slice(),
                    "{name}: forward_backward diverges at t={t} nrhs={nrhs}"
                );
            }
        }
    }
}

/// Elimination-tree invariant: parents always have larger labels after
/// postordering, and subtree sizes telescope.
#[test]
fn etree_postorder_invariants() {
    let mut rng = Rng::seed_from_u64(0xA5);
    for case in 0..24 {
        let n = rng.range_usize(3, 50);
        let avg = rng.range_usize(1, 5);
        let seed = rng.next_u64() % 300;
        let a = gen::random_spd(n, avg, seed);
        let t = EliminationTree::from_sym_lower(&a);
        let post = t.postorder();
        let pt = t.permute(&post);
        assert!(pt.is_postordered(), "case {case}: n={n} seed={seed}");
        let sizes = pt.subtree_sizes();
        let root_total: usize = pt.roots().iter().map(|&r| sizes[r]).sum();
        assert_eq!(root_total, n, "case {case}: n={n} seed={seed}");
    }
}

/// Block-cyclic maps are bijections between global indices and
/// (owner, local index) pairs.
#[test]
fn block_cyclic_local_index_bijective() {
    let mut rng = Rng::seed_from_u64(0xA6);
    for case in 0..24 {
        let n = rng.range_usize(1, 200);
        let b = rng.range_usize(1, 10);
        let p = rng.range_usize(1, 9);
        let l = BlockCyclic1d::new(n, b, p);
        let mut seen = vec![std::collections::HashSet::new(); p];
        for i in 0..n {
            let q = l.owner(i);
            assert!(q < p, "case {case}");
            assert!(
                seen[q].insert(l.local_index(i)),
                "case {case}: duplicate local index for global {i}"
            );
        }
        for (q, s) in seen.iter().enumerate() {
            assert_eq!(s.len(), l.local_count(q), "case {case}: rank {q}");
        }
    }
}

/// Permutations compose associatively and invert correctly.
#[test]
fn permutation_algebra() {
    let mut rng = Rng::seed_from_u64(0xA7);
    for case in 0..24 {
        let seed = rng.next_u64() % 1000;
        let n = rng.range_usize(1, 40);
        // derive two permutations from orderings of a random graph
        let a = gen::random_spd(n, 2, seed);
        let g = Graph::from_sym_lower(&a);
        let p1 = nd::nested_dissection(&g, nd::NdOptions::default());
        let p2 = trisolv::graph::rcm::reverse_cuthill_mckee(&g);
        let c = p1.then(&p2);
        for i in 0..n {
            assert_eq!(c.apply(i), p2.apply(p1.apply(i)), "case {case}");
        }
        let inv = c.inverse();
        for i in 0..n {
            assert_eq!(inv.apply(c.apply(i)), i, "case {case}");
        }
        assert_eq!(c.then(&inv), Permutation::identity(n), "case {case}");
    }
}

/// The supernode partition tiles the columns and its per-column
/// structure nests into parents.
#[test]
fn supernode_partition_tiles_columns() {
    let mut rng = Rng::seed_from_u64(0xA8);
    for case in 0..24 {
        let n = rng.range_usize(5, 60);
        let seed = rng.next_u64() % 200;
        let a = gen::random_spd(n, 3, seed);
        let g = Graph::from_sym_lower(&a);
        let perm = nd::nested_dissection(&g, nd::NdOptions::default());
        let an = seqchol::analyze_with_perm(&a, &perm);
        let part = &an.part;
        let mut count = 0;
        for s in 0..part.nsup() {
            count += part.width(s);
            // below rows must be contained in the parent's row set
            if let Some(p) = part.parent(s) {
                for &r in part.below_rows(s) {
                    assert!(
                        part.rows(p).contains(&r),
                        "case {case}: below row {r} of snode {s} missing from parent {p}"
                    );
                }
            }
        }
        assert_eq!(count, n, "case {case}: n={n} seed={seed}");
    }
}

/// Subtree-to-subcube: groups nest upward and sequential supernodes
/// partition the non-parallel set, for arbitrary trees and p.
#[test]
fn mapping_invariants() {
    let mut rng = Rng::seed_from_u64(0xA9);
    for case in 0..24 {
        let n = rng.range_usize(10, 60);
        let seed = rng.next_u64() % 100;
        let p = rng.range_usize(1, 17);
        let a = gen::random_spd(n, 3, seed);
        let g = Graph::from_sym_lower(&a);
        let perm = nd::nested_dissection(&g, nd::NdOptions::default());
        let an = seqchol::analyze_with_perm(&a, &perm);
        let m = SubcubeMapping::new(&an.part, p);
        let mut seq_owned = vec![0usize; an.part.nsup()];
        for q in 0..p {
            for &s in m.seq_snodes(q) {
                seq_owned[s] += 1;
            }
        }
        for s in 0..an.part.nsup() {
            if m.is_parallel(s) {
                assert_eq!(seq_owned[s], 0, "case {case}: snode {s}");
            } else {
                assert_eq!(seq_owned[s], 1, "case {case}: snode {s}");
            }
            if let Some(par) = an.part.parent(s) {
                for &r in m.group(s).ranks() {
                    assert!(m.group(par).contains(r), "case {case}: snode {s}");
                }
            }
        }
    }
}

/// The Bruck all-to-all delivers exactly what the direct schedule
/// delivers, for arbitrary group sizes and ragged chunk lengths.
#[test]
fn bruck_a2a_equals_direct() {
    use trisolv::machine::{coll, Group, Machine};
    let mut rng = Rng::seed_from_u64(0xB1);
    for case in 0..16 {
        let q = rng.range_usize(1, 10);
        let seed = rng.next_u64() % 100;
        let machine = Machine::new(q, MachineParams::t3d());
        let r = machine.run(|p| {
            let g = Group::world(q);
            let me = g.group_rank(p.rank()).unwrap();
            let chunk = |d: usize| -> Vec<f64> {
                let len = ((me * 7 + d * 3 + seed as usize) % 5) + 1;
                vec![(me * 100 + d) as f64; len]
            };
            let out: Vec<Vec<f64>> = (0..q).map(chunk).collect();
            let a = coll::all_to_all_direct(p, &g, 1, out.clone());
            let b = coll::all_to_all_bruck(p, &g, 2, out);
            (a, b)
        });
        for (a, b) in r.results {
            assert_eq!(a, b, "case {case}: q={q} seed={seed}");
        }
    }
}

/// scatter ∘ allgather round-trips arbitrary chunk sets.
#[test]
fn scatter_allgather_roundtrip() {
    use trisolv::machine::{coll, Group, Machine};
    let mut rng = Rng::seed_from_u64(0xB2);
    for case in 0..16 {
        let q = rng.range_usize(1, 10);
        let root = rng.range_usize(0, 10) % q;
        let seed = rng.next_u64() % 50;
        let machine = Machine::new(q, MachineParams::t3d());
        let r = machine.run(|p| {
            let g = Group::world(q);
            let me = g.group_rank(p.rank()).unwrap();
            let chunks: Vec<Vec<f64>> = (0..q)
                .map(|d| vec![(d as u64 * 31 + seed) as f64; (d % 3) + 1])
                .collect();
            let mine = coll::scatter(p, &g, 1, root, if me == root { chunks } else { Vec::new() });
            coll::allgather(p, &g, 2, mine, 2)
        });
        let expect: Vec<Vec<f64>> = (0..q)
            .map(|d| vec![(d as u64 * 31 + seed) as f64; (d % 3) + 1])
            .collect();
        for got in r.results {
            assert_eq!(&got, &expect, "case {case}: q={q} root={root} seed={seed}");
        }
    }
}

/// Harwell-Boeing round trip preserves arbitrary generated matrices.
#[test]
fn hb_round_trip() {
    use trisolv::matrix::hb;
    let mut rng = Rng::seed_from_u64(0xB3);
    for case in 0..16 {
        let n = rng.range_usize(2, 40);
        let avg = rng.range_usize(1, 4);
        let seed = rng.next_u64() % 200;
        let a = gen::random_spd(n, avg, seed);
        let mut buf = Vec::new();
        hb::write_harwell_boeing(&mut buf, &a, "prop", "PROP", true).unwrap();
        let (b, _) = hb::read_harwell_boeing(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(a.shape(), b.shape(), "case {case}");
        assert!(
            a.to_dense().max_abs_diff(&b.to_dense()).unwrap() < 1e-12,
            "case {case}: n={n} seed={seed}"
        );
    }
}

/// Irregular meshes solve end-to-end through the full parallel driver.
#[test]
fn irregular_mesh_solves() {
    use trisolv::core::{ParallelSolver, ParallelSolverOptions};
    let mut rng = Rng::seed_from_u64(0xB4);
    for case in 0..8 {
        let k = rng.range_usize(5, 12);
        let seed = rng.next_u64() % 50;
        let p = rng.range_usize(1, 9);
        let (a, coords) = gen::mesh2d_irregular(k, seed);
        let solver =
            ParallelSolver::build(&a, Some(&coords), &ParallelSolverOptions::t3d(p)).unwrap();
        let x_true = gen::random_rhs(a.ncols(), 1, seed);
        let b = a.spmv_sym_lower(&x_true).unwrap();
        let (x, _) = solver.solve(&b);
        assert!(
            x.max_abs_diff(&x_true).unwrap() < 1e-7,
            "case {case}: k={k} seed={seed} p={p}"
        );
    }
}

/// Factor save/load round-trips bitwise for random problems.
#[test]
fn factor_io_round_trip() {
    use trisolv::factor::fio;
    let mut rng = Rng::seed_from_u64(0xB5);
    for case in 0..16 {
        let n = rng.range_usize(5, 50);
        let seed = rng.next_u64() % 100;
        let a = gen::random_spd(n, 3, seed);
        let g = Graph::from_sym_lower(&a);
        let perm = nd::nested_dissection(&g, nd::NdOptions::default());
        let an = seqchol::analyze_with_perm(&a, &perm);
        let f = seqchol::factor_supernodal(&an.pa, &an.part).unwrap();
        let mut buf = Vec::new();
        fio::save_factor(&mut buf, &f).unwrap();
        let g2 = fio::load_factor(&mut &buf[..]).unwrap();
        for s in 0..f.nsup() {
            assert_eq!(g2.block(s), f.block(s), "case {case}: snode {s}");
        }
    }
}

/// The pipelined forward kernel equals the dense reference on random
/// trapezoid shapes, group sizes, and block sizes.
#[test]
fn pipelined_forward_matches_dense_reference() {
    use trisolv::core::pipeline::{forward_column_priority, LocalTrapezoid};
    use trisolv::factor::blas;
    use trisolv::machine::{Group, Machine};
    use trisolv::matrix::DenseMatrix;

    let mut rng = Rng::seed_from_u64(0xB6);
    for case in 0..20 {
        let t = rng.range_usize(1, 24);
        let extra = rng.range_usize(0, 16);
        let q = rng.range_usize(1, 7);
        let block = rng.range_usize(1, 6);
        let nrhs = rng.range_usize(1, 3);
        let seed = rng.next_u64() % 100;

        let n = t + extra;
        // random diagonally-dominant trapezoid
        let vals = gen::random_rhs(n * t, 1, seed);
        let mut trap = DenseMatrix::zeros(n, t);
        for j in 0..t {
            for i in j..n {
                trap[(i, j)] = if i == j {
                    3.0
                } else {
                    0.3 * vals.as_slice()[i + j * n]
                };
            }
        }
        let rhs_global = gen::random_rhs(n, nrhs, seed.wrapping_add(1));
        // dense reference: x_top then the rectangle update
        let mut reference = rhs_global.clone();
        blas::trsm_lower_left(trap.as_slice(), n, reference.as_mut_slice(), n, t, nrhs);
        for c in 0..nrhs {
            for j in 0..t {
                let xv = reference[(j, c)];
                for i in t..n {
                    let upd = trap[(i, j)] * xv;
                    reference[(i, c)] -= upd;
                }
            }
            // kernel's below rows start at zero
            for i in t..n {
                reference[(i, c)] -= rhs_global[(i, c)];
            }
        }
        let layout = BlockCyclic1d::new(n, block, q);
        let machine = Machine::new(q, MachineParams::t3d());
        let run = machine.run(|p| {
            let g = Group::world(q);
            let local = LocalTrapezoid::from_global(&trap, &layout, p.rank());
            let mut r = DenseMatrix::zeros(local.positions.len(), nrhs);
            for c in 0..nrhs {
                for (li, &gi) in local.positions.iter().enumerate() {
                    r[(li, c)] = if gi < t { rhs_global[(gi, c)] } else { 0.0 };
                }
            }
            forward_column_priority(p, &g, 1, &layout, t, nrhs, &local, &mut r);
            (local.positions, r)
        });
        for (positions, r) in run.results {
            for c in 0..nrhs {
                for (li, &gi) in positions.iter().enumerate() {
                    assert!(
                        (r[(li, c)] - reference[(gi, c)]).abs() < 1e-9,
                        "case {case} pos {gi} rhs {c}: {} vs {}",
                        r[(li, c)],
                        reference[(gi, c)]
                    );
                }
            }
        }
    }
}

/// Refinement monotonically improves the componentwise backward error:
/// the reported ω history is non-increasing, ends at the reported final
/// ω, and a certified report really meets the target.
#[test]
fn refinement_monotonically_improves_backward_error() {
    use trisolv::core::{certified_solve, CertifyOptions};
    let mut rng = Rng::seed_from_u64(0xD1);
    for case in 0..20 {
        let seed = rng.next_u64() % 300;
        let scale = rng.range_usize(0, 2) == 1;
        let a = match case % 3 {
            0 => gen::random_spd(rng.range_usize(10, 70), 3, seed),
            1 => gen::graded_diagonal(rng.range_usize(8, 40), rng.range_usize(2, 11) as u32),
            _ => gen::grid2d_laplacian(rng.range_usize(4, 12), rng.range_usize(4, 12)),
        };
        let b = gen::random_rhs(a.ncols(), rng.range_usize(1, 4), seed.wrapping_add(5));
        let opts = CertifyOptions {
            scale,
            regularize: true,
            condition: true,
            ..CertifyOptions::default()
        };
        let cert = certified_solve(&a, &b, &opts).unwrap();
        let r = &cert.report;
        assert!(!r.omega_history.is_empty(), "case {case}");
        for w in r.omega_history.windows(2) {
            assert!(
                w[1] <= w[0],
                "case {case}: omega history not monotone: {:?}",
                r.omega_history
            );
        }
        assert_eq!(
            *r.omega_history.last().unwrap(),
            r.backward_error,
            "case {case}"
        );
        assert_eq!(r.iterations + 1, r.omega_history.len(), "case {case}");
        assert_eq!(r.certified, r.backward_error <= 1e-10, "case {case}");
        // these matrices are comfortably SPD: the certificate must land
        assert!(
            r.certified,
            "case {case}: omega {:.3e} after {} sweeps",
            r.backward_error, r.iterations
        );
        assert_eq!(r.scaling_ratio.is_some(), scale, "case {case}");
        let cond = r.condition_estimate.unwrap();
        assert!(cond >= 1.0 && cond.is_finite(), "case {case}: cond {cond}");
    }
}

/// Near-singular inputs — graded diagonals down to 1e-14 and
/// rank-deficient-ε Neumann grids — either certify to ω ≤ 1e-10 or
/// return a structured NotCertified report. Never a panic, never a
/// non-finite "solution" labeled certified.
#[test]
fn near_singular_certifies_or_reports_structured() {
    use trisolv::core::{certified_solve, CertifyOptions};
    let mut rng = Rng::seed_from_u64(0xD2);
    for case in 0..24 {
        let a = if case % 2 == 0 {
            gen::graded_diagonal(rng.range_usize(5, 50), rng.range_usize(6, 15) as u32)
        } else {
            let eps = [0.0, 1e-18, 1e-14, 1e-10, 1e-8][rng.range_usize(0, 5)];
            gen::rank_deficient_grid(rng.range_usize(3, 9), rng.range_usize(3, 9), eps)
        };
        let b = gen::random_rhs(a.ncols(), 1, rng.next_u64() % 100);
        let opts = CertifyOptions {
            scale: rng.range_usize(0, 2) == 1,
            regularize: true,
            condition: case % 4 == 0,
            ..CertifyOptions::default()
        };
        let outcome = std::panic::catch_unwind(|| certified_solve(&a, &b, &opts))
            .unwrap_or_else(|_| panic!("case {case}: certified_solve panicked"));
        // regularized pipeline must not error on these inputs: breakdown
        // pivots are boosted and the report carries the consequences
        let cert = outcome.unwrap_or_else(|e| panic!("case {case}: structured error {e}"));
        let r = &cert.report;
        if r.certified {
            assert!(
                r.backward_error <= 1e-10,
                "case {case}: certified but omega {:.3e}",
                r.backward_error
            );
            assert!(
                cert.x.as_slice().iter().all(|v| v.is_finite()),
                "case {case}: certified solution has non-finite entries"
            );
        } else {
            // structured NotCertified: best iterate, honest omega
            assert!(r.backward_error > 1e-10, "case {case}");
        }
        assert_eq!(*r.omega_history.last().unwrap(), r.backward_error);
    }
}

/// Without regularization the same near-singular family either factors
/// cleanly or fails with the structured `NotPositiveDefinite` — the
/// breakdown column is always in range.
#[test]
fn breakdown_without_regularization_is_structured() {
    use trisolv::core::{certified_solve, CertifyOptions};
    let mut rng = Rng::seed_from_u64(0xD3);
    for case in 0..16 {
        let kx = rng.range_usize(3, 8);
        let ky = rng.range_usize(3, 8);
        let a = gen::rank_deficient_grid(kx, ky, 0.0); // exactly singular
        let b = gen::random_rhs(a.ncols(), 1, rng.next_u64() % 50);
        let opts = CertifyOptions::default(); // regularize: false
        match certified_solve(&a, &b, &opts) {
            Ok(cert) => assert!(
                !cert.report.certified || cert.report.backward_error <= 1e-10,
                "case {case}"
            ),
            Err(MatrixError::NotPositiveDefinite { column, .. }) => {
                assert!(column < a.ncols(), "case {case}: column {column}")
            }
            Err(other) => panic!("case {case}: unexpected error {other}"),
        }
    }
}

/// Symmetric equilibration changes the factorization but not the
/// certified answer: scaled and unscaled pipelines agree on well-posed
/// problems, and the reported scaling ratio is a sane `dmax/dmin ≥ 1`.
#[test]
fn equilibrated_solve_matches_unscaled() {
    use trisolv::core::{certified_solve, CertifyOptions};
    let mut rng = Rng::seed_from_u64(0xD4);
    for case in 0..16 {
        let a = gen::graded_diagonal(rng.range_usize(8, 40), rng.range_usize(1, 7) as u32);
        let b = gen::random_rhs(a.ncols(), rng.range_usize(1, 3), rng.next_u64() % 100);
        let plain = certified_solve(&a, &b, &CertifyOptions::default()).unwrap();
        let scaled = certified_solve(
            &a,
            &b,
            &CertifyOptions {
                scale: true,
                ..CertifyOptions::default()
            },
        )
        .unwrap();
        assert!(
            plain.report.certified && scaled.report.certified,
            "case {case}"
        );
        let ratio = scaled.report.scaling_ratio.unwrap();
        assert!(ratio >= 1.0 && ratio.is_finite(), "case {case}: {ratio}");
        let denom = plain.x.norm_max().max(1.0);
        assert!(
            plain.x.max_abs_diff(&scaled.x).unwrap() / denom < 1e-8,
            "case {case}: scaled and unscaled certified answers diverge"
        );
    }
}

/// The mixed-precision certified pipeline, across every generator family
/// `from_spec` knows (grids, FEM, irregular meshes, random SPD, graded
/// diagonals, rank-deficient-ε Neumann grids): each case either certifies
/// ω ≤ 1e-10 in the `f32` lane or transparently falls back to `f64` —
/// an uncertified answer is only ever allowed when full `f64` precision
/// cannot certify either, and nothing panics or reports a lying
/// certificate.
#[test]
fn mixed_precision_certifies_or_falls_back_never_surrenders_early() {
    use trisolv::core::{certified_solve, certified_solve_mixed, CertifyOptions};
    let specs = [
        "grid2d:9x7",
        "grid2d9:8",
        "grid3d:4x5x3",
        "grid3d27:4",
        "fem2d:5x4:2",
        "fem3d:3:2",
        "mesh2d:7:9",
        "mesh3d:4:5",
        "random:48:3:17",
        "graded:24:9",
        "graded:30:13",
        "rankdef:6x5:1e-8",
        "rankdef:12x12:1e-12",
        "rankdef:7x6:0",
    ];
    let mut rng = Rng::seed_from_u64(0xE1);
    let mut fallbacks = 0u32;
    for (case, spec) in specs.iter().enumerate() {
        let a = gen::from_spec(spec).unwrap();
        let b = gen::random_rhs(a.ncols(), rng.range_usize(1, 4), rng.next_u64() % 100);
        let opts = CertifyOptions {
            regularize: true,
            ..CertifyOptions::default()
        };
        let mixed = std::panic::catch_unwind(|| certified_solve_mixed(&a, &b, &opts))
            .unwrap_or_else(|_| panic!("case {case} ({spec}): panicked"))
            .unwrap_or_else(|e| panic!("case {case} ({spec}): structured error {e}"));
        let r = &mixed.report;
        if r.certified {
            assert!(
                r.backward_error <= 1e-10,
                "case {case} ({spec}): certified but omega {:.3e}",
                r.backward_error
            );
            assert!(
                mixed.x.as_slice().iter().all(|v| v.is_finite()),
                "case {case} ({spec}): certified solution has non-finite entries"
            );
        } else {
            // the narrow lane must never surrender before trying f64
            assert!(
                mixed.fell_back,
                "case {case} ({spec}): uncertified without a fallback attempt"
            );
            let wide = certified_solve(&a, &b, &opts).unwrap();
            assert!(
                !wide.report.certified,
                "case {case} ({spec}): f64 certifies but the mixed pipeline gave up"
            );
        }
        if mixed.fell_back {
            fallbacks += 1;
        }
    }
    assert!(
        fallbacks >= 1,
        "the near-singular cases must engage the f64 fallback"
    );
}

/// Symmetric equilibration composes with demotion: `scale: true` through
/// the mixed pipeline still certifies on graded diagonals, stays in the
/// `f32` lane, reports a sane scaling ratio, and agrees with the unscaled
/// mixed answer wherever both certify.
#[test]
fn equilibration_composes_with_demotion() {
    use trisolv::core::{certified_solve_mixed, CertifyOptions};
    let mut rng = Rng::seed_from_u64(0xE2);
    for case in 0..12 {
        let a = gen::graded_diagonal(rng.range_usize(8, 40), rng.range_usize(4, 11) as u32);
        let b = gen::random_rhs(a.ncols(), rng.range_usize(1, 3), rng.next_u64() % 100);
        let scaled = certified_solve_mixed(
            &a,
            &b,
            &CertifyOptions {
                scale: true,
                ..CertifyOptions::default()
            },
        )
        .unwrap();
        assert!(scaled.report.certified, "case {case}");
        assert!(
            !scaled.fell_back,
            "case {case}: equilibration + componentwise refinement keep the f32 lane"
        );
        let ratio = scaled.report.scaling_ratio.unwrap();
        assert!(ratio >= 1.0 && ratio.is_finite(), "case {case}: {ratio}");
        let plain = certified_solve_mixed(&a, &b, &CertifyOptions::default()).unwrap();
        if plain.report.certified {
            let denom = plain.x.norm_max().max(1.0);
            assert!(
                plain.x.max_abs_diff(&scaled.x).unwrap() / denom < 1e-8,
                "case {case}: scaled and unscaled mixed answers diverge"
            );
        }
    }
}

/// Amalgamation at random relaxation levels preserves factorization
/// correctness.
#[test]
fn amalgamated_factor_still_correct() {
    let mut rng = Rng::seed_from_u64(0xB7);
    for case in 0..20 {
        let n = rng.range_usize(20, 70);
        let seed = rng.next_u64() % 100;
        let relax_abs = rng.range_usize(0, 40);
        let relax_pct = rng.range_usize(0, 40);
        let a = gen::random_spd(n, 3, seed);
        let g = Graph::from_sym_lower(&a);
        let perm = nd::nested_dissection(&g, nd::NdOptions::default());
        let an = seqchol::analyze_with_perm(&a, &perm);
        let part = an.part.amalgamate(relax_abs, relax_pct as f64 / 100.0);
        let f = seqchol::factor_supernodal(&an.pa, &part).unwrap();
        let x = gen::random_rhs(n, 1, seed.wrapping_add(3));
        let ax = an.pa.spmv_sym_lower(&x).unwrap();
        let llx = f.llt_times(&x);
        let scale = ax.norm_max().max(1.0);
        assert!(
            ax.max_abs_diff(&llx).unwrap() / scale < 1e-9,
            "case {case}: n={n} seed={seed} relax=({relax_abs},{relax_pct}%)"
        );
    }
}
