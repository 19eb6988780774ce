//! Parallel sparse forward elimination and back substitution — the primary
//! contribution of Gupta & Kumar (SC 1995).
//!
//! Given the supernodal Cholesky factor `L` of a permuted SPD matrix, this
//! crate solves `L·Y = B` (forward elimination) and `Lᵀ·X = Y` (back
//! substitution):
//!
//! * [`seq`] — sequential supernodal solvers (the single-processor
//!   baseline of every speedup figure) and the end-to-end
//!   [`seq::SparseCholeskySolver`] driver;
//! * [`mapping`] — the **subtree-to-subcube** assignment of the supernodal
//!   elimination tree to processor groups;
//! * [`pipeline`] — the pipelined block-cyclic trapezoid kernels
//!   (column-priority and row-priority forward elimination, column-priority
//!   back substitution) plus closed-form schedule generators reproducing
//!   the paper's Figures 3 and 4;
//! * [`tree`] — the full simulated-parallel solvers over the elimination
//!   tree (sequential subtrees below `log p`, pipelined kernels above);
//! * [`redistribute`] — conversion of a supernode between 2-D and 1-D
//!   block-cyclic layouts (all-to-all personalized transposes), the
//!   factorization→solve handoff the paper's Section 4 analyzes;
//! * [`dense`] — Heath–Romine style parallel *dense* triangular solvers
//!   (1-D pipelined, and the unscalable 2-D variant) used as the
//!   scalability yardstick in the paper's Figure 5 table;
//! * [`refine`] — certified solves: iterative refinement with a
//!   componentwise backward-error certificate, plus the end-to-end
//!   equilibrate→regularize→factor→refine pipeline
//!   ([`refine::certified_solve`]) (extension);
//! * [`plan`] — precomputed solve schedules ([`plan::SolvePlan`]): the
//!   topological level ordering of the supernodal tree, static dependency
//!   counts, and child→parent scatter index maps shared by the
//!   shared-memory executor;
//! * [`threaded`] — a modern shared-memory **level-scheduled task-pool**
//!   solver built on [`plan::SolvePlan`], with reusable
//!   [`threaded::SolveWorkspace`] buffers and blocked multi-RHS kernels
//!   (extension; not part of the paper reproduction path).

pub mod dense;
pub mod driver;
pub mod estimate;
/// Re-export of the subtree-to-subcube mapping (shared with the
/// factorization phase, hence defined in `trisolv-factor`).
pub mod mapping {
    pub use trisolv_factor::mapping::*;
}
pub mod pipeline;
pub mod plan;
pub mod redistribute;
pub mod refine;
pub mod seq;
mod sweep;
pub mod threaded;
pub mod tree;

pub use driver::{ParallelSolver, ParallelSolverOptions};
pub use mapping::SubcubeMapping;
pub use plan::{PlanError, SolvePlan, SubtreeSchedule};
pub use refine::{
    certified_solve, certified_solve_mixed, CertifiedSolve, CertifyOptions, MixedSolve,
    RefineOptions, SolveReport,
};
pub use seq::{SparseCholeskySolver, SparseCholeskySolverF32};
pub use threaded::{default_threads, SolveWorkspace, ThreadedSolver};
