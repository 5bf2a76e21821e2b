//! # mcm-bsp — distributed-memory runtime simulator
//!
//! The paper runs on a Cray XC30 with MPI + OpenMP. Rust's MPI bindings are
//! thin and its RMA support weak (the calibration band for this
//! reproduction), so this crate substitutes the *machine*: a deterministic
//! bulk-synchronous simulator of a 2D `p_r × p_c` process grid.
//!
//! Three ideas (see DESIGN.md §2 and §7):
//!
//! 1. **Real data, modeled placement.** Every kernel computes real results,
//!    so correctness of the matching algorithms is fully testable. The
//!    simulator executes in one address space — a matrix is a single DCSC
//!    block and SpMSpV one fused traversal — while counting the per-rank
//!    volumes of the 2D blocks CombBLAS would use ([`DistMatrix`]). The
//!    engine ([`EngineComm`]) really splits the blocks over thread-per-rank
//!    ranks and is the reference the simulator's counts are tested against.
//! 2. **α–β–γ cost model.** Every communication step charges modeled time
//!    from the same latency/bandwidth formulas the paper's §IV-B analysis
//!    uses (ring allgather, personalized all-to-all, RMA triplets), and every
//!    local kernel charges `γ · flops / t` where `t` is the simulated
//!    threads-per-process. A superstep's modeled elapsed time is the *maximum
//!    over ranks*, as on a real bulk-synchronous machine.
//! 3. **Per-kernel timers.** Modeled time accrues into [`Kernel`] categories
//!    (SpMV, Invert, Prune, Augment, ...) so the runtime-breakdown figure
//!    (Fig. 5) can be regenerated.

// Index loops over parallel arrays are the clearest style in these kernels.
#![allow(clippy::needless_range_loop)]
pub mod collectives;
pub mod comm;
pub mod cost;
pub mod ctx;
pub mod distmat;
pub mod engine;
pub mod machine;
pub mod sched;
pub mod timers;

pub use collectives::{balanced_owner, per_rank_counts};
pub use comm::{AtomicWin, Communicator, EngineComm, ReduceOp, RmaTask, RmaWin};
pub use cost::CostModel;
pub use ctx::{DistCtx, SharedComm};
pub use distmat::{reads_structure, DistMatrix, LiveCols, SpmvPlan};
pub use machine::{MachineConfig, ProcGrid};
pub use sched::{FaultPlan, SchedConfig, Schedule, SimWindow};
pub use timers::{Kernel, Timers};
