//! A discrete-event SMP/NUMA machine model.
//!
//! The paper's scaling results were measured on machines that no longer
//! exist (128-processor SGI Origin 2000, 64-processor SUN HPC 10000,
//! HP V2500, Convex Exemplar). This crate simulates them. The model is
//! deliberately the *paper's own* model, made executable:
//!
//! * parallel loops complete when the largest static chunk completes —
//!   the stair-step law (Section 4), priced by
//!   `perfmodel::critical_path` for both machine models ([`exec`] and
//!   [`mpp`]);
//! * every parallel region exit costs one synchronization event, with a
//!   cost that grows with the processor count and the memory system
//!   (Section 3, "2,000 to 1-million cycles");
//! * loops left serial contribute an Amdahl term (Section 4);
//! * memory traffic contends for per-processor NUMA bandwidth, and
//!   page-granular sharing between workers multiplies the cost — the
//!   Example 4(c) / Section 7 failure mode;
//! * a tuned code whose per-processor traffic stays below the off-node
//!   bandwidth "can treat the machine as though it had Uniform Memory
//!   Access" (Section 7).
//!
//! Workloads are [`workload::WorkloadTrace`]s: sequences of parallel and
//! serial phases with their work, parallelism, traffic, and sharing
//! characteristics. The `f3d` crate generates traces from its solver
//! schedule; [`exec::Machine::execute`] turns a trace and a processor
//! count into predicted wall time, from which the Table 4 metrics
//! (time steps/hour, delivered MFLOPS) follow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contention;
pub mod dsm;
pub mod exec;
pub mod machine;
pub mod mpp;
pub mod presets;
pub mod workload;

pub use contention::contention_multiplier;
pub use dsm::{dsm_effective_bandwidth, treadmarks_cluster};
pub use exec::{ExecReport, Machine, PhaseTime};
pub use machine::{MachineConfig, NumaConfig, SyncCostModel};
pub use mpp::MppConfig;
pub use workload::{ParallelLoop, Phase, SerialWork, WorkloadTrace};
