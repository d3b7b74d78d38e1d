//! The per-kernel cost model: how many cycles one grid point costs on a
//! given machine, for each implementation.
//!
//! This is the quantitative content of the paper's serial-tuning story.
//! The tuned code differs from the vector code in three measurable
//! ways, each listed in Sections 4 and 6:
//!
//! 1. **Issue efficiency.** The vector code's "register spilling,
//!    pipeline stalls, and low instruction issue rates from excessive
//!    numbers of loads and stores" (Section 6) — scratch-array round
//!    trips instead of register reuse. The tuned code was hand-optimized
//!    with assembly dumps until those went away.
//! 2. **Unique memory traffic.** The vector code streams plane-sized
//!    scratch through the cache every sweep; the tuned code's pencil
//!    scratch is cache-resident, so only the solution, RHS and metrics
//!    move (Section 7's 68 MB/s).
//! 3. **TLB behaviour.** Plane-batched STRIDE-N gathers touch a new
//!    page nearly every access on large zones; pencil processing does
//!    not.
//!
//! The constants below are calibrated so the model reproduces the
//! paper's three measured serial anchors (see `EXPERIMENTS.md`):
//! ~10× serial tuning speedup on the Power Challenge, ~181 time
//! steps/hour serial on the 300-MHz Origin for the 1M-point case, and
//! the Convex Exemplar anecdote (vector version ≫ a day for 10 steps of
//! a 3M case; tuned version ~70 minutes).
//!
//! The price itself is the machine's one serial price,
//! [`cachesim::CycleModel::cycles`]; this module supplies the per-point
//! rates:
//!
//! ```text
//! cycles/point = flops·instr_per_flop / (issue_width·issue_efficiency)
//!              + (unique_bytes / line) · conflict · l2_miss_penalty
//!              + tlb_misses · tlb_penalty
//! ```

use crate::solver::flops;
use cachesim::presets::MachineMemory;

/// Which implementation's kernel is being priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImplKind {
    /// The legacy vector-style code.
    Vector,
    /// The RISC-tuned shared-memory code.
    Risc,
}

/// The solver kernels that appear in a time step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Explicit residual evaluation.
    Rhs,
    /// Implicit upwind (J) factor.
    JFactor,
    /// Implicit central K factor.
    KFactor,
    /// Implicit central L factor (solve phase).
    LFactor,
    /// L-factor scatter + solution update.
    Update,
    /// Boundary conditions (per face point).
    Bc,
    /// Zonal injection (per interface point).
    Inject,
}

impl Kernel {
    /// The volume kernels of one time step — the parallel loops of the
    /// paper's schedule — in execution order.
    pub const VOLUME: [Kernel; 5] = [
        Kernel::Rhs,
        Kernel::JFactor,
        Kernel::KFactor,
        Kernel::LFactor,
        Kernel::Update,
    ];

    /// All kernels of one time step, in execution order.
    pub const STEP_ORDER: [Kernel; 7] = [
        Kernel::Rhs,
        Kernel::JFactor,
        Kernel::KFactor,
        Kernel::LFactor,
        Kernel::Update,
        Kernel::Bc,
        Kernel::Inject,
    ];
}

/// The cost of one kernel per grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Floating-point operations per point.
    pub flops_per_point: u64,
    /// Instructions issued per flop (loads/stores/address arithmetic).
    pub instr_per_flop: f64,
    /// Fraction of the machine's issue width actually sustained.
    pub issue_efficiency: f64,
    /// Bytes of unique main-memory traffic per point.
    pub unique_bytes_per_point: f64,
    /// TLB misses per point.
    pub tlb_misses_per_point: f64,
}

impl KernelCost {
    /// Modelled cycles per point on `mem`: the machine's
    /// [`cachesim::CycleModel::cycles`] over this kernel's per-point
    /// instructions, issue efficiency and misses — its unique bytes in
    /// last-level lines are misses to memory, and its TLB misses.
    #[must_use]
    pub fn cycles_per_point(&self, mem: &MachineMemory) -> f64 {
        let instr = self.flops_per_point as f64 * self.instr_per_flop;
        let line = mem.l2.map_or(mem.l1.line_bytes, |c| c.line_bytes) as f64;
        // Direct-mapped last-level caches suffer conflict misses the
        // set-associative ones avoid.
        let assoc = mem.l2.map_or(mem.l1.associativity, |c| c.associativity);
        let conflict = if assoc == 1 { 1.4 } else { 1.0 };
        let misses = self.unique_bytes_per_point / line * conflict;
        let tlb = self.tlb_misses_per_point;
        mem.cost
            .cycles(instr, self.issue_efficiency, 0.0, misses, tlb)
    }
}

/// Issue efficiency of the tuned code (hand-optimized register reuse).
const RISC_ISSUE_EFF: f64 = 0.55;
/// Issue efficiency of the vector code on a RISC pipeline (spills,
/// stalls, scratch round trips — the paper's Section 6 list).
const VECTOR_ISSUE_EFF: f64 = 0.09;
/// Instructions per flop, tuned code.
const RISC_INSTR_PER_FLOP: f64 = 2.2;
/// Instructions per flop, vector code (excess loads/stores).
const VECTOR_INSTR_PER_FLOP: f64 = 3.6;

/// The cost table.
#[must_use]
pub fn kernel_cost(kernel: Kernel, impl_kind: ImplKind) -> KernelCost {
    // (flops, risc unique bytes, vector unique bytes, risc tlb, vector tlb)
    let (flops_per_point, risc_bytes, vector_bytes, risc_tlb, vector_tlb) = match kernel {
        Kernel::Rhs => (
            flops::RHS_UPWIND + 2 * flops::RHS_CENTRAL,
            150.0,
            900.0,
            0.05,
            1.5,
        ),
        Kernel::JFactor => (flops::IMPLICIT_UPWIND, 105.0, 1700.0, 0.05, 3.0),
        Kernel::KFactor => (flops::IMPLICIT_CENTRAL, 105.0, 1700.0, 0.05, 3.0),
        Kernel::LFactor => (flops::IMPLICIT_CENTRAL, 220.0, 1700.0, 0.1, 2.5),
        Kernel::Update => (10, 80.0, 150.0, 0.03, 0.5),
        Kernel::Bc => (flops::BC_POINT, 120.0, 200.0, 0.1, 1.0),
        Kernel::Inject => (flops::INJECT_POINT, 80.0, 120.0, 0.1, 0.5),
    };
    match impl_kind {
        ImplKind::Risc => KernelCost {
            flops_per_point,
            instr_per_flop: RISC_INSTR_PER_FLOP,
            issue_efficiency: RISC_ISSUE_EFF,
            unique_bytes_per_point: risc_bytes,
            tlb_misses_per_point: risc_tlb,
        },
        ImplKind::Vector => KernelCost {
            flops_per_point,
            instr_per_flop: VECTOR_INSTR_PER_FLOP,
            issue_efficiency: VECTOR_ISSUE_EFF,
            unique_bytes_per_point: vector_bytes,
            tlb_misses_per_point: vector_tlb,
        },
    }
}

/// Cache bytes the tuned implementation needs resident per worker:
/// the scratch of the paper's own code for its larger zone dimensions
/// — one 450-point pencil with its three 5×5 block diagonals, which
/// dominate it. (This suite's stepper holds a bundle of four pencils
/// and no diagonals — `PencilScratch::for_pencils(450, PENCIL_BUNDLE)`,
/// 619 KiB: the same side of every cache this threshold separates.)
/// On machines whose largest cache is smaller than this,
/// "it was impossible to perform many of the cache optimizations"
/// (Section 8, the Cray T3D/T3E and IBM SP with 16–128-KB caches).
pub const PENCIL_SCRATCH_BYTES: usize = 448 << 10;

/// [`kernel_cost`] adjusted for the machine: on small-cache machines
/// the tuned implementation's pencil scratch spills, so its memory
/// behaviour degrades to the vector code's (traffic and TLB), keeping
/// only the instruction-level tuning.
#[must_use]
pub fn kernel_cost_on(kernel: Kernel, impl_kind: ImplKind, mem: &MachineMemory) -> KernelCost {
    let mut cost = kernel_cost(kernel, impl_kind);
    if impl_kind == ImplKind::Risc && mem.scratch_cache_bytes() < PENCIL_SCRATCH_BYTES {
        let vector = kernel_cost(kernel, ImplKind::Vector);
        cost.unique_bytes_per_point = vector.unique_bytes_per_point;
        cost.tlb_misses_per_point = vector.tlb_misses_per_point;
    }
    cost
}

/// Total modelled cycles per interior point per time step.
#[must_use]
pub fn cycles_per_point_step(impl_kind: ImplKind, mem: &MachineMemory) -> f64 {
    Kernel::VOLUME
        .iter()
        .map(|&k| kernel_cost_on(k, impl_kind, mem).cycles_per_point(mem))
        .sum()
}

/// Total flops per interior point per step (volume kernels only).
#[must_use]
pub fn flops_per_point_step() -> u64 {
    Kernel::VOLUME
        .iter()
        .map(|&k| kernel_cost(k, ImplKind::Risc).flops_per_point)
        .sum()
}

/// The modelled serial-tuning speedup: vector cycles / tuned cycles on
/// one processor of `mem` — the paper's "speedup of more than a factor
/// of 10" on the Power Challenge.
#[must_use]
pub fn serial_tuning_speedup(mem: &MachineMemory) -> f64 {
    cycles_per_point_step(ImplKind::Vector, mem) / cycles_per_point_step(ImplKind::Risc, mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::presets;

    #[test]
    fn tuned_code_is_much_cheaper_everywhere() {
        for mem in presets::all() {
            let s = serial_tuning_speedup(&mem);
            assert!(s > 4.0, "{}: tuning speedup only {s}", mem.name);
        }
    }

    #[test]
    fn power_challenge_speedup_matches_paper() {
        // "serial tuning on the SGI Power Challenge resulted in a
        // speedup of more than a factor of 10"
        let s = serial_tuning_speedup(&presets::power_challenge_r8k());
        assert!(s >= 8.0, "got {s}");
        assert!(s <= 25.0, "implausibly large: {s}");
    }

    #[test]
    fn origin_serial_mflops_near_paper() {
        // Paper Table 4: 237 MFLOPS serial on the 300-MHz R12000.
        let mem = presets::origin2000_r12k();
        let cyc = cycles_per_point_step(ImplKind::Risc, &mem);
        let mflops = flops_per_point_step() as f64 / cyc * mem.clock_hz / 1e6;
        assert!(
            (120.0..=450.0).contains(&mflops),
            "modelled {mflops} MFLOPS, paper 237"
        );
    }

    #[test]
    fn origin_serial_steps_per_hour_near_paper() {
        // Paper: 181 steps/hr for the 1M case on one R12000.
        let mem = presets::origin2000_r12k();
        let cyc = cycles_per_point_step(ImplKind::Risc, &mem);
        let secs = cyc * 1.0e6 / mem.clock_hz;
        let steps_hr = 3600.0 / secs;
        assert!(
            (90.0..=400.0).contains(&steps_hr),
            "modelled {steps_hr} steps/hr, paper 181"
        );
    }

    #[test]
    fn exemplar_anecdote_reproduced() {
        // 3M-point case on the SPP-1000: tuned ~70 min for 10 steps,
        // vector "the better part of a day or more".
        let mem = presets::exemplar_spp1000();
        let pts = 3.0e6;
        let tuned_s = cycles_per_point_step(ImplKind::Risc, &mem) * pts / mem.clock_hz * 10.0;
        let vector_s = cycles_per_point_step(ImplKind::Vector, &mem) * pts / mem.clock_hz * 10.0;
        let tuned_min = tuned_s / 60.0;
        let vector_hr = vector_s / 3600.0;
        assert!(
            (20.0..=180.0).contains(&tuned_min),
            "tuned: {tuned_min} min for 10 steps (paper: 70)"
        );
        assert!(
            vector_hr > 6.0,
            "vector: {vector_hr} hr (paper: most of a day)"
        );
    }

    #[test]
    fn sun_and_sgi_delivered_performance_similar() {
        // The paper's point: despite 800 vs 600 peak MFLOPS, delivered
        // per-processor performance is similar.
        let sgi = presets::origin2000_r12k();
        let sun = presets::hpc10000_ultrasparc2();
        let m_sgi = flops_per_point_step() as f64 / cycles_per_point_step(ImplKind::Risc, &sgi)
            * sgi.clock_hz
            / 1e6;
        let m_sun = flops_per_point_step() as f64 / cycles_per_point_step(ImplKind::Risc, &sun)
            * sun.clock_hz
            / 1e6;
        let ratio = m_sun / m_sgi;
        assert!(
            (0.5..=1.5).contains(&ratio),
            "SUN {m_sun} vs SGI {m_sgi}: ratio {ratio}"
        );
        // And both deliver well under half of peak.
        assert!(m_sgi < 0.6 * sgi.peak_mflops);
        assert!(m_sun < 0.6 * sun.peak_mflops);
    }

    #[test]
    fn risc_traffic_supports_uma_argument() {
        // Section 7: the tuned code generates ~68 MB/s of traffic on a
        // 180-MHz R10000 — comfortably under the 135-195 MB/s off-node
        // limit. Check our model's demand rate on the R12000 is the
        // same order and under the limit.
        let mem = presets::origin2000_r12k();
        let bytes: f64 = Kernel::VOLUME
            .iter()
            .map(|&k| kernel_cost(k, ImplKind::Risc).unique_bytes_per_point)
            .sum();
        let secs_per_point = cycles_per_point_step(ImplKind::Risc, &mem) / mem.clock_hz;
        let mb_per_s = bytes / secs_per_point / 1e6;
        assert!(
            mb_per_s < 135.0,
            "demand {mb_per_s} MB/s exceeds off-node bw"
        );
        assert!(mb_per_s > 10.0, "demand {mb_per_s} MB/s implausibly low");
    }

    #[test]
    fn vector_code_is_memory_and_issue_bound() {
        let mem = presets::origin2000_r12k();
        let v = kernel_cost(Kernel::JFactor, ImplKind::Vector);
        let r = kernel_cost(Kernel::JFactor, ImplKind::Risc);
        assert!(v.unique_bytes_per_point > 5.0 * r.unique_bytes_per_point);
        assert!(v.tlb_misses_per_point > 10.0 * r.tlb_misses_per_point);
        assert!(v.cycles_per_point(&mem) > r.cycles_per_point(&mem));
        // Same flops — the algorithm is unchanged.
        assert_eq!(v.flops_per_point, r.flops_per_point);
    }

    #[test]
    fn small_caches_forfeit_the_cache_tuning() {
        // Section 8 / Behr: on the T3E's 16-128 KB caches, the pencil
        // optimizations are unavailable; on the big-cache SMPs they are.
        let t3e = presets::cray_t3e();
        let origin = presets::origin2000_r12k();
        let on_t3e = kernel_cost_on(Kernel::JFactor, ImplKind::Risc, &t3e);
        let on_origin = kernel_cost_on(Kernel::JFactor, ImplKind::Risc, &origin);
        assert!(on_t3e.unique_bytes_per_point > 5.0 * on_origin.unique_bytes_per_point);
        // The instruction-level tuning survives either way.
        assert_eq!(on_t3e.issue_efficiency, on_origin.issue_efficiency);
        // On the Origin, kernel_cost_on is exactly kernel_cost.
        assert_eq!(on_origin, kernel_cost(Kernel::JFactor, ImplKind::Risc));
    }

    /// The per-point price written out on its own, charging memory
    /// misses the larger of the two miss penalties — the reference
    /// `cycles_per_point` must reproduce bit for bit on every preset.
    fn closed_form_cycles_per_point(c: &KernelCost, mem: &MachineMemory) -> f64 {
        let instr = c.flops_per_point as f64 * c.instr_per_flop;
        let compute = instr / (mem.cost.issue_width * c.issue_efficiency);
        let line = mem.l2.map_or(mem.l1.line_bytes, |c| c.line_bytes) as f64;
        let assoc = mem.l2.map_or(mem.l1.associativity, |c| c.associativity);
        let conflict = if assoc == 1 { 1.4 } else { 1.0 };
        let miss_penalty = mem.cost.l2_miss_penalty.max(mem.cost.l1_miss_penalty);
        compute
            + (c.unique_bytes_per_point / line * conflict * miss_penalty
                + c.tlb_misses_per_point * mem.cost.tlb_miss_penalty)
    }

    #[test]
    fn cycles_per_point_equals_the_closed_form_bit_for_bit() {
        for mem in presets::all() {
            for k in Kernel::STEP_ORDER {
                for i in [ImplKind::Vector, ImplKind::Risc] {
                    let c = kernel_cost_on(k, i, &mem);
                    assert_eq!(
                        c.cycles_per_point(&mem).to_bits(),
                        closed_form_cycles_per_point(&c, &mem).to_bits(),
                        "{} {k:?} {i:?}",
                        mem.name
                    );
                }
            }
        }
    }

    #[test]
    fn all_kernels_priced_for_both_impls() {
        let mem = presets::origin2000_r12k();
        for k in Kernel::STEP_ORDER {
            for i in [ImplKind::Vector, ImplKind::Risc] {
                assert!(kernel_cost(k, i).cycles_per_point(&mem) > 0.0);
            }
        }
    }
}
