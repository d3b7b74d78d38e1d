//! What every workload looks like to the measuring loop.

use crate::spans::{SpanId, Tracer};
use f3d::service::fnv1a64;
use llp::obs::json::Json;
use llp::ObsReport;
use std::collections::BTreeMap;
use std::time::Instant;

/// Microseconds from `from` to `to`.
pub fn us(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e6
}

/// Which configuration a block of operations runs in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// P workers (solver workloads) or P closed-loop clients (serve
    /// workloads), nothing recorded: the end-to-end configuration.
    Main,
    /// The same operations with no parallelism: `Workers::new(1)`, or
    /// one client.
    Base,
    /// `Main` with the benchmark's spans around every call and, for
    /// solver workloads, `Workers::recorded` plus the flight recorder.
    Traced,
}

/// One block of operations, timed one by one.
#[derive(Default)]
pub struct Block {
    /// Wall time of each operation.
    pub samples_us: Vec<f64>,
    /// Wall time of the whole block.
    pub wall_s: f64,
    pub ok: u64,
    pub failed: u64,
}

impl Block {
    pub fn absorb(&mut self, other: Block) {
        self.samples_us.extend(other.samples_us);
        self.wall_s += other.wall_s;
        self.ok += other.ok;
        self.failed += other.failed;
    }
}

/// Wrong answers, refusals and non-200 replies, with the first few
/// spelled out for the operator.
#[derive(Default, Debug)]
pub struct Failures {
    pub count: u64,
    pub messages: Vec<String>,
}

impl Failures {
    pub fn push(&mut self, operations: u64, message: String) {
        self.count += operations;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    pub fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        let room = 8usize.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

pub trait Workload {
    /// Run one block in `mode`. In [`Mode::Traced`] the spans go under
    /// `root` in `tracer`; otherwise the tracer is left alone.
    fn block(
        &mut self,
        mode: Mode,
        tracer: &mut Tracer,
        root: SpanId,
        failures: &mut Failures,
    ) -> Block;

    /// Cross-check the states the last pair of blocks left behind
    /// (solver workloads advance two copies of one state in lockstep).
    /// `operations` is what a mismatch invalidates.
    fn cross_check(&mut self, _operations: u64, _failures: &mut Failures) {}

    /// Lines for the operator: regime checks with their thresholds,
    /// counts taken at the layer boundaries.
    fn notes(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Stop what set-up started (the server) and wait for it.
    fn finish(self: Box<Self>) {}
}

/// 16-hex-digit FNV-1a digest over the bit patterns of `values`: equal
/// digests certify bit-identical checksums.
pub fn digest(values: &[f64]) -> String {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    format!("{:016x}", fnv1a64(&bytes))
}

/// The digests pinned in `golden.json` for one case.
pub fn golden(case: &str) -> BTreeMap<String, String> {
    let doc = Json::parse(include_str!("../golden.json")).expect("golden.json parses");
    let fields = doc
        .get(case)
        .and_then(Json::as_object)
        .unwrap_or_else(|| panic!("golden.json has no case `{case}`"));
    fields
        .iter()
        .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
        .collect()
}

/// Hold computed digests against the pinned ones, naming the workload
/// and the field on a mismatch.
pub fn check_golden(workload: &str, case: &str, got: &[(String, String)], failures: &mut Failures) {
    let pinned = golden(case);
    for (field, digest) in got {
        let want = pinned.get(field).map_or("<missing>", String::as_str);
        if want != digest {
            failures.push(
                1,
                format!("{workload}: field `{field}` of `{case}` has digest {digest}, golden.json pins {want}"),
            );
        }
    }
}

/// Where the recorded steps of a solver spent their time, by kernel,
/// summed over every report absorbed.
#[derive(Default)]
pub struct KernelSplit {
    /// kernel name -> (wall seconds, compute seconds). Compute is the
    /// longest chunk of each region the kernel ran, or the kernel's
    /// wall time when it ran no region (the serial kernels).
    pub kernels: BTreeMap<String, (f64, f64)>,
    pub max_imbalance: f64,
    pub steps: u64,
}

impl KernelSplit {
    pub fn absorb(&mut self, report: &ObsReport, steps: u64) {
        use llp::SpanKind;
        fn walk(node: &llp::SpanNode, split: &mut KernelSplit) {
            if node.kind == SpanKind::Kernel {
                let regions: Vec<_> = node
                    .children
                    .iter()
                    .filter(|c| c.kind == SpanKind::Region)
                    .collect();
                let compute = if regions.is_empty() {
                    node.seconds
                } else {
                    regions.iter().map(|r| r.chunk_max_seconds).sum()
                };
                let entry = split.kernels.entry(node.name.clone()).or_default();
                entry.0 += node.seconds;
                entry.1 += compute;
            } else {
                for child in &node.children {
                    walk(child, split);
                }
            }
        }
        for span in &report.spans {
            walk(span, self);
        }
        for k in report.kernel_summaries() {
            self.max_imbalance = self.max_imbalance.max(k.max_imbalance);
        }
        self.steps += steps;
    }

    pub fn wall_seconds(&self) -> f64 {
        self.kernels.values().map(|v| v.0).sum()
    }

    pub fn compute_seconds(&self) -> f64 {
        self.kernels.values().map(|v| v.1).sum()
    }

    pub fn wall_of(&self, kernel: &str) -> f64 {
        self.kernels.get(kernel).map_or(0.0, |v| v.0)
    }
}
