//! `kernel-steady`: eight pre-lowered kernels run back to back at a
//! cache-resident trip count. Compile, bake, lower and the scalar
//! reference happen in set-up, so the steady-state dispatch loop does
//! all of the timed work.

use crate::corpus;
use crate::stats::{gmean, median};
use crate::tracer::{self, RoundFold, Tracer};
use crate::{InProc, Layers, KERNEL_SPANS};
use simdize::{parse_program, run_scalar, LoopProgram, MemoryImage, RunInput, SimdKernel};
use std::hint::black_box;
use std::time::Instant;

/// Elements per kernel run: 16 KB per i32 array, so the eight kernels'
/// arrays together stay inside L2. At trip 16384 (L2-borderline) the
/// same kernels spread 9 % run to run.
const TRIP: u64 = 4096;

/// Trip count of the one DRAM-sized probe: three 22 MB arrays.
const DRAM_TRIP: u64 = 5_500_000;

/// The kernel a span in [`KERNEL_SPANS`] runs.
fn kernel_name(span: &str) -> &str {
    span.strip_prefix("engine.run.").expect("a kernel span")
}

/// The loop text of kernel `name` at trip count `n`.
///
/// `fig1`, `chain6`, `fir4` and `copy3` are the rows of
/// `BENCH_engine.json`, kept for continuity; the other four are the
/// sample loops under `loops/` that reach code the first four do not:
/// i16 lanes, runtime alignment and trip count under the zero-shift
/// policy, the strided §7 path, and a reduction.
fn source(name: &str, n: u64) -> String {
    let len = n + 16;
    match name {
        "fig1" => format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 4; c: i32[{len}] @ 8; }}
             for i in 0..{n} {{ a[i+3] = b[i+1] + c[i+2]; }}"
        ),
        "chain6" => format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 4; c: i32[{len}] @ 8;
                       d: i32[{len}] @ 12; e: i32[{len}] @ 4; f: i32[{len}] @ 8;
                       g: i32[{len}] @ 12; }}
             for i in 0..{n} {{ a[i] = b[i+1] + c[i+2] + d[i+3] + e[i+3] + f[i+1] + g[i+2]; }}"
        ),
        "fir4" => format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 0; }}
             for i in 0..{n} {{ a[i] = b[i] + b[i+1] + b[i+2] + b[i+3]; }}"
        ),
        "copy3" => format!(
            "arrays {{ a: i32[{len}] @ 0; b: i32[{len}] @ 12; }}
             for i in 0..{n} {{ a[i] = b[i+3]; }}"
        ),
        "halfword" => format!(
            "arrays {{ out: i16[{len}] @ 2; u: i16[{len}] @ 6; v: i16[{len}] @ 10; }}
             for i in 0..{n} {{ out[i+2] = u[i+1] * v[i+3]; }}"
        ),
        "runtime" => format!(
            "arrays {{ dst: i32[{len}] @ ?; src1: i32[{len}] @ ?; src2: i32[{len}] @ ?; }}
             for i in 0..ub {{ dst[i+3] = src1[i+1] + src2[i+2]; }}"
        ),
        "deinterleave" => format!(
            "arrays {{ out: i32[{len}] @ 0; inter: i32[{}] @ 8; }}
             for i in 0..{n} {{ out[i] = inter[2*i] * inter[2*i] + inter[2*i+1] * inter[2*i+1]; }}",
            2 * n + 16
        ),
        "dot_product" => format!(
            "arrays {{ acc: i32[4] @ 4; x: i32[{len}] @ 4; y: i32[{len}] @ 8; }}
             for i in 0..{n} {{ acc[i] += x[i+1] * y[i+2]; }}"
        ),
        other => panic!("no kernel named `{other}`"),
    }
}

/// Bytes a perfect implementation moves per run: every distinct array
/// read once over the trip (times its stride) and every non-reduction
/// target written once.
fn bytes_moved(program: &LoopProgram, trip: u64) -> u64 {
    let size = program.elem().size() as u64;
    let mut read: Vec<(usize, u64)> = Vec::new();
    let mut written = 0;
    for stmt in program.stmts() {
        for r in stmt.rhs.loads() {
            match read.iter_mut().find(|(a, _)| *a == r.array.index()) {
                Some((_, stride)) => *stride = (*stride).max(u64::from(r.stride)),
                None => read.push((r.array.index(), u64::from(r.stride))),
            }
        }
        if stmt.reduction.is_none() {
            written += trip * size;
        }
    }
    written
        + read
            .iter()
            .map(|(_, stride)| trip * stride * size)
            .sum::<u64>()
}

/// One lowered kernel with the memory it runs on.
pub struct Kernel {
    kernel: SimdKernel,
    image: MemoryImage,
    /// For a kernel that reads what it writes (the reduction): the
    /// image to restore before every run.
    pristine: Option<MemoryImage>,
    /// The image the scalar oracle leaves behind. Tests corrupt one to
    /// see the run fail.
    pub reference: MemoryImage,
    bytes_moved: u64,
    opd: f64,
}

impl Kernel {
    fn build(name: &str, trip: u64, seed: u64) -> Result<Kernel, String> {
        let program = parse_program(&source(name, trip)).map_err(|e| e.to_string())?;
        let compiled = corpus::driver()
            .compile(&program)
            .map_err(|e| e.to_string())?;
        let input = RunInput::with_ub(trip);
        let image = MemoryImage::with_seed(&program, corpus::SHAPE, seed);
        let kernel = SimdKernel::compile(&compiled, &image, &input).map_err(|e| e.to_string())?;
        let mut reference = image.clone();
        run_scalar(&program, &mut reference, trip, &[]).map_err(|e| e.to_string())?;
        let rereads_output = program.stmts().iter().any(|s| {
            s.reduction.is_some() || s.rhs.loads().iter().any(|r| r.array == s.target.array)
        });
        Ok(Kernel {
            opd: kernel.stats().opd(program.stmts().len() as u64 * trip),
            bytes_moved: bytes_moved(&program, trip),
            pristine: rereads_output.then(|| image.clone()),
            kernel,
            image,
            reference,
        })
    }

    fn restore(&mut self) {
        if let Some(pristine) = &self.pristine {
            self.image.copy_from(pristine);
        }
    }

    fn run(&mut self) -> bool {
        self.kernel.run(black_box(&mut self.image)).is_ok()
    }

    fn matches_reference(&self) -> bool {
        self.image.first_difference(&self.reference).is_none()
    }
}

/// The workload's state: the eight kernels, in [`KERNEL_SPANS`] order.
pub struct KernelSteady {
    /// The kernels.
    pub kernels: Vec<Kernel>,
    seed: u64,
}

impl InProc for KernelSteady {
    const NAME: &'static str = "kernel-steady";
    const PASSES: usize = 3200;

    fn setup(seed: u64) -> (KernelSteady, u64) {
        let kernels: Vec<Kernel> = KERNEL_SPANS
            .iter()
            .map(|span| {
                let name = kernel_name(span);
                Kernel::build(name, TRIP, seed).unwrap_or_else(|e| panic!("kernel {name}: {e}"))
            })
            .collect();
        let mut w = KernelSteady { kernels, seed };
        // The one op, then the full check of each kernel's image
        // against the scalar oracle's.
        let ran = w.op(0);
        let failed = u64::from(!(ran && w.round_check()));
        (w, failed)
    }

    fn ops(&self) -> usize {
        1
    }

    fn op(&mut self, _: usize) -> bool {
        let mut ok = true;
        for k in &mut self.kernels {
            k.restore();
            ok &= k.run();
        }
        ok
    }

    fn op_traced(&mut self, _: usize, t: &mut Tracer) -> bool {
        let mut ok = true;
        for (k, span) in self.kernels.iter_mut().zip(KERNEL_SPANS) {
            if k.pristine.is_some() {
                t.span("vm.image_restore", |_| k.restore());
            }
            ok &= t.span(span, |_| k.run());
        }
        ok
    }

    /// Every kernel writes the same bytes on every run (inputs are
    /// never overwritten, or are restored first), so diffing the images
    /// once per round checks every run of the round; a per-run diff
    /// would cost as much as the kernels themselves.
    fn round_check(&mut self) -> bool {
        self.kernels.iter().all(Kernel::matches_reference)
    }

    fn opd_gmean(&self) -> f64 {
        gmean(&self.kernels.iter().map(|k| k.opd).collect::<Vec<_>>())
    }

    fn layers(&mut self, folds: &[RoundFold], out: &mut Layers) {
        let mut sum = out.set_spans(folds, &["vm.image_restore"], "op");
        let copy = copy_gb_per_s(TRIP as usize * 4);
        out.set("probe.copy_gb_per_s", copy);
        let mut ns_per_elem = Vec::with_capacity(KERNEL_SPANS.len());
        for (span, k) in KERNEL_SPANS.iter().zip(&self.kernels) {
            let run_ns = tracer::p50_us(folds, span) * 1e3;
            let share = tracer::share(folds, span, "op");
            sum += share;
            ns_per_elem.push(run_ns / TRIP as f64);
            out.set(&format!("{span}.ns_per_elem"), run_ns / TRIP as f64);
            out.set(&format!("{span}.share"), share);
            // bytes per ns is GB/s.
            out.set(
                &format!("{span}.frac_of_copy"),
                k.bytes_moved as f64 / run_ns / copy,
            );
        }
        out.set("engine.run.gmean_ns_per_elem", gmean(&ns_per_elem));
        out.set("harness.share", 1.0 - sum);
        out.set(
            "engine.run.fig1.dram_frac_of_copy",
            dram_frac_of_copy(self.seed),
        );
    }
}

/// Bandwidth of a plain copy between two buffers of `bytes` bytes,
/// counting bytes read plus bytes written: the roofline the kernels
/// are placed against. Median of several batches.
fn copy_gb_per_s(bytes: usize) -> f64 {
    let src = vec![0x5Au8; bytes];
    let mut dst = vec![0u8; bytes];
    // About 64 MB of traffic per batch, whatever the buffer size.
    let reps = ((32 << 20) / bytes).max(1);
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                black_box(&mut dst).copy_from_slice(black_box(&src));
            }
            (2 * bytes * reps) as f64 / t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&batches)
}

/// `fig1` once at a trip count whose arrays do not fit in L2, against
/// a copy of the same size: the memory-bound end of the roofline.
/// Checked against the scalar oracle like everything else; 0 on a
/// mismatch.
fn dram_frac_of_copy(seed: u64) -> f64 {
    let Ok(mut k) = Kernel::build("fig1", DRAM_TRIP, seed) else {
        return 0.0;
    };
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            k.run();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    if !k.matches_reference() {
        return 0.0;
    }
    k.bytes_moved as f64 / median(&runs) / copy_gb_per_s(DRAM_TRIP as usize * 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_moved_counts_each_array_once() {
        let bytes = |name| bytes_moved(&parse_program(&source(name, 100)).unwrap(), 100);
        assert_eq!(bytes("copy3"), 2 * 400);
        assert_eq!(bytes("fig1"), 3 * 400);
        assert_eq!(bytes("fir4"), 2 * 400);
        assert_eq!(bytes("halfword"), 3 * 200);
        assert_eq!(bytes("deinterleave"), 400 + 800);
        assert_eq!(bytes("dot_product"), 2 * 400);
    }

    #[test]
    fn only_the_reduction_needs_its_image_restored() {
        let (w, failed) = KernelSteady::setup(4);
        assert_eq!(failed, 0);
        let restored: Vec<bool> = w.kernels.iter().map(|k| k.pristine.is_some()).collect();
        assert_eq!(
            restored,
            [false, false, false, false, false, false, false, true]
        );
    }
}
