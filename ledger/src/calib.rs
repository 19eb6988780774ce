//! In-run machine calibration: what this box can stream and multiply on
//! one thread, measured in the same process as the kernel rates they are
//! compared with.

use std::time::Instant;

use crate::{cpu, stats};

pub struct Calibration {
    /// One-thread STREAM triad bandwidth, GB/s (three arrays' traffic).
    pub triad_gbps: f64,
    /// One-thread fused-multiply-add rate, Gflop/s.
    pub peak_gflops: f64,
    pub llc_bytes: usize,
    pub array_bytes: usize,
}

/// Each triad array is four times the last-level cache, up to this much.
/// A guest that reports its host's whole L3 (260 MiB on the box this was
/// written on) would otherwise first-touch 3 GiB, which costs 13 s of
/// page faults there against 0.3 s for 256 MiB arrays — and reads the
/// same 13 GB/s at 64 MiB, 256 MiB and 1040 MiB, the guest's share of
/// that cache being nowhere near its size. Both sizes are printed.
const ARRAY_CAP_BYTES: usize = 256 << 20;

/// `None` when the last-level cache size cannot be read: without it the
/// arrays cannot be shown to defeat the cache, and the caller reports
/// flops per byte without a roofline ratio.
pub fn calibrate() -> Option<Calibration> {
    let llc = cpu::llc_bytes()?;
    let wanted = 4 * llc;
    let affordable = cpu::mem_available_bytes().map_or(ARRAY_CAP_BYTES, |m| m / 2 / 3);
    let array_bytes = wanted.min(ARRAY_CAP_BYTES).min(affordable);
    Some(Calibration {
        triad_gbps: triad_gbps(array_bytes / 8),
        peak_gflops: peak_gflops(),
        llc_bytes: llc,
        array_bytes,
    })
}

/// `a[i] = b[i] + s·c[i]` over three arrays of `n` doubles: a first pass
/// to fault the pages in, then the median of three timed passes.
fn triad_gbps(n: usize) -> f64 {
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut secs = Vec::new();
    for pass in 0..4 {
        let s = 3.0 + pass as f64;
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        std::hint::black_box(&a);
        if pass > 0 {
            secs.push(t.elapsed().as_secs_f64());
        }
    }
    3.0 * 8.0 * n as f64 / stats::median(&secs) / 1e9
}

/// Sixty-four independent multiply-add chains in one flat array, all in
/// registers once the compiler vectorises them: enough parallelism to
/// keep the multiply and add ports of a wide core busy. The build targets
/// the baseline instruction set, as the program's own kernels do, so this
/// is the peak those kernels can be held against, not the chip's
/// fused-multiply-add peak.
fn peak_gflops() -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 2_000_000;
    let mut acc = [1.0f64; LANES];
    let m = std::hint::black_box(0.999_999_9f64);
    let add = std::hint::black_box(1e-9f64);
    let mut secs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..ITERS {
            for v in acc.iter_mut() {
                *v = *v * m + add;
            }
        }
        std::hint::black_box(&acc);
        secs.push(t.elapsed().as_secs_f64());
    }
    2.0 * (LANES * ITERS) as f64 / stats::median(&secs) / 1e9
}
