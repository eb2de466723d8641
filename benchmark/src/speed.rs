//! The host-speed reference. On a shared VM the host's speed drifts: the
//! same binary on the same seed has read 1.8× apart in runs minutes apart,
//! and within a run it moves by a fifth from one minute to the next, with
//! steal near zero. No run length averages that away, so every end-to-end
//! timing is taken relative to a fixed basket of the benchmark's own work
//! timed at the same moment.
//!
//! Different slowdowns hit different kinds of code (a busy neighbour's
//! vector units, the shared cache, the clock), so the basket holds three,
//! each about a third of its time, all over rows the benchmark owns and in
//! code no program change can touch:
//!
//! - a scalar Gaussian kernel sum (`exp` per term, as in a leaf scan);
//! - a streaming pass of fused multiply-adds over the rows (AVX2 where the
//!   host has it, as the engine's bound and distance kernels are);
//! - a comparison sort of a copy of the rows' coordinates (branchy, like
//!   the engine's traversal).
//!
//! Over four minutes in which `kde_ekaq`'s jobs sped up and slowed by a
//! fifth, their time ratio to the basket moved by 5.5 % (to the kernel sum
//! alone: 24 %); on `svm_tkaq`'s jobs, moving by 29 %, by 8 %.
//!
//! A probe returns the host's *slowness*: the basket's time over its usual
//! time on the reference host. A timing divided by it reads as on the
//! reference host at its usual speed; the raw timings go to the
//! provenance line.

use std::hint::black_box;
use std::time::Instant;

/// Bandwidth of the kernel sum. Its value only sets the exponent's range,
/// kept well inside `exp`'s fast path for every probe set here.
const GAMMA: f64 = 0.5;

/// How much of each kind of work one probe does.
#[derive(Debug, Clone, Copy)]
pub struct Basket {
    /// Kernel sums, each over every row (the first rows are the queries).
    pub sums: usize,
    /// Streaming passes over every coordinate.
    pub passes: usize,
    /// Coordinates copied and sorted.
    pub sort: usize,
    /// The reference host's usual time for the basket (s).
    pub nominal_s: f64,
}

/// A fixed basket of reference work over borrowed rows.
pub struct Probe<'a> {
    rows: &'a [f64],
    dims: usize,
    basket: Basket,
    /// Sort buffer, allocated once.
    scratch: Vec<f64>,
}

impl<'a> Probe<'a> {
    pub fn new(rows: &'a [f64], dims: usize, basket: Basket) -> Self {
        assert!(dims > 0 && rows.len() >= dims * basket.sums.max(1) && rows.len() > 4);
        Probe {
            rows,
            dims,
            basket,
            scratch: vec![0.0; basket.sort],
        }
    }

    /// Runs the basket once; returns the host's slowness (1 = the
    /// reference host at its usual speed, 2 = half as fast).
    pub fn slowness(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0.0;
        for q in self.rows.chunks_exact(self.dims).take(self.basket.sums) {
            acc += kernel_sum(black_box(self.rows), black_box(q));
        }
        for _ in 0..self.basket.passes {
            acc += fma_pass(black_box(self.rows));
        }
        for (k, x) in self.scratch.iter_mut().enumerate() {
            *x = self.rows[k % self.rows.len()];
        }
        self.scratch.sort_unstable_by(f64::total_cmp);
        acc += black_box(&self.scratch)[self.scratch.len() / 2];
        black_box(acc);
        t0.elapsed().as_secs_f64() / self.basket.nominal_s
    }
}

/// `Σᵢ exp(−γ‖q − pᵢ‖²)` over row-major `rows`.
fn kernel_sum(rows: &[f64], q: &[f64]) -> f64 {
    let mut acc = 0.0;
    for p in rows.chunks_exact(q.len()) {
        let mut d2 = 0.0;
        for (a, b) in q.iter().zip(p) {
            d2 += (a - b) * (a - b);
        }
        acc += (-GAMMA * d2).exp();
    }
    acc
}

/// `Σₖ (xₖ − xₖ₊₄)²` over the coordinates.
fn fma_pass(x: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the features the function enables were just detected.
            return unsafe { fma_pass_avx2(x) };
        }
    }
    x.iter().zip(&x[4..]).map(|(a, b)| (a - b) * (a - b)).sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_pass_avx2(x: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = x.len() - 4;
    let mut acc = _mm256_setzero_pd();
    let mut k = 0;
    while k + 4 <= n {
        // SAFETY: `k + 4 + 4 <= x.len()`, so both loads are in bounds.
        let d = unsafe {
            _mm256_sub_pd(
                _mm256_loadu_pd(x.as_ptr().add(k)),
                _mm256_loadu_pd(x.as_ptr().add(k + 4)),
            )
        };
        acc = _mm256_fmadd_pd(d, d, acc);
        k += 4;
    }
    let mut lanes = [0.0; 4];
    // SAFETY: `lanes` holds four f64.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
    let tail: f64 = (k..n).map(|i| (x[i] - x[i + 4]) * (x[i] - x[i + 4])).sum();
    lanes.iter().sum::<f64>() + tail
}

/// Times `f` between two probes; returns its result, its raw seconds and
/// the geometric mean of the two slownesses.
pub fn timed<T>(probe: &mut Probe, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = probe.slowness();
    let t0 = Instant::now();
    let v = f();
    let raw = t0.elapsed().as_secs_f64();
    let after = probe.slowness();
    (v, raw, (before * after).sqrt())
}
