//! The benchmark's own inputs: a seeded PRNG, the workload generators, a
//! compensated exact-sum oracle and an input digest. Nothing here calls
//! into the repository's data, SVM, KDE or test-kit crates, so a change to
//! those crates cannot change a workload.

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    spare_normal: Option<f64>,
}

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams of one seed are
    /// independent sequences (used to draw data, queries and schedules
    /// without one perturbing another).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
            spare_normal: None,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Standard normal (Box–Muller, second value kept for the next call).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let u1 = 1.0 - self.unit(); // (0, 1]: ln stays finite
        let u2 = self.unit();
        let r = (-2.0 * u1.ln()).sqrt();
        let th = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * th.sin());
        r * th.cos()
    }

    /// Exponential with the given mean.
    pub fn exp_mean(&mut self, mean: f64) -> f64 {
        -(1.0 - self.unit()).ln() * mean
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Row-major points, `dims` coordinates each.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    pub dims: usize,
    pub data: Vec<f64>,
}

impl Rows {
    pub fn len(&self) -> usize {
        self.data.len() / self.dims
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }
}

/// `n` draws from the Type I density: two Gaussian blobs (σ = 0.2,
/// centred at −1·𝟙 and +1·𝟙, mass ¼ and ½) plus a uniform background on
/// `[−2.5, 2.5]^d` (mass ¼). Background queries refine deep, blob queries
/// shallow, which is the skew the engine sees on real KDE data. The draw
/// is stratified — each component gets exactly its share of the rows, in
/// seeded random order — so a seed changes which points are drawn but not
/// how many come from each component.
pub fn blob_rows(rng: &mut Rng, n: usize, dims: usize) -> Rows {
    let mut data = vec![0.0; n * dims];
    for (k, i) in rng.permutation(n).into_iter().enumerate() {
        let row = &mut data[i * dims..(i + 1) * dims];
        for x in row {
            *x = match k % 4 {
                0 => -1.0 + 0.2 * rng.normal(),
                1 | 2 => 1.0 + 0.2 * rng.normal(),
                _ => rng.uniform(-2.5, 2.5),
            };
        }
    }
    Rows { dims, data }
}

/// Scott's-rule Gaussian `γ = 1/(2h²)`, `h = n^{−1/(d+4)}·σ̄` with `σ̄` the
/// mean per-dimension standard deviation.
pub fn scott_gamma(rows: &Rows) -> f64 {
    let n = rows.len() as f64;
    let d = rows.dims;
    let mut sigma_sum = 0.0;
    for j in 0..d {
        let mean = (0..rows.len()).map(|i| rows.row(i)[j]).sum::<f64>() / n;
        let var = (0..rows.len())
            .map(|i| (rows.row(i)[j] - mean).powi(2))
            .sum::<f64>()
            / n;
        sigma_sum += var.sqrt();
    }
    let h = n.powf(-1.0 / (d as f64 + 4.0)) * (sigma_sum / d as f64);
    1.0 / (2.0 * h * h)
}

/// The two-class population of the SVM workload, ijcnn1-shaped: 22
/// features on a unit-ish scale, classes ±1 with equal prior (stratified:
/// exactly half of each). A point is
/// `t·u + z⊥`: position `t` along the unit diagonal `u` (class `y` at
/// `t ~ N(y·SHIFT, SPREAD²)`) plus isotropic noise (σ = `NOISE` per
/// feature) orthogonal to `u`. At this scale and γ = 1/d most queries are
/// decided near the root and the ones near the boundary refine deep —
/// tens of nodes per query on average.
const SHIFT: f64 = 0.5;
const SPREAD: f64 = 0.3;
const NOISE: f64 = 0.2;
/// Support vectors lie in the margin band `0 ≤ y·t < BAND`, or (one in
/// ten) on the wrong side within `BAND/2`.
const BAND: f64 = 0.5;

/// Writes `t·u + z⊥` into `row`: position `t` along the unit diagonal
/// `u`, plus isotropic noise with its `u` component removed.
fn svm_point(rng: &mut Rng, t: f64, row: &mut [f64]) {
    for x in row.iter_mut() {
        *x = NOISE * rng.normal();
    }
    let r = (row.len() as f64).sqrt();
    let along = row.iter().sum::<f64>() / r;
    for x in row.iter_mut() {
        *x += (t - along) / r;
    }
}

/// Class label of the `k`-th stratified draw: exactly half of each.
fn label(k: usize) -> f64 {
    if k.is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

/// A 2-class-SVM-shaped model: `n_sv` support vectors with signed weights
/// `y·α`, `α ∈ (0, C]`, `C = 1`. Bounded support vectors (`α = C`): the
/// wrong-side ones and the half of the band nearest the boundary — about
/// half the model, as with a soft margin; the rest have `α ~ U(0, C]`.
pub fn svm_model(rng: &mut Rng, n_sv: usize, dims: usize) -> (Rows, Vec<f64>) {
    let mut data = vec![0.0; n_sv * dims];
    let mut weights = vec![0.0; n_sv];
    for (k, i) in rng.permutation(n_sv).into_iter().enumerate() {
        let y = label(k);
        let wrong = k % 20 < 2;
        let depth = if wrong {
            -0.5 * BAND * rng.unit()
        } else {
            BAND * rng.unit()
        };
        svm_point(rng, y * depth, &mut data[i * dims..(i + 1) * dims]);
        let alpha = if depth < 0.5 * BAND {
            1.0
        } else {
            1.0 - rng.unit()
        };
        weights[i] = y * alpha;
    }
    (Rows { dims, data }, weights)
}

/// `n` unlabelled draws from the SVM population (the workload's queries).
pub fn svm_rows(rng: &mut Rng, n: usize, dims: usize) -> Rows {
    let mut data = vec![0.0; n * dims];
    for (k, i) in rng.permutation(n).into_iter().enumerate() {
        let t = label(k) * SHIFT + SPREAD * rng.normal();
        svm_point(rng, t, &mut data[i * dims..(i + 1) * dims]);
    }
    Rows { dims, data }
}

/// Compensated (Kahan–Babuška–Neumaier) sum.
#[derive(Debug, Default, Clone, Copy)]
pub struct NeumaierSum {
    sum: f64,
    comp: f64,
}

impl NeumaierSum {
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

/// The oracle: `F(q) = Σᵢ wᵢ·exp(−γ‖q − pᵢ‖²)` over row-major `points`,
/// summed with compensation.
pub fn exact_sum(points: &[f64], weights: &[f64], gamma: f64, q: &[f64]) -> f64 {
    let mut acc = NeumaierSum::default();
    for (p, &w) in points.chunks_exact(q.len()).zip(weights) {
        let mut d2 = NeumaierSum::default();
        for (a, b) in q.iter().zip(p) {
            d2.add((a - b) * (a - b));
        }
        acc.add(w * (-gamma * d2.value()).exp());
    }
    acc.value()
}

/// Median of a non-empty slice (sorted copy; mean of the middle pair).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// FNV-1a over the bit patterns of everything a workload hands the
/// program; printed with every result so two runs can be shown to have
/// measured the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for x in xs {
            self.u64(x.to_bits());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn compensated_sum_recovers_cancelled_terms() {
        let mut s = NeumaierSum::default();
        for x in [1e16, 1.0, -1e16, 1.0] {
            s.add(x);
        }
        assert_eq!(s.value(), 2.0);
    }

    #[test]
    fn svm_model_is_signed_and_bounded() {
        let (rows, w) = svm_model(&mut Rng::new(3, 0), 500, 22);
        assert_eq!(rows.len(), 500);
        assert_eq!(
            w.iter().filter(|&&x| x > 0.0).count(),
            250,
            "stratified classes"
        );
        assert!(w.iter().any(|&x| x > 0.0) && w.iter().any(|&x| x < 0.0));
        assert!(w.iter().all(|&x| x != 0.0 && x.abs() <= 1.0));
        let at_c = w.iter().filter(|x| x.abs() == 1.0).count();
        assert!(at_c * 3 > w.len(), "most support vectors sit at C");
    }
}
