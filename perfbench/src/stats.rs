//! Order statistics over raw samples.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of `xs`; `+inf` samples
/// sort last, so refused requests push the tail up. 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || v[hi] == v[lo] {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Seeded draws over the numeric crate's xorshift generator; normals by
/// Box–Muller, two per pair of uniforms.
pub struct Gauss {
    rng: cumf_numeric::stats::XorShift64,
    spare: Option<f32>,
}

impl Gauss {
    pub fn new(seed: u64) -> Gauss {
        Gauss {
            rng: cumf_numeric::stats::XorShift64::new(seed),
            spare: None,
        }
    }

    /// A standard-normal draw.
    pub fn next(&mut self) -> f32 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let u1 = self.rng.next_f32().max(1e-12);
        let u2 = self.rng.next_f32();
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (std::f32::consts::TAU * u2).sin_cos();
        self.spare = Some(r * sin);
        r * cos
    }

    /// A uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.next_f32() as f64
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.next_below(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_sort_infinity_last() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
