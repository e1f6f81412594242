//! Normality diagnostics.
//!
//! Section II-A of the paper rests on an empirical claim: per layer,
//! BERT weights "closely follow a Gaussian distribution". The
//! Jarque–Bera statistic quantifies that claim from sample skewness and
//! excess kurtosis, and is what the synthetic-weight generator is
//! validated against.

use crate::error::StatsError;

/// Higher moments of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Sample skewness (third standardized moment).
    pub skewness: f64,
    /// Excess kurtosis (fourth standardized moment minus 3; 0 for a
    /// Gaussian).
    pub excess_kurtosis: f64,
}

/// Computes mean, standard deviation, skewness and excess kurtosis in
/// one pass (f64 accumulation).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for samples smaller than 2,
/// [`StatsError::NonFinite`] for NaN/infinite values, and
/// [`StatsError::ZeroVariance`] for constant samples.
pub fn moments(sample: &[f32]) -> Result<Moments, StatsError> {
    if sample.len() < 2 {
        return Err(StatsError::EmptyInput);
    }
    let n = sample.len() as f64;
    let mut sum = 0.0f64;
    for &x in sample {
        if !x.is_finite() {
            return Err(StatsError::NonFinite);
        }
        sum += f64::from(x);
    }
    let mean = sum / n;
    let (mut m2, mut m3, mut m4) = (0.0f64, 0.0f64, 0.0f64);
    for &x in sample {
        let d = f64::from(x) - mean;
        let d2 = d * d;
        m2 += d2;
        m3 += d2 * d;
        m4 += d2 * d2;
    }
    m2 /= n;
    m3 /= n;
    m4 /= n;
    if m2 <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    let std = m2.sqrt();
    Ok(Moments { mean, std, skewness: m3 / m2.powf(1.5), excess_kurtosis: m4 / (m2 * m2) - 3.0 })
}

/// The Jarque–Bera statistic: `n/6 · (S² + K²/4)`.
///
/// Under the null hypothesis of normality it is asymptotically χ²(2);
/// values below ≈5.99 are consistent with normality at the 5% level.
/// Real samples of millions of weights will practically never pass a
/// strict test — the useful quantity is the *normalized* statistic
/// [`jarque_bera_per_sample`], which is scale-free.
///
/// # Errors
///
/// Same conditions as [`moments`].
pub fn jarque_bera(sample: &[f32]) -> Result<f64, StatsError> {
    let m = moments(sample)?;
    let n = sample.len() as f64;
    Ok(n / 6.0 * (m.skewness * m.skewness + m.excess_kurtosis * m.excess_kurtosis / 4.0))
}

/// `jarque_bera / n`: a size-independent departure-from-normality
/// score. 0 for a perfect Gaussian; heavier tails or skew push it up.
///
/// # Errors
///
/// Same conditions as [`moments`].
pub fn jarque_bera_per_sample(sample: &[f32]) -> Result<f64, StatsError> {
    Ok(jarque_bera(sample)? / sample.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian(n: usize) -> Vec<f32> {
        // Deterministic LCG Box-Muller.
        let mut state = 0x853c49e6748fea9bu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        (0..n)
            .map(|_| {
                let u1 = next().clamp(1e-7, 1.0);
                let u2 = next();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn gaussian_sample_scores_low() {
        let jb = jarque_bera_per_sample(&gaussian(100_000)).unwrap();
        assert!(jb < 0.001, "JB/n = {jb}");
    }

    #[test]
    fn uniform_sample_scores_high() {
        // Uniform has excess kurtosis -1.2 → JB/n ≈ 1.2²/4/6 = 0.06.
        let xs: Vec<f32> = (0..50_000).map(|i| (i % 1000) as f32 / 1000.0).collect();
        let jb = jarque_bera_per_sample(&xs).unwrap();
        assert!(jb > 0.03, "JB/n = {jb}");
    }

    #[test]
    fn heavy_tails_raise_the_score() {
        let mut xs = gaussian(50_000);
        // Inject 0.5% strong outliers — the GOBO weight scenario.
        for i in (0..xs.len()).step_by(200) {
            xs[i] = 15.0;
        }
        let clean = jarque_bera_per_sample(&gaussian(50_000)).unwrap();
        let tailed = jarque_bera_per_sample(&xs).unwrap();
        assert!(tailed > clean * 50.0, "clean {clean} vs tailed {tailed}");
    }

    #[test]
    fn moments_known_values() {
        let m = moments(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((m.mean - 2.5).abs() < 1e-9);
        assert!((m.std - (1.25f64).sqrt()).abs() < 1e-6);
        assert!(m.skewness.abs() < 1e-9, "symmetric sample");
    }

    #[test]
    fn skewed_sample_has_positive_skewness() {
        let xs: Vec<f32> = (0..1000).map(|i| ((i % 10) as f32).powi(3)).collect();
        let m = moments(&xs).unwrap();
        assert!(m.skewness > 0.3, "skewness {}", m.skewness);
    }

    #[test]
    fn error_cases() {
        assert!(moments(&[]).is_err());
        assert!(moments(&[1.0]).is_err());
        assert!(moments(&[1.0, f32::NAN]).is_err());
        assert!(moments(&[2.0, 2.0, 2.0]).is_err());
    }
}
