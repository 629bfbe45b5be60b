//! Order statistics over small sample vectors.

/// Sorts `values` ascending (timings are never NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between the two nearest order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let Some(&last) = v.last() else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    match v.get(lo + 1) {
        Some(&next) => v[lo] + (next - v[lo]) * frac,
        None => last,
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median, both quartiles and the sample count of a set of repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
    /// How many samples the summary covers.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Self {
        Summary {
            median: median(values),
            q1: quantile(values, 0.25),
            q3: quantile(values, 0.75),
            n: values.len(),
        }
    }
}

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) of integer samples:
/// the smallest sample with at least `p` percent of the samples at or
/// below it. Exact on integers, so simulated-time percentiles repeat
/// bit for bit. 0 for an empty slice.
pub fn percentile_nearest_rank(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}
