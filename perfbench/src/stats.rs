//! Order statistics over raw samples.

/// Median of `samples` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice; callers check counts before reporting.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank `q`-quantile of `samples` (`0 < q < 1`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    sorted[rank(sorted.len(), q) - 1]
}

/// Whether at least ten samples lie beyond the `q`-quantile, the rule for
/// printing a percentile at all.
pub fn supported(count: usize, q: f64) -> bool {
    count > 0 && count - rank(count, q) >= 10
}

/// Index of the sample closest to the middle of `samples` (lower middle for
/// an even count): the operation whose trace stands for the median.
pub fn median_index(samples: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| samples[a].total_cmp(&samples[b]));
    order[(samples.len() - 1) / 2]
}

/// `name p50=… p90=… p99=… (n=…)`, printing each percentile only when the
/// sample supports it, and the raw values when not even the median is.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let mut line = format!("{name}:");
    for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        if supported(samples.len(), q) {
            let value = if q == 0.5 {
                median(samples)
            } else {
                quantile(samples, q)
            };
            line.push_str(&format!(" {label}={value:.4}{unit}"));
        }
    }
    if !supported(samples.len(), 0.5) {
        let values: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
        line.push_str(&format!(" values=[{}]{unit}", values.join(", ")));
    }
    line.push_str(&format!(" (n={})", samples.len()));
    line
}

fn rank(count: usize, q: f64) -> usize {
    ((q * count as f64).ceil() as usize).clamp(1, count)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}
