//! Order statistics.

/// A sample value that converts to `f64` (`u64` samples are
/// nanoseconds, far below 2^53).
pub trait Sample: Copy {
    /// The value as `f64`.
    fn as_f64(self) -> f64;
}

impl Sample for u64 {
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl Sample for f64 {
    fn as_f64(self) -> f64 {
        self
    }
}

/// The `q`-quantile of an ascending-sorted slice, interpolating linearly
/// between neighbouring ranks. 0 when empty.
pub fn quantile<T: Sample>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (a, b) = (sorted[lo].as_f64(), sorted[hi].as_f64());
    a + (b - a) * (pos - lo as f64)
}

/// The median of `values` (any order). 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0u64, 10], 0.9), 9.0);
        assert_eq!(quantile::<u64>(&[], 0.5), 0.0);
    }
}
