//! Partitioning a stream into non-overlapping windows (§2 of the paper:
//! a stream is a sequence of windows, each processed test-then-train).

/// Splits `n_rows` into consecutive non-overlapping windows of `size` rows.
///
/// The final window keeps the remainder if it holds at least `size / 2`
/// rows; otherwise the remainder is merged into the previous window so no
/// tiny trailing window skews per-window statistics. A non-empty stream
/// shorter than one window yields a single partial window `0..n_rows`,
/// never an empty list — even when `size` is near `usize::MAX` (as
/// produced by [`scaled_window`] saturating on a huge factor).
///
/// # Panics
/// Panics when `size == 0`.
pub fn window_ranges(n_rows: usize, size: usize) -> Vec<std::ops::Range<usize>> {
    assert!(size > 0, "window size must be positive");
    if n_rows == 0 {
        return Vec::new();
    }
    let mut ranges = Vec::with_capacity(n_rows / size + 1);
    let mut start = 0;
    // `n_rows - start >= size` rather than `start + size <= n_rows`:
    // the sum overflows when `size` saturated to usize::MAX.
    while n_rows - start >= size {
        ranges.push(start..start + size);
        start += size;
    }
    let remainder = n_rows - start;
    if remainder > 0 {
        if remainder * 2 >= size || ranges.is_empty() {
            ranges.push(start..n_rows);
        } else if let Some(last) = ranges.pop() {
            // Small remainder: fold it into the final full window.
            ranges.push(last.start..n_rows);
        }
    }
    ranges
}

/// Applies a multiplicative factor to a window size (the paper's §6.4.2
/// sweep multiplies the default window size by {0.25, 0.5, 1, 2, 4}),
/// keeping the result at least 1. A non-finite or non-positive factor
/// falls back to the unscaled size rather than silently collapsing to 1
/// through the NaN-as-zero cast.
pub fn scaled_window(default_size: usize, factor: f64) -> usize {
    if !factor.is_finite() || factor <= 0.0 {
        return default_size.max(1);
    }
    ((default_size as f64 * factor).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiple_splits_evenly() {
        let w = window_ranges(100, 25);
        assert_eq!(w.len(), 4);
        assert_eq!(w[0], 0..25);
        assert_eq!(w[3], 75..100);
    }

    #[test]
    fn large_remainder_becomes_own_window() {
        // 100 = 3 windows of 30 + remainder 10 < 15 -> merged into last.
        let w = window_ranges(100, 30);
        assert_eq!(w.len(), 3);
        assert_eq!(w[2], 60..100);
        // 110 = 3 windows of 30 + remainder 20 >= 15 -> own window.
        let w = window_ranges(110, 30);
        assert_eq!(w.len(), 4);
        assert_eq!(w[3], 90..110);
    }

    #[test]
    fn windows_partition_the_rows() {
        for n in [1usize, 7, 64, 99, 1000] {
            for size in [1usize, 3, 10, 64] {
                let w = window_ranges(n, size);
                assert_eq!(w[0].start, 0);
                assert_eq!(w.last().unwrap().end, n);
                for pair in w.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                }
            }
        }
    }

    #[test]
    fn tiny_stream_single_window() {
        let w = window_ranges(3, 100);
        assert_eq!(w, vec![0..3]);
    }

    #[test]
    fn stream_smaller_than_one_window_is_one_partial_window() {
        // Satellite regression: a non-empty stream must never produce an
        // empty range list, whatever the window size — including the
        // usize::MAX that `scaled_window` saturates to on a huge factor
        // (the old `start + size <= n_rows` loop condition overflowed).
        for n in [1usize, 2, 50, 499] {
            for size in [500usize, usize::MAX / 2, usize::MAX] {
                assert_eq!(window_ranges(n, size), vec![0..n], "n={n} size={size}");
            }
        }
    }

    #[test]
    fn scaled_window_huge_factor_still_yields_one_window() {
        // scaled_window saturates, window_ranges returns the partial
        // window: the composition never loses the stream.
        let size = scaled_window(1000, 1e300);
        assert!(size >= 1000);
        assert_eq!(window_ranges(37, size), vec![0..37]);
    }

    #[test]
    fn empty_stream_no_windows() {
        assert!(window_ranges(0, 10).is_empty());
    }

    #[test]
    fn scaled_window_clamps_to_one() {
        assert_eq!(scaled_window(100, 0.25), 25);
        assert_eq!(scaled_window(100, 4.0), 400);
        assert_eq!(scaled_window(1, 0.25), 1);
    }

    #[test]
    fn scaled_window_rejects_degenerate_factors() {
        assert_eq!(scaled_window(200, f64::NAN), 200);
        assert_eq!(scaled_window(200, f64::INFINITY), 200);
        assert_eq!(scaled_window(200, -1.0), 200);
        assert_eq!(scaled_window(200, 0.0), 200);
        assert_eq!(scaled_window(0, f64::NAN), 1);
    }
}
