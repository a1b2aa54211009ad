//! Small numeric helpers: medians, digests, seed derivation, histogram
//! quantiles and snapshot totals.

use ipipe_sim::obs::Snapshot;
use ipipe_sim::Histogram;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile of `xs` (nearest rank).
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1];
    [at(0.25), median(&v), at(0.75)]
}

/// 64-bit FNV-1a digest.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64 finalizer: spreads consecutive inputs over the seed space.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Quantile `q` of `h` in nanoseconds, interpolated linearly inside the
/// bucket that holds the q-th sample.
///
/// The registry histogram reports a bucket's upper bound, so a quantile
/// that lands in a crowded bucket reads the same for every seed. Here the
/// bucket's sample ranks are found through the public `quantile` (which is
/// monotone in rank), and the q-th sample's position among them places it
/// between the bucket floor and the reported bound. The floor follows the
/// histogram's geometry of 32 sub-buckets per octave; the last rank of a
/// bucket reads exactly what `Histogram::quantile` reports.
pub fn quantile_ns(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let at = |r: u64| h.quantile((r as f64 - 0.5) / n as f64).as_ns();
    let upper = at(rank);
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) < upper {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at(mid) > upper {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let floor = if upper < 32 {
        upper
    } else {
        let shift = 63 - upper.leading_zeros() - 5;
        (upper >> shift) << shift
    };
    let floor = floor.max(h.min().as_ns());
    let frac = (rank - first + 1) as f64 / (last - first + 1) as f64;
    floor as f64 + (upper - floor) as f64 * frac
}

/// Sum of counter `name` over every node.
pub fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counters
        .iter()
        .filter(|((n, _), _)| n == name)
        .map(|(_, v)| *v)
        .sum()
}

/// Sum of every counter whose name starts with `prefix`, over every node.
pub fn counter_prefix(s: &Snapshot, prefix: &str) -> u64 {
    s.counters
        .iter()
        .filter(|((n, _), _)| n.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

/// Histograms named in `names`, merged over every node into `into`.
pub fn merge_hists(s: &Snapshot, names: &[&str], into: &mut Histogram) {
    for ((n, _), h) in &s.hists {
        if names.contains(&n.as_str()) {
            into.merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe_sim::SimTime;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_bucket() {
        let mut h = Histogram::new();
        for ns in 12_000..12_100 {
            h.record(SimTime::from_ns(ns));
        }
        let reported = h.p50().as_ns() as f64;
        let p50 = quantile_ns(&h, 0.5);
        assert!(p50 <= reported, "{p50} > {reported}");
        assert!(p50 >= 12_000.0, "{p50}");
        // The last rank of a bucket reads the reported bound.
        assert_eq!(quantile_ns(&h, 1.0), h.quantile(1.0).as_ns() as f64);
    }

    #[test]
    fn interpolated_quantile_moves_with_the_rank_inside_a_bucket() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(SimTime::from_ns(12_000));
        }
        for _ in 0..10 {
            h.record(SimTime::from_ns(50_000));
        }
        assert!(quantile_ns(&h, 0.3) < quantile_ns(&h, 0.6));
        assert!(quantile_ns(&h, 0.3) <= h.quantile(0.3).as_ns() as f64);
        assert_eq!(quantile_ns(&h, 1.0), 50_000.0);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        assert_eq!(quantile_ns(&Histogram::new(), 0.5), 0.0);
    }
}
