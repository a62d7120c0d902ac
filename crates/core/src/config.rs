//! Construction-time parameters of a hybrid tree.

use hyt_page::DEFAULT_PAGE_SIZE;

/// Which node-splitting algorithm the tree uses.
///
/// The paper's Figure 5(a,b) compares its EDA-optimal algorithms against
/// the VAMSplit algorithm of White & Jain; both are provided so the
/// experiment can be regenerated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitPolicy {
    /// The paper's choice: data nodes split on the maximum-extent
    /// dimension as close to the middle as utilization permits; index
    /// nodes pick the dimension minimizing the expected-disk-access
    /// increase of the best 1-d bipartition (§3.2–§3.3).
    EdaOptimal,
    /// VAMSplit-style: maximum-*variance* dimension, split at the median.
    Vam,
    /// Round-robin split dimension (ablation; the LSDh-tree's default),
    /// split at the median.
    RoundRobin,
    /// Maximum-extent dimension but median position (ablation isolating
    /// the paper's "middle, not median" position rule, §3.2).
    MaxExtentMedian,
}

/// Probability distribution of the range-query side length `r`, used when
/// scoring index-node split dimensions (§3.3): the split minimizes
/// `E_r[(w_d + r)/(s_d + r)]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuerySizeDist {
    /// All queries have the same side length (the paper's experimental
    /// setting: constant selectivity implies a fixed calibrated side).
    Fixed(f64),
    /// `r` uniform on `[0, max]`; the expectation has the closed form
    /// `1 + ((w - s)/max) * ln((s + max)/s)`.
    Uniform {
        /// Upper end of the uniform range.
        max: f64,
    },
}

impl QuerySizeDist {
    /// The paper's index-split score: expected increase in disk accesses if
    /// a split with overlap `w` happens along a dimension of extent `s`.
    ///
    /// Lower is better. Degenerate extents (`s <= 0`) score worst (1.0 —
    /// both children always accessed together).
    pub fn split_cost(&self, w: f64, s: f64) -> f64 {
        debug_assert!(w >= -1e-9, "negative overlap {w}");
        let w = w.max(0.0);
        if s <= 0.0 {
            return 1.0;
        }
        match *self {
            QuerySizeDist::Fixed(r) => (w + r) / (s + r),
            QuerySizeDist::Uniform { max } => {
                if max <= 0.0 {
                    // Point queries: probability both sides contain the
                    // query point is w / s.
                    return w / s;
                }
                1.0 + ((w - s) / max) * (((s + max) / s).ln())
            }
        }
    }
}

/// The largest page size a hybrid tree accepts. An index page's kd-tree
/// stores each left subtree's byte length as a `u16`, and a left subtree
/// spans at most `page_size − 21` bytes (the node header, its parent's
/// split record and a one-leaf right sibling take the rest).
pub(crate) const MAX_PAGE_SIZE: usize = 65536;

/// Parameters fixed at tree construction.
#[derive(Clone, Debug)]
pub struct HybridTreeConfig {
    /// Disk page size in bytes (paper: 4096), from 64 to 65536.
    pub page_size: usize,
    /// Minimum node utilization guaranteed by splits, as a fraction of
    /// capacity (also the data-node underflow threshold for deletes).
    pub min_fill: f64,
    /// Bits per boundary for encoded-live-space dead-space elimination
    /// (§3.4); `0` disables ELS. The paper finds 4 bits captures most of
    /// the benefit.
    pub els_bits: u8,
    /// Node splitting algorithm.
    pub split_policy: SplitPolicy,
    /// Query-size distribution assumed by index-node splits.
    pub query_size: QuerySizeDist,
    /// Capacity (in data pages) of the tree's decoded-node cache. `0`
    /// (the default) disables it, so every data-page visit pays a full
    /// decode — the configuration all correctness baselines
    /// run under. Enabling it never changes query results or logical
    /// I/O accounting, only the number of `Node::decode` invocations.
    pub node_cache_entries: usize,
}

impl Default for HybridTreeConfig {
    fn default() -> Self {
        Self {
            page_size: DEFAULT_PAGE_SIZE,
            min_fill: 0.35,
            els_bits: 4,
            split_policy: SplitPolicy::EdaOptimal,
            query_size: QuerySizeDist::Uniform { max: 1.0 },
            node_cache_entries: 0,
        }
    }
}

impl HybridTreeConfig {
    /// Validates ranges that would otherwise fail far from their cause.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(0.0..=0.5).contains(&self.min_fill) {
            return Err(format!(
                "min_fill must be in [0, 0.5], got {}",
                self.min_fill
            ));
        }
        if self.els_bits > 16 {
            return Err(format!("els_bits must be <= 16, got {}", self.els_bits));
        }
        if !(64..=MAX_PAGE_SIZE).contains(&self.page_size) {
            return Err(format!(
                "page_size must be in [64, {MAX_PAGE_SIZE}], got {}",
                self.page_size
            ));
        }
        // A NaN side makes every index-split cost NaN, so the split would
        // silently take the first candidate dimension.
        let (QuerySizeDist::Fixed(side) | QuerySizeDist::Uniform { max: side }) = self.query_size;
        if !(side.is_finite() && side >= 0.0) {
            return Err(format!(
                "query size must be finite and non-negative, got {:?}",
                self.query_size
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setting() {
        let c = HybridTreeConfig::default();
        assert_eq!(c.page_size, 4096);
        assert_eq!(c.els_bits, 4);
        assert_eq!(c.split_policy, SplitPolicy::EdaOptimal);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let bad_fill = HybridTreeConfig {
            min_fill: 0.9,
            ..HybridTreeConfig::default()
        };
        assert!(bad_fill.validate().is_err());
        let bad_bits = HybridTreeConfig {
            els_bits: 32,
            ..HybridTreeConfig::default()
        };
        assert!(bad_bits.validate().is_err());
        for page_size in [16, MAX_PAGE_SIZE + 1] {
            let bad_page = HybridTreeConfig {
                page_size,
                ..HybridTreeConfig::default()
            };
            assert!(bad_page.validate().is_err(), "page_size {page_size}");
        }
        let widest = HybridTreeConfig {
            page_size: MAX_PAGE_SIZE,
            ..HybridTreeConfig::default()
        };
        assert!(widest.validate().is_ok());
        for side in [-0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for query_size in [
                QuerySizeDist::Fixed(side),
                QuerySizeDist::Uniform { max: side },
            ] {
                let bad_query = HybridTreeConfig {
                    query_size,
                    ..HybridTreeConfig::default()
                };
                assert!(bad_query.validate().is_err(), "{query_size:?}");
            }
        }
        // Zero is the point-query limit of both distributions.
        for query_size in [
            QuerySizeDist::Fixed(0.0),
            QuerySizeDist::Uniform { max: 0.0 },
        ] {
            let point_queries = HybridTreeConfig {
                query_size,
                ..HybridTreeConfig::default()
            };
            assert!(point_queries.validate().is_ok(), "{query_size:?}");
        }
    }

    #[test]
    fn fixed_cost_matches_formula() {
        let d = QuerySizeDist::Fixed(0.1);
        // No overlap: r / (s + r).
        assert!((d.split_cost(0.0, 0.4) - 0.1 / 0.5).abs() < 1e-12);
        // Full overlap (w = s): cost 1.
        assert!((d.split_cost(0.4, 0.4) - 1.0).abs() < 1e-12);
        // Monotone in w.
        assert!(d.split_cost(0.1, 0.4) < d.split_cost(0.2, 0.4));
        // Decreasing in s for fixed w.
        assert!(d.split_cost(0.05, 0.8) < d.split_cost(0.05, 0.4));
    }

    #[test]
    fn uniform_cost_properties() {
        let d = QuerySizeDist::Uniform { max: 1.0 };
        // Full overlap costs 1 regardless of s.
        assert!((d.split_cost(0.3, 0.3) - 1.0).abs() < 1e-9);
        // No overlap costs strictly less than 1 and decreases with s.
        let c_small = d.split_cost(0.0, 0.1);
        let c_big = d.split_cost(0.0, 0.9);
        assert!(c_small < 1.0 && c_big < c_small);
        // Monotone in w.
        assert!(d.split_cost(0.05, 0.5) < d.split_cost(0.25, 0.5));
    }

    #[test]
    fn uniform_cost_agrees_with_numeric_integral() {
        let d = QuerySizeDist::Uniform { max: 1.0 };
        let (w, s) = (0.07, 0.42);
        let n = 100_000;
        let numeric: f64 = (0..n)
            .map(|i| {
                let r = (i as f64 + 0.5) / n as f64;
                (w + r) / (s + r)
            })
            .sum::<f64>()
            / n as f64;
        assert!((d.split_cost(w, s) - numeric).abs() < 1e-6);
    }

    #[test]
    fn degenerate_extent_scores_worst() {
        for d in [
            QuerySizeDist::Fixed(0.1),
            QuerySizeDist::Uniform { max: 1.0 },
        ] {
            assert_eq!(d.split_cost(0.0, 0.0), 1.0);
        }
    }
}
