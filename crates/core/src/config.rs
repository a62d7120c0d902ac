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
    /// Bits per boundary for encoded-live-space dead-space elimination
    /// (§3.4); `0` disables ELS. The paper finds 4 bits captures most of
    /// the benefit.
    pub els_bits: u8,
    /// Node splitting algorithm.
    pub split_policy: SplitPolicy,
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
            els_bits: 4,
            split_policy: SplitPolicy::EdaOptimal,
            node_cache_entries: 0,
        }
    }
}

impl HybridTreeConfig {
    /// Validates ranges that would otherwise fail far from their cause.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.els_bits > 16 {
            return Err(format!("els_bits must be <= 16, got {}", self.els_bits));
        }
        if !(64..=MAX_PAGE_SIZE).contains(&self.page_size) {
            return Err(format!(
                "page_size must be in [64, {MAX_PAGE_SIZE}], got {}",
                self.page_size
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
    }
}
