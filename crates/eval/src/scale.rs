//! Experiment sizing: the two presets the figure drivers run at.

/// Sizes for one experimental run.
///
/// [`Scale::quick`] keeps every figure regenerable on a laptop in
/// minutes; [`Scale::paper`] uses the paper's dataset sizes (FOURIER 400K
/// for Fig 6(a,b), COLHIST 70K). `hyt figures --scale quick|paper` picks
/// one.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// FOURIER cardinality (paper: 400K in Fig 6(a,b)).
    pub fourier_n: usize,
    /// COLHIST cardinality (paper: 70K).
    pub colhist_n: usize,
    /// Database sizes swept by Fig 7(a,b) (paper: 25K–70K).
    pub size_sweep: [usize; 4],
    /// Queries per configuration (averaged, as in the paper).
    pub queries: usize,
    /// RNG seed for data + workloads.
    pub seed: u64,
}

impl Scale {
    /// Laptop-friendly sizes preserving every trend.
    pub fn quick() -> Self {
        Self {
            fourier_n: 40_000,
            colhist_n: 20_000,
            size_sweep: [5_000, 10_000, 15_000, 20_000],
            queries: 40,
            seed: 20_260_705,
        }
    }

    /// The paper's sizes.
    pub fn paper() -> Self {
        Self {
            fourier_n: 400_000,
            colhist_n: 70_000,
            size_sweep: [25_000, 40_000, 55_000, 70_000],
            queries: 100,
            seed: 20_260_705,
        }
    }

    /// The paper's constant selectivities (§4).
    pub const FOURIER_SELECTIVITY: f64 = 0.0007;
    /// COLHIST selectivity (0.2%).
    pub const COLHIST_SELECTIVITY: f64 = 0.002;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_paper() {
        let q = Scale::quick();
        let p = Scale::paper();
        assert!(q.fourier_n < p.fourier_n);
        assert!(q.colhist_n <= p.colhist_n);
        assert!(q.queries <= p.queries);
    }

    #[test]
    fn selectivities_match_paper() {
        assert_eq!(Scale::FOURIER_SELECTIVITY, 0.0007);
        assert_eq!(Scale::COLHIST_SELECTIVITY, 0.002);
    }
}
