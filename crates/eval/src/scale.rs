//! Experiment sizing, configurable via environment variables.

/// Sizes for one experimental run.
///
/// `HYT_SCALE=quick` (default) keeps every figure regenerable on a laptop
/// in minutes; `HYT_SCALE=paper` uses the paper's dataset sizes (FOURIER
/// 400K for Fig 6(a,b), COLHIST 70K). `HYT_QUERIES` overrides the query
/// count per configuration.
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
    /// Reads `HYT_SCALE` / `HYT_QUERIES` / `HYT_SEED` from the
    /// environment. Unknown scales and a zero query count are reported on
    /// stderr and ignored.
    pub fn from_env() -> Self {
        Self::from_vars(|key| std::env::var(key).ok())
    }

    /// [`from_env`](Self::from_env) over an arbitrary variable lookup.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let mut s = match var("HYT_SCALE").as_deref() {
            Some("paper") => Self::paper(),
            Some("quick") | None => Self::quick(),
            Some(other) => {
                eprintln!("unknown HYT_SCALE={other}, using quick");
                Self::quick()
            }
        };
        match var("HYT_QUERIES").map(|q| q.parse::<usize>()) {
            Some(Ok(0)) => eprintln!("HYT_QUERIES=0 leaves no queries, using {}", s.queries),
            Some(Ok(q)) => s.queries = q,
            _ => {}
        }
        if let Some(Ok(seed)) = var("HYT_SEED").map(|v| v.parse()) {
            s.seed = seed;
        }
        s
    }

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
    fn zero_queries_is_ignored() {
        let s = Scale::from_vars(|key| (key == "HYT_QUERIES").then(|| "0".to_string()));
        assert_eq!(s.queries, Scale::quick().queries);
        let s = Scale::from_vars(|key| (key == "HYT_QUERIES").then(|| "7".to_string()));
        assert_eq!(s.queries, 7);
    }

    #[test]
    fn selectivities_match_paper() {
        assert_eq!(Scale::FOURIER_SELECTIVITY, 0.0007);
        assert_eq!(Scale::COLHIST_SELECTIVITY, 0.002);
    }
}
