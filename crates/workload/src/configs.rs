//! Experiment configurations matching §8's parameter grid.
//!
//! Every table/figure in the evaluation maps to one `ExperimentGrid`
//! here; the benchmark harness iterates the grid and prints paper-style
//! rows. `Scale` lets the same grid run at paper scale (5M/20M domains)
//! or at a laptop-friendly reduction with identical shape.

use serde::{Deserialize, Serialize};

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Paper-scale domains (5M / 20M OK values, 100M-leaf bucket tree).
    Full,
    /// 1/10th domains — same shapes, minutes instead of hours.
    Medium,
    /// 1/100th domains — CI-friendly smoke scale.
    Small,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "full" => Some(Scale::Full),
            "medium" => Some(Scale::Medium),
            "small" => Some(Scale::Small),
            _ => None,
        }
    }

    /// Scale a paper-sized quantity down.
    pub(crate) fn shrink(&self, paper_value: u64) -> u64 {
        match self {
            Scale::Full => paper_value,
            Scale::Medium => (paper_value / 10).max(1),
            Scale::Small => (paper_value / 100).max(1),
        }
    }
}

/// The two OK-domain sizes of Figures 3–4 / Tables 12/14.
pub fn ok_domains(scale: Scale) -> Vec<u64> {
    vec![scale.shrink(5_000_000), scale.shrink(20_000_000)]
}

/// Exp 1 (Figure 3): thread sweep at fixed 10 owners.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Exp1Config {
    /// OK domain sizes (5M, 20M at full scale).
    pub domains: Vec<u64>,
    /// Thread counts (1..=5 in the paper).
    pub threads: Vec<usize>,
    /// Fixed owner count (10 in the paper).
    pub owners: usize,
}

/// Exp 2 (Figure 4): owner sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Exp2Config {
    /// OK domain sizes.
    pub domains: Vec<u64>,
    /// Owner counts (10, 20, 30, 40, 50 in the paper).
    pub owners: Vec<usize>,
    /// Threads per server.
    pub threads: usize,
}

/// Exp 4 (Figure 5): bucketization fill-factor sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Exp4Config {
    /// Tree height (9 in the paper → 100M leaves at fanout 10).
    pub height: usize,
    /// Fanout (10).
    pub fanout: usize,
    /// Fill factors in percent (100, 10, 1, 0.1, 0.01).
    pub fill_percent: Vec<f64>,
}

/// Build the Exp 1 grid at a scale.
pub fn exp1(scale: Scale) -> Exp1Config {
    Exp1Config {
        domains: ok_domains(scale),
        threads: vec![1, 2, 3, 4, 5],
        owners: 10,
    }
}

/// Build the Exp 2 grid at a scale.
pub fn exp2(scale: Scale) -> Exp2Config {
    Exp2Config {
        domains: ok_domains(scale),
        owners: vec![10, 20, 30, 40, 50],
        threads: 4,
    }
}

/// Build the Exp 4 grid at a scale (full = the paper's 10^8-leaf tree).
pub fn exp4(scale: Scale) -> Exp4Config {
    let height = match scale {
        Scale::Full => 9,   // 10^8 leaves
        Scale::Medium => 8, // 10^7 leaves
        Scale::Small => 7,  // 10^6 leaves
    };
    Exp4Config {
        height,
        fanout: 10,
        fill_percent: vec![100.0, 10.0, 1.0, 0.1, 0.01],
    }
}

/// Table 12: attribute counts for multi-column aggregation.
pub fn table12_attrs() -> Vec<usize> {
    vec![1, 2, 3, 4]
}

/// Table 13: dataset sizes for the two-owner comparison.
pub fn table13_sizes(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Full => vec![32_768, 1_000_000, 4_000_000, 20_000_000],
        Scale::Medium => vec![32_768, 100_000, 400_000, 2_000_000],
        Scale::Small => vec![4_096, 10_000, 40_000, 200_000],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_paper_numbers() {
        let e1 = exp1(Scale::Full);
        assert_eq!(e1.domains, vec![5_000_000, 20_000_000]);
        assert_eq!(e1.threads, vec![1, 2, 3, 4, 5]);
        assert_eq!(e1.owners, 10);
        let e2 = exp2(Scale::Full);
        assert_eq!(e2.owners, vec![10, 20, 30, 40, 50]);
        let e4 = exp4(Scale::Full);
        assert_eq!(e4.fanout.pow((e4.height - 1) as u32), 100_000_000);
    }

    #[test]
    fn scales_shrink_monotonically() {
        assert!(Scale::Small.shrink(5_000_000) < Scale::Medium.shrink(5_000_000));
        assert!(Scale::Medium.shrink(5_000_000) < Scale::Full.shrink(5_000_000));
        assert_eq!(Scale::Full.shrink(42), 42);
        assert_eq!(Scale::Small.shrink(1), 1);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("MEDIUM"), Some(Scale::Medium));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn fill_factors_match_figure_5() {
        let e4 = exp4(Scale::Full);
        assert_eq!(e4.fill_percent, vec![100.0, 10.0, 1.0, 0.1, 0.01]);
    }
}
