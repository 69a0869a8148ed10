//! TPC-H-style `LineItem` generation (§8.1).
//!
//! The paper's experiments use five columns of TPC-H `LineItem` —
//! Orderkey (OK), Partkey (PK), Linenumber (LN), Suppkey (SK), Discount
//! (DT) — with the OK column as the PSI/PSU attribute over a dense domain
//! `1..=N` (N = 5M or 20M) and the rest as aggregation attributes. This
//! generator reproduces that shape deterministically: each owner holds a
//! configurable fraction of the OK domain, with TPC-H-plausible value
//! ranges for the other columns (PK ≤ 200k, LN ≤ 7, SK ≤ 10k, DT ≤ 10 —
//! discounts are percent points, i.e. the paper's fixed-precision integer
//! encoding of 0.00–0.10).

use prism_core::Prg;
use serde::{Deserialize, Serialize};

/// One generated row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineItemRow {
    /// Orderkey — the set attribute.
    pub ok: u64,
    /// Partkey.
    pub pk: u64,
    /// Linenumber.
    pub ln: u64,
    /// Suppkey.
    pub sk: u64,
    /// Discount in percent points (fixed-precision integer, §4).
    pub dt: u64,
}

impl LineItemRow {
    /// The four aggregation attributes in Table-11 order (PK, LN, SK, DT).
    pub fn agg_values(&self) -> Vec<u64> {
        vec![self.pk, self.ln, self.sk, self.dt]
    }
}

/// Value bounds for the aggregation columns.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ColumnBounds {
    /// Max partkey.
    pub pk: u64,
    /// Max linenumber.
    pub ln: u64,
    /// Max suppkey.
    pub sk: u64,
    /// Max discount (percent points).
    pub dt: u64,
}

impl Default for ColumnBounds {
    fn default() -> Self {
        ColumnBounds {
            pk: 200_000,
            ln: 7,
            sk: 10_000,
            dt: 10,
        }
    }
}

/// Generator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LineItemConfig {
    /// OK domain size N (values 1..=N).
    pub ok_domain: u64,
    /// Fraction of the OK domain each owner holds (1.0 = all, as in the
    /// paper where every owner maintains "at most 5M (20M) OK values").
    pub ok_fraction: f64,
    /// Aggregation column bounds.
    pub bounds: ColumnBounds,
    /// Master seed; owner j derives its stream from `seed ⊕ j`.
    pub seed: u64,
}

impl LineItemConfig {
    /// Paper-shaped config: every owner holds the full domain.
    pub fn full(ok_domain: u64, seed: u64) -> Self {
        LineItemConfig {
            ok_domain,
            ok_fraction: 1.0,
            bounds: ColumnBounds::default(),
            seed,
        }
    }

    /// Config where owners hold a random fraction of the domain.
    pub fn sparse(ok_domain: u64, ok_fraction: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&ok_fraction));
        LineItemConfig {
            ok_domain,
            ok_fraction,
            bounds: ColumnBounds::default(),
            seed,
        }
    }

    /// Generate owner `j`'s table: one row per held OK value (the grouped
    /// representation the paper outsources — `sum(col) GROUP BY OK` with
    /// one underlying tuple collapses to the tuple itself).
    pub fn generate_owner(&self, owner: usize) -> Vec<LineItemRow> {
        let mut prg =
            Prg::from_seed(self.seed ^ (owner as u64 + 1).wrapping_mul(0xA24BAED4963EE407));
        let mut rows = Vec::new();
        let keep_threshold = (self.ok_fraction * u64::MAX as f64) as u64;
        for ok in 1..=self.ok_domain {
            if self.ok_fraction < 1.0 && prg.next_u64() > keep_threshold {
                continue;
            }
            rows.push(LineItemRow {
                ok,
                pk: prg.range(1, self.bounds.pk + 1),
                ln: prg.range(1, self.bounds.ln + 1),
                sk: prg.range(1, self.bounds.sk + 1),
                dt: prg.below(self.bounds.dt + 1),
            });
        }
        rows
    }

    /// Generate all `m` owners' tables.
    pub fn generate(&self, owners: usize) -> Vec<Vec<LineItemRow>> {
        (0..owners).map(|j| self.generate_owner(j)).collect()
    }

    /// Convert a row set into the protocol driver's input format with all
    /// four aggregation attributes.
    pub fn to_owner_input(rows: &[LineItemRow]) -> prism_protocol::driver::OwnerInput {
        prism_protocol::driver::OwnerInput {
            rows: rows.iter().map(|r| (r.ok, r.agg_values())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_covers_domain() {
        let cfg = LineItemConfig::full(1000, 1);
        let rows = cfg.generate_owner(0);
        assert_eq!(rows.len(), 1000);
        assert_eq!(rows.first().unwrap().ok, 1);
        assert_eq!(rows.last().unwrap().ok, 1000);
    }

    #[test]
    fn bounds_respected() {
        let cfg = LineItemConfig::full(500, 2);
        for r in cfg.generate_owner(0) {
            assert!((1..=200_000).contains(&r.pk));
            assert!((1..=7).contains(&r.ln));
            assert!((1..=10_000).contains(&r.sk));
            assert!(r.dt <= 10);
        }
    }

    #[test]
    fn owners_differ_but_are_deterministic() {
        let cfg = LineItemConfig::full(100, 3);
        let a = cfg.generate_owner(0);
        let b = cfg.generate_owner(1);
        assert_ne!(a, b);
        assert_eq!(a, cfg.generate_owner(0));
    }

    #[test]
    fn sparse_fraction_roughly_respected() {
        let cfg = LineItemConfig::sparse(10_000, 0.3, 4);
        let rows = cfg.generate_owner(0);
        let frac = rows.len() as f64 / 10_000.0;
        assert!((0.25..0.35).contains(&frac), "got {frac}");
    }

    #[test]
    fn generate_all_owners() {
        let cfg = LineItemConfig::full(50, 5);
        let all = cfg.generate(10);
        assert_eq!(all.len(), 10);
        assert!(all.iter().all(|t| t.len() == 50));
    }

    #[test]
    fn agg_values_order_matches_table11() {
        let r = LineItemRow {
            ok: 1,
            pk: 2,
            ln: 3,
            sk: 4,
            dt: 5,
        };
        assert_eq!(r.agg_values(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn owner_input_conversion() {
        let cfg = LineItemConfig::full(10, 6);
        let rows = cfg.generate_owner(0);
        let input = LineItemConfig::to_owner_input(&rows);
        assert_eq!(input.rows.len(), 10);
        assert_eq!(input.rows[0].1.len(), 4);
    }
}
