//! The 11-column secret-shared table of §8.1 (Table 11).
//!
//! Each DB owner outsources, per server, one `SharedTable` derived from its
//! LineItem relation:
//!
//! | column | content at server φ |
//! |--------|---------------------|
//! | `OK`   | additive share of the OK-domain indicator χ (Step 1 of §5.1) |
//! | `PK LN SK DT` | Shamir share of `SELECT sum(col) … GROUP BY OK` |
//! | `vOK`  | additive share of the PF_db1-permuted complement χ̄ (§5.2) |
//! | `vPK vLN vSK vDT` | Shamir share of the PF_db1-permuted sum columns |
//! | `aOK`  | Shamir share of `SELECT count(*) … GROUP BY OK` |
//!
//! All columns have length `b = |Dom(OK)|`.

use serde::{Deserialize, Serialize};

/// Names of the four aggregation columns, in Table-11 order.
pub(crate) const AGG_COLUMNS: [&str; 4] = ["PK", "LN", "SK", "DT"];

/// One owner's upload to one server.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq, Default)]
pub struct SharedTable {
    /// Additive indicator share (`OK`).
    pub ok: Vec<u64>,
    /// Shamir aggregation shares (`PK`, `LN`, `SK`, `DT`), possibly fewer.
    pub agg: Vec<Vec<u64>>,
    /// Additive permuted-complement share (`vOK`).
    pub v_ok: Vec<u64>,
    /// Shamir permuted verification shares (`vPK` …), parallel to `agg`.
    pub v_agg: Vec<Vec<u64>>,
    /// Shamir tuple-count share (`aOK`).
    pub a_ok: Vec<u64>,
}

impl SharedTable {
    /// Domain size `b` (0 for an empty table).
    pub fn len(&self) -> usize {
        self.ok.len()
    }

    /// True iff no columns are populated.
    pub fn is_empty(&self) -> bool {
        self.ok.is_empty()
    }

    /// Number of aggregation attributes present.
    pub fn attributes(&self) -> usize {
        self.agg.len()
    }

    /// Total stored values across all columns (for size accounting).
    pub fn total_values(&self) -> usize {
        self.ok.len()
            + self.v_ok.len()
            + self.a_ok.len()
            + self.agg.iter().map(Vec::len).sum::<usize>()
            + self.v_agg.iter().map(Vec::len).sum::<usize>()
    }

    /// Split this table into row-range shard tables: shard `i` receives
    /// rows `[start_i, start_i + len_i)` of every populated column (empty
    /// columns stay empty everywhere — the third server holds no additive
    /// columns in any shard). `ranges` are `(start, len)` pairs, as
    /// produced by `prism_protocol::shard::ShardPlan`; out-of-range
    /// requests yield short or empty shard columns rather than panicking,
    /// matching the query-time shape checks downstream.
    pub fn split_rows(&self, ranges: &[(usize, usize)]) -> Vec<SharedTable> {
        let slice = |col: &[u64], &(start, len): &(usize, usize)| -> Vec<u64> {
            if col.is_empty() {
                return Vec::new();
            }
            col.get(start..start + len)
                .or_else(|| col.get(start..))
                .unwrap_or(&[])
                .to_vec()
        };
        ranges
            .iter()
            .map(|range| SharedTable {
                ok: slice(&self.ok, range),
                agg: self.agg.iter().map(|c| slice(c, range)).collect(),
                v_ok: slice(&self.v_ok, range),
                v_agg: self.v_agg.iter().map(|c| slice(c, range)).collect(),
                a_ok: slice(&self.a_ok, range),
            })
            .collect()
    }

    /// Validate internal consistency (all populated columns same length).
    ///
    /// The anchor length is the first non-empty column — the third server
    /// legitimately holds no additive (`OK`/`vOK`) columns.
    pub fn check(&self) -> Result<(), String> {
        let b = [self.ok.len(), self.a_ok.len(), self.v_ok.len()]
            .into_iter()
            .chain(self.agg.iter().map(Vec::len))
            .chain(self.v_agg.iter().map(Vec::len))
            .find(|&l| l > 0)
            .unwrap_or(0);
        let ok_len_anchor = |name: &str, v: &[u64]| {
            if !v.is_empty() && v.len() != b {
                Err(format!("column {name} has length {} != {b}", v.len()))
            } else {
                Ok(())
            }
        };
        ok_len_anchor("OK", &self.ok)?;
        let ok_len = |name: &str, v: &[u64]| {
            if !v.is_empty() && v.len() != b {
                Err(format!("column {name} has length {} != {b}", v.len()))
            } else {
                Ok(())
            }
        };
        ok_len("vOK", &self.v_ok)?;
        ok_len("aOK", &self.a_ok)?;
        for (i, c) in self.agg.iter().enumerate() {
            ok_len(AGG_COLUMNS.get(i).copied().unwrap_or("agg?"), c)?;
        }
        for (i, c) in self.v_agg.iter().enumerate() {
            ok_len(AGG_COLUMNS.get(i).copied().unwrap_or("vagg?"), c)?;
        }
        if !self.v_agg.is_empty() && self.v_agg.len() != self.agg.len() {
            return Err(format!(
                "verification columns ({}) do not match aggregation columns ({})",
                self.v_agg.len(),
                self.agg.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(b: usize, attrs: usize) -> SharedTable {
        SharedTable {
            ok: vec![1; b],
            agg: vec![vec![2; b]; attrs],
            v_ok: vec![3; b],
            v_agg: vec![vec![4; b]; attrs],
            a_ok: vec![5; b],
        }
    }

    #[test]
    fn accounting() {
        let t = table(10, 4);
        assert_eq!(t.len(), 10);
        assert_eq!(t.attributes(), 4);
        assert_eq!(t.total_values(), 10 * 11); // the 11 columns of Table 11
        assert!(t.check().is_ok());
    }

    #[test]
    fn check_rejects_ragged_columns() {
        let mut t = table(10, 2);
        t.agg[1] = vec![0; 9];
        assert!(t.check().is_err());
        let mut t = table(10, 2);
        t.v_agg.pop();
        assert!(t.check().is_err());
    }

    #[test]
    fn empty_table_is_consistent() {
        let t = SharedTable::default();
        assert!(t.is_empty());
        assert!(t.check().is_ok());
    }

    #[test]
    fn split_rows_partitions_every_column() {
        let t = SharedTable {
            ok: (0..10).collect(),
            agg: vec![(100..110).collect()],
            v_ok: (200..210).collect(),
            v_agg: vec![(300..310).collect()],
            a_ok: (400..410).collect(),
        };
        let shards = t.split_rows(&[(0, 4), (4, 4), (8, 2)]);
        assert_eq!(shards.len(), 3);
        for s in &shards {
            assert!(s.check().is_ok());
        }
        assert_eq!(shards[0].ok, vec![0, 1, 2, 3]);
        assert_eq!(shards[2].ok, vec![8, 9]);
        assert_eq!(shards[1].agg[0], vec![104, 105, 106, 107]);
        assert_eq!(shards[2].v_agg[0], vec![308, 309]);
        // Concatenating shard columns reassembles the source table.
        let rejoined: Vec<u64> = shards.iter().flat_map(|s| s.a_ok.clone()).collect();
        assert_eq!(rejoined, t.a_ok);
    }

    #[test]
    fn split_rows_keeps_absent_columns_absent() {
        // The third server's tables have no additive columns.
        let t = SharedTable {
            agg: vec![vec![7; 6]],
            a_ok: vec![8; 6],
            ..Default::default()
        };
        let shards = t.split_rows(&[(0, 3), (3, 3)]);
        assert!(shards.iter().all(|s| s.ok.is_empty() && s.v_ok.is_empty()));
        assert!(shards.iter().all(|s| s.agg[0].len() == 3));
    }
}
