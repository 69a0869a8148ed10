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
        let ok_len = |name: &str, v: &[u64]| {
            if !v.is_empty() && v.len() != b {
                Err(format!("column {name} has length {} != {b}", v.len()))
            } else {
                Ok(())
            }
        };
        ok_len("OK", &self.ok)?;
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
}
