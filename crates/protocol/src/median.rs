//! PSI Median (§6.4).
//!
//! Identical pipeline to PSI-Max through the server round; the announcer,
//! instead of `FindMax`, *sorts* the m reconstructed blinded values and
//! returns the middle one (odd m) or both middle ones (even m). Because
//! the blinding polynomial preserves order, the middle blinded value
//! belongs to the owner holding the middle plaintext value, so owners
//! invert `F` exactly as in max.
//!
//! Driven end-to-end by the [`crate::plans::Median`] round plan.

use crate::error::{ProtocolError, Result};
use crate::max::MaxAnnouncement;
use crate::params::{AnnouncerParams, OwnerParams};
use prism_core::prg::splitmix64;
use prism_core::wide::{self, WideVec};
use prism_core::{reconstruct2, share2, Prg};
use serde::{Deserialize, Serialize};

/// The announcer's reply for a median query: one announcement per middle
/// element (one for odd m, two for even m).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MedianAnnouncement {
    /// Middle element(s), ordered low→high.
    pub middles: Vec<MaxAnnouncement>,
}

/// Announcer: sort the blinded values per cell and share back the middle
/// value(s) and slot(s).
pub fn announcer_find_median(
    from_s1: &WideVec,
    from_s2: &WideVec,
    ap: &AnnouncerParams,
) -> Result<MedianAnnouncement> {
    if from_s1.rows() != from_s2.rows() || from_s1.width != from_s2.width {
        return Err(ProtocolError::MalformedResponse(
            "servers sent mismatched share matrices to announcer",
        ));
    }
    let w = from_s1.width;
    if from_s1.rows() % ap.m != 0 {
        return Err(ProtocolError::MalformedResponse(
            "announcer row count not a multiple of owner count",
        ));
    }
    let cells = from_s1.rows() / ap.m;
    let picks: Vec<usize> = if ap.m % 2 == 1 {
        vec![(ap.m - 1) / 2]
    } else {
        vec![ap.m / 2 - 1, ap.m / 2]
    };
    let mut middles: Vec<MaxAnnouncement> = picks
        .iter()
        .map(|_| MaxAnnouncement {
            max_shares_1: WideVec::zeroed(cells, w),
            max_shares_2: WideVec::zeroed(cells, w),
            index_shares: Vec::with_capacity(cells),
        })
        .collect();
    let mut seed = ap.seed ^ 0xD1B54A32D192ED03;
    let mut prg = Prg::from_seed(splitmix64(&mut seed));
    // Per-cell scratch: the m reconstructed values + their slots.
    let mut values = WideVec::zeroed(ap.m, w);
    let mut order: Vec<usize> = (0..ap.m).collect();
    for c in 0..cells {
        for slot in 0..ap.m {
            let r = c * ap.m + slot;
            wide::add_wrap(from_s1.row(r), from_s2.row(r), values.row_mut(slot));
        }
        order.clear();
        order.extend(0..ap.m);
        order.sort_by(|&a, &b| wide::cmp(values.row(a), values.row(b)));
        for (mi, &pick) in picks.iter().enumerate() {
            let slot = order[pick];
            let w_range = c * w..(c + 1) * w;
            let (ms1, ms2) = {
                let m = &mut middles[mi];
                (
                    &mut m.max_shares_1.data[w_range.clone()],
                    &mut m.max_shares_2.data[w_range],
                )
            };
            wide::share2_into(values.row(slot), &mut prg, ms1, ms2);
            middles[mi]
                .index_shares
                .push(share2(slot as u64, ap.delta, &mut prg));
        }
    }
    Ok(MedianAnnouncement { middles })
}

/// One decoded median cell.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MedianCell {
    /// Cell index in the domain.
    pub cell: usize,
    /// The middle plaintext value(s): one for odd m, two (low, high) for
    /// even m.
    pub values: Vec<u64>,
    /// Owner(s) holding the middle value(s), parallel to `values`.
    pub holders: Vec<usize>,
}

impl MedianCell {
    /// The scalar median: the single middle for odd m, the mean of the two
    /// middles for even m (may be fractional).
    pub fn median(&self) -> f64 {
        let s: u64 = self.values.iter().sum();
        s as f64 / self.values.len() as f64
    }
}

/// Owner: reconstruct and decode the announcement(s), evaluating `F` per
/// step of each inversion (Horner; the reference form of
/// [`owner_decode_median_tab`]).
pub fn owner_decode_median(
    common: &[usize],
    ann: &MedianAnnouncement,
    op: &OwnerParams,
) -> Result<Vec<MedianCell>> {
    let mut scratch = vec![0u64; op.wide_width];
    decode_median(common, ann, op, |v| {
        op.poly.invert_row(v, op.agg_domain_max, &mut scratch)
    })
}

/// Table-accelerated variant of [`owner_decode_median`]: each inversion
/// is a comparison-only search over `table`.
pub fn owner_decode_median_tab(
    common: &[usize],
    ann: &MedianAnnouncement,
    table: &prism_core::PolyTable,
    op: &OwnerParams,
) -> Result<Vec<MedianCell>> {
    decode_median(common, ann, op, |v| table.invert(v))
}

/// Both median decodes, shape checks up front; `invert` maps a blinded
/// value to its `z`.
fn decode_median(
    common: &[usize],
    ann: &MedianAnnouncement,
    op: &OwnerParams,
    mut invert: impl FnMut(&[u64]) -> Option<u64>,
) -> Result<Vec<MedianCell>> {
    let expected = if op.m % 2 == 1 { 1 } else { 2 };
    if ann.middles.len() != expected {
        return Err(ProtocolError::MalformedResponse(
            "wrong number of middle elements",
        ));
    }
    let n = common.len();
    if ann.middles.iter().any(|mid| {
        mid.max_shares_1.rows() != n || mid.max_shares_2.rows() != n || mid.index_shares.len() != n
    }) {
        return Err(ProtocolError::MalformedResponse(
            "announcement cell count mismatch",
        ));
    }
    let rpf = op.pf_owners.inverse();
    let mut v = vec![0u64; op.wide_width];
    let mut out = Vec::with_capacity(n);
    for (k, &cell) in common.iter().enumerate() {
        let mut values = Vec::with_capacity(expected);
        let mut holders = Vec::with_capacity(expected);
        for mid in &ann.middles {
            wide::add_wrap(mid.max_shares_1.row(k), mid.max_shares_2.row(k), &mut v);
            let permuted_slot =
                reconstruct2(mid.index_shares[k].0, mid.index_shares[k].1, op.delta) as usize;
            if permuted_slot >= op.m {
                return Err(ProtocolError::MalformedResponse(
                    "announced slot out of range",
                ));
            }
            values.push(invert(&v).ok_or(ProtocolError::InversionFailed)?);
            holders.push(rpf.apply_index(permuted_slot));
        }
        out.push(MedianCell {
            cell,
            values,
            holders,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max::{owner_blind_maxima, server_max_round};
    use crate::params::{Initiator, Setup, SystemConfig};

    fn setup(m: usize, b: usize, agg_max: u64, seed: u64) -> Setup {
        Initiator::new(
            SystemConfig::new(m, b)
                .with_seed(seed)
                .with_agg_domain_max(agg_max),
        )
        .setup()
        .unwrap()
    }

    fn run_median(
        setup: &Setup,
        values: &[Vec<u64>],
        common: &[usize],
        seed: u64,
    ) -> Vec<MedianCell> {
        let op = &setup.owner;
        let mut up1 = Vec::new();
        let mut up2 = Vec::new();
        for (j, vals) in values.iter().enumerate() {
            let mut prg = Prg::from_seed(seed + j as u64);
            let (a, b, _) = owner_blind_maxima(vals, common, op, &mut prg);
            up1.push(a);
            up2.push(b);
        }
        let t1 = server_max_round(&up1, &setup.servers[0]).unwrap();
        let t2 = server_max_round(&up2, &setup.servers[1]).unwrap();
        let ann = announcer_find_median(&t1, &t2, &setup.announcer).unwrap();
        owner_decode_median(common, &ann, op).unwrap()
    }

    #[test]
    fn odd_owner_count_single_middle() {
        let setup = setup(3, 1, 10_000, 60);
        let values = vec![vec![300u64], vec![220], vec![1500]];
        let cells = run_median(&setup, &values, &[0], 3);
        assert_eq!(cells[0].values, vec![300]);
        assert_eq!(cells[0].holders, vec![0]);
        assert!((cells[0].median() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn paper_example_median_cost() {
        // §6.4: median over per-hospital cost sums for Cancer:
        // H1: 100+200 = 300, H2: 100, H3: 300+700 = 1000 → median 300.
        let setup = setup(3, 1, 10_000, 61);
        let values = vec![vec![300u64], vec![100], vec![1000]];
        let cells = run_median(&setup, &values, &[0], 4);
        assert_eq!(cells[0].values, vec![300]);
        assert_eq!(cells[0].holders, vec![0]); // Hospital 1
    }

    #[test]
    fn even_owner_count_two_middles() {
        let setup = setup(4, 1, 10_000, 62);
        let values = vec![vec![10u64], vec![20], vec![30], vec![40]];
        let cells = run_median(&setup, &values, &[0], 5);
        assert_eq!(cells[0].values, vec![20, 30]);
        assert_eq!(cells[0].holders, vec![1, 2]);
        assert!((cells[0].median() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn median_over_multiple_cells() {
        let setup = setup(5, 3, 1000, 63);
        let values = vec![
            vec![1u64, 100, 7],
            vec![2u64, 200, 7],
            vec![3u64, 300, 7],
            vec![4u64, 400, 7],
            vec![5u64, 500, 7],
        ];
        let cells = run_median(&setup, &values, &[0, 1, 2], 6);
        assert_eq!(cells[0].values, vec![3]);
        assert_eq!(cells[1].values, vec![300]);
        assert_eq!(cells[2].values, vec![7]);
        assert_eq!(cells[0].holders, vec![2]);
    }

    #[test]
    fn malformed_announcement_rejected() {
        let setup = setup(3, 1, 100, 64);
        let ann = MedianAnnouncement { middles: vec![] };
        assert!(owner_decode_median(&[0], &ann, &setup.owner).is_err());
    }
}
