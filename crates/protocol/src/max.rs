//! PSI Maximum (§6.3): three rounds, announcer-assisted.
//!
//! After PSI identifies the common cells, for every common cell:
//!
//! * **Step 3 (owner)**: owner j takes its per-cell maximum `M_j`, blinds
//!   it through the initiator's order polynomial — `v_j = F(M_j) + r_j`
//!   with `r_j < F(M_j+1) − F(M_j)` — and uploads additive shares over
//!   `Z_{2^{64w}}` (the blinded values are huge integers; order
//!   preservation forbids any modular reduction).
//! * **Step 4 (servers → announcer)**: each server collects the m shares
//!   into owner order, applies the shared permutation `PF`, and forwards
//!   to the announcer, which reconstructs the m blinded values, finds the
//!   maximum and its (permuted) slot, and returns additive shares of both
//!   through the servers.
//! * **Step 5a (owner)**: owners reconstruct `max`, un-permute the slot
//!   with `RPF`, and recover the plaintext maximum as the unique `z` with
//!   `F(z) ≤ max < F(z+1)` (binary search).
//! * **Steps 5b–7 (optional round 3)**: owners claim/deny holding the max
//!   via shared bits; the assembled `fpos` vector tells everyone *which*
//!   owners hold it (ties included). Servers relay the claim shares in
//!   owner order, one column per owner, as the owners sent them.
//!
//! All per-cell wide values live in flat [`WideVec`] buffers — the
//! pipeline performs no per-cell allocation, which is what keeps PSI-Max
//! within a small factor of plain PSI even over millions of common cells
//! (the Figure 3 shape).
//!
//! Two forms of every `F` step: the `_tab` functions read `F` from the
//! owner view's cached [`prism_core::PolyTable`]
//! ([`OwnerParams::poly_table`]), which the plans use whenever the
//! aggregation domain allows one; the others evaluate `F` per cell
//! (Horner) — the plans' path past
//! [`POLY_TABLE_LIMIT`](crate::params::POLY_TABLE_LIMIT), and the reference
//! the tests hold the table path to.
//!
//! Verification (reconstruction; DESIGN.md §3.9): each owner checks the
//! announced max is ≥ its own blinded contribution, that F-inversion
//! succeeds, and that at least one owner claims the max in round 3.
//!
//! Driven end-to-end by the [`crate::plans::Max`] round plan (chunked
//! per-cell pipeline over the engine's wide-share commands).

use crate::chunk::map_blocks;
use crate::error::{ProtocolError, Result};
use crate::params::{AnnouncerParams, OwnerParams, ServerParams};
use prism_core::prg::splitmix64;
use prism_core::wide::{self, WideVec};
use prism_core::{reconstruct2, share2, Prg};
use serde::{Deserialize, Serialize};

/// One owner's round-2 upload for one server: its blinded per-cell maxima
/// as additive wide shares (one row per common cell).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlindedMaxUpload {
    /// Share rows, one per common cell (in the agreed common-cell order).
    pub shares: WideVec,
}

/// Owner Step 3's precondition: every value `owner` blinds — its values
/// at the common cells — lies in `[0, hi]`, the domain `F` and the wide
/// group were sized for. A larger value would overflow the table or the
/// group, and the owners would then blame the servers for their own
/// input; it is refused here as [`ProtocolError::OutOfDomain`].
pub fn owner_check_domain(owner: usize, values: &[u64], common: &[usize], hi: u64) -> Result<()> {
    match common.iter().map(|&cell| values[cell]).find(|&v| v > hi) {
        Some(v) => Err(ProtocolError::OutOfDomain {
            value: format!("owner {owner}: {v} (max / median values end at {hi})"),
        }),
        None => Ok(()),
    }
}

/// Owner Step 3: blind the maxima of the given (common) cells and split
/// into two wide-share uploads. Also returns the owner's own blinded
/// values `v_j` (one row per cell) for later verification.
pub fn owner_blind_maxima(
    maxima: &[u64],
    common: &[usize],
    op: &OwnerParams,
    prg: &mut Prg,
) -> (BlindedMaxUpload, BlindedMaxUpload, WideVec) {
    let w = op.wide_width;
    let mut s1 = WideVec::zeroed(common.len(), w);
    let mut s2 = WideVec::zeroed(common.len(), w);
    let mut own = WideVec::zeroed(common.len(), w);
    let mut fm = vec![0u64; w];
    let mut gap = vec![0u64; w];
    for (k, &cell) in common.iter().enumerate() {
        let v = own.row_mut(k);
        op.poly.blind_into(maxima[cell], prg, v, &mut fm, &mut gap);
        wide::share2_into(own.row(k), prg, s1.row_mut(k), {
            // Split borrows: s2 row is disjoint from s1's buffer.
            &mut s2.data[k * w..(k + 1) * w]
        });
    }
    (
        BlindedMaxUpload { shares: s1 },
        BlindedMaxUpload { shares: s2 },
        own,
    )
}

/// Server Step 4: per cell, gather the m owners' share rows and apply the
/// shared owner-slot permutation `PF`. Output rows are laid out
/// `cell·m + permuted_slot`. Chunk-parallel over cells.
pub fn server_max_round(owner_uploads: &[BlindedMaxUpload], sp: &ServerParams) -> Result<WideVec> {
    server_max_round_threads(owner_uploads, sp, 1)
}

/// [`server_max_round`] with an explicit worker count.
pub fn server_max_round_threads(
    owner_uploads: &[BlindedMaxUpload],
    sp: &ServerParams,
    threads: usize,
) -> Result<WideVec> {
    if owner_uploads.len() != sp.m {
        return Err(ProtocolError::ParameterMismatch(format!(
            "expected {} owner uploads, got {}",
            sp.m,
            owner_uploads.len()
        )));
    }
    let w = sp.wide_width;
    let cells = owner_uploads[0].shares.rows();
    if owner_uploads
        .iter()
        .any(|u| u.shares.rows() != cells || u.shares.width != w)
    {
        return Err(ProtocolError::ParameterMismatch(
            "owners disagree on common-cell count or width".into(),
        ));
    }
    let slots: Vec<usize> = (0..sp.m).map(|j| sp.pf_owners.dest(j)).collect();
    let mut out = WideVec::zeroed(cells * sp.m, w);
    let row_stride = sp.m * w;
    crate::chunk::fill_rows(&mut out.data, row_stride, threads, |first_cell, chunk| {
        let n_cells = chunk.len() / row_stride;
        for (j, upload) in owner_uploads.iter().enumerate() {
            let slot = slots[j];
            for k in 0..n_cells {
                let c = first_cell + k;
                let dst = k * row_stride + slot * w;
                chunk[dst..dst + w].copy_from_slice(upload.shares.row(c));
            }
        }
    });
    Ok(out)
}

/// What the announcer returns (via the servers) for each common cell:
/// additive shares of the winning value and of its permuted slot index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaxAnnouncement {
    /// Wide shares of the per-cell max, path 1 (row = cell).
    pub max_shares_1: WideVec,
    /// Wide shares of the per-cell max, path 2.
    pub max_shares_2: WideVec,
    /// Per cell: additive (mod δ) shares of the winning *permuted* slot.
    pub index_shares: Vec<(u64, u64)>,
}

/// Announcer (Equations 13–14): add the per-slot shares from the two
/// servers, find the max and its slot per cell, and re-share both.
/// Chunk-parallel over cells.
pub fn announcer_find_max(
    from_s1: &WideVec,
    from_s2: &WideVec,
    ap: &AnnouncerParams,
) -> Result<MaxAnnouncement> {
    announcer_find_max_threads(from_s1, from_s2, ap, 1)
}

/// [`announcer_find_max`] with an explicit worker count.
pub fn announcer_find_max_threads(
    from_s1: &WideVec,
    from_s2: &WideVec,
    ap: &AnnouncerParams,
    threads: usize,
) -> Result<MaxAnnouncement> {
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
    let mut max_shares_1 = WideVec::zeroed(cells, w);
    let mut max_shares_2 = WideVec::zeroed(cells, w);
    let mut index_shares = vec![(0u64, 0u64); cells];
    // One block of `ceil(cells / threads)` cells per worker, each with a
    // PRG seeded from its first cell.
    let chunk = cells.div_ceil(threads.max(1)).max(1);
    // (`w` is the servers' word: a zero-width, zero-row matrix decodes.)
    let wide_chunk = (chunk * w).max(1);
    let blocks = (max_shares_1.data.chunks_mut(wide_chunk))
        .zip(max_shares_2.data.chunks_mut(wide_chunk))
        .zip(index_shares.chunks_mut(chunk))
        .enumerate();
    map_blocks(blocks, |(block, ((ms1_c, ms2_c), idx_c))| {
        let start = block * chunk;
        let mut prg = Prg::from_seed({
            let mut s = ap.seed ^ (start as u64).wrapping_mul(0xA24BAED4963EE407);
            splitmix64(&mut s)
        });
        let mut cur = vec![0u64; w];
        let mut best = vec![0u64; w];
        for (k, idx) in idx_c.iter_mut().enumerate() {
            let c = start + k;
            let mut best_slot = 0usize;
            for slot in 0..ap.m {
                let r = c * ap.m + slot;
                wide::add_wrap(from_s1.row(r), from_s2.row(r), &mut cur);
                if slot == 0 || wide::cmp(&cur, &best) == std::cmp::Ordering::Greater {
                    best.copy_from_slice(&cur);
                    best_slot = slot;
                }
            }
            // Re-share the winner: value over Z_{2^{64w}}, slot
            // over Z_δ.
            wide::share2_into(
                &best,
                &mut prg,
                &mut ms1_c[k * w..(k + 1) * w],
                &mut ms2_c[k * w..(k + 1) * w],
            );
            *idx = share2(best_slot as u64, ap.delta, &mut prg);
        }
    });
    Ok(MaxAnnouncement {
        max_shares_1,
        max_shares_2,
        index_shares,
    })
}

/// Corrupt an (honestly computed) announcement in place according to an
/// [`AnnouncerTamper`](crate::malicious::AnnouncerTamper) — the
/// announcer-side analogue of
/// [`Tamper::apply`](crate::malicious::Tamper::apply). `from_s1`/`from_s2`
/// are the server matrices the announcement was computed from
/// (`cells × m` rows); the tampered announcement stays shape-valid, so
/// detection is the *owners'* job (exactly the paper's threat model).
pub fn tamper_announcement(
    ann: &mut MaxAnnouncement,
    from_s1: &WideVec,
    from_s2: &WideVec,
    tamper: &crate::malicious::AnnouncerTamper,
    ap: &AnnouncerParams,
) {
    use crate::malicious::AnnouncerTamper;
    let w = from_s1.width;
    let cells = ann.max_shares_1.rows();
    match *tamper {
        AnnouncerTamper::Honest => {}
        AnnouncerTamper::AnnounceSlot(slot) => {
            let s = slot % ap.m.max(1);
            let mut prg = Prg::from_seed(ap.seed ^ 0xBAD_A2205107 ^ slot as u64);
            let mut v = vec![0u64; w];
            for c in 0..cells {
                let r = c * ap.m + s;
                wide::add_wrap(from_s1.row(r), from_s2.row(r), &mut v);
                wide::share2_into(&v, &mut prg, ann.max_shares_1.row_mut(c), {
                    &mut ann.max_shares_2.data[c * w..(c + 1) * w]
                });
                ann.index_shares[c] = share2(s as u64, ap.delta, &mut prg);
            }
        }
        AnnouncerTamper::FakeValue { seed } => {
            let mut prg = Prg::from_seed(seed ^ ap.seed);
            let mut v = vec![0u64; w];
            for c in 0..cells {
                wide::random_full_into(&mut prg, &mut v);
                wide::share2_into(&v, &mut prg, ann.max_shares_1.row_mut(c), {
                    &mut ann.max_shares_2.data[c * w..(c + 1) * w]
                });
            }
        }
    }
}

/// One decoded maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaxCell {
    /// Cell index in the domain (as listed in `common`).
    pub cell: usize,
    /// The plaintext maximum (the `z` of Step 5a).
    pub max: u64,
    /// The owner the announcer credited (one of possibly several tied).
    pub holder: usize,
}

/// Owner Step 5a: reconstruct and decode every cell's maximum. Returns
/// the decoded cells plus the reconstructed blinded maxima (needed for
/// verification).
pub fn owner_decode_max(
    common: &[usize],
    ann: &MaxAnnouncement,
    op: &OwnerParams,
) -> Result<(Vec<MaxCell>, WideVec)> {
    let w = op.wide_width;
    if ann.max_shares_1.rows() != common.len()
        || ann.max_shares_2.rows() != common.len()
        || ann.index_shares.len() != common.len()
    {
        return Err(ProtocolError::MalformedResponse(
            "announcement cell count mismatch",
        ));
    }
    let rpf = op.pf_owners.inverse();
    let mut decoded = Vec::with_capacity(common.len());
    let mut blinded = WideVec::zeroed(common.len(), w);
    let mut scratch = vec![0u64; w];
    for (k, &cell) in common.iter().enumerate() {
        wide::add_wrap(
            ann.max_shares_1.row(k),
            ann.max_shares_2.row(k),
            blinded.row_mut(k),
        );
        let permuted_slot =
            reconstruct2(ann.index_shares[k].0, ann.index_shares[k].1, op.delta) as usize;
        if permuted_slot >= op.m {
            return Err(ProtocolError::MalformedResponse(
                "announced slot out of range",
            ));
        }
        let holder = rpf.apply_index(permuted_slot);
        let max = op
            .poly
            .invert_row(blinded.row(k), op.agg_domain_max, &mut scratch)
            .ok_or(ProtocolError::InversionFailed)?;
        decoded.push(MaxCell { cell, max, holder });
    }
    Ok((decoded, blinded))
}

/// Table-accelerated, chunk-parallel variant of [`owner_blind_maxima`]:
/// `F(M)`/`F(M+1)` become row lookups and cells split across `threads`
/// workers (each with a chunk-derived PRG, so results are deterministic
/// in `seed` for a fixed thread-independent chunking).
pub fn owner_blind_maxima_tab(
    maxima: &[u64],
    common: &[usize],
    table: &prism_core::PolyTable,
    op: &OwnerParams,
    seed: u64,
    threads: usize,
) -> (BlindedMaxUpload, BlindedMaxUpload, WideVec) {
    let w = op.wide_width;
    debug_assert_eq!(table.width(), w);
    let n = common.len();
    let mut s1 = WideVec::zeroed(n, w);
    let mut s2 = WideVec::zeroed(n, w);
    let mut own = WideVec::zeroed(n, w);
    // Fixed chunk granularity so the PRG assignment (and thus the shares)
    // does not depend on the thread count; worker `t` takes chunks
    // `t, t + threads, …`.
    let wide_chunk = PAR_CHUNK_CELLS * w;
    let chunks = (common.chunks(PAR_CHUNK_CELLS))
        .zip(s1.data.chunks_mut(wide_chunk))
        .zip(s2.data.chunks_mut(wide_chunk))
        .zip(own.data.chunks_mut(wide_chunk))
        .enumerate();
    let workers = threads.clamp(1, n.div_ceil(PAR_CHUNK_CELLS).max(1));
    let mut work: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
    for (chunk_no, chunk) in chunks {
        work[chunk_no % workers].push((chunk_no as u64, chunk));
    }
    map_blocks(work, |chunks| {
        for (chunk_no, (((cells, s1c), s2c), ownc)) in chunks {
            let mut prg = Prg::from_seed({
                let mut s = seed ^ chunk_no.wrapping_mul(0x9E3779B97F4A7C15);
                splitmix64(&mut s)
            });
            let mut scratch = vec![0u64; w];
            for (k, &cell) in cells.iter().enumerate() {
                let r = k * w..(k + 1) * w;
                table.blind_into(maxima[cell], &mut prg, &mut ownc[r.clone()], &mut scratch);
                wide::share2_into(&ownc[r.clone()], &mut prg, &mut s1c[r.clone()], &mut s2c[r]);
            }
        }
    });
    (
        BlindedMaxUpload { shares: s1 },
        BlindedMaxUpload { shares: s2 },
        own,
    )
}

/// Cells per parallel work chunk in the table-accelerated paths.
const PAR_CHUNK_CELLS: usize = 8192;

/// Table-accelerated variant of [`owner_decode_max`]: inversion is a
/// comparison-only binary search over the precomputed rows, chunk-parallel.
pub fn owner_decode_max_tab(
    common: &[usize],
    ann: &MaxAnnouncement,
    table: &prism_core::PolyTable,
    op: &OwnerParams,
    threads: usize,
) -> Result<(Vec<MaxCell>, WideVec)> {
    let w = op.wide_width;
    let n = common.len();
    if ann.max_shares_1.rows() != n || ann.max_shares_2.rows() != n || ann.index_shares.len() != n {
        return Err(ProtocolError::MalformedResponse(
            "announcement cell count mismatch",
        ));
    }
    let rpf = op.pf_owners.inverse();
    let mut blinded = WideVec::zeroed(n, w);
    let mut decoded: Vec<MaxCell> = vec![
        MaxCell {
            cell: 0,
            max: 0,
            holder: 0
        };
        n
    ];
    let chunk = n.div_ceil(threads.max(1)).max(1);
    let blocks = (decoded.chunks_mut(chunk))
        .zip(blinded.data.chunks_mut(chunk * w))
        .enumerate();
    let rpf = &rpf;
    map_blocks(blocks, |(block, (dec_c, blind_c))| {
        for (k, (dec, blind)) in (block * chunk..).zip(dec_c.iter_mut().zip(blind_c.chunks_mut(w)))
        {
            wide::add_wrap(ann.max_shares_1.row(k), ann.max_shares_2.row(k), blind);
            let permuted_slot =
                reconstruct2(ann.index_shares[k].0, ann.index_shares[k].1, op.delta) as usize;
            if permuted_slot >= op.m {
                return Err(ProtocolError::MalformedResponse(
                    "announced slot out of range",
                ));
            }
            *dec = MaxCell {
                cell: common[k],
                max: table.invert(blind).ok_or(ProtocolError::InversionFailed)?,
                holder: rpf.apply_index(permuted_slot),
            };
        }
        Ok(())
    })
    .into_iter()
    .collect::<Result<()>>()?;
    Ok((decoded, blinded))
}

/// Owner Step 5b: decide, per common cell, whether this owner holds the
/// announced max, and share the claim bits additively.
pub fn owner_claim_bits(
    maxima: &[u64],
    decoded: &[MaxCell],
    op: &OwnerParams,
    prg: &mut Prg,
) -> (Vec<u64>, Vec<u64>) {
    let mut s1 = Vec::with_capacity(decoded.len());
    let mut s2 = Vec::with_capacity(decoded.len());
    for d in decoded {
        let claim = u64::from(maxima[d.cell] == d.max);
        let (a, b) = share2(claim, op.delta, prg);
        s1.push(a);
        s2.push(b);
    }
    (s1, s2)
}

/// Server Step 6: assemble the fpos table — the m owners' claim shares in
/// owner order (no permutation; identities are the point), relayed
/// owner-major: one column of `cells` shares per owner, as the owners sent
/// them. Cell `c`'s fpos row is entry `c` of every column.
pub fn server_assemble_fpos(owner_claims: &[Vec<u64>], sp: &ServerParams) -> Result<Vec<Vec<u64>>> {
    if owner_claims.len() != sp.m {
        return Err(ProtocolError::ParameterMismatch(format!(
            "expected {} claim vectors, got {}",
            sp.m,
            owner_claims.len()
        )));
    }
    let cells = owner_claims[0].len();
    if owner_claims.iter().any(|c| c.len() != cells) {
        return Err(ProtocolError::ParameterMismatch(
            "owners disagree on claim-vector length".into(),
        ));
    }
    Ok(owner_claims.to_vec())
}

/// Owner Step 7: add the two servers' owner-major fpos tables (m columns
/// of one length each) → per-cell holder bitmaps, one `bool` per owner.
pub fn owner_decode_fpos(
    fpos1: &[Vec<u64>],
    fpos2: &[Vec<u64>],
    op: &OwnerParams,
) -> Result<Vec<Vec<bool>>> {
    if fpos1.len() != op.m || fpos2.len() != op.m {
        return Err(ProtocolError::MalformedResponse(
            "fpos table does not have one column per owner",
        ));
    }
    let cells = fpos1[0].len();
    if fpos1
        .iter()
        .chain(fpos2)
        .any(|column| column.len() != cells)
    {
        return Err(ProtocolError::MalformedResponse(
            "fpos columns differ in length",
        ));
    }
    Ok((0..cells)
        .map(|c| {
            (fpos1.iter().zip(fpos2))
                .map(|(a, b)| reconstruct2(a[c], b[c], op.delta) == 1)
                .collect()
        })
        .collect())
}

/// Owner-side max verification (reconstruction; DESIGN.md §3.9):
///
/// 1. the announced blinded max must be ≥ this owner's own contribution;
/// 2. F-inversion must have succeeded (checked in `owner_decode_max`);
/// 3. at least one owner must claim each cell's max in fpos, and the
///    credited holder must be among the claimants.
pub fn owner_verify_max(
    own_blinded: &WideVec,
    announced_blinded: &WideVec,
    decoded: &[MaxCell],
    holders: &[Vec<bool>],
) -> Result<()> {
    for (k, d) in decoded.iter().enumerate() {
        if wide::cmp(own_blinded.row(k), announced_blinded.row(k)) == std::cmp::Ordering::Greater {
            return Err(ProtocolError::VerificationFailed {
                operation: "psi-max (announced max below own value)",
                cell: d.cell,
            });
        }
        let claimed = &holders[k];
        if !claimed.iter().any(|&c| c) {
            return Err(ProtocolError::VerificationFailed {
                operation: "psi-max (no owner claims the max)",
                cell: d.cell,
            });
        }
        if !claimed[d.holder] {
            return Err(ProtocolError::VerificationFailed {
                operation: "psi-max (credited holder does not claim)",
                cell: d.cell,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::median::{announcer_find_median, owner_decode_median, owner_decode_median_tab};
    use crate::params::{Initiator, Setup, SystemConfig};
    use prism_core::{BigUint, OrderPolynomial};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn setup(m: usize, b: usize, agg_max: u64, seed: u64) -> Setup {
        Initiator::new(
            SystemConfig::new(m, b)
                .with_seed(seed)
                .with_agg_domain_max(agg_max),
        )
        .setup()
        .unwrap()
    }

    /// Drive the full rounds 2–3 given per-owner maxima tables.
    fn run_max(
        setup: &Setup,
        maxima: &[Vec<u64>],
        common: &[usize],
        seed: u64,
    ) -> (Vec<MaxCell>, Vec<Vec<bool>>) {
        let op = &setup.owner;
        let m = op.m;
        let mut up1 = Vec::new();
        let mut up2 = Vec::new();
        let mut own_blinded = Vec::new();
        for j in 0..m {
            let mut prg = Prg::from_seed(seed + j as u64);
            let (a, b, own) = owner_blind_maxima(&maxima[j], common, op, &mut prg);
            up1.push(a);
            up2.push(b);
            own_blinded.push(own);
        }
        let to_ann_1 = server_max_round(&up1, &setup.servers[0]).unwrap();
        let to_ann_2 = server_max_round(&up2, &setup.servers[1]).unwrap();
        let ann = announcer_find_max(&to_ann_1, &to_ann_2, &setup.announcer).unwrap();
        let (decoded, announced) = owner_decode_max(common, &ann, op).unwrap();

        // Round 3: claims.
        let mut claims1 = Vec::new();
        let mut claims2 = Vec::new();
        for j in 0..m {
            let mut prg = Prg::from_seed(seed + 1000 + j as u64);
            let (a, b) = owner_claim_bits(&maxima[j], &decoded, op, &mut prg);
            claims1.push(a);
            claims2.push(b);
        }
        let fpos1 = server_assemble_fpos(&claims1, &setup.servers[0]).unwrap();
        let fpos2 = server_assemble_fpos(&claims2, &setup.servers[1]).unwrap();
        let holders = owner_decode_fpos(&fpos1, &fpos2, op).unwrap();

        // Every owner runs verification on its own contributions.
        for j in 0..m {
            owner_verify_max(&own_blinded[j], &announced, &decoded, &holders).unwrap();
        }
        (decoded, holders)
    }

    #[test]
    fn example_6_3_1_maximum_age() {
        // Hospitals' max ages for the common disease: 6, 8, 8.
        // Expected: max = 8, held by hospitals 2 and 3 (indices 1 and 2).
        let setup = setup(3, 3, 100, 41);
        let maxima = vec![vec![6u64, 0, 0], vec![8, 0, 0], vec![8, 0, 0]];
        let (decoded, holders) = run_max(&setup, &maxima, &[0], 7);
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].max, 8);
        assert!(decoded[0].holder == 1 || decoded[0].holder == 2);
        assert_eq!(holders[0], vec![false, true, true]);
    }

    #[test]
    fn max_matches_plaintext_over_many_cells() {
        let setup = setup(4, 6, 10_000, 42);
        let maxima = vec![
            vec![10u64, 500, 3, 42, 7, 9999],
            vec![20u64, 400, 3, 41, 7, 1],
            vec![15u64, 300, 3, 40, 7, 2],
            vec![5u64, 200, 3, 39, 7, 3],
        ];
        let common = vec![0usize, 1, 2, 3, 4, 5];
        let (decoded, holders) = run_max(&setup, &maxima, &common, 9);
        let expected_max = [20u64, 500, 3, 42, 7, 9999];
        let expected_holder_sets: Vec<Vec<usize>> = vec![
            vec![1],
            vec![0],
            vec![0, 1, 2, 3], // tie across all owners
            vec![0],
            vec![0, 1, 2, 3],
            vec![0],
        ];
        for (k, d) in decoded.iter().enumerate() {
            assert_eq!(d.max, expected_max[k], "cell {k}");
            let holder_list: Vec<usize> = holders[k]
                .iter()
                .enumerate()
                .filter_map(|(j, &h)| h.then_some(j))
                .collect();
            assert_eq!(holder_list, expected_holder_sets[k], "cell {k}");
            assert!(holders[k][d.holder], "credited holder must claim");
        }
    }

    #[test]
    fn announced_identity_survives_permutation() {
        for seed in 0..5u64 {
            let setup = setup(5, 2, 1000, 100 + seed);
            let maxima = vec![
                vec![1u64, 0],
                vec![2u64, 0],
                vec![3u64, 0],
                vec![999u64, 0],
                vec![4u64, 0],
            ];
            let (decoded, _) = run_max(&setup, &maxima, &[0], seed);
            assert_eq!(decoded[0].max, 999);
            assert_eq!(decoded[0].holder, 3, "seed {seed}");
        }
    }

    #[test]
    fn verification_catches_understated_max() {
        let setup = setup(3, 1, 1000, 50);
        let op = &setup.owner;
        let maxima = [vec![10u64], vec![20u64], vec![30u64]];
        let common = vec![0usize];

        let mut up1 = Vec::new();
        let mut up2 = Vec::new();
        let mut own = Vec::new();
        for j in 0..3 {
            let mut prg = Prg::from_seed(500 + j as u64);
            let (a, b, o) = owner_blind_maxima(&maxima[j], &common, op, &mut prg);
            up1.push(a);
            up2.push(b);
            own.push(o);
        }
        let t1 = server_max_round(&up1, &setup.servers[0]).unwrap();
        let t2 = server_max_round(&up2, &setup.servers[1]).unwrap();
        let mut ann = announcer_find_max(&t1, &t2, &setup.announcer).unwrap();

        // Malicious announcer: understate the max — announce owner 0's
        // blinded value (of 10) instead of the true max (30).
        let w = op.wide_width;
        let mut prg = Prg::from_seed(9999);
        let v_small = own[0].row(0).to_vec();
        wide::share2_into(
            &v_small,
            &mut prg,
            ann.max_shares_1.row_mut(0),
            &mut ann.max_shares_2.data[0..w],
        );

        let (decoded, announced) = owner_decode_max(&common, &ann, op).unwrap();
        // Owner 2 (holding 30 > 10) detects the fraud.
        let holders = vec![vec![true, false, false]];
        let err = owner_verify_max(&own[2], &announced, &decoded, &holders).unwrap_err();
        assert!(matches!(err, ProtocolError::VerificationFailed { .. }));
    }

    #[test]
    fn verification_catches_fabricated_max() {
        // Announcer invents a value above everyone: nobody claims it.
        let setup = setup(3, 1, 1000, 51);
        let op = &setup.owner;
        let maxima = [vec![10u64], vec![20u64], vec![30u64]];
        let common = vec![0usize];
        let w = op.wide_width;
        let mut prg = Prg::from_seed(7);
        let fake_big: BigUint = op.poly.eval(500);
        let mut fake = vec![0u64; w];
        fake[..fake_big.limb_len()].copy_from_slice(fake_big.limbs());
        let mut ms1 = WideVec::zeroed(1, w);
        let mut ms2 = WideVec::zeroed(1, w);
        wide::share2_into(&fake, &mut prg, ms1.row_mut(0), &mut ms2.data[0..w]);
        let ann = MaxAnnouncement {
            max_shares_1: ms1,
            max_shares_2: ms2,
            index_shares: vec![share2(0, op.delta, &mut prg)],
        };
        let (decoded, announced) = owner_decode_max(&common, &ann, op).unwrap();
        assert_eq!(decoded[0].max, 500);
        // Round 3: nobody claims 500.
        let mut claims1 = Vec::new();
        let mut claims2 = Vec::new();
        for j in 0..3 {
            let mut prg = Prg::from_seed(600 + j as u64);
            let (a, b) = owner_claim_bits(&maxima[j], &decoded, op, &mut prg);
            claims1.push(a);
            claims2.push(b);
        }
        let fpos1 = server_assemble_fpos(&claims1, &setup.servers[0]).unwrap();
        let fpos2 = server_assemble_fpos(&claims2, &setup.servers[1]).unwrap();
        let holders = owner_decode_fpos(&fpos1, &fpos2, op).unwrap();
        let own_blinded = {
            let mut v = WideVec::zeroed(1, w);
            op.poly.eval_into(10, v.row_mut(0));
            v
        };
        assert!(owner_verify_max(&own_blinded, &announced, &decoded, &holders).is_err());
    }

    #[test]
    fn inversion_failure_is_detected() {
        let setup = setup(2, 1, 100, 52);
        let op = &setup.owner;
        let w = op.wide_width;
        let mut prg = Prg::from_seed(8);
        let huge_big = op.poly.eval(op.agg_domain_max + 50);
        let mut huge = vec![0u64; w];
        huge[..huge_big.limb_len()].copy_from_slice(huge_big.limbs());
        let mut ms1 = WideVec::zeroed(1, w);
        let mut ms2 = WideVec::zeroed(1, w);
        wide::share2_into(&huge, &mut prg, ms1.row_mut(0), &mut ms2.data[0..w]);
        let ann = MaxAnnouncement {
            max_shares_1: ms1,
            max_shares_2: ms2,
            index_shares: vec![share2(0, op.delta, &mut prg)],
        };
        assert_eq!(
            owner_decode_max(&[0], &ann, op).unwrap_err(),
            ProtocolError::InversionFailed
        );
    }

    #[test]
    fn paper_polynomial_reproduces_example_values() {
        // Cross-check the §6.3.1 arithmetic through the protocol types.
        let f = OrderPolynomial::paper_example();
        assert_eq!(f.eval(6).add_u64(216), BigUint::from_u64(1771));
        assert_eq!(f.eval(8).add_u64(1), BigUint::from_u64(4682));
        assert_eq!(f.eval(8).add_u64(319), BigUint::from_u64(5000));
    }

    #[test]
    fn shape_validation() {
        let setup = setup(2, 2, 100, 53);
        let bad = vec![BlindedMaxUpload {
            shares: WideVec::zeroed(0, setup.owner.wide_width),
        }];
        assert!(server_max_round(&bad, &setup.servers[0]).is_err());
    }

    #[test]
    fn flat_pipeline_matches_biguint_reference() {
        // Reconstruct the blinded values from the two server matrices and
        // confirm they decode to the owners' plaintext maxima windows.
        let setup = setup(3, 2, 500, 54);
        let op = &setup.owner;
        let maxima = [vec![5u64, 100], vec![7, 200], vec![9, 300]];
        let common = vec![0usize, 1];
        let mut up1 = Vec::new();
        let mut up2 = Vec::new();
        for j in 0..3 {
            let mut prg = Prg::from_seed(700 + j as u64);
            let (a, b, _) = owner_blind_maxima(&maxima[j], &common, op, &mut prg);
            up1.push(a);
            up2.push(b);
        }
        let t1 = server_max_round(&up1, &setup.servers[0]).unwrap();
        let t2 = server_max_round(&up2, &setup.servers[1]).unwrap();
        // Each row of t1+t2 is some owner's blinded value for some cell.
        for c in 0..2 {
            for slot in 0..3 {
                let r = c * 3 + slot;
                let mut v = vec![0u64; op.wide_width];
                wide::add_wrap(t1.row(r), t2.row(r), &mut v);
                let big = BigUint::from_limbs(v.clone());
                let j = op.pf_owners.inverse().apply_index(slot);
                let m = maxima[j][c];
                assert!(big >= op.poly.eval(m) && big < op.poly.eval(m + 1));
            }
        }
    }

    #[test]
    fn fpos_relay_is_owner_major_and_shape_checked() {
        use crate::error::ProtocolError::MalformedResponse;
        let setup = setup(3, 4, 100, 55);
        let op = &setup.owner;
        // Owner j claims the cells c with c % 3 == j.
        let mut prg = Prg::from_seed(56);
        let (mut claims1, mut claims2) = (Vec::new(), Vec::new());
        for j in 0..3u64 {
            let (a, b): (Vec<u64>, Vec<u64>) = (0..4u64)
                .map(|c| share2(u64::from(c % 3 == j), op.delta, &mut prg))
                .unzip();
            claims1.push(a);
            claims2.push(b);
        }
        let fpos1 = server_assemble_fpos(&claims1, &setup.servers[0]).unwrap();
        let fpos2 = server_assemble_fpos(&claims2, &setup.servers[1]).unwrap();
        assert_eq!(fpos1, claims1, "the relay is the owners' columns, in order");
        let holders = owner_decode_fpos(&fpos1, &fpos2, op).unwrap();
        let want: Vec<Vec<bool>> = (0..4)
            .map(|c| (0..3).map(|j| c % 3 == j).collect())
            .collect();
        assert_eq!(holders, want);

        // A ragged claim set is refused at the server ...
        let mut ragged = claims1.clone();
        ragged[1].pop();
        assert!(matches!(
            server_assemble_fpos(&ragged, &setup.servers[0]),
            Err(ProtocolError::ParameterMismatch(_))
        ));
        // ... and at the owner, from either server, as is a table without
        // one column per owner.
        let unequal = Err(MalformedResponse("fpos columns differ in length"));
        assert_eq!(owner_decode_fpos(&ragged, &fpos2, op), unequal);
        assert_eq!(owner_decode_fpos(&fpos1, &ragged, op), unequal);
        let columns = Err(MalformedResponse(
            "fpos table does not have one column per owner",
        ));
        assert_eq!(owner_decode_fpos(&fpos1[..2], &fpos2[..2], op), columns);
        assert_eq!(owner_decode_fpos(&fpos1, &fpos2[..2], op), columns);
        assert_eq!(owner_decode_fpos(&[], &[], op), columns);
    }

    #[test]
    fn values_past_the_domain_are_the_owners_error() {
        let values = [5u64, 100, 101, 0];
        assert!(owner_check_domain(1, &values, &[0, 1, 3], 100).is_ok());
        assert_eq!(
            owner_check_domain(1, &values, &[0, 2], 100),
            Err(ProtocolError::OutOfDomain {
                value: "owner 1: 101 (max / median values end at 100)".into()
            })
        );
    }

    /// Largest value of the table ≡ Horner property.
    const HI: u64 = 300;

    /// A value in `[0, HI]`, both ends drawn often.
    fn in_domain() -> impl Strategy<Value = u64> {
        (0u8..4, 0..=HI).prop_map(|(end, v)| match end {
            0 => 0,
            1 => HI,
            _ => v,
        })
    }

    /// m ∈ {2, 3, 4, 5} owners' values over 1–9 common cells.
    fn owner_values() -> impl Strategy<Value = Vec<Vec<u64>>> {
        (2usize..6, 1usize..10).prop_flat_map(|(m, cells)| vec(vec(in_domain(), cells), m))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The two forms of every `F` step agree: both blindings of a value
        /// land in `[F(M), F(M+1))`, and the table and Horner decodes of
        /// one announcement give the same max and median cells.
        #[test]
        fn table_and_horner_steps_agree(values in owner_values(), seed: u64) {
            let (m, cells) = (values.len(), values[0].len());
            let setup = setup(m, cells, HI, seed);
            let op = &setup.owner;
            let table = op.poly_table().expect("a 300-value domain is tabled");
            let common: Vec<usize> = (0..cells).collect();
            let (mut up1, mut up2) = (Vec::new(), Vec::new());
            for (j, vals) in values.iter().enumerate() {
                let sj = seed ^ j as u64;
                let horner = owner_blind_maxima(vals, &common, op, &mut Prg::from_seed(sj)).2;
                let (a, b, tabled) = owner_blind_maxima_tab(vals, &common, table, op, sj, 1);
                for (k, &v) in vals.iter().enumerate() {
                    for own in [&horner, &tabled] {
                        let big = BigUint::from_limbs(own.row(k).to_vec());
                        prop_assert!(big >= op.poly.eval(v) && big < op.poly.eval(v + 1));
                    }
                }
                up1.push(a);
                up2.push(b);
            }
            let to_ann_1 = server_max_round(&up1, &setup.servers[0]).unwrap();
            let to_ann_2 = server_max_round(&up2, &setup.servers[1]).unwrap();
            let ann = announcer_find_max(&to_ann_1, &to_ann_2, &setup.announcer).unwrap();
            let by_horner = owner_decode_max(&common, &ann, op).unwrap();
            let by_table = owner_decode_max_tab(&common, &ann, table, op, 1).unwrap();
            prop_assert_eq!(&by_table, &by_horner);
            for (k, cell) in by_horner.0.iter().enumerate() {
                prop_assert_eq!(Some(cell.max), values.iter().map(|v| v[k]).max());
            }
            let ann = announcer_find_median(&to_ann_1, &to_ann_2, &setup.announcer).unwrap();
            prop_assert_eq!(
                owner_decode_median_tab(&common, &ann, table, op).unwrap(),
                owner_decode_median(&common, &ann, op).unwrap()
            );
        }
    }
}
