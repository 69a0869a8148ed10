//! Parameter setup and role-restricted views (§3.2 entity model, §4).
//!
//! The initiator is the only entity that ever holds the complete parameter
//! set. Everyone else receives a *view* that contains exactly what §4 says
//! they may know — encoded in the type system so protocol code physically
//! cannot read, say, `g` from an owner's view. The knowledge table:
//!
//! | parameter                  | owners | servers | announcer |
//! |----------------------------|:------:|:-------:|:---------:|
//! | m, δ, b                    |   ✓    |    ✓    |  δ only   |
//! | η                          |   ✓    |    ✗    |     ✗     |
//! | g, α, η′ = α·η             |   ✗    |    ✓    |     ✗     |
//! | hash/domain map            |   ✓    |    ✓    |     ✗     |
//! | PF (over owners, max/med)  |   ✓    |    ✓    |     ✗     |
//! | PF_db1, PF_db2 (over b)    |   ✓    |    ✗    |     ✗     |
//! | PF_s1, PF_s2 (over b)      |   ✗    |    ✓    |     ✗     |
//! | F(x) (order polynomial)    |   ✓    |    ✗    |     ✗     |
//! | PRG seed (PSU blinding)    |   ✗    |    ✓    |     ✗     |
//! | Shamir field prime p       |   ✓    |    ✓    |     ✗     |

use crate::error::{ProtocolError, Result};
use prism_core::{
    choose_delta, share2, GroupParams, OrderPolynomial, Permutation, PermutationFamily, PolyTable,
    Prg, ShamirCtx, MERSENNE_61,
};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Number of servers holding additive shares (PSI/PSU path).
pub const ADDITIVE_SERVERS: usize = 2;
/// Number of servers holding Shamir shares (aggregation path).
pub const SHAMIR_SERVERS: usize = 3;

/// Largest aggregation domain for which owners precompute the F-table
/// ([`OwnerParams::poly_table`]): `(hi + 2) × width` limbs, 32 KB at
/// `hi` = 2 000 and width 2, but tens of MB past 2²². Above it the
/// max / median steps evaluate `F` per cell (Horner).
pub const POLY_TABLE_LIMIT: u64 = 1 << 22;

/// The F-table behind [`OwnerParams::poly_table`]: empty until the first
/// max / median needs it, then kept — like a `Permutation`'s inverse map —
/// and shared by every clone of the view. Build a view with
/// `PolyTableCache::default()`.
#[derive(Debug, Clone, Default)]
pub struct PolyTableCache(OnceLock<Arc<PolyTable>>);

/// Everything the initiator needs to be told before it can run Phase 0.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of DB owners `m` (> 1; the paper targets m > 2 but two-owner
    /// deployments are valid and used in Table 13).
    pub owners: usize,
    /// Domain size `b = |Dom(A_c)|` of the set attribute.
    pub domain_size: usize,
    /// Additive group order δ. `None` lets the initiator pick a prime with
    /// headroom above `m` so owners can join later without re-keying (§4).
    pub delta: Option<u64>,
    /// Shamir field prime (default `2^61 − 1`).
    pub field_prime: u64,
    /// Upper bound of the aggregation attribute `A_x` — sizes the
    /// order-polynomial blinding group for max/median.
    pub agg_domain_max: u64,
    /// Master seed; all initiator-side randomness derives from it.
    pub seed: u64,
}

impl SystemConfig {
    /// A config with sensible defaults for `m` owners over a domain of `b`.
    pub fn new(owners: usize, domain_size: usize) -> Self {
        SystemConfig {
            owners,
            domain_size,
            delta: None,
            field_prime: MERSENNE_61,
            agg_domain_max: 1 << 20,
            seed: 0x005E_ED0F_9154,
        }
    }

    /// Override the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override δ (must be prime and > owners).
    pub fn with_delta(mut self, delta: u64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Override the aggregation domain bound.
    pub fn with_agg_domain_max(mut self, max: u64) -> Self {
        self.agg_domain_max = max;
        self
    }
}

/// The DB owners' parameter view (§4 "Parameters known to DB owners").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OwnerParams {
    /// Number of owners `m`.
    pub m: usize,
    /// Domain size `b`.
    pub b: usize,
    /// Additive group order δ (> m).
    pub delta: u64,
    /// Multiplicative modulus η. Owners reduce server outputs mod η; they
    /// never see `g` or `α`.
    pub eta: u64,
    /// Shamir field context.
    pub field: ShamirCtx,
    /// Owner-side permutation for verification copy 1 (over `b`).
    pub pf_db1: Permutation,
    /// Owner-side permutation for verification copy 2 (over `b`).
    pub pf_db2: Permutation,
    /// The owner↔server shared permutation over the `m` owner slots
    /// (max/median).
    pub pf_owners: Permutation,
    /// The initiator's order polynomial `F` (degree m+1).
    pub poly: OrderPolynomial,
    /// Limb width of the wide additive group for blinded maxima.
    pub wide_width: usize,
    /// Upper bound of the aggregation attribute (binary-search range for
    /// inverting `F`).
    pub agg_domain_max: u64,
    /// `F(0..=agg_domain_max + 1)`, built on first use (derived from the
    /// three fields above; never part of the view an initiator hands out).
    #[serde(skip)]
    pub poly_cache: PolyTableCache,
}

impl OwnerParams {
    /// The F-table every max / median owner step runs from, built the
    /// first time it is asked for and kept: blinding reads `F(M)` and
    /// `F(M+1)` from it and inversion binary-searches it, where the Horner
    /// path evaluates `F` at every step. `None` when `agg_domain_max`
    /// exceeds [`POLY_TABLE_LIMIT`], or when `agg_domain_max` /
    /// `wide_width` were edited after the table was built — the steps then
    /// evaluate `F` per cell.
    pub fn poly_table(&self) -> Option<&PolyTable> {
        if self.agg_domain_max > POLY_TABLE_LIMIT {
            return None;
        }
        let table = self
            .poly_cache
            .0
            .get_or_init(|| Arc::new(self.poly.table(self.agg_domain_max, self.wide_width)));
        (table.hi() == self.agg_domain_max && table.width() == self.wide_width)
            .then_some(table.as_ref())
    }
}

/// One server's parameter view (§4 "Parameters known to servers").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerParams {
    /// This server's index φ ∈ {0, 1, 2} (paper numbering φ ∈ {1,2,3}).
    pub server_id: usize,
    /// Number of owners `m`.
    pub m: usize,
    /// Domain size `b`.
    pub b: usize,
    /// Additive group order δ.
    pub delta: u64,
    /// Generator of the order-δ subgroup.
    pub g: u64,
    /// η′ = α·η — servers never see η itself.
    pub eta_prime: u64,
    /// This server's additive share of `m` (provisioned by the initiator;
    /// only meaningful for the two additive servers).
    pub m_share: u64,
    /// Shamir field context (aggregation round).
    pub field: ShamirCtx,
    /// Server-side permutation 1 (over `b`) — PSI count & verification.
    pub pf_s1: Permutation,
    /// Server-side permutation 2 (over `b`).
    pub pf_s2: Permutation,
    /// Owner↔server shared permutation over the `m` owner slots.
    pub pf_owners: Permutation,
    /// Seed of the PRG shared by the servers (PSU blinding); unknown to
    /// owners.
    pub psu_prg_seed: u64,
    /// Limb width of the wide additive group (max/median forwarding).
    pub wide_width: usize,
    /// First global domain row this server's store covers. `0` for an
    /// unsharded domain; a row-range shard of `[start, start+b)` carries
    /// `start` here so positional streams (the PSU blinding PRG) stay
    /// aligned with the global cell order. Defaults to `0` when absent
    /// from serialized parameters.
    #[serde(default)]
    pub row_offset: usize,
}

impl ServerParams {
    /// The precomputed exponentiation table `g^0..g^(δ−1) mod η′`.
    /// Rebuild cost is O(δ); servers construct it once per session.
    pub fn power_table(&self) -> Vec<u64> {
        let mut table = Vec::with_capacity(self.delta as usize);
        let mut acc = 1u64 % self.eta_prime;
        for _ in 0..self.delta {
            table.push(acc);
            acc = prism_core::arith::mul_mod(acc, self.g, self.eta_prime);
        }
        table
    }
}

/// The announcer's view (§4): δ and the wide width, nothing else.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnnouncerParams {
    /// Additive group order δ (needed to share the winning index).
    pub delta: u64,
    /// Number of owners (array length it receives).
    pub m: usize,
    /// Wide group width (to share the winning value back).
    pub wide_width: usize,
    /// Private randomness seed for the announcer's own share generation.
    pub seed: u64,
}

/// The complete output of Phase 0, held only by the initiator.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Owners' common view.
    pub owner: OwnerParams,
    /// One view per server (index 0..=2).
    pub servers: Vec<ServerParams>,
    /// Announcer view.
    pub announcer: AnnouncerParams,
    /// Full group parameters — retained by the initiator for audits/tests;
    /// never serialized to any other entity.
    pub group: GroupParams,
    /// The Equation-1 permutation family over `b` (initiator audit copy).
    pub family: PermutationFamily,
}

impl Setup {
    /// Grow the domain by `added` cells for a delta upload (epoch `epoch`,
    /// counted from 1).
    ///
    /// A fresh Equation-1 family over the appended block is derived from the
    /// master seed and the epoch number, and every distributed permutation is
    /// extended block-diagonally ([`PermutationFamily::concat`]). Everything
    /// else — δ, η/η′, the order polynomial, the PSU blinding seed, `m`
    /// shares — is domain-size independent and carried over unchanged, so:
    ///
    /// * columns already outsourced (stored permuted under the old family)
    ///   stay valid byte-for-byte, and
    /// * the PSU blinding stream stays globally aligned: appended rows sit at
    ///   global positions `[b, b+added)` and draw exactly the cells the old
    ///   rows never consumed.
    pub fn grow(&self, added: usize, epoch: u64, master_seed: u64) -> Result<Setup> {
        if added == 0 {
            return Err(ProtocolError::ParameterMismatch(
                "delta upload must append at least one cell".into(),
            ));
        }
        let mut prg = Prg::from_seed(
            master_seed ^ 0xDE17_AB10_C0DE_0001u64 ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let block = PermutationFamily::generate(added, &mut prg);
        let family = self.family.concat(&block);
        let b = self.owner.b + added;

        let mut owner = self.owner.clone();
        owner.b = b;
        owner.pf_db1 = family.pf_db1.clone();
        owner.pf_db2 = family.pf_db2.clone();

        let servers = self
            .servers
            .iter()
            .map(|sv| {
                let mut sv = sv.clone();
                sv.b = b;
                sv.pf_s1 = family.pf_s1.clone();
                sv.pf_s2 = family.pf_s2.clone();
                sv
            })
            .collect();

        Ok(Setup {
            owner,
            servers,
            announcer: self.announcer.clone(),
            group: self.group.clone(),
            family,
        })
    }
}

/// The trusted initiator / oracle (§3.2 entity 3).
#[derive(Debug)]
pub struct Initiator {
    config: SystemConfig,
}

impl Initiator {
    /// Wrap a config.
    pub fn new(config: SystemConfig) -> Self {
        Initiator { config }
    }

    /// Phase 0: derive every parameter and split them into role views.
    pub fn setup(&self) -> Result<Setup> {
        let cfg = &self.config;
        if cfg.owners < 2 {
            return Err(ProtocolError::ParameterMismatch(format!(
                "need at least 2 owners, got {}",
                cfg.owners
            )));
        }
        if cfg.domain_size == 0 {
            return Err(ProtocolError::ParameterMismatch(
                "domain size must be positive".into(),
            ));
        }
        let delta = match cfg.delta {
            Some(d) => {
                if d <= cfg.owners as u64 {
                    return Err(ProtocolError::ParameterMismatch(format!(
                        "delta {d} must exceed the owner count {}",
                        cfg.owners
                    )));
                }
                d
            }
            // Headroom so new owners can join without re-keying (§4).
            None => choose_delta(cfg.owners, 64),
        };
        let group = GroupParams::generate(delta, cfg.seed)
            .map_err(|e| ProtocolError::ParameterMismatch(e.to_string()))?;

        let mut prg = Prg::from_seed(cfg.seed ^ 0xC0FF_EE00_D15C_0B01);
        let family = PermutationFamily::generate(cfg.domain_size, &mut prg);
        let pf_owners = Permutation::random(cfg.owners, &mut prg);
        let poly = OrderPolynomial::generate(cfg.owners, &mut prg);
        let wide_width = poly.share_width(cfg.agg_domain_max);
        let psu_prg_seed = prg.next_u64();
        let field = ShamirCtx::new(cfg.field_prime, 1);

        // Additive shares of m for the two additive servers (§4: "any DB
        // owner or the initiator provides additive shares of m").
        let (m_share_1, m_share_2) = share2(cfg.owners as u64, delta, &mut prg);

        let owner = OwnerParams {
            m: cfg.owners,
            b: cfg.domain_size,
            delta,
            eta: group.eta,
            field,
            pf_db1: family.pf_db1.clone(),
            pf_db2: family.pf_db2.clone(),
            pf_owners: pf_owners.clone(),
            poly: poly.clone(),
            wide_width,
            agg_domain_max: cfg.agg_domain_max,
            poly_cache: PolyTableCache::default(),
        };

        let servers = (0..SHAMIR_SERVERS)
            .map(|id| ServerParams {
                server_id: id,
                m: cfg.owners,
                b: cfg.domain_size,
                delta,
                g: group.g,
                eta_prime: group.eta_prime,
                m_share: match id {
                    0 => m_share_1,
                    1 => m_share_2,
                    _ => 0, // third server never runs the additive round
                },
                field,
                pf_s1: family.pf_s1.clone(),
                pf_s2: family.pf_s2.clone(),
                pf_owners: pf_owners.clone(),
                psu_prg_seed,
                wide_width,
                row_offset: 0,
            })
            .collect();

        let announcer = AnnouncerParams {
            delta,
            m: cfg.owners,
            wide_width,
            seed: prg.next_u64(),
        };

        Ok(Setup {
            owner,
            servers,
            announcer,
            group,
            family,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(m: usize, b: usize) -> Setup {
        Initiator::new(SystemConfig::new(m, b)).setup().unwrap()
    }

    #[test]
    fn roles_receive_consistent_parameters() {
        let s = setup(5, 100);
        assert_eq!(s.owner.m, 5);
        assert_eq!(s.owner.b, 100);
        assert_eq!(s.servers.len(), SHAMIR_SERVERS);
        for sv in &s.servers {
            assert_eq!(sv.delta, s.owner.delta);
            assert_eq!(sv.b, s.owner.b);
            assert_eq!(sv.eta_prime, s.group.eta_prime);
        }
        assert_eq!(s.announcer.delta, s.owner.delta);
    }

    #[test]
    fn delta_exceeds_owner_count_with_headroom() {
        let s = setup(50, 10);
        assert!(s.owner.delta > 50 + 50, "headroom for future owners");
        assert!(prism_core::arith::is_prime(s.owner.delta));
    }

    #[test]
    fn m_shares_reconstruct_m() {
        let s = setup(7, 10);
        let sum =
            prism_core::reconstruct2(s.servers[0].m_share, s.servers[1].m_share, s.owner.delta);
        assert_eq!(sum, 7);
    }

    #[test]
    fn knowledge_separation_is_structural() {
        // OwnerParams has η but the ServerParams type has no η field, and
        // vice versa for g/η′ — this test documents the view split by
        // reconstructing η only from owner data and g only from server data.
        let s = setup(3, 16);
        assert_eq!(s.owner.eta, s.group.eta);
        assert_eq!(s.servers[0].g, s.group.g);
        assert_eq!(s.servers[0].eta_prime % s.owner.eta, 0);
        // The announcer view carries neither η nor g nor any permutation.
        let a = &s.announcer;
        assert_eq!(a.delta, s.owner.delta);
    }

    #[test]
    fn equation_1_family_distributed_correctly() {
        let s = setup(4, 64);
        // Owner path 1 then server path 1 equals owner path 2 then server
        // path 2 — verified through the distributed views, not the
        // initiator's audit copy.
        let composed1 = s.owner.pf_db1.then(&s.servers[0].pf_s1);
        let composed2 = s.owner.pf_db2.then(&s.servers[1].pf_s2);
        assert_eq!(composed1, composed2);
    }

    #[test]
    fn explicit_delta_validated() {
        let bad = Initiator::new(SystemConfig::new(10, 4).with_delta(7)).setup();
        assert!(bad.is_err());
        let ok = Initiator::new(SystemConfig::new(10, 4).with_delta(113)).setup();
        assert!(ok.is_ok());
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(Initiator::new(SystemConfig::new(1, 4)).setup().is_err());
        assert!(Initiator::new(SystemConfig::new(3, 0)).setup().is_err());
    }

    #[test]
    fn setup_is_deterministic_in_seed() {
        let a = Initiator::new(SystemConfig::new(3, 32).with_seed(9))
            .setup()
            .unwrap();
        let b = Initiator::new(SystemConfig::new(3, 32).with_seed(9))
            .setup()
            .unwrap();
        assert_eq!(a.group, b.group);
        assert_eq!(a.servers[0].psu_prg_seed, b.servers[0].psu_prg_seed);
        assert_eq!(a.owner.pf_db1, b.owner.pf_db1);
    }

    #[test]
    fn servers_share_psu_seed() {
        let s = setup(3, 8);
        assert_eq!(s.servers[0].psu_prg_seed, s.servers[1].psu_prg_seed);
    }

    #[test]
    fn grow_extends_views_block_diagonally() {
        let seed = 0x005E_ED0F_9154; // SystemConfig::new default
        let s = setup(3, 20);
        let g = s.grow(12, 1, seed).unwrap();
        assert_eq!(g.owner.b, 32);
        assert_eq!(g.servers[0].b, 32);
        // Static parameters carry over.
        assert_eq!(g.owner.delta, s.owner.delta);
        assert_eq!(g.servers[0].psu_prg_seed, s.servers[0].psu_prg_seed);
        assert_eq!(g.servers[1].m_share, s.servers[1].m_share);
        // The old prefix of every permutation is untouched…
        for i in 0..20 {
            assert_eq!(g.owner.pf_db1.dest(i), s.owner.pf_db1.dest(i));
            assert_eq!(g.servers[0].pf_s1.dest(i), s.servers[0].pf_s1.dest(i));
        }
        // …the appended block never crosses the boundary…
        assert!(g.owner.pf_db1.tail_block(20).is_some());
        assert!(g.servers[1].pf_s2.tail_block(20).is_some());
        // …and Equation 1 holds for the grown family.
        assert_eq!(
            g.owner.pf_db1.then(&g.servers[0].pf_s1),
            g.owner.pf_db2.then(&g.servers[1].pf_s2)
        );
        // Growth is deterministic in (seed, epoch) and epoch-sensitive.
        let g2 = s.grow(12, 1, seed).unwrap();
        assert_eq!(g.owner.pf_db1, g2.owner.pf_db1);
        let g3 = s.grow(12, 2, seed).unwrap();
        assert_ne!(g.owner.pf_db1, g3.owner.pf_db1);
        assert!(s.grow(0, 1, seed).is_err());
    }

    #[test]
    fn power_table_len_is_delta() {
        let s = setup(3, 8);
        let t = s.servers[0].power_table();
        assert_eq!(t.len(), s.owner.delta as usize);
        assert_eq!(t[0], 1);
    }
}
