//! Bucketization-based PSI (§6.6, Example 6.6.1, Exp 4 / Figure 5).
//!
//! A κ-ary *bucket tree* is layered over the domain cells: level h holds
//! the `b` leaves, each interior node ORs its κ children. PSI then runs
//! top-down: a level's PSI result prunes every subtree whose node is not
//! common, and only the surviving children are queried in the next round.
//! Sparse data ⇒ most of the domain is never touched; dense data ⇒ the
//! tree adds overhead (the paper's open problem).
//!
//! [`simulate_actual_domain`] is the Figure-5 counting simulation
//! ("actual domain size" = total cells PSI executes on, versus the real
//! domain size), bitmap-based so the paper-scale tree (fanout 10, height
//! 9, 100M leaves) fits in ~14 MB. The multi-round protocol itself
//! (`BucketTree`, `bucketized_psi`) has no caller outside this module's
//! tests, which check it against flat PSI, so it lives there until the
//! engine runs it over stored levels.

use prism_core::Prg;

/// A packed bitmap (little-endian u64 blocks).
struct Bitmap {
    bits: Vec<u64>,
}

impl Bitmap {
    fn zeros(len: usize) -> Self {
        Bitmap {
            bits: vec![0u64; len.div_ceil(64)],
        }
    }
    #[inline]
    fn set(&mut self, i: usize) {
        self.bits[i / 64] |= 1 << (i % 64);
    }
    #[inline]
    fn get(&self, i: usize) -> bool {
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }
    fn count_ones(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }
}

/// Figure-5 simulation report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketSimReport {
    /// Leaves in the tree (the "real domain size").
    pub real_domain_size: usize,
    /// Number of leaf cells that contain a one (fill).
    pub filled_leaves: usize,
    /// Cells PSI executes on per level (start level → leaves).
    pub per_level_active: Vec<usize>,
    /// Σ per_level_active — "actual domain size" *with* bucketization.
    pub with_bucketization: usize,
    /// Cells touched without bucketization (= real domain size).
    pub without_bucketization: usize,
}

/// Count the cells bucketized PSI would execute on for a random dataset of
/// `filled_leaves` ones in a `fanout`-ary tree of `height` levels
/// (leaves = fanout^(height−1)), starting the protocol at level 2.
///
/// Exact (not an expectation): leaf positions are sampled without
/// replacement from the seeded PRG and propagated up through bitmaps.
pub fn simulate_actual_domain(
    height: usize,
    fanout: usize,
    filled_leaves: usize,
    seed: u64,
) -> BucketSimReport {
    assert!(height >= 2, "need at least two levels");
    let leaves = fanout.pow((height - 1) as u32);
    let filled = filled_leaves.min(leaves);

    // Sample `filled` distinct leaves (Floyd's algorithm keeps the set
    // small relative to a full shuffle).
    let mut leaf_map = Bitmap::zeros(leaves);
    let mut prg = Prg::from_seed(seed);
    if filled == leaves {
        for i in 0..leaves {
            leaf_map.set(i);
        }
    } else {
        let mut chosen = 0usize;
        // For large fill fractions, dense rejection sampling degrades; use
        // a straight scan with adjusted probability instead.
        if filled * 2 > leaves {
            // Complement sampling: pick the zeros.
            let zeros = leaves - filled;
            let mut picked = 0usize;
            let mut hole = Bitmap::zeros(leaves);
            while picked < zeros {
                let i = prg.below(leaves as u64) as usize;
                if !hole.get(i) {
                    hole.set(i);
                    picked += 1;
                }
            }
            for i in 0..leaves {
                if !hole.get(i) {
                    leaf_map.set(i);
                }
            }
        } else {
            while chosen < filled {
                let i = prg.below(leaves as u64) as usize;
                if !leaf_map.get(i) {
                    leaf_map.set(i);
                    chosen += 1;
                }
            }
        }
    }

    // Propagate up: ones[level] bitmaps, from leaves to root.
    let mut level_ones: Vec<usize> = Vec::with_capacity(height); // index: level-1
    let mut level_maps: Vec<Bitmap> = Vec::with_capacity(height);
    level_maps.push(leaf_map);
    for l in (1..height).rev() {
        let width = fanout.pow((l - 1) as u32);
        let child = level_maps.last().unwrap();
        let mut up = Bitmap::zeros(width);
        for parent in 0..width {
            let base = parent * fanout;
            for k in 0..fanout {
                if child.get(base + k) {
                    up.set(parent);
                    break;
                }
            }
        }
        level_maps.push(up);
    }
    level_maps.reverse(); // index 0 = root
    for mp in &level_maps {
        level_ones.push(mp.count_ones());
    }

    // Active cells per level, starting at level 2: the root is queried
    // implicitly (1 node); active(l) = fanout × ones(l−1) when the parent
    // level survived, and the survivors at level l are its ones among the
    // active (all ones are children of one-parents by construction).
    let mut per_level_active = Vec::with_capacity(height - 1);
    for l in 2..=height {
        let parents_with_one = level_ones[l - 2];
        per_level_active.push(parents_with_one * fanout);
    }
    let with_bucketization = per_level_active.iter().sum();
    BucketSimReport {
        real_domain_size: leaves,
        filled_leaves: filled,
        per_level_active,
        with_bucketization,
        without_bucketization: leaves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Result;
    use crate::params::{Initiator, ServerParams, Setup, SystemConfig};
    use crate::psi;
    use crate::tables::share_indicator;
    use prism_core::DenseIntDomain;

    /// Shape of a κ-ary bucket tree over `leaves` cells.
    ///
    /// Levels are numbered 1 (root) … `height` (leaves); level ℓ has
    /// `κ^(ℓ−1)` node slots (the last level is conceptually padded up to a
    /// power of κ; padding nodes are always 0).
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct BucketTree {
        /// Fanout κ ≥ 2.
        fanout: usize,
        /// Number of levels including root and leaves.
        height: usize,
        /// True (unpadded) number of leaves.
        leaves: usize,
    }

    impl BucketTree {
        /// Smallest tree with the given fanout covering `leaves` cells.
        fn new(leaves: usize, fanout: usize) -> Self {
            assert!(fanout >= 2, "fanout must be at least 2");
            assert!(leaves >= 1, "tree needs at least one leaf");
            let mut height = 1usize;
            let mut span = 1usize;
            while span < leaves {
                span = span.saturating_mul(fanout);
                height += 1;
            }
            BucketTree {
                fanout,
                height,
                leaves,
            }
        }

        /// Number of node slots at 1-based level ℓ.
        fn level_width(&self, level: usize) -> usize {
            assert!((1..=self.height).contains(&level));
            self.fanout.pow((level - 1) as u32)
        }

        /// Build per-level indicator vectors (root→leaves) from a leaf
        /// indicator vector: interior node = OR of children.
        fn lift(&self, leaf_indicator: &[u64]) -> Vec<Vec<u64>> {
            assert_eq!(leaf_indicator.len(), self.leaves, "leaf vector length");
            let mut levels: Vec<Vec<u64>> = Vec::with_capacity(self.height);
            // Leaves, padded to κ^(h−1).
            let mut cur: Vec<u64> = {
                let mut v = vec![0u64; self.level_width(self.height)];
                for (i, &x) in leaf_indicator.iter().enumerate() {
                    v[i] = u64::from(x != 0);
                }
                v
            };
            levels.push(cur.clone());
            for level in (1..self.height).rev() {
                let width = self.level_width(level);
                let mut up = vec![0u64; width];
                for (parent, slot) in up.iter_mut().enumerate() {
                    let base = parent * self.fanout;
                    *slot = u64::from(cur[base..base + self.fanout].iter().any(|&c| c != 0));
                }
                levels.push(up.clone());
                cur = up;
            }
            levels.reverse(); // index 0 = root level
            levels
        }
    }

    /// Outcome of a bucketized PSI run.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct BucketPsiOutcome {
        /// Leaf cells common to all owners (same answer as flat PSI).
        common_cells: Vec<usize>,
        /// Total number of cells PSI actually executed on across all rounds —
        /// the "actual domain size" of Figure 5.
        cells_queried: usize,
        /// Number of owner↔server rounds used (= tree height − start level + 1).
        rounds: usize,
    }

    /// Run the full multi-round bucketized PSI over the owners' leaf
    /// indicators. `start_level` is the first level queried (2 = children of
    /// the root, the natural choice; the root level is a single always-queried
    /// node carrying no information).
    fn bucketized_psi(
        leaf_indicators: &[Vec<u64>],
        tree: &BucketTree,
        setup: &Setup,
        start_level: usize,
        threads: usize,
        seed: u64,
    ) -> Result<BucketPsiOutcome> {
        let m = leaf_indicators.len();
        assert!(start_level >= 1 && start_level <= tree.height);
        // Per-owner level tables.
        let owner_levels: Vec<Vec<Vec<u64>>> = leaf_indicators
            .iter()
            .map(|leafs| tree.lift(leafs))
            .collect();

        let mut cells_queried = 0usize;
        let mut rounds = 0usize;
        // Active node set at the current level (indices into the level array).
        let mut active: Vec<usize> = (0..tree.level_width(start_level)).collect();
        let mut common_at_level: Vec<usize> = Vec::new();

        for level in start_level..=tree.height {
            if level > start_level {
                // Children of the surviving nodes of the previous level.
                active = common_at_level
                    .iter()
                    .flat_map(|&p| {
                        let base = p * tree.fanout;
                        base..base + tree.fanout
                    })
                    .collect();
            }
            if active.is_empty() {
                // Nothing left to query; deeper levels are all pruned.
                return Ok(BucketPsiOutcome {
                    common_cells: Vec::new(),
                    cells_queried,
                    rounds,
                });
            }
            rounds += 1;
            cells_queried += active.len();

            // Owners extract and share the active sub-vectors.
            let sub_len = active.len();
            let sub_setup_owner = with_domain_owner(&setup.owner, sub_len);
            let sub_servers: Vec<ServerParams> = setup
                .servers
                .iter()
                .map(|sp| with_domain_server(sp, sub_len))
                .collect();
            let mut uploads = Vec::with_capacity(m);
            for (j, levels) in owner_levels.iter().enumerate() {
                let lv = &levels[level - 1];
                let sub: Vec<u64> = active.iter().map(|&i| lv[i]).collect();
                let mut prg = Prg::from_seed(seed ^ ((level as u64) << 32) ^ (j as u64 + 1));
                uploads.push(share_indicator(&sub, setup.owner.delta, &mut prg));
            }
            let s1: Vec<&[u64]> = uploads.iter().map(|u| u.shares[0].as_slice()).collect();
            let s2: Vec<&[u64]> = uploads.iter().map(|u| u.shares[1].as_slice()).collect();
            let o1 = psi::tests::psi_round(&s1, &sub_servers[0], threads)?;
            let o2 = psi::tests::psi_round(&s2, &sub_servers[1], threads)?;
            let fop = psi::owner_combine(&o1, &o2, &sub_setup_owner)?;
            common_at_level = fop
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v == 1)
                .map(|(k, _)| active[k])
                .collect();
        }

        // `common_at_level` now holds leaf slots; trim padding.
        let common_cells: Vec<usize> = common_at_level
            .into_iter()
            .filter(|&i| i < tree.leaves)
            .collect();
        Ok(BucketPsiOutcome {
            common_cells,
            cells_queried,
            rounds,
        })
    }

    fn with_domain_owner(op: &crate::params::OwnerParams, b: usize) -> crate::params::OwnerParams {
        let mut o = op.clone();
        o.b = b;
        // The cell-permutations are domain-length-bound; sub-queries use
        // identity (verification over sub-vectors is run at the leaf level).
        o.pf_db1 = prism_core::Permutation::identity(b);
        o.pf_db2 = prism_core::Permutation::identity(b);
        o
    }

    fn with_domain_server(sp: &ServerParams, b: usize) -> ServerParams {
        let mut s = sp.clone();
        s.b = b;
        s.pf_s1 = prism_core::Permutation::identity(b);
        s.pf_s2 = prism_core::Permutation::identity(b);
        s
    }

    fn leaf_indicator(values: &[u64], domain: u64) -> Vec<u64> {
        let d = DenseIntDomain::one_to(domain);
        let t = crate::tables::OwnerTable::from_set(values, &d).unwrap();
        t.indicator
    }

    #[test]
    fn tree_shapes() {
        let t = BucketTree::new(16, 4);
        assert_eq!(t.height, 3);
        assert_eq!(t.level_width(1), 1);
        assert_eq!(t.level_width(2), 4);
        assert_eq!(t.level_width(3), 16);
        let t = BucketTree::new(100, 10);
        assert_eq!(t.height, 3);
        let t = BucketTree::new(1, 2);
        assert_eq!(t.height, 1);
        let t = BucketTree::new(17, 4);
        assert_eq!(t.height, 4); // padded to 64 leaves
    }

    #[test]
    fn lift_matches_example_6_6_1() {
        // DB1: ones at leaf positions 4, 7, 8 (1-based) of 16, κ = 4
        // ⇒ level 2 = ⟨1, 1, 0, 0⟩ (Figure 2).
        let t = BucketTree::new(16, 4);
        let mut leaves = vec![0u64; 16];
        leaves[3] = 1; // position 4
        leaves[6] = 1; // position 7
        leaves[7] = 1; // position 8
        let levels = t.lift(&leaves);
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[1], vec![1, 1, 0, 0]);
        assert_eq!(levels[0], vec![1]);
    }

    #[test]
    fn example_6_6_1_queries_12_cells() {
        // "DB owners/servers send 4+8=12 numbers instead of 16."
        let setup = Initiator::new(SystemConfig::new(2, 16).with_seed(81))
            .setup()
            .unwrap();
        let tree = BucketTree::new(16, 4);
        let db1 = leaf_indicator(&[4, 7, 8], 16);
        let db2 = leaf_indicator(&[1, 6, 8], 16);
        let out = bucketized_psi(&[db1, db2], &tree, &setup, 2, 1, 5).unwrap();
        assert_eq!(out.cells_queried, 12);
        assert_eq!(out.rounds, 2);
        assert_eq!(out.common_cells, vec![7]); // value 8
    }

    #[test]
    fn bucketized_equals_flat_psi() {
        let sets = [
            (1..=200u64).filter(|v| v % 3 == 0).collect::<Vec<_>>(),
            (1..=200u64).filter(|v| v % 5 == 0).collect(),
            (1..=200u64).filter(|v| v % 2 == 0).collect(),
        ];
        let setup = Initiator::new(SystemConfig::new(3, 200).with_seed(82))
            .setup()
            .unwrap();
        let tree = BucketTree::new(200, 4);
        let leafs: Vec<Vec<u64>> = sets.iter().map(|s| leaf_indicator(s, 200)).collect();
        let out = bucketized_psi(&leafs, &tree, &setup, 2, 2, 6).unwrap();
        // Plaintext: multiples of 30 up to 200.
        let expected: Vec<usize> = (1..=200u64)
            .filter(|v| v % 30 == 0)
            .map(|v| (v - 1) as usize)
            .collect();
        assert_eq!(out.common_cells, expected);
    }

    #[test]
    fn empty_intersection_prunes_early() {
        let setup = Initiator::new(SystemConfig::new(2, 256).with_seed(83))
            .setup()
            .unwrap();
        let tree = BucketTree::new(256, 4);
        // Owner 1 fills the first quarter, owner 2 the last quarter: the
        // level-2 PSI already has no overlap.
        let a = leaf_indicator(&(1..=64).collect::<Vec<u64>>(), 256);
        let b = leaf_indicator(&(193..=256).collect::<Vec<u64>>(), 256);
        let out = bucketized_psi(&[a, b], &tree, &setup, 2, 1, 7).unwrap();
        assert!(out.common_cells.is_empty());
        // Only the start level was queried.
        assert_eq!(out.cells_queried, 4);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn dense_data_costs_more_than_flat() {
        // The paper's open problem: 100% fill makes bucketization touch
        // more cells than the domain itself.
        let setup = Initiator::new(SystemConfig::new(2, 64).with_seed(84))
            .setup()
            .unwrap();
        let tree = BucketTree::new(64, 4);
        let all = leaf_indicator(&(1..=64).collect::<Vec<u64>>(), 64);
        let out = bucketized_psi(&[all.clone(), all], &tree, &setup, 2, 1, 8).unwrap();
        assert!(out.cells_queried > 64, "{} cells", out.cells_queried);
        assert_eq!(out.common_cells.len(), 64);
    }

    #[test]
    fn simulation_full_fill_counts_whole_tree() {
        // height 4, fanout 4: levels 2..4 active = 4 + 16 + 64 = 84.
        let r = simulate_actual_domain(4, 4, 64, 1);
        assert_eq!(r.real_domain_size, 64);
        assert_eq!(r.per_level_active, vec![4, 16, 64]);
        assert_eq!(r.with_bucketization, 84);
        assert_eq!(r.without_bucketization, 64);
    }

    #[test]
    fn simulation_sparse_fill_prunes() {
        // One filled leaf: every level has exactly `fanout` active cells.
        let r = simulate_actual_domain(5, 4, 1, 2);
        assert_eq!(r.per_level_active, vec![4, 4, 4, 4]);
        assert_eq!(r.with_bucketization, 16);
        assert!(r.with_bucketization < r.without_bucketization);
    }

    #[test]
    fn simulation_matches_protocol_counts() {
        // The counting simulation must agree with the real protocol when
        // both owners hold the same data (intersection == data).
        let tree = BucketTree::new(64, 4);
        let setup = Initiator::new(SystemConfig::new(2, 64).with_seed(85))
            .setup()
            .unwrap();
        for (fill, seed) in [(3usize, 11u64), (10, 12), (40, 13)] {
            // Build the sim's exact leaf set by replaying its sampler.
            let r = simulate_actual_domain(4, 4, fill, seed);
            // Protocol with both owners holding a random set of that size:
            // generate the same set through the sim bitmap by re-deriving.
            let mut prg = Prg::from_seed(seed);
            let mut chosen = std::collections::BTreeSet::new();
            if fill * 2 > 64 {
                let zeros = 64 - fill;
                let mut holes = std::collections::BTreeSet::new();
                while holes.len() < zeros {
                    holes.insert(prg.below(64) as usize);
                }
                for i in 0..64 {
                    if !holes.contains(&i) {
                        chosen.insert(i);
                    }
                }
            } else {
                while chosen.len() < fill {
                    chosen.insert(prg.below(64) as usize);
                }
            }
            let mut leaves = vec![0u64; 64];
            for &i in &chosen {
                leaves[i] = 1;
            }
            let out = bucketized_psi(&[leaves.clone(), leaves], &tree, &setup, 2, 1, seed).unwrap();
            assert_eq!(
                out.cells_queried, r.with_bucketization,
                "fill={fill} seed={seed}"
            );
        }
    }

    #[test]
    fn simulation_handles_oversized_fill() {
        let r = simulate_actual_domain(3, 3, 10_000, 3);
        assert_eq!(r.filled_leaves, 9);
    }
}
