//! The owner side of a PRISM deployment: one facade over any place the
//! servers live.
//!
//! In the paper a DB owner is one role — outsource in Phase 1, then query
//! (§3–§4) — whatever machines the servers run on. [`Cluster`] is that
//! role, written once over the [`Deployment`] seam: cluster-level Phase 1
//! (share seeds, column set, owner-side sums and maxima), `update_owner`,
//! `append`, the verification/aggregation preflight and the 16 named
//! queries. A deployment only stores shares and runs round plans:
//! [`InProcess`] keeps the server domains in this process (each a
//! [`ShardedNode`]; results are bit-identical for every shard count),
//! `prism_net::NetCluster` reaches them over channel or TCP links. The
//! facade orchestrates **nothing** itself: every query constructs a round
//! plan from [`crate::plans`] and hands it to [`Deployment::run`], so
//! protocol logic exists in exactly one place.
//!
//! [`Cluster::build`] is the in-process constructor; a wire deployment is
//! [`ClusterConfig::setup`] → start the nodes → [`Cluster::over`].
//! Tests attach a [`Tamper`] to any node to exercise the verification
//! paths, and [`Cluster::execute`] runs custom [`Operation`]s for queries
//! this facade does not name.

use crate::average::AvgCell;
use crate::cache::{CachedExec, PsiRoundCache};
use crate::engine::{Announcer, Column, Engine, Operation, ServerExec};
use crate::error::{ProtocolError, Result};
use crate::malicious::{AnnouncerTamper, Tamper};
use crate::max::MaxCell;
use crate::median::MedianCell;
use crate::params::{Initiator, OwnerParams, ServerParams, Setup, SystemConfig};
use crate::plans;
use crate::shard::{ShardedExec, ShardedNode};
use crate::tables::{owner_uploads, share_difference, share_owner, ColumnSet, OwnerTable};
use prism_core::{Permutation, Prg};

pub use crate::engine::QueryStats;
pub use crate::plans::{AggResult, Aggregate, PsiOutcome, QueryBatch};

/// One owner's input relation: rows of `(set value, aggregation values)`.
/// All owners must supply the same number of aggregation attributes.
#[derive(Debug, Clone, Default)]
pub struct OwnerInput {
    /// `(A_c value, [A_x1, A_x2, …])` rows.
    pub rows: Vec<(u64, Vec<u64>)>,
}

impl OwnerInput {
    /// Rows with a single aggregation attribute.
    pub fn from_pairs(rows: impl IntoIterator<Item = (u64, u64)>) -> Self {
        OwnerInput {
            rows: rows.into_iter().map(|(c, x)| (c, vec![x])).collect(),
        }
    }

    /// Set-only rows (no aggregation attributes).
    pub fn from_set(values: impl IntoIterator<Item = u64>) -> Self {
        OwnerInput {
            rows: values.into_iter().map(|c| (c, Vec::new())).collect(),
        }
    }
}

/// Cluster construction options.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Domain size `b` (values are `1..=b`).
    pub domain_size: usize,
    /// Master seed.
    pub seed: u64,
    /// The most threads a server may use on one round's vector passes (an
    /// upper bound — see [`Engine::with_threads`]).
    pub threads: usize,
    /// Materialize verification columns (complement + permuted copies).
    pub with_verification: bool,
    /// Materialize Shamir aggregation columns.
    pub with_aggregation: bool,
    /// Upper bound of aggregation values (sizes the max/median blinding).
    pub agg_domain_max: u64,
    /// Optional explicit δ.
    pub delta: Option<u64>,
    /// Row-range shards per server domain (1 = monolithic). Results are
    /// bit-identical for every shard count; shards fan each round out
    /// across their own nodes (see [`crate::shard`]).
    pub shards: usize,
    /// Cache the round-1 PSI reply set across queries (see
    /// [`crate::cache`]): repeat eligible queries against an unchanged
    /// store skip their round 1 entirely. Results are bit-identical with
    /// the cache on or off; verified operations always hit the servers.
    pub cache: bool,
}

impl ClusterConfig {
    /// Defaults: everything on, 1 thread.
    pub fn new(domain_size: usize) -> Self {
        ClusterConfig {
            domain_size,
            seed: 0x9155,
            threads: 1,
            with_verification: true,
            with_aggregation: true,
            agg_domain_max: 1 << 20,
            delta: None,
            shards: 1,
            cache: false,
        }
    }

    /// Override the per-domain shard count (builder style).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enable (or disable) the cross-query PSI-round cache (builder
    /// style).
    pub fn with_cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// Phase 0 under this configuration: the setup [`Cluster::build`]
    /// runs its servers under, and a wire deployment's nodes are started
    /// with before [`Cluster::over`].
    pub fn setup(&self, owners: usize) -> Result<Setup> {
        let mut sys = SystemConfig::new(owners, self.domain_size)
            .with_seed(self.seed)
            .with_agg_domain_max(self.agg_domain_max);
        if let Some(d) = self.delta {
            sys = sys.with_delta(d);
        }
        Initiator::new(sys).setup()
    }
}

/// Where a cluster's servers live — what [`Cluster`] needs from them.
/// Implemented by [`InProcess`] and by `prism_net::NetCluster`.
pub trait Deployment {
    /// The initiator's setup the servers run under.
    fn setup(&self) -> &Setup;

    /// Adopt a grown setup ([`Setup::grow`]) ahead of the
    /// [`Deployment::delta_store`]s that extend the servers to it.
    fn adopt_setup(&mut self, grown: Setup);

    /// Put `owner`'s whole-domain shares (Phase 1). `share` is handed the
    /// owner view and a sink for each `(server, column, shares)`
    /// [`share_owner`] emits: taken one column at a time in-process,
    /// batched into one frame per server on a wire.
    fn store(
        &mut self,
        owner: usize,
        share: impl FnOnce(&OwnerParams, &mut dyn FnMut(usize, Column, Vec<u64>)),
    ) -> Result<()>;

    /// Fold `owner`'s whole-domain difference shares into what the servers
    /// hold, at `epoch` ([`ServerNode::fold`](crate::engine::ServerNode::fold)).
    /// `share` feeds the sink like [`Deployment::store`]'s; each server
    /// takes its columns as one all-or-nothing fold.
    fn fold(
        &mut self,
        owner: usize,
        epoch: u64,
        share: impl FnOnce(&OwnerParams, &mut dyn FnMut(usize, Column, Vec<u64>)),
    ) -> Result<()>;

    /// Append rows from `start` on to `owner`'s `columns` at `server`,
    /// extending its finish permutations by the adopted setup's blocks.
    fn delta_store(
        &mut self,
        server: usize,
        owner: usize,
        start: usize,
        columns: Vec<(Column, Vec<u64>)>,
    ) -> Result<()>;

    /// Run `plan` (through the PSI-round cache, when enabled), optionally
    /// scoped to the global row window `[range.0, range.0 + range.1)`.
    fn run<P: Operation>(
        &self,
        range: Option<(u64, u64)>,
        plan: &P,
    ) -> Result<(P::Output, QueryStats)>;
}

/// The in-process deployment: every server domain a [`ShardedNode`], the
/// announcer an engine [`Announcer`].
pub struct InProcess {
    setup: Setup,
    nodes: Vec<ShardedNode>,
    announcer: Announcer,
    threads: usize,
    /// The cross-query PSI-round cache ([`ClusterConfig::cache`]).
    cache: Option<PsiRoundCache>,
}

impl InProcess {
    /// `servers`' stores moved: dirty the PSI-round cache.
    fn note_uploads(&self, servers: std::ops::Range<usize>) {
        if let Some(cache) = &self.cache {
            servers.for_each(|server| cache.note_upload(server));
        }
    }
}

impl Deployment for InProcess {
    fn setup(&self) -> &Setup {
        &self.setup
    }

    fn adopt_setup(&mut self, grown: Setup) {
        self.setup = grown;
    }

    fn store(
        &mut self,
        owner: usize,
        share: impl FnOnce(&OwnerParams, &mut dyn FnMut(usize, Column, Vec<u64>)),
    ) -> Result<()> {
        let nodes = &mut self.nodes;
        let mut done = Ok(());
        share(&self.setup.owner, &mut |k, column, shares| {
            if done.is_ok() {
                done = nodes[k].put(owner, 0, vec![(column, shares)]);
            }
        });
        self.note_uploads(0..self.nodes.len());
        done
    }

    fn fold(
        &mut self,
        owner: usize,
        epoch: u64,
        share: impl FnOnce(&OwnerParams, &mut dyn FnMut(usize, Column, Vec<u64>)),
    ) -> Result<()> {
        let mut uploads = vec![Vec::new(); self.nodes.len()];
        share(&self.setup.owner, &mut |k, column, shares| {
            uploads[k].push((column, shares))
        });
        self.note_uploads(0..self.nodes.len());
        for (node, columns) in self.nodes.iter_mut().zip(uploads) {
            node.fold(owner, epoch, columns)?;
        }
        Ok(())
    }

    fn delta_store(
        &mut self,
        server: usize,
        owner: usize,
        start: usize,
        columns: Vec<(Column, Vec<u64>)>,
    ) -> Result<()> {
        let sp = &self.setup.servers[server];
        let ext = (tail_block(&sp.pf_s1, start), tail_block(&sp.pf_s2, start));
        self.nodes[server].delta_upload(owner, start, columns, Some((&ext.0, &ext.1)))?;
        self.note_uploads(server..server + 1);
        Ok(())
    }

    fn run<P: Operation>(
        &self,
        range: Option<(u64, u64)>,
        plan: &P,
    ) -> Result<(P::Output, QueryStats)> {
        let sharded = ShardedExec::new(&self.nodes, &self.announcer);
        let cached = self.cache.as_ref().map(|c| CachedExec::new(&sharded, c));
        let exec: &dyn ServerExec = match &cached {
            Some(c) => c,
            None => &sharded,
        };
        let mut engine = Engine::new(&exec, &self.setup.owner).with_threads(self.threads);
        if let Some((start, len)) = range {
            engine = engine.with_range(start, len);
        }
        engine.run(plan)
    }
}

/// The block `p` gained at `start` when its setup grew.
fn tail_block(p: &Permutation, start: usize) -> Permutation {
    p.tail_block(start)
        .expect("Setup::grow extends every permutation block-diagonally")
}

/// The owners of one PRISM deployment `D`.
pub struct Cluster<D = InProcess> {
    deployment: D,
    cfg: ClusterConfig,
    /// Each owner's plaintext table over the whole domain, on the owner
    /// side of the wall: the sums (median) and maxima (max rounds 2–3) the
    /// post-build rounds read, and the indicator and counts an update
    /// takes its difference from.
    owners: Vec<OwnerTable>,
    n_attrs: usize,
    /// Post-build owner updates performed so far (salts the re-sharing
    /// randomness so successive updates never reuse share streams).
    updates: u64,
}

/// Every row of owner `j`'s input must carry exactly `n_attrs`
/// aggregation values.
fn check_attrs(j: usize, input: &OwnerInput, n_attrs: usize) -> Result<()> {
    if input.rows.iter().any(|(_, aggs)| aggs.len() != n_attrs) {
        return Err(ProtocolError::ParameterMismatch(format!(
            "owner {j} has rows without exactly {n_attrs} aggregation values"
        )));
    }
    Ok(())
}

/// The aggregation attributes every row of every owner carries.
fn attribute_count(inputs: &[OwnerInput]) -> Result<usize> {
    let first = inputs.iter().flat_map(|i| i.rows.first()).next();
    let n_attrs = first.map_or(0, |(_, aggs)| aggs.len());
    for (j, input) in inputs.iter().enumerate() {
        check_attrs(j, input, n_attrs)?;
    }
    if n_attrs > u8::MAX as usize {
        return Err(ProtocolError::ParameterMismatch(format!(
            "at most {} aggregation attributes supported, got {n_attrs}",
            u8::MAX
        )));
    }
    Ok(n_attrs)
}

/// Owner `j`'s plaintext table over the row window `[start, start + len)`
/// — all of Phase 1's input validation.
fn window_table(
    j: usize,
    input: &OwnerInput,
    n_attrs: usize,
    (start, len): (usize, usize),
) -> Result<OwnerTable> {
    let rows = input.rows.iter().map(|(set_v, aggs)| (*set_v, aggs));
    OwnerTable::window(rows, n_attrs, start, len).map_err(|e| match e {
        ProtocolError::OutOfDomain { value } => ProtocolError::OutOfDomain {
            value: format!("owner {j}: {value}"),
        },
        other => other,
    })
}

impl Cluster {
    /// Phase 0 + Phase 1 in one process: set up parameters and outsource
    /// every owner's data as shares into [`InProcess`] server nodes.
    pub fn build(inputs: &[OwnerInput], cfg: ClusterConfig) -> Result<Cluster> {
        let setup = cfg.setup(inputs.len())?;
        let node = |sp: &ServerParams| ShardedNode::new(sp.clone(), cfg.shards);
        let servers = InProcess {
            nodes: setup.servers.iter().map(node).collect(),
            announcer: Announcer::new(setup.announcer.clone()),
            setup,
            threads: cfg.threads,
            cache: cfg.cache.then(|| PsiRoundCache::new(Default::default())),
        };
        Cluster::over(servers, inputs, cfg)
    }

    /// Convenience constructor: single-attribute rows, default config.
    pub fn from_rows(
        rows_per_owner: &[Vec<(u64, u64)>],
        domain_size: usize,
        seed: u64,
    ) -> Result<Cluster> {
        let inputs: Vec<OwnerInput> = rows_per_owner
            .iter()
            .map(|rows| OwnerInput::from_pairs(rows.iter().copied()))
            .collect();
        let mut cfg = ClusterConfig::new(domain_size);
        cfg.seed = seed;
        Cluster::build(&inputs, cfg)
    }

    /// Attach a tampering behaviour to server φ (tests). A non-honest
    /// server's rounds bypass the PSI-round cache (and its entries are
    /// dropped), so failure injection behaves identically with the cache
    /// on or off.
    pub fn set_tamper(&mut self, server: usize, t: Tamper) {
        if let Some(cache) = &self.deployment.cache {
            cache.note_tamper(server, t.is_honest());
        }
        self.deployment.nodes[server].set_tamper(t);
    }

    /// Attach a tampering behaviour to the announcer (tests): applied to
    /// every subsequent max/median announcement.
    pub fn set_announcer_tamper(&mut self, t: AnnouncerTamper) {
        self.deployment.announcer.set_tamper(t);
    }

    /// Set per-server thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.deployment.threads = threads;
    }

    /// Row-range shards per server domain.
    pub fn shards(&self) -> usize {
        let nodes = &self.deployment.nodes;
        nodes.first().map_or(1, ShardedNode::shard_count)
    }

    /// The cross-query PSI-round cache, when enabled (tests observe
    /// its hit/miss/invalidation metrics and entry granularity through it).
    pub fn cache(&self) -> Option<&PsiRoundCache> {
        self.deployment.cache.as_ref()
    }
}

impl<D: Deployment> Cluster<D> {
    /// Phase 1 over a deployment whose nodes run under
    /// [`ClusterConfig::setup`]: outsource every owner's data as shares to
    /// its servers and keep the owner side here. A wire deployment is
    /// started with `cfg.shards` and given `cache` / `threads` through its
    /// own setters before it is handed over.
    pub fn over(deployment: D, inputs: &[OwnerInput], cfg: ClusterConfig) -> Result<Cluster<D>> {
        let n_attrs = attribute_count(inputs)?;
        let op = &deployment.setup().owner;
        if (op.m, op.b) != (inputs.len(), cfg.domain_size) {
            return Err(ProtocolError::ParameterMismatch(format!(
                "deployment is set up for {} owners over {} cells",
                op.m, op.b
            )));
        }
        let mut cluster = Cluster {
            deployment,
            cfg,
            owners: Vec::with_capacity(inputs.len()),
            n_attrs,
            updates: 0,
        };
        // One owner at a time, so the transient plaintext columns are
        // dropped before the next owner's are built.
        for (j, input) in inputs.iter().enumerate() {
            let state = cluster.outsource(j, input, 0xA11CE)?;
            cluster.owners.push(state);
        }
        Ok(cluster)
    }

    /// The deployment underneath, for what only a transport has (reports,
    /// the control plane, tamper controls, `execute_as`).
    pub fn deployment(&self) -> &D {
        &self.deployment
    }

    /// Give the deployment back (to shut a wire deployment down).
    pub fn into_deployment(self) -> D {
        self.deployment
    }

    /// The initiator's setup (role views) the deployment runs under.
    pub fn setup(&self) -> &Setup {
        self.deployment.setup()
    }

    /// Number of owners.
    pub fn owners(&self) -> usize {
        self.owners.len()
    }

    /// Number of aggregation attributes.
    pub fn attributes(&self) -> usize {
        self.n_attrs
    }

    /// The Table-11 columns this configuration outsources.
    fn column_set(&self) -> ColumnSet {
        ColumnSet {
            verification: self.cfg.with_verification,
            two_copy: self.cfg.with_verification,
            aggregation: self.cfg.with_aggregation.then_some(self.n_attrs),
        }
    }

    /// Seed of owner `j`'s share randomness for one outsourcing step
    /// (`tag` names the step, the update count salts repeats): identical
    /// `(inputs, cfg)` histories store identical shares on any deployment.
    fn share_seed(&self, tag: u64, j: usize) -> u64 {
        self.cfg.seed ^ (tag + j as u64 + (self.updates << 20)).wrapping_mul(0x9E3779B97F4A7C15)
    }

    /// Phase 1 for owner `j` over the whole domain: validate and fold the
    /// rows, share every configured column into the deployment, and
    /// return the owner's table.
    fn outsource(&mut self, j: usize, input: &OwnerInput, tag: u64) -> Result<OwnerTable> {
        let b = self.setup().owner.b;
        let table = window_table(j, input, self.n_attrs, (0, b))?;
        let set = self.column_set();
        let mut prg = Prg::from_seed(self.share_seed(tag, j));
        self.deployment.store(j, |op, sink| {
            share_owner(&table, op, (&op.pf_db1, &op.pf_db2), set, &mut prg, sink)
        })?;
        Ok(table)
    }

    /// Replace one owner's entire relation (the owner updated their
    /// database after Phase 1): rebuild the owner's plaintext table and
    /// fold a fresh sharing of its difference from the old one into every
    /// configured column at the servers, at a new epoch — the servers only
    /// ever add, and a repeated or stale update is refused there. Every
    /// server domain's store version moves, so the PSI-round cache
    /// re-probes and drops the now-stale entries before the next query — a
    /// stale PSI can never be served.
    pub fn update_owner(&mut self, owner: usize, input: &OwnerInput) -> Result<()> {
        if owner >= self.owners.len() {
            return Err(ProtocolError::ParameterMismatch(format!(
                "owner {owner} out of range ({} owners)",
                self.owners.len()
            )));
        }
        check_attrs(owner, input, self.n_attrs)?;
        let b = self.setup().owner.b;
        let table = window_table(owner, input, self.n_attrs, (0, b))?;
        self.updates += 1;
        let set = self.column_set();
        let mut prg = Prg::from_seed(self.share_seed(0xD1CE, owner));
        let old = &self.owners[owner];
        self.deployment.fold(owner, self.updates, |op, sink| {
            let perms = (&op.pf_db1, &op.pf_db2);
            share_difference(old, &table, op, perms, set, &mut prg, sink)
        })?;
        self.owners[owner] = table;
        Ok(())
    }

    /// Streaming append (delta upload): grow the domain by `added` cells
    /// and upload every owner's rows for the appended segment (global set
    /// values in `b+1 ..= b+added`) as share deltas. Existing rows and
    /// their shares are untouched — only the appended range's version
    /// moves at each server, so with [`ClusterConfig::cache`] set the
    /// PSI-round cache *keeps* its entries for untouched ranges (they
    /// revalidate by version probe) instead of dropping everything the
    /// way a full [`Cluster::update_owner`] re-outsourcing does.
    ///
    /// Every owner's rows are validated before the first store moves: a
    /// rejected append leaves the deployment exactly as it was.
    pub fn append(&mut self, added: usize, inputs: &[OwnerInput]) -> Result<()> {
        if inputs.len() != self.owners.len() {
            return Err(ProtocolError::ParameterMismatch(format!(
                "append carries {} owner deltas, cluster has {} owners",
                inputs.len(),
                self.owners.len()
            )));
        }
        let start = self.setup().owner.b;
        let mut tables = Vec::with_capacity(inputs.len());
        for (j, input) in inputs.iter().enumerate() {
            check_attrs(j, input, self.n_attrs)?;
            tables.push(window_table(j, input, self.n_attrs, (start, added))?);
        }
        let grown = self.setup().grow(added, self.updates + 1, self.cfg.seed)?;
        // The appended segment of a permuted copy is the grown
        // permutation's tail block applied to the segment.
        let db1 = tail_block(&grown.owner.pf_db1, start);
        let db2 = tail_block(&grown.owner.pf_db2, start);
        self.updates += 1;
        self.deployment.adopt_setup(grown);
        let set = self.column_set();
        for (j, table) in tables.into_iter().enumerate() {
            let mut prg = Prg::from_seed(self.share_seed(0xDE17A, j));
            let op = &self.deployment.setup().owner;
            let uploads = owner_uploads(&table, op, (&db1, &db2), set, &mut prg);
            for (server, columns) in uploads.into_iter().enumerate() {
                if !columns.is_empty() {
                    self.deployment.delta_store(server, j, start, columns)?;
                }
            }
            let state = &mut self.owners[j];
            state.indicator.extend_from_slice(&table.indicator);
            state.counts.extend_from_slice(&table.counts);
            for (a, (sums, maxima)) in table.sums.iter().zip(&table.maxima).enumerate() {
                state.sums[a].extend_from_slice(sums);
                state.maxima[a].extend_from_slice(maxima);
            }
        }
        Ok(())
    }

    /// Execute any round plan against this deployment. This is the
    /// extension point for queries the named methods below don't cover —
    /// see [`Operation`] for a worked example. With
    /// [`ClusterConfig::cache`] set, the backend is wrapped in the
    /// PSI-round [`CachedExec`] decorator (state persists across calls).
    pub fn execute<P: Operation>(&self, plan: &P) -> Result<(P::Output, QueryStats)> {
        self.deployment.run(None, plan)
    }

    fn require_verification(&self) -> Result<()> {
        if !self.cfg.with_verification {
            return Err(ProtocolError::ParameterMismatch(
                "cluster built without verification columns".into(),
            ));
        }
        Ok(())
    }

    fn require_agg(&self, attr: usize) -> Result<()> {
        if !self.cfg.with_aggregation {
            return Err(ProtocolError::ParameterMismatch(
                "cluster built without aggregation columns".into(),
            ));
        }
        if attr >= self.n_attrs {
            return Err(ProtocolError::ParameterMismatch(format!(
                "attribute {attr} out of range ({} attributes)",
                self.n_attrs
            )));
        }
        Ok(())
    }

    /// Seed the round-2 z sharing is derived from.
    fn z_seed(&self) -> u64 {
        self.cfg.seed ^ 0x5A5A_5A5A
    }

    /// PSI (§5.1).
    pub fn psi(&self) -> Result<(PsiOutcome, QueryStats)> {
        self.execute(&plans::Psi)
    }

    /// PSI with result verification (§5.2). Fails if any server tampered.
    pub fn psi_verified(&self) -> Result<(PsiOutcome, QueryStats)> {
        self.require_verification()?;
        self.execute(&plans::PsiVerified)
    }

    /// PSU (§7).
    pub fn psu(&self) -> Result<(Vec<bool>, QueryStats)> {
        self.execute(&plans::Psu)
    }

    /// PSU with two-copy verification (reconstruction; DESIGN.md §3.9).
    /// Returns the union size; positions are intentionally not mapped
    /// back (both copies live in the composed `PF_i` order).
    pub fn psu_verified(&self) -> Result<(usize, QueryStats)> {
        self.require_verification()?;
        let (members, stats) = self.execute(&plans::PsuVerified)?;
        Ok((members.iter().filter(|&&m| m).count(), stats))
    }

    /// PSI count (§6.5): cardinality only.
    pub fn psi_count(&self) -> Result<(usize, QueryStats)> {
        self.execute(&plans::Count)
    }

    /// PSI count with two-copy verification (reconstruction; DESIGN.md §3.9).
    pub fn psi_count_verified(&self) -> Result<(usize, QueryStats)> {
        self.require_verification()?;
        self.execute(&plans::CountVerified)
    }

    /// PSI sum over one aggregation attribute (§6.1).
    pub fn psi_sum(&self, attr: usize) -> Result<(Vec<u64>, QueryStats)> {
        self.require_agg(attr)?;
        self.execute(&plans::Sum {
            attr: attr as u8,
            seed: self.z_seed(),
        })
    }

    /// PSI sum over several attributes at once (Table 12's workload); all
    /// attributes share one PSI and one batched round 2.
    pub fn psi_sum_multi(&self, attrs: &[usize]) -> Result<(Vec<Vec<u64>>, QueryStats)> {
        for &a in attrs {
            self.require_agg(a)?;
        }
        self.execute(&plans::SumMulti {
            attrs: attrs.iter().map(|&a| a as u8).collect(),
            seed: self.z_seed(),
        })
    }

    /// PSI sum with permuted-copy verification.
    pub fn psi_sum_verified(&self, attr: usize) -> Result<(Vec<u64>, QueryStats)> {
        self.require_agg(attr)?;
        self.require_verification()?;
        self.execute(&plans::SumVerified {
            attr: attr as u8,
            seed: self.z_seed(),
        })
    }

    /// PSI average (§6.2).
    pub fn psi_avg(&self, attr: usize) -> Result<(Vec<AvgCell>, QueryStats)> {
        self.require_agg(attr)?;
        self.execute(&plans::Average {
            attr: attr as u8,
            seed: self.z_seed(),
        })
    }

    /// Several aggregations over one PSI in a single round-2 round-trip
    /// (see [`QueryBatch`]); results are identical to the corresponding
    /// sequential queries.
    pub fn psi_query_batch(&self, batch: &QueryBatch) -> Result<(Vec<AggResult>, QueryStats)> {
        self.batch(None, batch)
    }

    /// [`Cluster::psi_query_batch`] restricted to the row window
    /// `[range.0, range.0 + range.1)` — the streaming-workload shape:
    /// after an append, query just the fresh window cold while every
    /// untouched window's rounds replay from the cache. Results are
    /// bit-identical to slicing a full-domain query to the window.
    pub fn psi_query_batch_range(
        &self,
        batch: &QueryBatch,
        range: (u64, u64),
    ) -> Result<(Vec<AggResult>, QueryStats)> {
        self.batch(Some(range), batch)
    }

    /// Validate `batch`'s aggregates against the outsourced column set
    /// and run it, whole-domain or windowed.
    fn batch(
        &self,
        range: Option<(u64, u64)>,
        batch: &QueryBatch,
    ) -> Result<(Vec<AggResult>, QueryStats)> {
        for agg in &batch.aggs {
            match *agg {
                Aggregate::Sum(a) | Aggregate::Avg(a) => self.require_agg(a as usize)?,
                Aggregate::CountTuples => self.require_agg(0)?,
            }
        }
        let seed = self.z_seed();
        self.deployment.run(range, &plans::Batch { batch, seed })
    }

    /// The §6.3 round plan [`Cluster::psi_max`] executes, over every
    /// owner's per-cell maxima of `attr` (a wire deployment's `execute_as`
    /// runs it on a named owner's behalf).
    pub fn max_plan(&self, attr: usize) -> Result<plans::Max<'_>> {
        self.require_agg(attr)?;
        Ok(plans::Max {
            values: self
                .owners
                .iter()
                .map(|o| o.maxima[attr].as_slice())
                .collect(),
            table: None,
            seed: self.cfg.seed,
            cell_chunk: plans::DEFAULT_CELL_CHUNK,
        })
    }

    /// The §6.4 round plan [`Cluster::psi_median`] executes, over every
    /// owner's per-cell *sums* (§6.4: "we first added the cost of
    /// treatment per disease at each DB owner").
    pub fn median_plan(&self, attr: usize) -> Result<plans::Median<'_>> {
        self.require_agg(attr)?;
        Ok(plans::Median {
            values: self
                .owners
                .iter()
                .map(|o| o.sums[attr].as_slice())
                .collect(),
            table: None,
            seed: self.cfg.seed,
            cell_chunk: plans::DEFAULT_CELL_CHUNK,
        })
    }

    /// PSI maximum with the identity round (§6.3, all three rounds) and
    /// built-in verification.
    ///
    /// The per-common-cell pipeline (blind → permute → announce → decode →
    /// claim) runs in bounded chunks so memory stays flat even when
    /// millions of cells are common.
    pub fn psi_max(&self, attr: usize) -> Result<(Vec<MaxCell>, Vec<Vec<bool>>, QueryStats)> {
        let ((cells, holders), stats) = self.execute(&self.max_plan(attr)?)?;
        Ok((cells, holders, stats))
    }

    /// PSI maximum over several attributes (Table 12).
    pub fn psi_max_multi(&self, attrs: &[usize]) -> Result<(Vec<Vec<MaxCell>>, QueryStats)> {
        let mut all = Vec::with_capacity(attrs.len());
        let mut total = QueryStats::default();
        for &a in attrs {
            let (cells, _, stats) = self.psi_max(a)?;
            total.merge(&stats);
            all.push(cells);
        }
        Ok((all, total))
    }

    /// PSI median (§6.4), chunked like [`Self::psi_max`].
    pub fn psi_median(&self, attr: usize) -> Result<(Vec<MedianCell>, QueryStats)> {
        self.execute(&self.median_plan(attr)?)
    }

    /// PSI over a product domain (§6.6): decode the common cells of this
    /// cluster (whose domain must be the flattened `domain`) into tuples.
    pub fn psi_common_tuples(
        &self,
        domain: &prism_core::ProductDomain,
    ) -> Result<(Vec<Vec<u64>>, QueryStats)> {
        let cells = prism_core::DomainMap::<[u64]>::size(domain);
        if cells != self.setup().owner.b {
            return Err(ProtocolError::ParameterMismatch(format!(
                "product domain flattens to {cells} cells, cluster has {}",
                self.setup().owner.b
            )));
        }
        self.execute(&plans::PsiTuples { domain })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example: Tables 1–3 with disease cells
    /// 1=Cancer, 2=Fever, 3=Heart, aggregation attributes (cost, age).
    fn hospitals() -> Vec<OwnerInput> {
        vec![
            OwnerInput {
                rows: vec![
                    (1, vec![100, 4]), // John, Cancer
                    (1, vec![200, 6]), // Adam, Cancer
                    (3, vec![300, 2]), // Mike, Heart
                ],
            },
            OwnerInput {
                rows: vec![
                    (1, vec![100, 8]), // John, Cancer
                    (2, vec![70, 5]),  // Adam, Fever
                    (2, vec![50, 4]),  // Bob, Fever
                ],
            },
            OwnerInput {
                rows: vec![
                    (1, vec![300, 8]), // Carl, Cancer
                    (1, vec![700, 4]), // John, Cancer
                    (3, vec![500, 5]), // Lisa, Heart
                ],
            },
        ]
    }

    fn hospital_cluster(seed: u64) -> Cluster {
        let mut cfg = ClusterConfig::new(3);
        cfg.seed = seed;
        cfg.agg_domain_max = 2000;
        Cluster::build(&hospitals(), cfg).unwrap()
    }

    #[test]
    fn full_paper_walkthrough() {
        let c = hospital_cluster(1);
        // PSI: {Cancer}.
        let (psi, _) = c.psi().unwrap();
        assert_eq!(psi.common, vec![0]);
        // PSU: {Cancer, Fever, Heart}.
        let (psu, _) = c.psu().unwrap();
        assert_eq!(psu, vec![true, true, true]);
        // Count over PSI = 1.
        let (n, _) = c.psi_count().unwrap();
        assert_eq!(n, 1);
        // Sum of cost over PSI: {Cancer, 1400}.
        let (sums, _) = c.psi_sum(0).unwrap();
        assert_eq!(sums, vec![1400, 0, 0]);
        // Average of cost: {Cancer, 280}.
        let (avg, _) = c.psi_avg(0).unwrap();
        assert_eq!(avg[0].sum, 1400);
        assert_eq!(avg[0].count, 5);
        assert!((avg[0].average - 280.0).abs() < 1e-9);
        // Max of age over PSI: {Cancer, 8}, held by hospitals 2 and 3.
        let (maxes, holders, _) = c.psi_max(1).unwrap();
        assert_eq!(maxes[0].max, 8);
        assert_eq!(holders[0], vec![false, true, true]);
        // Median over per-owner cost sums for Cancer: 300, 100, 1000 → 300.
        let (medians, _) = c.psi_median(0).unwrap();
        assert_eq!(medians[0].values, vec![300]);
        assert_eq!(medians[0].holders, vec![0]); // Hospital 1
    }

    #[test]
    fn verified_paths_accept_honest_servers() {
        let c = hospital_cluster(2);
        assert!(c.psi_verified().is_ok());
        assert_eq!(c.psi_count_verified().unwrap().0, 1);
        assert_eq!(c.psi_sum_verified(0).unwrap().0, vec![1400, 0, 0]);
    }

    #[test]
    fn verified_paths_reject_tampering() {
        for tamper in [
            Tamper::SkipReplay { src: 0 },
            Tamper::ReplaceCell { src: 0, dst: 1 },
            Tamper::InjectFake { cell: 2, seed: 9 },
            Tamper::TruncateFrom { from: 1 },
        ] {
            let mut c = hospital_cluster(3);
            c.set_tamper(0, tamper);
            assert!(c.psi_verified().is_err(), "{tamper:?} undetected by PSI");
            let mut c = hospital_cluster(4);
            c.set_tamper(1, tamper);
            assert!(
                c.psi_sum_verified(0).is_err(),
                "{tamper:?} undetected by sum"
            );
        }
    }

    #[test]
    fn count_verification_catches_count_tampering() {
        // A lazy server now tampers *both* permuted copies (the node
        // applies its behaviour to every output). Detection is
        // statistical — a forged cell survives only if the two
        // independently-permuted copies happen to agree (§5.2's 1/b²
        // argument) — so test on a domain where coincidence is negligible.
        let rows: Vec<Vec<(u64, u64)>> = (0..3)
            .map(|j| {
                (1..=24u64)
                    .filter(|v| v % (j + 2) != 0)
                    .map(|v| (v, v))
                    .collect()
            })
            .collect();
        let mut c = Cluster::from_rows(&rows, 24, 5).unwrap();
        c.set_tamper(0, Tamper::SkipReplay { src: 0 });
        assert!(c.psi_count_verified().is_err());
    }

    #[test]
    fn unverified_queries_do_not_catch_tampering() {
        // Sanity check that verification is doing the work: the plain PSI
        // path returns (possibly wrong) results without complaint.
        let mut c = hospital_cluster(6);
        c.set_tamper(0, Tamper::SkipReplay { src: 0 });
        assert!(c.psi().is_ok());
    }

    #[test]
    fn multi_attribute_queries() {
        let c = hospital_cluster(7);
        let (sums, _) = c.psi_sum_multi(&[0, 1]).unwrap();
        assert_eq!(sums[0], vec![1400, 0, 0]); // cost
        assert_eq!(sums[1], vec![30, 0, 0]); // ages: 4+6+8+8+4
        let (maxes, _) = c.psi_max_multi(&[0, 1]).unwrap();
        assert_eq!(maxes[0][0].max, 700); // max cost for Cancer
        assert_eq!(maxes[1][0].max, 8); // max age
    }

    #[test]
    fn max_multi_accumulates_every_stat_across_attributes() {
        let mut cfg = ClusterConfig::new(3).with_shards(2);
        cfg.agg_domain_max = 2000;
        let c = Cluster::build(&hospitals(), cfg).unwrap();
        let singles = [c.psi_max(0).unwrap().2, c.psi_max(1).unwrap().2];
        let (_, total) = c.psi_max_multi(&[0, 1]).unwrap();
        assert_eq!(singles[0].rounds, 3);
        assert_eq!(total.rounds, 2 * singles[0].rounds);
        assert!(singles[0].shard_dispatches() > 0, "shards = 2 must fan out");
        assert_eq!(
            total.shard_dispatches(),
            singles[0].shard_dispatches() + singles[1].shard_dispatches()
        );
    }

    #[test]
    fn sum_multi_shares_one_round_trip() {
        let c = hospital_cluster(12);
        let (_, stats) = c.psi_sum_multi(&[0, 1]).unwrap();
        // One PSI round + one batched round 2 for both attributes.
        assert_eq!(stats.rounds, 2);
    }

    #[test]
    fn batched_aggregations_match_sequential() {
        let c = hospital_cluster(13);
        let batch = QueryBatch::new().sum(0).avg(0).sum(1).count_tuples();
        let (results, stats) = c.psi_query_batch(&batch).unwrap();
        assert_eq!(stats.rounds, 2, "≥3 aggregations in one round 2");
        assert_eq!(results.len(), 4);
        assert_eq!(results[0], AggResult::Sums(c.psi_sum(0).unwrap().0));
        assert_eq!(results[1], AggResult::Avg(c.psi_avg(0).unwrap().0));
        assert_eq!(results[2], AggResult::Sums(c.psi_sum(1).unwrap().0));
        match &results[3] {
            AggResult::Counts(counts) => {
                let avg = c.psi_avg(0).unwrap().0;
                let expected: Vec<u64> = avg.iter().map(|cell| cell.count).collect();
                assert_eq!(counts, &expected);
            }
            other => panic!("expected counts, got {other:?}"),
        }
        // Repeated aggregates: a column moves into its last taker only, so
        // the earlier takers (and the average between them) still see it.
        let repeats = QueryBatch::new()
            .count_tuples()
            .sum(0)
            .avg(0)
            .sum(0)
            .count_tuples();
        let (again, _) = c.psi_query_batch(&repeats).unwrap();
        let expected = [3, 0, 1, 0, 3].map(|i: usize| results[i].clone());
        assert_eq!(again, expected);
    }

    #[test]
    fn threads_do_not_change_results() {
        let sets: Vec<Vec<(u64, u64)>> = (0..4)
            .map(|j| {
                (1..=300u64)
                    .filter(|v| v % (j + 2) != 0)
                    .map(|v| (v, v * 2))
                    .collect()
            })
            .collect();
        let reference = {
            let c = Cluster::from_rows(&sets, 300, 11).unwrap();
            c.psi_sum(0).unwrap().0
        };
        for threads in [2usize, 4, 8] {
            let mut c = Cluster::from_rows(&sets, 300, 11).unwrap();
            c.set_threads(threads);
            assert_eq!(c.psi_sum(0).unwrap().0, reference);
        }
    }

    #[test]
    fn lean_cluster_rejects_unavailable_queries() {
        let mut cfg = ClusterConfig::new(3);
        cfg.with_verification = false;
        cfg.with_aggregation = false;
        let c = Cluster::build(&hospitals(), cfg).unwrap();
        assert!(c.psi().is_ok());
        assert!(c.psi_verified().is_err());
        assert!(c.psi_sum(0).is_err());
        assert!(c.psi_count_verified().is_err());
    }

    #[test]
    fn out_of_domain_rows_rejected() {
        let inputs = vec![
            OwnerInput::from_set([1u64, 4]),
            OwnerInput::from_set([2u64]),
        ];
        let cfg = ClusterConfig::new(3);
        assert!(Cluster::build(&inputs, cfg).is_err());
    }

    #[test]
    fn max_and_median_refuse_values_above_the_aggregation_domain() {
        use crate::params::POLY_TABLE_LIMIT;
        // Hospital 1's second Cancer cost lies past the domain, on the
        // table path (2 000) and on the Horner path (past the limit).
        for (agg_domain_max, cost) in [
            (2000, 5000),
            (2000, u64::MAX / 2),
            (POLY_TABLE_LIMIT + 1, POLY_TABLE_LIMIT + 2),
        ] {
            let mut inputs = hospitals();
            inputs[0].rows[1].1[0] = cost;
            let mut cfg = ClusterConfig::new(3);
            cfg.agg_domain_max = agg_domain_max;
            let c = Cluster::build(&inputs, cfg).unwrap();
            // Max blinds the cost itself, median the owner's cost sum.
            let out_of_domain = |e: ProtocolError| match e {
                ProtocolError::OutOfDomain { value } => {
                    assert!(value.starts_with("owner 0: "), "{value}")
                }
                other => panic!("cost {cost}: expected OutOfDomain, got {other:?}"),
            };
            out_of_domain(c.psi_max(0).unwrap_err());
            out_of_domain(c.psi_median(0).unwrap_err());
            let plan = plans::Max {
                table: None,
                ..c.max_plan(0).unwrap()
            };
            out_of_domain(c.execute(&plan).unwrap_err());
            // The bound is max / median's alone: sum and average still
            // answer.
            assert!(c.psi_sum(0).is_ok() && c.psi_avg(0).is_ok());
            // So is every in-domain attribute.
            assert_eq!(c.psi_max(1).unwrap().0[0].max, 8);
        }
    }

    #[test]
    fn horner_branch_answers_as_the_table_branch() {
        use crate::params::POLY_TABLE_LIMIT;
        // Cancer's per-owner costs are distinct (max 200 / 100 / 700, sums
        // 300 / 100 / 1000), so the credited holders are determined too.
        let answers = |agg_domain_max| {
            let mut cfg = ClusterConfig::new(3);
            cfg.agg_domain_max = agg_domain_max;
            let c = Cluster::build(&hospitals(), cfg).unwrap();
            let tabled = c.setup().owner.poly_table().is_some();
            let (max, holders, _) = c.psi_max(0).unwrap();
            (tabled, max, holders, c.psi_median(0).unwrap().0)
        };
        let (tabled, max, holders, median) = answers(2000);
        let horner = answers(POLY_TABLE_LIMIT + 1);
        assert!(tabled && !horner.0, "the limit picks the branch");
        assert_eq!((&max, &holders, &median), (&horner.1, &horner.2, &horner.3));
        assert_eq!((max[0].max, max[0].holder), (700, 2));
        assert_eq!(holders[0], vec![false, false, true]);
        assert_eq!((median[0].values[0], median[0].holders[0]), (300, 0));
    }

    #[test]
    fn inconsistent_attribute_counts_rejected() {
        let inputs = vec![OwnerInput {
            rows: vec![(1, vec![1]), (2, vec![1, 2])],
        }];
        assert!(Cluster::build(&inputs, ClusterConfig::new(4)).is_err());
    }

    #[test]
    fn stats_report_rounds() {
        let c = hospital_cluster(8);
        assert_eq!(c.psi().unwrap().1.rounds, 1);
        assert_eq!(c.psi_sum(0).unwrap().1.rounds, 2);
        assert_eq!(c.psi_max(1).unwrap().2.rounds, 3);
        // Verified variants batch their copies into the same round trips.
        assert_eq!(c.psi_verified().unwrap().1.rounds, 1);
        assert_eq!(c.psi_count_verified().unwrap().1.rounds, 1);
        assert_eq!(c.psi_sum_verified(0).unwrap().1.rounds, 2);
    }

    #[test]
    fn cached_cluster_serves_repeat_psi_with_zero_rounds() {
        let mut cfg = ClusterConfig::new(3).with_cache(true);
        cfg.seed = 21;
        cfg.agg_domain_max = 2000;
        let c = Cluster::build(&hospitals(), cfg).unwrap();
        let (cold, s1) = c.psi().unwrap();
        assert_eq!(s1.rounds, 1);
        assert_eq!(s1.cache_misses(), 1);
        let (warm, s2) = c.psi().unwrap();
        assert_eq!(warm.fop, cold.fop, "cache changed the PSI result");
        assert_eq!(s2.rounds, 0, "warm PSI must not touch the servers");
        assert_eq!(s2.cache_hits(), 1);
        // The batch plan rides the same cached round 1.
        let batch = QueryBatch::new().sum(0).avg(0);
        let (_, s3) = c.psi_query_batch(&batch).unwrap();
        assert_eq!(s3.rounds, 1, "warm batch pays only its round 2");
        assert_eq!(s3.cache_hits(), 1);
    }

    #[test]
    fn update_owner_restores_the_cold_path_bit_identically() {
        let mk = |cache| {
            let mut cfg = ClusterConfig::new(3).with_cache(cache);
            cfg.seed = 22;
            cfg.agg_domain_max = 2000;
            Cluster::build(&hospitals(), cfg).unwrap()
        };
        let mut cached = mk(true);
        let mut oracle = mk(false);
        let _ = cached.psi().unwrap(); // warm up
        let update = OwnerInput {
            rows: vec![(2, vec![40, 1]), (3, vec![60, 2])],
        };
        cached.update_owner(0, &update).unwrap();
        oracle.update_owner(0, &update).unwrap();
        let (got, stats) = cached.psi().unwrap();
        let (want, oracle_stats) = oracle.psi().unwrap();
        assert_eq!(got.fop, want.fop, "stale PSI served after an update");
        assert_eq!(stats.rounds, oracle_stats.rounds, "cold path round count");
        assert!(stats.cache_invalidations() >= 1, "update must invalidate");
        // Verified paths still work (and still bypass the cache).
        let (_, vstats) = cached.psi_verified().unwrap();
        assert_eq!(vstats.rounds, 1);
        assert_eq!(vstats.cache_hits(), 0);
    }

    /// An update is a fold of `new − old` into the sums, so every column —
    /// the complement and both permuted copies included — answers as if
    /// the owner had outsourced the new rows in Phase 1; a second fold of
    /// the same epoch is refused and changes nothing.
    #[test]
    fn an_update_answers_as_a_fresh_build() {
        let update = OwnerInput {
            rows: vec![(2, vec![40, 1]), (3, vec![60, 2]), (3, vec![5, 9])],
        };
        let mut updated = hospital_cluster(24);
        updated.update_owner(0, &update).unwrap();
        let mut inputs = hospitals();
        inputs[0] = update;
        let mut cfg = ClusterConfig::new(3);
        cfg.seed = 24;
        cfg.agg_domain_max = 2000;
        let fresh = Cluster::build(&inputs, cfg).unwrap();
        let answers = |c: &Cluster| {
            format!(
                "{:?}",
                (
                    c.psi_verified().unwrap().0.common,
                    c.psu_verified().unwrap().0,
                    c.psi_count_verified().unwrap().0,
                    c.psi_sum_verified(1).unwrap().0,
                    c.psi_avg(0).unwrap().0,
                )
            )
        };
        assert_eq!(answers(&updated), answers(&fresh));
        let before = answers(&updated);
        let epoch = updated.updates;
        let again = updated.deployment.fold(0, epoch, |op, sink| {
            let t = &updated.owners[0];
            let set = ColumnSet::full(2);
            share_difference(
                t,
                t,
                op,
                (&op.pf_db1, &op.pf_db2),
                set,
                &mut Prg::from_seed(1),
                sink,
            )
        });
        assert!(matches!(again, Err(ProtocolError::UploadRefused(_))));
        assert_eq!(answers(&updated), before);
    }

    #[test]
    fn append_keeps_untouched_window_warm_and_matches_the_oracle() {
        let mk = |cache| {
            let mut cfg = ClusterConfig::new(3).with_cache(cache);
            cfg.seed = 31;
            cfg.agg_domain_max = 2000;
            Cluster::build(&hospitals(), cfg).unwrap()
        };
        let mut cached = mk(true);
        let mut oracle = mk(false);
        let batch = QueryBatch::new().sum(0).avg(0);
        // Warm the original window [0, 3) — both rounds.
        let _ = cached.psi_query_batch_range(&batch, (0, 3)).unwrap();
        // Append two cells; every owner's delta rows land in 4..=5.
        let delta = vec![
            OwnerInput {
                rows: vec![(4, vec![10, 1])],
            },
            OwnerInput {
                rows: vec![(4, vec![20, 2]), (5, vec![5, 5])],
            },
            OwnerInput {
                rows: vec![(4, vec![30, 3])],
            },
        ];
        cached.append(2, &delta).unwrap();
        oracle.append(2, &delta).unwrap();
        assert_eq!(cached.setup().owner.b, 5);
        // The untouched window replays both rounds from the cache: zero
        // server round-trips even though the append moved the stores.
        let (got, stats) = cached.psi_query_batch_range(&batch, (0, 3)).unwrap();
        let (want, _) = oracle.psi_query_batch_range(&batch, (0, 3)).unwrap();
        assert_eq!(got, want, "stale window served after an append");
        assert_eq!(stats.rounds, 0, "untouched window must replay from cache");
        assert_eq!(stats.cache_hits(), 2);
        // Full-domain results over the grown domain match bit for bit;
        // cell 4 is common to all three owners (sum 10+20+30).
        let (got, _) = cached.psi_query_batch(&batch).unwrap();
        let (want, _) = oracle.psi_query_batch(&batch).unwrap();
        assert_eq!(got, want);
        assert_eq!(got[0], AggResult::Sums(vec![1400, 0, 0, 60, 0]));
        // Owner-side max/median state grew with the append.
        let (maxes, _, _) = cached.psi_max(0).unwrap();
        assert_eq!(
            maxes.iter().map(|c| c.max).collect::<Vec<_>>(),
            vec![700, 30]
        );
    }

    #[test]
    fn append_rejects_rows_outside_the_appended_window() {
        let mut c = hospital_cluster(32);
        let delta = vec![
            OwnerInput {
                rows: vec![(2, vec![1, 1])], // existing cell, not appended
            },
            OwnerInput::default(),
            OwnerInput::default(),
        ];
        assert!(c.append(1, &delta).is_err());
        assert!(c.append(0, &[]).is_err(), "empty append must be rejected");
    }

    #[test]
    fn shamir_only_upload_keeps_additive_entries() {
        let mut cfg = ClusterConfig::new(3).with_cache(true);
        cfg.seed = 23;
        cfg.agg_domain_max = 2000;
        let mut c = Cluster::build(&hospitals(), cfg).unwrap();
        let _ = c.psi().unwrap();
        // Touch only server 2 (never part of a PSI round).
        let data = vec![1u64, 2, 3];
        c.deployment.nodes[2]
            .fold(0, 1, vec![(Column::VAgg(0), data)])
            .unwrap();
        c.deployment.note_uploads(2..3);
        let (_, stats) = c.psi().unwrap();
        assert_eq!(
            stats.cache_hits(),
            1,
            "an upload to the Shamir-only server must not evict additive entries"
        );
    }

    /// FNV-1a over every summed share column of every server domain —
    /// its length, then its shards' rows in row order — in a fixed
    /// `(server, column)` order, so the digest does not depend on how the
    /// domain is cut into shards.
    fn share_digest(c: &Cluster) -> u64 {
        const COLUMNS: [Column; 9] = [
            Column::Ok,
            Column::VOk,
            Column::OkDb1,
            Column::OkDb2,
            Column::Agg(0),
            Column::VAgg(0),
            Column::Agg(1),
            Column::VAgg(1),
            Column::AOk,
        ];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
        for node in &c.deployment.nodes {
            for column in COLUMNS {
                let sums = || node.shard_nodes().iter().flat_map(|n| n.sums(column));
                eat(sums().count() as u64);
                sums().copied().for_each(&mut eat);
            }
        }
        h
    }

    /// Phase 1 is pinned bit for bit: `build → update_owner → append`
    /// over one fixed `(inputs, cfg)` leaves exactly these summed shares
    /// in the stores, whatever code path produced them and however many
    /// shards hold them.
    #[test]
    fn outsourced_shares_match_the_golden_digest() {
        let owner_rows = |j: u64, cells: std::ops::RangeInclusive<u64>| OwnerInput {
            rows: cells
                .filter(|v| v % (j + 2) != 0)
                .flat_map(|v| [(v, vec![v * 10 + j, v + 3]), (v, vec![j + 1, 2 * v])])
                .collect(),
        };
        for shards in [1, 3] {
            let inputs: Vec<OwnerInput> = (0..3).map(|j| owner_rows(j, 1..=12)).collect();
            let mut cfg = ClusterConfig::new(12).with_shards(shards);
            cfg.seed = 0x60_1DE7;
            cfg.agg_domain_max = 2000;
            let mut c = Cluster::build(&inputs, cfg).unwrap();
            c.update_owner(1, &owner_rows(5, 2..=11)).unwrap();
            let delta: Vec<OwnerInput> = (0..3).map(|j| owner_rows(j, 13..=16)).collect();
            c.append(4, &delta).unwrap();
            assert_eq!(c.attributes(), 2);
            assert_eq!(
                share_digest(&c),
                0x292d_df29_f6cf_b0ee,
                "shards = {shards}: got {:#x}",
                share_digest(&c)
            );
        }
    }

    #[test]
    fn product_domain_tuples_decode() {
        use prism_core::{DenseIntDomain, DomainMap, ProductDomain};
        let domain = ProductDomain::new(vec![DenseIntDomain::one_to(4), DenseIntDomain::one_to(2)]);
        let b = DomainMap::<[u64]>::size(&domain);
        // Tuples (3,1) and (4,2) common to both owners.
        let owners = [
            vec![vec![3u64, 1], vec![4, 2], vec![1, 1]],
            vec![vec![3u64, 1], vec![4, 2], vec![2, 2]],
        ];
        let inputs: Vec<OwnerInput> = owners
            .iter()
            .map(|tuples| {
                OwnerInput::from_set(
                    tuples
                        .iter()
                        .map(|t| domain.index_of_tuple(t).unwrap() as u64 + 1),
                )
            })
            .collect();
        let mut cfg = ClusterConfig::new(b);
        cfg.with_aggregation = false;
        let c = Cluster::build(&inputs, cfg).unwrap();
        let (mut tuples, _) = c.psi_common_tuples(&domain).unwrap();
        tuples.sort();
        assert_eq!(tuples, vec![vec![3, 1], vec![4, 2]]);
    }
}
