//! `tcp_wide_serial`: one client, one router-less TCP deployment, one
//! wide batched aggregation query after another.
//!
//! 8.8 MB cross the wire per query in 800 KB frames, so per-byte costs
//! dominate — `wire` encode/decode, `TcpLink::recv` copies, the decode
//! pool, the server arena — together with owner finalize; the server
//! kernels are a millisecond or two of some forty. This is the query the
//! ROADMAP calls 95 % unattributed.

use super::{initiate, share_all, upload_all};
use crate::bench::{timed_query, Cfg, OpKind, Sample, Workload};
use crate::data::{digest, generate, Oracle, OwnerData, Shape};
use crate::report::Records;
use crate::trace::SpanBuf;
use prism_net::{NetCluster, NetReport};
use prism_protocol::{plans, AggResult, QueryBatch};

const OWNERS: usize = 4;
const CELLS: usize = 100_000;
const HOLD: f64 = 0.8;
const VALUE_MAX: u64 = 2000;

pub struct TcpWideSerial {
    cluster: NetCluster,
    data: Vec<OwnerData>,
    batch: QueryBatch,
    expected: Vec<AggResult>,
    seed: u64,
    uploaded_bytes: u64,
}

impl Workload for TcpWideSerial {
    const NAME: &'static str = "tcp_wide_serial";
    const PREFAULT_MB: usize = 120;
    const CYCLES_PER_SECOND: f64 = 27.0;
    const CYCLE: &'static [OpKind] = &[OpKind::Batch];

    fn shape(cfg: &Cfg) -> Shape {
        Shape {
            owners: OWNERS,
            cells: cfg.cells(CELLS),
            hold: HOLD,
            value_max: VALUE_MAX,
        }
    }

    fn setup(cfg: &Cfg, spans: &mut SpanBuf, parent: Option<u32>) -> Self {
        let shape = Self::shape(cfg);
        let setup = spans.timed("setup.initiator", parent, || initiate(shape, cfg.seed));
        let cluster = spans.timed("setup.bringup", parent, || {
            NetCluster::start_tcp_sharded(setup, 1).expect("loopback TCP bring-up")
        });
        let data = spans.timed("setup.generate", parent, || generate(cfg.seed, 0, shape));
        let op = &cluster.setup().owner;
        let shares = spans.timed("setup.sharegen", parent, || {
            share_all(op, &data, false, cfg.seed)
        });
        let uploaded_bytes = spans.timed("setup.upload", parent, || upload_all(&cluster, shares));
        TcpWideSerial {
            cluster,
            data,
            batch: QueryBatch::new().sum(0).avg(0).count_tuples(),
            expected: Vec::new(),
            seed: cfg.seed,
            uploaded_bytes,
        }
    }

    fn arm(&mut self) -> u64 {
        self.expected = Oracle::of(&self.data).batch(self.data[0].indicator.len());
        digest(&self.data)
    }

    fn op(&self, _client: usize, seq: usize, kind: OpKind) -> Sample {
        // A fresh z-share seed per query: no two queries send the same bytes.
        let seed = self.seed ^ (seq as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        timed_query(
            kind,
            || {
                self.cluster.execute(&plans::Batch {
                    batch: &self.batch,
                    seed,
                })
            },
            |answer| *answer == self.expected,
        )
    }

    fn net_report(&self) -> Option<NetReport> {
        Some(self.cluster.report())
    }

    fn rejected_replies(&self) -> u64 {
        self.cluster.rejected_replies()
    }

    fn layer_metrics(&mut self, _cfg: &Cfg, spans: &mut SpanBuf, out: &mut Records) -> u64 {
        let upload = spans.total("setup.upload").as_secs_f64();
        out.put(
            "net.cluster.upload_mb_s",
            self.uploaded_bytes as f64 / 1e6 / upload,
        );
        0
    }

    fn teardown(self) {
        self.cluster.shutdown().expect("cluster shutdown");
    }
}
