//! Refused uploads are reported, not acknowledged. Over channel and TCP
//! links, with one and four shards per domain, a duplicated or stale
//! fold, a second put, a re-sent append epoch and a delta whose
//! permutation extension does not fit it each come back as the typed
//! `UploadRefused` — and the cluster answers every operation afterwards
//! exactly as one that never received them. So do a growing delta whose
//! columns disagree in length, which the domain's delta rule refuses
//! before it grows anything, and a growing delta of columns its owner
//! never put: the domain grows for it, the node or the workers refuse it,
//! and the domain truncates its finish permutations back before the next
//! append grows them again.

use prism_net::{Column, NetCluster, NetError};
use prism_protocol::driver::{Cluster, ClusterConfig, Deployment, OwnerInput};
use prism_protocol::engine::Operation;
use prism_protocol::plans::{self, QueryBatch};
use prism_protocol::ProtocolError;
use std::fmt::Debug;

const DOMAIN: usize = 16;
const ADDED: usize = 2;

fn cfg(shards: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(DOMAIN).with_shards(shards);
    cfg.seed = 0x5EF0;
    cfg.agg_domain_max = 2000;
    cfg
}

fn inputs(rows: &[&[(u64, u64)]]) -> Vec<OwnerInput> {
    rows.iter()
        .map(|r| OwnerInput::from_pairs(r.iter().copied()))
        .collect()
}

/// Every kind of plan the facade names, run on `servers`, as comparable
/// answers (max and median over the oracle owners' values).
fn answers<D: Deployment>(servers: &D, oracle: &Cluster) -> Vec<String> {
    fn run<D: Deployment, P: Operation>(servers: &D, plan: &P) -> String
    where
        P::Output: Debug,
    {
        format!("{:?}", servers.run(None, plan).map(|(out, _)| out))
    }
    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
    let seed = 7;
    vec![
        run(servers, &plans::Psi),
        run(servers, &plans::PsiVerified),
        run(servers, &plans::Psu),
        run(servers, &plans::PsuVerified),
        run(servers, &plans::Count),
        run(servers, &plans::CountVerified),
        run(servers, &plans::Sum { attr: 0, seed }),
        run(servers, &plans::SumVerified { attr: 0, seed }),
        run(
            servers,
            &plans::Batch {
                batch: &batch,
                seed,
            },
        ),
        run(servers, &oracle.max_plan(0).unwrap()),
        run(servers, &oracle.median_plan(0).unwrap()),
    ]
}

#[test]
fn refused_uploads_are_typed_errors_and_change_nothing() {
    let phase1 = inputs(&[
        &[(1, 100), (3, 30), (7, 10), (16, 5)],
        &[(1, 40), (2, 70), (7, 20), (16, 1)],
        &[(1, 300), (7, 30), (9, 4), (16, 8)],
    ]);
    let update = OwnerInput::from_pairs([(1, 45), (7, 2), (9, 9), (16, 3)]);
    let delta = inputs(&[&[(17, 4)], &[(17, 6), (18, 1)], &[(17, 2)]]);
    let b = DOMAIN + ADDED;
    for shards in [1usize, 4] {
        let setup = cfg(shards).setup(3).unwrap();
        let wires = [
            (
                "channel",
                NetCluster::start_local_sharded(setup.clone(), shards),
            ),
            ("tcp", NetCluster::start_tcp_sharded(setup, shards).unwrap()),
        ];
        for (link, mut net) in wires {
            let ctx = format!("{link}, shards = {shards}");
            // A ragged growing delta, refused by the delta rule, and one of
            // columns owner 0 never put (nothing is stored yet), which the
            // domain grows for and its node or workers refuse.
            let current = net.setup().clone();
            net.adopt_setup(current.grow(ADDED, 1, 5).unwrap());
            let ragged = vec![
                (Column::Ok, vec![0; ADDED]),
                (Column::OkDb1, vec![0; ADDED + 1]),
            ];
            let never_put = vec![
                (Column::Ok, vec![0; ADDED]),
                (Column::OkDb1, vec![0; ADDED]),
            ];
            for (what, delta) in [("a ragged", ragged), ("a never-put", never_put)] {
                match net.delta_upload(0, 0, DOMAIN, delta) {
                    Err(NetError::UploadRefused(why)) => assert!(!why.is_empty()),
                    other => panic!("{ctx}: {what} growing delta answered {other:?}"),
                }
            }
            net.adopt_setup(current);
            // Both clusters take the same update and append.
            let mut oracle = Cluster::build(&phase1, cfg(shards)).unwrap();
            let mut wire = Cluster::over(net, &phase1, cfg(shards)).unwrap();
            oracle.update_owner(1, &update).unwrap();
            oracle.append(ADDED, &delta).unwrap();
            wire.update_owner(1, &update).unwrap();
            wire.append(ADDED, &delta).unwrap();
            let want = answers(oracle.deployment(), &oracle);
            let mut net = wire.into_deployment();
            assert_eq!(answers(&net, &oracle), want, "{ctx}: before");

            let refused = |outcome: Result<(), NetError>, what: &str| match outcome {
                Err(NetError::UploadRefused(why)) => assert!(!why.is_empty()),
                other => panic!("{ctx}: {what} answered {other:?}"),
            };
            // The update's fold again (epoch 1, the update's) and a stale
            // epoch, at an additive server and at the Shamir-only one.
            for (server, column) in [(0, Column::Ok), (2, Column::Agg(0))] {
                for epoch in [1, 0] {
                    let diff = vec![(column, vec![1; b])];
                    refused(net.fold_upload(server, 1, epoch, diff), "a repeated fold");
                }
            }
            // A second Phase-1 put of a held column.
            let again = vec![(Column::VOk, vec![0; b])];
            refused(net.bulk_upload(1, 2, again), "a second put");
            // The append's epoch, re-sent by owner 0.
            let resent = vec![
                (Column::Ok, vec![0; ADDED]),
                (Column::OkDb1, vec![0; ADDED]),
            ];
            refused(net.delta_upload(0, 0, DOMAIN, resent), "a re-sent epoch");
            // A delta whose extension blocks cover four rows, not its two.
            let current = net.setup().clone();
            net.adopt_setup(current.grow(4, 99, 5).unwrap());
            let short = vec![(Column::Ok, vec![0; ADDED])];
            refused(net.delta_upload(0, 0, b, short), "a misfit extension");
            net.adopt_setup(current);
            // Through the facade's seam a refusal is a ProtocolError.
            let fold = Deployment::fold(&mut net, 1, 1, |_, sink| sink(0, Column::Ok, vec![1; b]));
            assert!(
                matches!(fold, Err(ProtocolError::UploadRefused(_))),
                "{ctx}: {fold:?}"
            );

            assert_eq!(answers(&net, &oracle), want, "{ctx}: after");
            net.shutdown().unwrap();
        }
    }
}
