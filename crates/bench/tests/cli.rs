//! `exp_harness` command line: what it accepts, and that it refuses the
//! rest with exit status 2 instead of printing a header and succeeding;
//! and that the raw replies Exp 3 times its owner steps on are the ones
//! the plans decode.

use prism_bench::build::lineitem_cluster;
use prism_protocol::engine::{BatchItem, Ctx, Operation, QueryOp, ServerExec};
use prism_protocol::{plans, psi, Result};
use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp_harness"))
        .args(args)
        .output()
        .expect("exp_harness runs")
}

#[test]
fn refuses_what_it_does_not_know() {
    let cases: [(&[&str], &str); 5] = [
        (&["exp9"], "unknown section 'exp9'"),
        // A typo after a valid section must not run the valid one first.
        (&["sharegen", "shargen"], "unknown section 'shargen'"),
        // Removed sections and their options are unknown, not ignored.
        (&["shard"], "unknown section 'shard'"),
        (
            &["sharegen", "--shard-json", "x.json"],
            "unknown option '--shard-json'",
        ),
        (&["sharegen", "--scale", "huge"], "unknown scale 'huge'"),
    ];
    for (args, problem) in cases {
        let out = harness(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before refusing");
        assert!(stderr.contains(problem), "{args:?}: {stderr}");
        assert!(
            stderr.contains("exp1|table12|exp2|exp3|exp4|table13|sharegen|stages|all"),
            "{args:?} must list the valid sections: {stderr}"
        );
    }
}

#[test]
fn sharegen_small_prints_its_table() {
    let out = harness(&["sharegen", "--scale", "small"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scale Small, seed 42"), "{stdout}");
    let table: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("=== Share generation"))
        .collect();
    // Title, header, rule, one row per OK domain.
    assert_eq!(table.len(), 5, "{stdout}");
    assert!(table[3].starts_with("50000"), "{stdout}");
    assert!(table[4].starts_with("200000"), "{stdout}");
}

/// One batch round whose output is the replies themselves:
/// `replies[server][item]`.
struct Replies<'a> {
    servers: &'a [usize],
    items: &'a [BatchItem],
}

impl Operation for Replies<'_> {
    type Output = Vec<Vec<Vec<u64>>>;

    fn execute<X: ServerExec>(&self, ctx: &mut Ctx<'_, X>) -> Result<Self::Output> {
        let outs = ctx.query(self.servers, self.items, |_| Vec::new())?;
        ctx.finish(outs, |outs| Ok(outs.iter().map(|o| o.to_vec()).collect()))
    }
}

#[test]
fn exp3_round_one_replies_decode_to_the_plans_psi() {
    let cluster = lineitem_cluster(2_000, 10, 1, true, true, 1, 1);
    let items = [
        BatchItem::plain(QueryOp::Psi),
        BatchItem::plain(QueryOp::PsiVerify),
        BatchItem::plain(QueryOp::Count),
        BatchItem::plain(QueryOp::Psu),
    ];
    let replies = Replies {
        servers: &[0, 1],
        items: &items,
    };
    let (round1, _) = cluster.execute(&replies).unwrap();
    let op = &cluster.setup().owner;
    let fop = psi::owner_combine(&round1[0][0], &round1[1][0], op).unwrap();
    let (expected, _) = cluster.execute(&plans::PsiVerified).unwrap();
    assert_eq!(fop, expected.fop);
}
