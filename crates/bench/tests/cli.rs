//! `exp_harness` command line: what it accepts, and that it refuses the
//! rest with exit status 2 instead of printing a header and succeeding.

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
            stderr.contains("exp1|table12|exp2|exp3|exp4|table13|sharegen|all"),
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
