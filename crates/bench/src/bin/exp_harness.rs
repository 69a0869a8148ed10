//! `exp_harness` — regenerate the paper's tables and figures.
//!
//! ```text
//! exp_harness [exp1|table12|exp2|exp3|exp4|table13|sharegen|stages|all]*
//!             [--scale small|medium|full] [--seed N]
//! ```
//!
//! `small` (default) finishes in minutes; `medium` takes longer; `full`
//! runs the paper-scale parameters (5M/20M domains, 10–50 owners, the
//! 100M-leaf bucket tree) and needs a machine comparable to the paper's
//! servers (tens of GB of RAM, tens of minutes).
//!
//! Naming no section runs all of them. An unknown section or option
//! exits 2 and lists the valid sections.

#![forbid(unsafe_code)]

use prism_bench::{exp1, exp2, exp3, exp4, sharegen, stages, table13};
use prism_workload::configs::{self, Scale};

type Section = (&'static str, fn(Scale, u64));

/// Every section the harness knows, in the order `all` runs them: the
/// one table behind argument validation, `--help` and dispatch.
const SECTIONS: [Section; 8] = [
    ("exp1", |scale, seed| {
        let cfg = configs::exp1(scale);
        let rows = exp1::run(&cfg.domains, &cfg.threads, cfg.owners, seed);
        exp1::print(&rows);
    }),
    ("table12", |scale, seed| {
        let cfg = configs::exp1(scale);
        let rows = exp1::run_table12(&cfg.domains, &configs::table12_attrs(), cfg.owners, 4, seed);
        exp1::print_table12(&rows);
    }),
    ("exp2", |scale, seed| {
        let cfg = configs::exp2(scale);
        let rows = exp2::run(&cfg.domains, &cfg.owners, cfg.threads, seed);
        exp2::print(&rows);
    }),
    ("exp3", |scale, seed| {
        let domains = configs::ok_domains(scale);
        // The paper used 50 owners for Table 14.
        let owners = if scale == Scale::Full { 50 } else { 10 };
        let rows = exp3::run(&domains, owners, 4, seed);
        exp3::print(&rows);
    }),
    ("exp4", |scale, seed| {
        let cfg = configs::exp4(scale);
        let rows = exp4::run(cfg.height, cfg.fanout, &cfg.fill_percent, seed);
        exp4::print(&rows);
    }),
    ("table13", |scale, seed| {
        let sizes = configs::table13_sizes(scale);
        let rows = table13::run(&sizes, 4, seed);
        table13::print(&rows);
    }),
    ("sharegen", |scale, seed| {
        let domains = configs::ok_domains(scale);
        let rows = sharegen::run(&domains, 10, seed);
        sharegen::print(&rows);
    }),
    ("stages", |scale, seed| {
        // `tcp_wide_serial`'s shape at small; fewer queries as cells grow.
        let (cells, queries) = match scale {
            Scale::Small => (100_000, 150),
            Scale::Medium => (1_000_000, 50),
            Scale::Full => (5_000_000, 20),
        };
        match stages::run(cells, queries / 5, queries, seed) {
            Ok(rows) => stages::print(&rows, cells),
            Err(e) => {
                eprintln!("stages: {e}");
                std::process::exit(1);
            }
        }
    }),
];

fn usage() -> String {
    let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: exp_harness [{}|all]* [--scale small|medium|full] [--seed N]",
        names.join("|")
    )
}

/// Report a command-line error and exit 2.
fn reject(problem: &str) -> ! {
    eprintln!("{problem}\n{}", usage());
    std::process::exit(2);
}

/// The sections asked for (none = all of them), the scale and the seed.
fn parse_args() -> (Vec<String>, Scale, u64) {
    let mut which = Vec::new();
    let mut scale = Scale::Small;
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Scale::parse(&v)
                    .unwrap_or_else(|| reject(&format!("unknown scale '{v}' (small|medium|full)")));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| reject("--seed needs a number"));
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => reject(&format!("unknown option '{flag}'")),
            name if name == "all" || SECTIONS.iter().any(|(s, _)| *s == name) => {
                which.push(a);
            }
            other => reject(&format!("unknown section '{other}'")),
        }
    }
    (which, scale, seed)
}

fn main() {
    let (which, scale, seed) = parse_args();
    println!("PRISM experiment harness — scale {:?}, seed {seed}", scale);

    for (name, run) in SECTIONS {
        if which.is_empty() || which.iter().any(|w| w == "all" || w == name) {
            run(scale, seed);
        }
    }
}
