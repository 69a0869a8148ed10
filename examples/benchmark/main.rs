//! The repo benchmark: four workloads, end-to-end metrics with regression
//! bounds, and a per-layer latency budget measured from outside the crates.
//!
//! ```text
//! benchmark all [--seed N] [--seconds S] [--trace] [--quick]
//! benchmark compare A.json B.json
//! benchmark layers [--seed N] [--quick]
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--no-probes]
//! ```
//!
//! `all` runs every workload as a fresh child process of this binary (the
//! last form, which is also what the benchmark driver calls) and, with
//! `--trace`, the per-layer probes as one more (`layers`); it checks every
//! answer, prints every metric and writes `target/benchmark/`. README.md
//! beside this file explains the metrics and workloads.
//!
//! The same sources build two ways: as the example `benchmark` of the
//! root package (so the repository's `cargo test` compile-checks the API
//! surface pinned here) and as the package of its own that `Cargo.toml`
//! beside this file describes (what `BENCHMARK.json` runs).

mod alloc;
mod awake;
mod bench;
mod compare;
mod data;
mod layers;
mod metrics;
mod procfs;
mod report;
mod stats;
mod trace;
mod workloads;

use bench::{Cfg, Outcome, Workload, PEAK_RSS_LIMIT_MB};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use report::Record;
use std::process::ExitCode;
use workloads::elastic_small_mix::ElasticSmallMix;
use workloads::inmem_scan_large::InmemScanLarge;
use workloads::stream_append_cached::StreamAppendCached;
use workloads::tcp_wide_serial::TcpWideSerial;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: benchmark all [--seed N] [--seconds S] [--trace] [--quick]
       benchmark compare A.json B.json
       benchmark layers [--seed N] [--quick]
       benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--no-probes]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spin") => awake::spin(),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("all") => parse(&args[1..], true).and_then(|(cfg, _)| all(&cfg)),
        Some("layers") => parse(&args[1..], true).map(|(cfg, _)| {
            let _awake = awake::Awake::start();
            print_records(&layers::run(&cfg));
            true
        }),
        // One set-up in a process of its own, for a workload's `setup_s`.
        Some("setup") => parse(&args[1..], false).and_then(|(cfg, workload)| {
            let took = match workload.as_deref() {
                Some(TcpWideSerial::NAME) => bench::setup_only::<TcpWideSerial>(&cfg),
                Some(ElasticSmallMix::NAME) => bench::setup_only::<ElasticSmallMix>(&cfg),
                Some(InmemScanLarge::NAME) => bench::setup_only::<InmemScanLarge>(&cfg),
                Some(StreamAppendCached::NAME) => bench::setup_only::<StreamAppendCached>(&cfg),
                _ => return Err(format!("setup needs --workload, one of {WORKLOADS:?}")),
            };
            println!("setup_s {took}");
            Ok(true)
        }),
        Some(_) => parse(&args, false).and_then(|(cfg, workload)| match workload {
            Some(name) => one(&name, &cfg),
            None => Err("--workload is required".into()),
        }),
        None => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// The options shared by `all` (where `--trace` is a flag) and the
/// single-workload form (where the driver passes `--trace 0|1`).
fn parse(args: &[String], trace_is_flag: bool) -> Result<(Cfg, Option<String>), String> {
    let mut cfg = Cfg {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        probes: true,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}\n{USAGE}"));
        match arg.as_str() {
            "--workload" => workload = Some(value("a name")?.clone()),
            "--seed" => {
                cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cfg.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds >= 1.0 && cfg.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--quick" => cfg.quick = true,
            "--no-probes" => cfg.probes = false,
            "--trace" if trace_is_flag => cfg.trace = true,
            "--trace" => cfg.trace = value("0 or 1")? == "1",
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok((cfg, workload))
}

fn run_workload(name: &str, cfg: &Cfg) -> Result<Outcome, String> {
    Ok(match name {
        TcpWideSerial::NAME => bench::run::<TcpWideSerial>(cfg),
        ElasticSmallMix::NAME => bench::run::<ElasticSmallMix>(cfg),
        InmemScanLarge::NAME => bench::run::<InmemScanLarge>(cfg),
        StreamAppendCached::NAME => bench::run::<StreamAppendCached>(cfg),
        other => return Err(format!("unknown workload {other}; one of {WORKLOADS:?}")),
    })
}

fn print_records(records: &[Record]) {
    for r in records {
        println!("{}", report::record_line(r));
    }
}

/// Run this binary with `args` and return the records it prints.
/// `output` waits for the child to end.
fn child_records(args: &[&str], cfg: &Cfg) -> Result<(Vec<Record>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(args).args(["--seed", &cfg.seed.to_string()]);
    if cfg.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let records = stdout
        .lines()
        .filter_map(report::parse_record_line)
        .collect();
    Ok((records, output.status.success()))
}

/// The share of `tcp_wide_serial`'s median query the isolated stages of
/// the same query do not explain, once both numbers are among `records`.
fn unattributed_share(records: &mut Vec<Record>) {
    let get = |metric: &str| {
        records
            .iter()
            .find(|r| r.workload == TcpWideSerial::NAME && r.metric == metric)
            .map(|r| r.value)
    };
    if let (Some(sum), Some(p50)) = (get("net.cluster.stage_sum_ms"), get("query_p50_ms")) {
        let mut derived = report::Records::new(TcpWideSerial::NAME);
        derived.put("net.cluster.unattributed_share", 1.0 - sum / p50);
        records.extend(derived.list);
    }
}

/// Run one workload in this process; the last line printed is the
/// driver's result object. `Ok(false)` when an operation failed.
fn one(name: &str, cfg: &Cfg) -> Result<bool, String> {
    let awake = awake::Awake::start();
    let outcome = run_workload(name, cfg)?;
    let mut records = outcome.records.list;
    records.push(Record {
        workload: name.to_string(),
        metric: "ctx.spinners".into(),
        value: awake.count() as f64,
        unit: "count".into(),
    });
    let mut probed = true;
    if cfg.trace && cfg.probes {
        let (probes, ok) = child_records(&["layers"], cfg)?;
        records.extend(probes);
        probed = ok;
    }
    drop(awake);
    unattributed_share(&mut records);
    print_records(&records);

    // The driver's object names every metric of the contract. A per-layer
    // metric this workload's deployment cannot give (another workload's
    // operations, the control plane) carries 0 there, and only there.
    let names: Vec<&str> = if cfg.trace {
        PER_LAYER.iter().map(|(name, _)| *name).collect()
    } else {
        let bounded = END_TO_END.iter().filter(|m| m.bounded);
        bounded.map(|m| m.name).collect()
    };
    // Probe records carry the name of the workload whose shape they ran at.
    let value = |metric: &str| {
        let found = records.iter().find(|r| r.metric == metric);
        found.map_or(0.0, |r| r.value)
    };
    let metrics: Vec<(&str, f64)> = names.into_iter().map(|n| (n, value(n))).collect();
    println!(
        "{}",
        report::result_line(outcome.attempted, outcome.failed, &metrics)
    );
    Ok(outcome.failed == 0 && probed)
}

/// Run every workload as a fresh child process, print and save the results.
fn all(cfg: &Cfg) -> Result<bool, String> {
    let _awake = awake::Awake::start();
    let mut records: Vec<Record> = Vec::new();
    let mut good = true;
    let seconds = cfg.seconds.to_string();
    let children = WORKLOADS.iter().map(|w| {
        let trace = if cfg.trace { "1" } else { "0" };
        let args = ["--workload", w, "--seconds", &seconds, "--trace", trace];
        (*w, [&args[..], &["--no-probes"]].concat())
    });
    let layers = cfg.trace.then(|| ("layers", vec!["layers"]));
    for (what, args) in children.chain(layers) {
        eprintln!("running {what} …");
        let (found, ok) = child_records(&args, cfg)?;
        if !ok {
            eprintln!("{what} failed");
            good = false;
        }
        records.extend(found);
    }
    unattributed_share(&mut records);

    let get = |workload: &str, metric: &str| -> Option<f64> {
        records
            .iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .map(|r| r.value)
    };
    let cell = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    if cfg.trace {
        let mut headers = vec!["per-layer metric".to_string(), "unit".to_string()];
        headers.extend(WORKLOADS.iter().map(|w| w.to_string()));
        let rows: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let mut row = vec![name.to_string(), unit.to_string()];
                row.extend(WORKLOADS.iter().map(|w| cell(get(w, name))));
                row
            })
            .collect();
        report::print_table(&headers, &rows);
    } else {
        let mut headers = vec!["workload".to_string()];
        headers.extend(
            END_TO_END
                .iter()
                .map(|m| format!("{} [{}]", m.name, m.unit)),
        );
        let context = [
            ("clients", "ctx.clients"),
            ("query samples", "ctx.query_samples"),
            ("nproc", "ctx.nproc"),
            ("load 1m", "ctx.load_1m"),
            ("stolen share", "ctx.stolen_share"),
        ];
        headers.extend(context.map(|(title, _)| title.to_string()));
        let rows: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|w| {
                let mut row = vec![w.to_string()];
                row.extend(END_TO_END.iter().map(|m| cell(get(w, m.name))));
                for (_, ctx) in context {
                    row.push(get(w, ctx).map_or("-".into(), |v| format!("{v}")));
                }
                row
            })
            .collect();
        report::print_table(&headers, &rows);
    }

    for workload in WORKLOADS {
        for (metric, limit, what) in [
            (
                "failed_share",
                0.0,
                "answers failed or differed from the oracle",
            ),
            (
                "net.mux.rejected_replies",
                0.0,
                "a link pump dropped replies",
            ),
            (
                "peak_rss_mb",
                PEAK_RSS_LIMIT_MB,
                "resident set above the limit",
            ),
        ] {
            if let Some(v) = get(workload, metric).filter(|&v| v > limit) {
                eprintln!("{workload}: {metric} = {v}: {what}");
                good = false;
            }
        }
    }

    let path = std::path::PathBuf::from(format!(
        "target/benchmark/{}.json",
        if cfg.trace { "all-trace" } else { "all" }
    ));
    let header = [
        ("benchmark", "prism".to_string()),
        ("commit", procfs::git_commit()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("quick", cfg.quick.to_string()),
    ];
    report::write_file(&path, &header, &records).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(good)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::spread_name;

    fn quick(trace: bool) -> Cfg {
        Cfg {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace,
            quick: true,
            probes: false,
        }
    }

    /// The smoke run reviewers can repeat: every workload, untraced and
    /// traced, at a twentieth of the size, then the probes. One test,
    /// because they share process-wide counters and must not overlap.
    #[test]
    fn quick_mode_answers_correctly_and_reports_every_metric() {
        let mut measured: Vec<String> = Vec::new();
        for trace in [false, true] {
            for workload in WORKLOADS {
                let outcome = run_workload(workload, &quick(trace)).expect("known workload");
                assert!(outcome.attempted > 0, "{workload}");
                assert_eq!(outcome.failed, 0, "{workload}");
                let value = |name: &str| {
                    let found = outcome.records.get(name);
                    found.unwrap_or_else(|| panic!("{workload} reports no {name}"))
                };
                for m in END_TO_END.iter().filter(|m| m.bounded) {
                    assert!(value(m.name) > 0.0, "{workload} {}", m.name);
                }
                // `compare` needs the repetition spread of every timing
                // metric a run reports.
                for m in END_TO_END.iter().filter(|m| m.timing) {
                    if outcome.records.get(m.name).is_some() {
                        value(&spread_name(m.name));
                    }
                }
                assert_eq!(value("failed_share"), 0.0);
                if trace {
                    assert_eq!(value("net.mux.rejected_replies"), 0.0);
                    // The control plane and the cache each show on one
                    // workload and nowhere else.
                    let failovers = outcome.records.get("net.registry.failovers");
                    let elastic = workload == "elastic_small_mix";
                    assert_eq!(failovers, elastic.then_some(1.0), "{workload}");
                    let cached = workload == "stream_append_cached";
                    assert_eq!(value("protocol.cache.hit_share") >= 0.6, cached);
                    assert!(cached || value("protocol.cache.hit_share") == 0.0);
                    measured.extend(outcome.records.list.into_iter().map(|r| r.metric));
                }
            }
        }
        let probes = layers::run(&quick(true));
        let probe = |name: &str| probes.iter().find(|r| r.metric == name).map(|r| r.value);
        assert_eq!(probe("protocol.kernels.allocs_per_call"), Some(0.0));
        assert!(probes.iter().all(|r| r.value.is_finite()));
        measured.extend(probes.into_iter().map(|r| r.metric));

        // Every metric measured is one the contract names, and every
        // per-layer metric of the contract is measured somewhere.
        for metric in &measured {
            let named = END_TO_END.iter().any(|m| m.name == metric)
                || PER_LAYER.iter().any(|(n, _)| n == metric)
                || metric.starts_with("ctx.")
                || metric.starts_with("bench.rep_spread_");
            assert!(named, "{metric} is not in the contract");
        }
        for (name, _) in PER_LAYER {
            // Derived by `one` and `all` from two of the others.
            if name != "net.cluster.unattributed_share" {
                assert!(
                    measured.iter().any(|m| m == name),
                    "nothing measures {name}"
                );
            }
        }
    }

    #[test]
    fn the_unexplained_share_comes_from_the_two_records() {
        let record = |workload: &str, metric: &str, value: f64| Record {
            workload: workload.into(),
            metric: metric.into(),
            value,
            unit: String::new(),
        };
        let mut records = vec![
            record("tcp_wide_serial", "query_p50_ms", 40.0),
            record("elastic_small_mix", "query_p50_ms", 4.0),
        ];
        unattributed_share(&mut records);
        assert_eq!(records.len(), 2);
        records.push(record("tcp_wide_serial", "net.cluster.stage_sum_ms", 30.0));
        unattributed_share(&mut records);
        let share = records.last().unwrap();
        assert_eq!(share.metric, "net.cluster.unattributed_share");
        assert_eq!((share.value, share.unit.as_str()), (0.25, "share"));
    }

    #[test]
    fn arguments_parse_in_both_forms() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let (cfg, workload) = parse(
            &args("--workload tcp_wide_serial --seed 7 --seconds 3 --trace 1"),
            false,
        )
        .unwrap();
        assert_eq!(workload.as_deref(), Some("tcp_wide_serial"));
        assert_eq!(
            (cfg.seed, cfg.seconds, cfg.trace, cfg.quick, cfg.probes),
            (7, 3.0, true, false, true)
        );
        let (cfg, _) = parse(&args("--trace --quick --no-probes"), true).unwrap();
        assert!(cfg.trace && cfg.quick && !cfg.probes && cfg.seed == DEFAULT_SEED);
        assert!(parse(&args("--seconds 0"), false).is_err());
        assert!(parse(&args("--bogus"), false).is_err());
        assert!(run_workload("nope", &cfg).is_err());
    }
}
