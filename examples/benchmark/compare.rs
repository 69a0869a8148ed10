//! `compare A.json B.json`: judge run B against baseline A, one row per
//! workload × end-to-end metric, with the bounds `metrics.rs` fixes.

use crate::metrics::{spread_name, Better, EndToEnd, ELASTIC_WIRE_BOUND, END_TO_END, WORKLOADS};
use crate::report::{print_table, read_file, Record};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    Better,
    Same,
    /// The repetitions of one side disagree by more than the bound, so a
    /// difference within the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn bound_on(metric: &EndToEnd, workload: &str) -> f64 {
    if metric.name == "wire_bytes_per_query" && workload == "elastic_small_mix" {
        ELASTIC_WIRE_BOUND
    } else {
        metric.bound
    }
}

/// Judge `b` against `a`. `spread` is the wider of the two sides'
/// interquartile range over the median of their repetitions.
pub fn verdict(metric: &EndToEnd, bound: f64, a: f64, b: f64, spread: f64) -> Verdict {
    if spread > bound && bound > 0.0 {
        return Verdict::Unresolved;
    }
    // By how much of the baseline B is worse (negative: better).
    let worse_by = match metric.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    } / a.abs().max(f64::MIN_POSITIVE);
    if a == b {
        Verdict::Same
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn value(records: &[Record], workload: &str, metric: &str) -> Option<f64> {
    records
        .iter()
        .find(|r| r.workload == workload && r.metric == metric)
        .map(|r| r.value)
}

/// The wider of the two sides' repetition spreads on a timing metric. A
/// run that reports the metric without its spread cannot be judged: the
/// row would read `same` where it may be `unresolved`.
fn rep_spread(
    metric: &EndToEnd,
    workload: &str,
    a: &[Record],
    b: &[Record],
) -> Result<f64, String> {
    if !metric.timing {
        return Ok(0.0);
    }
    let name = spread_name(metric.name);
    let side = |records: &[Record], which: &str| {
        value(records, workload, &name).ok_or(format!(
            "{which} has {} on {workload} but no {name}",
            metric.name
        ))
    };
    Ok(side(a, "A")?.max(side(b, "B")?))
}

/// `Ok(false)` when any row is `worse`.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let read = |p: &str| read_file(std::path::Path::new(p)).map_err(|e| format!("{p}: {e}"));
    let (a, b) = (read(path_a)?, read(path_b)?);
    if a.is_empty() || b.is_empty() {
        return Err("a result file holds no records".into());
    }
    let mut rows = Vec::new();
    let mut any_worse = false;
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (
                value(&a, workload, metric.name),
                value(&b, workload, metric.name),
            ) else {
                continue;
            };
            let spread = rep_spread(metric, workload, &a, &b)?;
            let bound = bound_on(metric, workload);
            let v = verdict(metric, bound, va, vb, spread);
            any_worse |= v == Verdict::Worse;
            rows.push(vec![
                workload.to_string(),
                metric.name.to_string(),
                format!("{va:.4}"),
                format!("{vb:.4}"),
                format!(
                    "{:+.2}%",
                    (vb - va) / va.abs().max(f64::MIN_POSITIVE) * 100.0
                ),
                format!("{:.1}%", bound * 100.0),
                format!("{:.1}%", spread * 100.0),
                v.name().to_string(),
            ]);
        }
    }
    let headers = [
        "workload",
        "metric",
        "A",
        "B",
        "change",
        "bound",
        "rep spread",
        "verdict",
    ];
    print_table(&headers.map(String::from), &rows);
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn verdicts_on_synthetic_inputs() {
        let p50 = end_to_end("query_p50_ms").unwrap();
        assert_eq!(verdict(p50, 0.10, 100.0, 105.0, 0.02), Verdict::Same);
        assert_eq!(verdict(p50, 0.10, 100.0, 111.0, 0.02), Verdict::Worse);
        assert_eq!(verdict(p50, 0.10, 100.0, 89.0, 0.02), Verdict::Better);
        assert_eq!(verdict(p50, 0.10, 100.0, 130.0, 0.12), Verdict::Unresolved);

        let qps = end_to_end("queries_per_s").unwrap();
        assert_eq!(verdict(qps, 0.10, 100.0, 88.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(qps, 0.10, 100.0, 112.0, 0.0), Verdict::Better);

        // Exact metrics: any move in the bad direction is worse.
        let wire = end_to_end("wire_bytes_per_query").unwrap();
        assert_eq!(
            verdict(wire, 0.0, 8_800_000.0, 8_800_000.0, 0.0),
            Verdict::Same
        );
        assert_eq!(
            verdict(wire, 0.0, 8_800_000.0, 8_800_001.0, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(wire, 0.0, 8_800_000.0, 8_000_000.0, 0.0),
            Verdict::Better
        );
        let failed = end_to_end("failed_share").unwrap();
        assert_eq!(verdict(failed, 0.0, 0.0, 0.0, 0.0), Verdict::Same);
        assert_eq!(verdict(failed, 0.0, 0.0, 0.01, 0.0), Verdict::Worse);

        assert_eq!(bound_on(wire, "elastic_small_mix"), ELASTIC_WIRE_BOUND);
        assert_eq!(bound_on(wire, "tcp_wide_serial"), 0.0);
    }

    #[test]
    fn a_timing_metric_without_its_spread_is_an_error() {
        let record = |metric: &str, value: f64| Record {
            workload: "tcp_wide_serial".into(),
            metric: metric.into(),
            value,
            unit: String::new(),
        };
        let p50 = end_to_end("query_p50_ms").unwrap();
        let bare = [record("query_p50_ms", 30.0)];
        let full = [
            record("query_p50_ms", 30.0),
            record("bench.rep_spread_query_p50", 0.04),
        ];
        let wider = [
            record("query_p50_ms", 31.0),
            record("bench.rep_spread_query_p50", 0.2),
        ];
        assert!(rep_spread(p50, "tcp_wide_serial", &full, &bare).is_err());
        assert!(rep_spread(p50, "tcp_wide_serial", &bare, &full).is_err());
        assert_eq!(rep_spread(p50, "tcp_wide_serial", &full, &wider), Ok(0.2));
        // Counts and sizes are not judged against a spread.
        let rss = end_to_end("peak_rss_mb").unwrap();
        assert_eq!(rep_spread(rss, "tcp_wide_serial", &bare, &bare), Ok(0.0));
    }
}
