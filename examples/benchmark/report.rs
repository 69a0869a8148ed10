//! Result records: what a workload process prints, what `all` collects
//! into `target/benchmark/*.json`, and what `compare` reads back.
//!
//! A result file is JSON, but flat — one
//! `{"workload": …, "metric": …, "value": …, "unit": …}` object per line
//! — so reading it back needs no JSON library.

use crate::metrics::unit_of;

#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub metric: String,
    pub value: f64,
    pub unit: String,
}

/// The metrics of one workload, in the order they were measured.
#[derive(Debug, Default)]
pub struct Records {
    workload: &'static str,
    pub list: Vec<Record>,
}

impl Records {
    pub fn new(workload: &'static str) -> Records {
        Records {
            workload,
            list: Vec::new(),
        }
    }

    /// Record `metric` with the unit `metrics.rs` fixes for it.
    pub fn put(&mut self, metric: &str, value: f64) {
        self.put_unit(metric, value, unit_of(metric));
    }

    pub fn put_unit(&mut self, metric: &str, value: f64, unit: &str) {
        self.list.push(Record {
            workload: self.workload.to_string(),
            metric: metric.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    #[cfg(test)]
    pub fn get(&self, metric: &str) -> Option<f64> {
        self.list
            .iter()
            .find(|r| r.metric == metric)
            .map(|r| r.value)
    }
}

/// A number as JSON: every digit measured, and never `NaN`/`inf`, which
/// JSON cannot carry.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The line a workload process prints per metric; `all` reads these.
pub fn record_line(r: &Record) -> String {
    format!(
        "record {} {} {} {}",
        r.workload,
        r.metric,
        number(r.value),
        r.unit
    )
}

pub fn parse_record_line(line: &str) -> Option<Record> {
    let mut parts = line.strip_prefix("record ")?.split(' ');
    Some(Record {
        workload: parts.next()?.to_string(),
        metric: parts.next()?.to_string(),
        value: parts.next()?.parse().ok()?,
        unit: parts.next().unwrap_or("").to_string(),
    })
}

/// The last line of a workload process: the driver's result object.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                number(*value),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Write a result file: a header line, one record per line, a closing line.
pub fn write_file(
    path: &std::path::Path,
    header: &[(&str, String)],
    records: &[Record],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from("{");
    for (key, value) in header {
        out.push_str(&format!("\"{key}\": \"{value}\", "));
    }
    out.push_str("\"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "{{\"workload\": \"{}\", \"metric\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}{}\n",
            r.workload,
            r.metric,
            number(r.value),
            r.unit,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

/// The text after `"key": ` on `line`, up to the closing quote of a
/// string or the end of a number.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    match rest.strip_prefix('"') {
        Some(quoted) => quoted.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

pub fn read_file(path: &std::path::Path) -> std::io::Result<Vec<Record>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter_map(|line| {
            Some(Record {
                workload: field(line, "workload")?.to_string(),
                metric: field(line, "metric")?.to_string(),
                value: field(line, "value")?.trim().parse().ok()?,
                unit: field(line, "unit")?.to_string(),
            })
        })
        .collect())
}

/// Print `rows` under `headers`, columns padded to their widest cell.
pub fn print_table(headers: &[String], rows: &[Vec<String>]) {
    let mut width: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in width.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&width)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("{}", padded.join("  ").trim_end());
    };
    line(headers);
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_and_lines_round_trip() {
        let mut recs = Records::new("tcp_wide_serial");
        recs.put("query_p50_ms", 38.123456789);
        recs.put("queries_per_s", 25.5);
        recs.put_unit("ctx.nproc", 2.0, "count");
        let dir = std::env::temp_dir().join(format!("prism_benchmark_{}", std::process::id()));
        let path = dir.join("r.json");
        write_file(&path, &[("seed", "42".into())], &recs.list).unwrap();
        assert_eq!(read_file(&path).unwrap(), recs.list);
        std::fs::remove_dir_all(&dir).unwrap();
        for r in &recs.list {
            assert_eq!(parse_record_line(&record_line(r)).as_ref(), Some(r));
        }
        assert_eq!(recs.list[0].unit, "ms");
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(10, 0, &[("query_p50_ms", 1.25), ("setup_s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"query_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(10, 1, &[]).starts_with("{\"correct\": false"));
    }
}
