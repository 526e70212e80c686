//! `compare A B...`: do sets of runs of the benchmark agree?
//!
//! Each file holds one JSON record per line, as `--record` appends them.
//! Per workload and end-to-end metric it prints every set's median and
//! quartiles, the gap between each later set's median and the first's in
//! the direction that is worse, and the metric's bound, then the same for
//! all sets pooled. A gap or a pooled spread beyond the bound fails the
//! comparison — the two rules the driver accepts a benchmark by (`setup_s`
//! is exempt from the spread rule there and here).

use std::collections::BTreeMap;

use graphbig_json::{Json, ObjBuilder};

use crate::report::Declarations;
use crate::score::quartiles;

/// workload -> metric -> values, in file order.
pub type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn parse_records(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (lineno, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = graphbig_json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", lineno + 1))?;
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("line {}: no result.metrics", lineno + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no value", lineno + 1))?;
            set.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// One line of the comparison: a set (`A`, `B`, ...) or all sets pooled
/// (`*`) on one workload and metric.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub set: char,
    pub values: Vec<f64>,
    pub quartiles: [f64; 3],
    /// `(q3 - q1) / median`.
    pub spread: f64,
    /// Median against set A's, positive = worse. `None` for A and `*`.
    pub gap: Option<f64>,
    pub bound: f64,
    pub breach: bool,
}

pub fn compare(sets: &[Set], declared: &Declarations) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &declared.workloads {
        for metric in &declared.end_to_end {
            let bound = metric.bound.unwrap_or(f64::INFINITY);
            let of = |set: &Set| set.get(workload).and_then(|m| m.get(&metric.name)).cloned();
            let mut first_median = None;
            let mut pooled = Vec::new();
            let mut row = |set: char, values: Vec<f64>, first_median: Option<f64>| {
                let quartiles = quartiles(&values);
                let [q1, median, q3] = quartiles;
                let spread = (q3 - q1) / median;
                let gap = first_median.map(|base| {
                    let rel = (median - base) / base;
                    if metric.higher_is_better {
                        -rel
                    } else {
                        rel
                    }
                });
                let spread_gated = set == '*' && metric.name != "setup_s";
                rows.push(Row {
                    workload: workload.clone(),
                    metric: metric.name.clone(),
                    set,
                    values,
                    quartiles,
                    spread,
                    gap,
                    bound,
                    breach: gap.is_some_and(|g| g > bound) || (spread_gated && spread > bound),
                });
                median
            };
            for (k, values) in sets.iter().filter_map(of).enumerate() {
                pooled.extend_from_slice(&values);
                let median = row((b'A' + k as u8) as char, values, first_median);
                first_median.get_or_insert(median);
            }
            if !pooled.is_empty() {
                row('*', pooled, None);
            }
        }
    }
    rows
}

pub fn table(rows: &[Row]) -> String {
    let mut out = String::from(
        "workload      metric          set n   q1           median       q3           spread   gap      bound\n",
    );
    for r in rows {
        let [q1, median, q3] = r.quartiles;
        out.push_str(&format!(
            "{:<13} {:<15} {:<3} {:<3} {q1:<12.6} {median:<12.6} {q3:<12.6} {:<8.4} {:<8} {}{}\n",
            r.workload,
            r.metric,
            r.set,
            r.values.len(),
            r.spread,
            r.gap.map_or("-".to_string(), |g| format!("{g:+.4}")),
            r.bound,
            if r.breach { "  BREACH" } else { "" },
        ));
    }
    out
}

/// The comparison as one JSON document (what `results/stability.json` holds).
pub fn json(rows: &[Row]) -> Json {
    let num = Json::Num;
    Json::Arr(
        rows.iter()
            .map(|r| {
                ObjBuilder::new()
                    .push("workload", Json::Str(r.workload.clone()))
                    .push("metric", Json::Str(r.metric.clone()))
                    .push("set", Json::Str(r.set.to_string()))
                    .push(
                        "values",
                        Json::Arr(r.values.iter().copied().map(num).collect()),
                    )
                    .push("q1", num(r.quartiles[0]))
                    .push("median", num(r.quartiles[1]))
                    .push("q3", num(r.quartiles[2]))
                    .push("spread", num(r.spread))
                    .push_opt("gap", r.gap.map(num))
                    .push("bound", num(r.bound))
                    .push("breach", Json::Bool(r.breach))
                    .build()
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(workload: &str, goodput: &[f64], setup: f64) -> Set {
        let lines: Vec<String> = goodput
            .iter()
            .map(|g| {
                format!(
                    r#"{{"workload":"{workload}","seed":1,"result":{{"correct":true,"attempted":1,"failed":0,"metrics":{{"goodput_per_s":{{"value":{g},"unit":"1/s"}},"setup_s":{{"value":{setup},"unit":"s"}}}}}}}}"#
                )
            })
            .collect();
        parse_records(&lines.join("\n")).unwrap()
    }

    fn breaches(sets: &[Set]) -> Vec<(String, char)> {
        compare(sets, &Declarations::load().unwrap())
            .into_iter()
            .filter(|r| r.breach)
            .map(|r| (r.metric, r.set))
            .collect()
    }

    #[test]
    fn gaps_are_signed_by_which_way_is_worse() {
        let a = set("point_closed", &[100.0, 101.0, 102.0], 1.0);
        let faster = set("point_closed", &[101.0, 102.0, 103.0], 0.5);
        let slower = set("point_closed", &[60.0, 61.0, 62.0], 1.0);
        assert_eq!(breaches(&[a.clone(), faster]), [], "better never breaches");
        // Slower goodput breaches as a gap, and pools into a wide spread.
        assert_eq!(
            breaches(&[a, slower]),
            [
                ("goodput_per_s".to_string(), 'B'),
                ("goodput_per_s".to_string(), '*')
            ]
        );
    }

    #[test]
    fn setup_s_is_exempt_from_the_spread_rule_only() {
        let a = set("live_rw", &[100.0, 100.0, 100.0, 100.0], 1.0);
        let mut wide = a.clone();
        let setup = wide.get_mut("live_rw").unwrap().get_mut("setup_s").unwrap();
        *setup = vec![1.0, 1.0, 2.0, 2.0];
        assert_eq!(breaches(&[a.clone(), wide]), [("setup_s".to_string(), 'B')]);
        let doc = json(&compare(&[a], &Declarations::load().unwrap()));
        let rows = doc.as_arr().unwrap();
        assert_eq!(rows.len(), 4, "A and * for each of the two metrics present");
        assert_eq!(rows[0].get("set").and_then(Json::as_str), Some("A"));
        assert!(rows[0].get("gap").is_none());
        assert!(table(&compare(
            &[set("live_rw", &[1.0, 2.0], 1.0)],
            &Declarations::load().unwrap()
        ))
        .contains("live_rw"));
    }

    #[test]
    fn malformed_records_are_errors() {
        assert!(parse_records("not json").is_err());
        assert!(parse_records(r#"{"workload":"x"}"#).is_err());
        assert!(parse_records("\n\n").unwrap().is_empty());
    }
}
