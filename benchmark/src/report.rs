//! What a run prints: every metric by name with its unit, then the one JSON
//! line the driver reads. `BENCHMARK.json` is the single declaration of the
//! metric names and units; a run that would print anything else is refused.

use graphbig_json::{Json, ObjBuilder};

/// The repository's `BENCHMARK.json`, compiled in so the binary, its tests
/// and `compare` agree on one declaration.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
pub struct Declarations {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
    pub run_seconds: u64,
}

impl Declarations {
    pub fn load() -> Result<Self, String> {
        Self::parse(BENCHMARK_JSON)
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = graphbig_json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))
        };
        let text_of = |entry: &Json, key: &str| -> Result<String, String> {
            entry
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Declarations {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
        })
    }
}

/// Metric values collected during a run, in print order.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The `name value unit` lines and the `metrics` object for exactly the
    /// `declared` set: every declared metric once, nothing undeclared,
    /// every value finite.
    pub fn render(&self, declared: &[Declared]) -> Result<(Vec<String>, Json), String> {
        let mut lines = Vec::with_capacity(declared.len());
        let mut object = ObjBuilder::new();
        for (name, _) in &self.values {
            let count = self.values.iter().filter(|(n, _)| n == name).count();
            if count != 1 || !declared.iter().any(|d| &d.name == name) {
                return Err(format!(
                    "metric `{name}` is undeclared or set {count} times"
                ));
            }
        }
        for d in declared {
            let value = self
                .get(&d.name)
                .ok_or_else(|| format!("declared metric `{}` was not measured", d.name))?;
            if !value.is_finite() {
                return Err(format!("metric `{}` is {value}", d.name));
            }
            lines.push(format!("metric {} {} {}", d.name, value, d.unit));
            object = object.push(
                &d.name,
                ObjBuilder::new()
                    .push("value", Json::Num(value))
                    .push("unit", Json::Str(d.unit.clone()))
                    .build(),
            );
        }
        Ok((lines, object.build()))
    }
}

/// The object a run prints as the last line of its standard output.
pub fn result_object(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    ObjBuilder::new()
        .push("correct", Json::Bool(correct))
        .push("attempted", Json::Num(attempted as f64))
        .push("failed", Json::Num(failed as f64))
        .push("metrics", metrics)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let d = Declarations::load().unwrap();
        assert_eq!(d.workloads, crate::workload::NAMES);
        assert!((1..=60).contains(&d.run_seconds));
        assert!((1..=16).contains(&d.end_to_end.len()));
        assert!((1..=128).contains(&d.per_layer.len()));
        let mut names = std::collections::HashSet::new();
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(valid_name(&m.name, 64, "_.-"), "name {}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                valid_name(&m.unit, 16, "_/%.-"),
                "unit {} of {}",
                m.unit,
                m.name
            );
            assert!(names.insert(m.name.clone()), "{} declared twice", m.name);
        }
        for w in &d.workloads {
            assert!(names.insert(w.clone()), "{w} used twice");
        }
        // ISSUE 17: 0.10 on every timing metric, 0.05 on memory; a metric that
        // cannot hold its bound is demoted to per-layer, never widened.
        for m in &d.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let want = if m.name == "peak_rss_mb" { 0.05 } else { 0.10 };
            assert_eq!(bound, want, "{}", m.name);
        }
        // The contract's one mandatory metric; 0.10 is the largest bound here.
        let setup = d
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let class_metrics: Vec<&str> = crate::score::Class::ALL
            .iter()
            .map(|c| c.metric())
            .collect();
        let declared: Vec<&str> = d.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            declared,
            [
                &["setup_s", "peak_rss_mb", "goodput_per_s"],
                &class_metrics[..]
            ]
            .concat()
        );
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn render_prints_each_declared_metric_once_with_its_unit() {
        let declared = vec![
            Declared {
                name: "a_s".into(),
                unit: "s".into(),
                higher_is_better: false,
                bound: Some(0.1),
            },
            Declared {
                name: "b.c-d".into(),
                unit: "1/s".into(),
                higher_is_better: true,
                bound: Some(0.1),
            },
        ];
        let mut m = Metrics::default();
        m.set("b.c-d", 2.5);
        m.set("a_s", 0.125);
        let (lines, json) = m.render(&declared).unwrap();
        assert_eq!(lines, ["metric a_s 0.125 s", "metric b.c-d 2.5 1/s"]);
        let line = result_object(true, 10, 0, json).to_compact();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"a_s":{"value":0.125,"unit":"s"},"b.c-d":{"value":2.5,"unit":"1/s"}}}"#
        );

        let mut missing = Metrics::default();
        missing.set("a_s", 1.0);
        assert!(missing.render(&declared).unwrap_err().contains("b.c-d"));
        let mut twice = Metrics::default();
        twice.set("a_s", 1.0);
        twice.set("a_s", 2.0);
        twice.set("b.c-d", 1.0);
        assert!(twice.render(&declared).is_err());
        let mut stray = Metrics::default();
        stray.set("a_s", 1.0);
        stray.set("b.c-d", 1.0);
        stray.set("zzz", 1.0);
        assert!(stray.render(&declared).is_err());
        let mut nan = Metrics::default();
        nan.set("a_s", f64::NAN);
        nan.set("b.c-d", 1.0);
        assert!(nan.render(&declared).is_err());
    }
}
