//! Typed, full-precision records, and the metric catalogue read from the
//! repository's `BENCHMARK.json`.
//!
//! Every number the benchmark writes is one [`Metric`]: a name, a unit and a
//! tagged [`Record`] (`timing`, `ratio`, `count` or `scalar`). Timings carry
//! their whole distribution; floats are written as Rust's shortest
//! round-trip decimal, never rounded for display.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::Summary;

/// `BENCHMARK.json`, compiled in so the names, units and bounds the
/// benchmark emits and judges by cannot drift from the file.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, accuracy).
    Higher,
}

/// One metric as declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (`None` for
    /// per-layer metrics, which are not gated).
    pub bound: Option<f64>,
}

/// The parsed catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalogue {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Gated end-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures (`run_seconds`).
    pub run_seconds: f64,
}

impl Catalogue {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A description of the first malformed entry.
    pub fn load() -> Result<Catalogue, String> {
        Catalogue::parse(BENCHMARK_JSON)
    }

    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// A description of the first malformed entry.
    pub fn parse(text: &str) -> Result<Catalogue, String> {
        let root = serde_json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<Value>, String> {
            root.get_field(key)
                .and_then(Value::as_array)
                .map(<[Value]>::to_vec)
                .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))
        };
        let str_field = |v: &Value, key: &str| -> Result<String, String> {
            v.get_field(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without string {key:?}"))
        };
        let spec = |v: &Value, gated: bool| -> Result<MetricSpec, String> {
            let better = match str_field(v, "better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("BENCHMARK.json: better = {other:?}")),
            };
            let bound = if gated {
                Some(
                    v.get_field("bound")
                        .and_then(Value::as_f64)
                        .ok_or("BENCHMARK.json: end-to-end metric without a bound")?,
                )
            } else {
                None
            };
            Ok(MetricSpec {
                name: str_field(v, "name")?,
                unit: str_field(v, "unit")?,
                better,
                bound,
            })
        };
        Ok(Catalogue {
            workloads: list("workloads")?
                .iter()
                .map(|w| str_field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|m| spec(m, true))
                .collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|m| spec(m, false))
                .collect::<Result<_, _>>()?,
            run_seconds: root
                .get_field("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
        })
    }

    /// The metric list a run prints: end-to-end, or per-layer when traced.
    pub fn printed(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// The value behind a metric, tagged by what kind of number it is.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A measured distribution; its value is the median.
    Timing(Summary),
    /// `num / den`, both kept so the base of the ratio is on record.
    Ratio {
        /// Numerator.
        num: f64,
        /// Denominator.
        den: f64,
    },
    /// An exact count.
    Count(u64),
    /// A number derived from other measurements (GFLOP/s, overhead).
    Scalar(f64),
}

impl Record {
    /// The headline value.
    pub fn value(&self) -> f64 {
        match self {
            Record::Timing(s) => s.median,
            Record::Ratio { num, den } => {
                if *den == 0.0 {
                    0.0
                } else {
                    num / den
                }
            }
            Record::Count(c) => *c as f64,
            Record::Scalar(v) => *v,
        }
    }
}

/// A named, unit-carrying record.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// The record.
    pub record: Record,
}

impl Metric {
    /// A timing metric.
    pub fn timing(name: impl Into<String>, unit: &str, summary: Summary) -> Metric {
        Metric::new(name, unit, Record::Timing(summary))
    }

    /// A ratio metric.
    pub fn ratio(name: impl Into<String>, num: f64, den: f64) -> Metric {
        Metric::new(name, "fraction", Record::Ratio { num, den })
    }

    /// A derived scalar.
    pub fn scalar(name: impl Into<String>, unit: &str, value: f64) -> Metric {
        Metric::new(name, unit, Record::Scalar(value))
    }

    /// A metric from its parts.
    pub fn new(name: impl Into<String>, unit: &str, record: Record) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.to_string(),
            record,
        }
    }

    /// The headline value.
    pub fn value(&self) -> f64 {
        self.record.value()
    }

    /// The full record as JSON, tagged by `kind`.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("unit".to_string(), Value::Str(self.unit.clone())),
        ];
        let (kind, extra) = match &self.record {
            Record::Timing(s) => ("timing", s.fields()),
            Record::Ratio { num, den } => (
                "ratio",
                vec![
                    ("num".to_string(), Value::Num(*num)),
                    ("den".to_string(), Value::Num(*den)),
                ],
            ),
            Record::Count(_) => ("count", Vec::new()),
            Record::Scalar(_) => ("scalar", Vec::new()),
        };
        fields.push(("kind".to_string(), Value::Str(kind.to_string())));
        fields.push(("value".to_string(), Value::Num(self.value())));
        fields.extend(extra);
        Value::Obj(fields)
    }
}

/// Collects metrics by name; a name recorded twice keeps the last record.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    metrics: BTreeMap<String, Metric>,
}

impl Ledger {
    /// Records a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.insert(metric.name.clone(), metric);
    }

    /// Records many metrics.
    pub fn extend(&mut self, metrics: impl IntoIterator<Item = Metric>) {
        for m in metrics {
            self.push(m);
        }
    }

    /// Looks a metric up.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Every metric, sorted by name.
    pub fn all(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.values()
    }

    /// The catalogue's metrics, in catalogue order, checking that each was
    /// recorded with the declared unit and a finite value.
    ///
    /// # Errors
    ///
    /// Names every missing, mis-unit or non-finite metric.
    pub fn select(&self, specs: &[MetricSpec]) -> Result<Vec<Metric>, String> {
        let mut out = Vec::with_capacity(specs.len());
        let mut problems = Vec::new();
        for spec in specs {
            match self.metrics.get(&spec.name) {
                None => problems.push(format!("{} was not measured", spec.name)),
                Some(m) if m.unit != spec.unit => problems.push(format!(
                    "{} measured in {} but declared in {}",
                    spec.name, m.unit, spec.unit
                )),
                Some(m) if !m.value().is_finite() => {
                    problems.push(format!("{} is not finite", spec.name));
                }
                Some(m) => out.push(m.clone()),
            }
        }
        if problems.is_empty() {
            Ok(out)
        } else {
            Err(problems.join("; "))
        }
    }

    /// Every metric as a JSON array of tagged records.
    pub fn to_value(&self) -> Value {
        Value::Arr(self.all().map(Metric::to_value).collect())
    }
}

/// The one-line result every run ends with: `correct`, `attempted`, `failed`
/// and `metrics` (`{name: {value, unit}}`).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = Value::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Obj(vec![
                        ("value".to_string(), Value::Num(m.value())),
                        ("unit".to_string(), Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect(),
    );
    let line = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Num(attempted.max(1) as f64)),
        ("failed".to_string(), Value::Num(failed as f64)),
        ("metrics".to_string(), metrics),
    ]);
    serde_json::to_string(&line).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_parses_and_every_gated_metric_has_a_bound() {
        let cat = Catalogue::load().expect("BENCHMARK.json parses");
        assert!(cat.workloads.len() >= 2);
        assert!(cat
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(cat
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(cat.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn records_keep_full_precision() {
        let m = Metric::ratio("r", 1.0, 3.0);
        let json = serde_json::to_string(&m.to_value()).unwrap();
        assert!(json.contains("0.3333333333333333"), "{json}");
        let line = result_line(true, 0, 0, &[m]);
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":1,"),
            "{line}"
        );
    }
}
