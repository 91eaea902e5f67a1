//! Point-in-time snapshots: JSON export and the human summary table.
//!
//! A [`Snapshot`] copies every registered counter and sketch, derives the
//! paper's cost model from the DCN counters (§4: benign traffic pays one
//! forward pass, flagged traffic `1 + m`), and serializes to JSON by hand —
//! the crate stays dependency-free; the output is plain JSON that the
//! vendored `serde_json` (and any real JSON parser) reads back.

use std::path::{Path, PathBuf};

use crate::registry::registry;
use crate::{enabled, names};

/// Frozen state of one quantile sketch: the moments plus the standard
/// latency percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchSnapshot {
    /// Registered name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation (`None` when empty).
    pub min: Option<f64>,
    /// Largest observation (`None` when empty).
    pub max: Option<f64>,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl SketchSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The paper's §4 cost accounting, derived from the DCN counters: benign
/// traffic pays 1 forward pass, flagged traffic pays `1 + votes`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// DCN classifications answered.
    pub queries: u64,
    /// Queries the detector passed straight through.
    pub passed_through: u64,
    /// Queries routed through the corrector.
    pub corrected: u64,
    /// Actual base-classifier forward passes consumed.
    pub base_passes: u64,
    /// Actual vote samples classified across all corrections.
    pub corrector_votes: u64,
}

impl CostModel {
    /// Amortized base-network forward passes per query — the quantity the
    /// paper's Table 6 / Fig. 5 cost claims reduce to.
    pub fn amortized_passes_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.base_passes as f64 / self.queries as f64
        }
    }

    /// Mean votes per correction — the *effective* `m` (0 when nothing was
    /// corrected).
    pub fn mean_votes_per_correction(&self) -> f64 {
        if self.corrected == 0 {
            0.0
        } else {
            self.corrector_votes as f64 / self.corrected as f64
        }
    }
}

/// A frozen copy of every registered metric plus derived cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Run label the snapshot was taken under.
    pub run: String,
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Quantile-sketch states, sorted by name.
    pub sketches: Vec<SketchSnapshot>,
    /// Derived DCN cost model.
    pub cost: CostModel,
}

/// Takes a snapshot of the current metric state under the label `run`.
pub fn snapshot(run: &str) -> Snapshot {
    let reg = registry();
    let counters: Vec<(String, u64)> = reg
        .counters
        .iter()
        .map(|(name, c)| (name.clone(), c.get()))
        .collect();
    let sketches: Vec<SketchSnapshot> = reg
        .sketches
        .iter()
        .map(|(name, s)| {
            let state = s.state();
            SketchSnapshot {
                name: name.clone(),
                count: state.count(),
                sum: state.sum(),
                min: state.min(),
                max: state.max(),
                p50: state.quantile(0.5),
                p90: state.quantile(0.9),
                p99: state.quantile(0.99),
                p999: state.quantile(0.999),
            }
        })
        .collect();
    drop(reg);
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    let cost = CostModel {
        queries: get(names::DCN_QUERIES_TOTAL),
        passed_through: get(names::DCN_PASSED_THROUGH_TOTAL),
        corrected: get(names::DCN_CORRECTED_TOTAL),
        base_passes: get(names::DCN_BASE_PASSES_TOTAL),
        corrector_votes: get(names::CORRECTOR_VOTES_TOTAL),
    };
    Snapshot {
        run: run.to_string(),
        counters,
        sketches,
        cost,
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub(crate) fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Snapshot {
    /// Value of a counter in this snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Quantile-sketch state by name, if recorded.
    pub fn sketch(&self, name: &str) -> Option<&SketchSnapshot> {
        self.sketches.iter().find(|s| s.name == name)
    }

    /// Alias of [`Snapshot::sketch`], kept only because the repository
    /// benchmark (`benchmark/src/serve.rs`) reads `serve.batch_size_mean`
    /// through it. Delete it together with that call.
    pub fn histogram(&self, name: &str) -> Option<&SketchSnapshot> {
        self.sketch(name)
    }

    /// Serializes the snapshot as pretty-printed JSON with top-level keys
    /// `run`, `counters`, `sketches` and `cost`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"run\": {},\n", json_escape(&self.run)));
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("    {}: {v}", json_escape(name)));
        }
        out.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"sketches\": {");
        for (i, s) in self.sketches.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}}}",
                json_escape(&s.name),
                s.count,
                json_f64(s.sum),
                s.min.map_or("null".to_string(), json_f64),
                s.max.map_or("null".to_string(), json_f64),
                json_f64(s.p50),
                json_f64(s.p90),
                json_f64(s.p99),
                json_f64(s.p999),
            ));
        }
        out.push_str(if self.sketches.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str(&format!(
            "  \"cost\": {{\"queries\": {}, \"passed_through\": {}, \"corrected\": {}, \"base_passes\": {}, \"corrector_votes\": {}, \"amortized_passes_per_query\": {}, \"mean_votes_per_correction\": {}}}\n",
            self.cost.queries,
            self.cost.passed_through,
            self.cost.corrected,
            self.cost.base_passes,
            self.cost.corrector_votes,
            json_f64(self.cost.amortized_passes_per_query()),
            json_f64(self.cost.mean_votes_per_correction()),
        ));
        out.push_str("}\n");
        out
    }

    /// Renders the human-readable summary table printed by examples and the
    /// CLI's `obs` section.
    pub fn render(&self) -> String {
        let mut out = format!("== observability summary ({}) ==\n", self.run);
        if self.counters.is_empty() && self.sketches.is_empty() {
            out.push_str("(no metrics recorded — set DCN_OBS=1 or call dcn_obs::set_enabled)\n");
            return out;
        }
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.sketches.iter().map(|s| s.name.len()))
            .max()
            .unwrap_or(0);
        for (name, v) in &self.counters {
            out.push_str(&format!("  {name:width$}  {v}\n"));
        }
        for s in &self.sketches {
            out.push_str(&format!(
                "  {:width$}  n={} p50={:.4} p99={:.4} p999={:.4} max={:.4}\n",
                s.name,
                s.count,
                s.p50,
                s.p99,
                s.p999,
                s.max.unwrap_or(0.0),
            ));
        }
        if self.cost.queries > 0 {
            out.push_str(&format!(
                "  cost: {} queries → {:.2} passes/query ({} passed @1, {} corrected @1+{:.0})\n",
                self.cost.queries,
                self.cost.amortized_passes_per_query(),
                self.cost.passed_through,
                self.cost.corrected,
                self.cost.mean_votes_per_correction(),
            ));
        }
        out
    }

    /// Writes the snapshot as `OBS_<run>.json` under `dir`, creating the
    /// directory as needed. Returns the written path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let safe: String = self
            .run
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        let path = dir.join(format!("OBS_{safe}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Default export directory: `DCN_OBS_JSON` when it holds a path, else the
/// workspace `results/` located from `CARGO_MANIFEST_DIR` (set by every
/// `cargo run/test/bench` invocation), else `./results`.
fn export_dir() -> PathBuf {
    if let Ok(v) = std::env::var("DCN_OBS_JSON") {
        if !v.is_empty() && v != "0" && v != "1" && !v.eq_ignore_ascii_case("true") && !v.eq_ignore_ascii_case("false") {
            return PathBuf::from(v);
        }
    }
    if let Some(manifest) = std::env::var_os("CARGO_MANIFEST_DIR") {
        // Member crates live at <workspace>/crates/<name> or
        // <workspace>/compat/<name>; results/ sits at the workspace root.
        let mut p = PathBuf::from(manifest);
        p.pop();
        p.pop();
        return p.join("results");
    }
    PathBuf::from("results")
}

/// The directory snapshots (and flight-recorder dumps) land in by
/// default: `DCN_OBS_JSON` when it holds a path, else the workspace
/// `results/` directory.
pub fn default_export_dir() -> PathBuf {
    export_dir()
}

/// Snapshots the current metrics and writes `OBS_<run>.json` when
/// collection is enabled; a no-op returning `None` otherwise. This is the
/// one-line exit hook tests, examples and the CLI use.
pub fn maybe_export(run: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    snapshot(run).write_to(&export_dir()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, names, set_enabled, sketch};

    #[test]
    fn snapshot_reads_counters_and_cost() {
        let _guard = crate::test_lock();
        counter(names::DCN_QUERIES_TOTAL).add(10);
        counter(names::DCN_PASSED_THROUGH_TOTAL).add(8);
        counter(names::DCN_CORRECTED_TOTAL).add(2);
        counter(names::DCN_BASE_PASSES_TOTAL).add(8 + 2 * 51);
        counter(names::CORRECTOR_VOTES_TOTAL).add(100);
        sketch(names::CORRECTOR_VOTE_MARGIN).observe(0.4);
        let snap = snapshot("unit");
        assert!(snap.counter(names::DCN_QUERIES_TOTAL) >= 10);
        assert!(snap.cost.queries >= 10);
        assert!(snap.cost.amortized_passes_per_query() > 1.0);
        assert!(snap.sketch(names::CORRECTOR_VOTE_MARGIN).unwrap().count >= 1);
        assert!(snap.render().contains("cost:"));
    }

    #[test]
    fn json_output_has_top_level_keys() {
        let _guard = crate::test_lock();
        counter("snapshot_test.k").inc();
        let json = snapshot("json-keys").to_json();
        for key in ["\"run\"", "\"counters\"", "\"sketches\"", "\"cost\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn sketches_surface_percentiles_in_snapshot_and_json() {
        let _guard = crate::test_lock();
        let s = sketch("snapshot_test.sketch_latency");
        for i in 1..=100 {
            s.observe(i as f64);
        }
        let snap = snapshot("sketches");
        let ss = snap.sketch("snapshot_test.sketch_latency").unwrap();
        assert!(ss.count >= 100);
        assert!(ss.p50 > 0.0 && ss.p50 <= ss.p99 && ss.p99 <= ss.p999);
        assert_eq!(ss.max, Some(100.0));
        let json = snap.to_json();
        assert!(json.contains("\"sketches\""), "{json}");
        assert!(json.contains("\"snapshot_test.sketch_latency\""), "{json}");
        assert!(json.contains("\"p999\""), "{json}");
        assert!(snap.render().contains("p999="));
    }

    #[test]
    fn render_lists_a_snapshot_holding_only_sketches() {
        let name = "snapshot_test.a_sketch_name_longer_than_any_counter_name";
        let snap = Snapshot {
            run: "sketch-only".to_string(),
            counters: Vec::new(),
            sketches: vec![SketchSnapshot {
                name: name.to_string(),
                count: 3,
                sum: 6.0,
                min: Some(1.0),
                max: Some(3.0),
                p50: 2.0,
                p90: 3.0,
                p99: 3.0,
                p999: 3.0,
            }],
            cost: CostModel {
                queries: 0,
                passed_through: 0,
                corrected: 0,
                base_passes: 0,
                corrector_votes: 0,
            },
        };
        let rendered = snap.render();
        assert!(!rendered.contains("no metrics recorded"), "{rendered}");
        assert!(
            rendered.contains(&format!("  {name}  n=3 p50=2.0000")),
            "{rendered}"
        );
        // A shorter counter is padded to the sketch's name column.
        let mut with_counter = snap.clone();
        with_counter.counters.push(("c".to_string(), 1));
        let rendered = with_counter.render();
        let width = name.len();
        assert!(
            rendered.contains(&format!("  {:width$}  1\n", "c")),
            "{rendered}"
        );
    }

    #[test]
    fn disabled_export_is_a_noop() {
        let _guard = crate::test_lock();
        set_enabled(false);
        assert!(maybe_export("never-written").is_none());
    }

    #[test]
    fn empty_cost_model_divides_safely() {
        let c = CostModel {
            queries: 0,
            passed_through: 0,
            corrected: 0,
            base_passes: 0,
            corrector_votes: 0,
        };
        assert_eq!(c.amortized_passes_per_query(), 0.0);
        assert_eq!(c.mean_votes_per_correction(), 0.0);
    }
}
