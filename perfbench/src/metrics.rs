//! Metric names and units, read from the benchmark's `metrics.json`,
//! and the result line every run prints last.

use bsched_util::Json;
use std::collections::BTreeMap;

/// The benchmark's metric record.
pub const METRICS_JSON: &str = include_str!("../metrics.json");

/// One metric's name, unit and direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
}

fn defs(section: &str) -> Vec<MetricDef> {
    let doc = Json::parse(METRICS_JSON).expect("metrics.json parses");
    let Some(Json::Arr(items)) = doc.get(section) else {
        panic!("metrics.json lacks {section}");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            MetricDef {
                name: field("name"),
                unit: field("unit"),
                better: field("better"),
            }
        })
        .collect()
}

/// The end-to-end metrics, printed by every untraced run.
#[must_use]
pub fn end_to_end() -> Vec<MetricDef> {
    defs("end_to_end")
}

/// The per-layer metrics, printed by every traced run.
#[must_use]
pub fn per_layer() -> Vec<MetricDef> {
    defs("per_layer")
}

/// Whether `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The final result line: `correct`, `attempted`, `failed` and every
/// metric of `defs` with its unit. A metric missing from `values` is a
/// bug in the benchmark, reported as an error.
///
/// # Errors
///
/// `values` lacks one of `defs`, or holds a name outside them.
pub fn result_line(
    defs: &[MetricDef],
    values: &BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for d in defs {
        let v = values
            .get(&d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite", d.name));
        }
        metrics.push((
            d.name.as_str(),
            Json::obj(vec![
                ("value", Json::Num(*v)),
                ("unit", Json::Str(d.unit.clone())),
            ]),
        ));
    }
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| &d.name == *k)) {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::u64(attempted)),
        ("failed", Json::u64(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string_compact())
}
