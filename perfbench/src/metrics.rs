//! The metric registry (names and units, read from `BENCHMARK.json`)
//! and the result line.

use serde_json::Value;
use std::collections::BTreeMap;

/// `BENCHMARK.json`, the one declaration of every metric's name and
/// unit and of the workloads.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

fn declaration() -> Result<Value, String> {
    serde_json::from_str(DECLARATION).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// The `(name, unit)` pairs `BENCHMARK.json` lists under `group`:
/// `end_to_end` (printed by every untraced run) or `per_layer` (every
/// traced run; a layer a workload does not exercise reads 0).
///
/// # Errors
///
/// A missing group or a metric without a string name and unit.
pub fn declared(group: &str) -> Result<Vec<(String, String)>, String> {
    let doc = declaration()?;
    let list = doc
        .get(group)
        .and_then(Value::as_seq)
        .ok_or_else(|| format!("BENCHMARK.json: {group} is not a list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a {group} metric has no {k}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The benchmark's last output line: exactly the declared metrics of
/// the run's kind, each with its unit.
///
/// # Errors
///
/// A declared metric that was not measured, an undeclared one that
/// was, or a non-finite value.
pub fn result_line(
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
) -> Result<String, String> {
    let declared = declared(if traced { "per_layer" } else { "end_to_end" })?;
    if let Some(extra) = values
        .keys()
        .find(|name| !declared.iter().any(|(d, _)| d == *name))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut body = Vec::with_capacity(declared.len());
    for (name, unit) in &declared {
        let value = values
            .get(name.as_str())
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ones(group: &str) -> Values {
        declared(group)
            .unwrap()
            .into_iter()
            .map(|(name, _)| (&*name.leak(), 1.0))
            .collect()
    }

    #[test]
    fn declared_metrics_have_units_and_setup_time() {
        let e2e = declared("end_to_end").unwrap();
        assert!(e2e.contains(&("setup_s".to_string(), "s".to_string())));
        assert!(!declared("per_layer").unwrap().is_empty());
        assert!(declared("nope").is_err());
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = declaration().unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workload::WORKLOADS);
    }

    #[test]
    fn result_line_is_exact_json_with_units() {
        let values = all_ones("end_to_end");
        let line = result_line(false, true, 10, 1, &values).unwrap();
        let doc: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.as_map().unwrap().len(), values.len());
        assert_eq!(
            metrics
                .get("rounds_per_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("1/s")
        );
    }

    #[test]
    fn result_line_rejects_missing_extra_and_non_finite() {
        let mut values = all_ones("end_to_end");
        values.remove("setup_s");
        assert!(result_line(false, true, 1, 0, &values).is_err());
        values.insert("setup_s", f64::NAN);
        assert!(result_line(false, true, 1, 0, &values).is_err());
        values.insert("setup_s", 1.0);
        values.insert("net.self_us", 1.0);
        assert!(result_line(false, true, 1, 0, &values).is_err());
    }
}
