//! The metric table, read from the repository's `BENCHMARK.json` (compiled
//! in), so names, units, directions and regression bounds have one
//! source.

use tdtm_telemetry::stream::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or(format!("missing `{key}`"))
}

fn metric_list(obj: &[(String, Value)], key: &str) -> Result<Vec<MetricSpec>, String> {
    get(obj, key)?
        .as_array()
        .ok_or(format!("`{key}` is not an array"))?
        .iter()
        .map(|m| {
            let m = m.as_object().ok_or("metric is not an object")?;
            let text = |k: &str| -> Result<String, String> {
                Ok(get(m, k)?
                    .as_str()
                    .ok_or(format!("`{k}` is not a string"))?
                    .to_string())
            };
            let better = text("better")?;
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: match better.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("better = `{other}`")),
                },
                bound: get(m, "bound").ok().and_then(Value::as_f64),
            })
        })
        .collect()
}

fn parse(text: &str) -> Result<Spec, String> {
    let root = json::parse(text)?;
    let obj = root.as_object().ok_or("BENCHMARK.json is not an object")?;
    Ok(Spec {
        run_seconds: get(obj, "run_seconds")?.as_f64().ok_or("run_seconds")?,
        end_to_end: metric_list(obj, "end_to_end")?,
        per_layer: metric_list(obj, "per_layer")?,
    })
}
