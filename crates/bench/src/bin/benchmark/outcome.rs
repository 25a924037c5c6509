//! What one child process measured, as the one JSON line it prints for
//! the parent.

use tdtm_telemetry::stream::json::{self, Value};
use tdtm_telemetry::stream::{json_f64, json_str};

/// Failure messages kept per child (the count is always exact).
const KEPT_FAILURES: usize = 20;

#[derive(Default, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Named scalars: pass times and sizes for the parent to aggregate,
    /// or finished per-layer metrics from a traced pass.
    pub values: Vec<(String, f64)>,
    /// Named per-cell samples (host milliseconds, simulated cycles).
    pub series: Vec<(String, Vec<f64>)>,
    /// Human-readable lines the parent prints.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn series(&self, name: &str) -> &[f64] {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, s)| s)
    }

    pub fn to_json(&self) -> String {
        let strings = |v: &[String]| v.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(",");
        let values = self
            .values
            .iter()
            .map(|(n, v)| format!("{}:{}", json_str(n), json_f64(*v)))
            .collect::<Vec<_>>()
            .join(",");
        let series = self
            .series
            .iter()
            .map(|(n, s)| {
                let items = s.iter().map(|v| json_f64(*v)).collect::<Vec<_>>().join(",");
                format!("{}:[{items}]", json_str(n))
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"attempted\":{},\"failed\":{},\"failures\":[{}],\"values\":{{{values}}},\
             \"series\":{{{series}}},\"notes\":[{}]}}",
            self.attempted,
            self.failed,
            strings(&self.failures),
            strings(&self.notes),
        )
    }

    pub fn from_json(text: &str) -> Result<Outcome, String> {
        let root = json::parse(text)?;
        let obj = root.as_object().ok_or("child output is not an object")?;
        let field = |key: &str| {
            obj.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or(format!("missing `{key}`"))
        };
        let strings = |key: &str| -> Result<Vec<String>, String> {
            field(key)?
                .as_array()
                .ok_or(format!("`{key}` is not an array"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or(format!("`{key}` item"))
                })
                .collect()
        };
        let object = |key: &str| -> Result<&[(String, Value)], String> {
            field(key)?
                .as_object()
                .ok_or(format!("`{key}` is not an object"))
        };
        let count = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or(format!("`{key}` is not a count"))
        };
        Ok(Outcome {
            attempted: count("attempted")?,
            failed: count("failed")?,
            failures: strings("failures")?,
            values: object("values")?
                .iter()
                .map(|(n, v)| Ok((n.clone(), v.as_f64().ok_or(format!("value `{n}`"))?)))
                .collect::<Result<_, String>>()?,
            series: object("series")?
                .iter()
                .map(|(n, v)| {
                    let items = v.as_array().ok_or(format!("series `{n}`"))?;
                    let nums = items
                        .iter()
                        .map(|x| x.as_f64().ok_or(format!("series `{n}` item")));
                    Ok((n.clone(), nums.collect::<Result<_, String>>()?))
                })
                .collect::<Result<_, String>>()?,
            notes: strings("notes")?,
        })
    }
}
