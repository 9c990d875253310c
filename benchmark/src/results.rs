//! The results file: every metric with its median and every raw rep, so
//! two runs can be compared later (`-- agree A.json B.json`).

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct MetricValue {
    pub name: String,
    pub unit: String,
    /// The reported value: the median of `reps`.
    pub value: f64,
    /// One value per timed rep (per set-up for `setup_s`; a single entry
    /// for per-layer metrics).
    pub reps: Vec<f64>,
}

impl MetricValue {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("unit", Json::str(&self.unit)),
            ("value", Json::Num(self.value)),
            ("reps", Json::nums(&self.reps)),
        ])
    }

    fn from_json(v: &Json) -> Result<MetricValue, String> {
        Ok(MetricValue {
            name: text(v, "name")?,
            unit: text(v, "unit")?,
            value: number(v, "value")?,
            reps: array(v, "reps")?
                .iter()
                .map(|r| r.as_f64().ok_or("a rep is not a number".to_string()))
                .collect::<Result<_, _>>()?,
        })
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    /// Not run: fewer allowed CPUs than the workload has load threads.
    pub skipped: bool,
    /// Every conservation / FIFO / invariant check held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<MetricValue>,
}

impl WorkloadResult {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub seconds: u64,
    /// Allowed CPUs the load threads were pinned to, in slot order.
    pub cpus: Vec<usize>,
    pub workloads: Vec<WorkloadResult>,
    /// From the traced run; empty without `--trace`.
    pub per_layer: Vec<MetricValue>,
}

impl Results {
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                Json::obj([
                    ("name", Json::str(&w.name)),
                    ("skipped", Json::Bool(w.skipped)),
                    ("correct", Json::Bool(w.correct)),
                    ("attempted", Json::Num(w.attempted as f64)),
                    ("failed", Json::Num(w.failed as f64)),
                    ("failed_share", Json::Num(w.failed_share())),
                    (
                        "metrics",
                        Json::Arr(w.metrics.iter().map(MetricValue::to_json).collect()),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::Num(1.0)),
            // This benchmark defines names; it claims no gain.
            ("claim", Json::Null),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            (
                "cpus",
                Json::nums(&self.cpus.iter().map(|&c| c as f64).collect::<Vec<_>>()),
            ),
            ("workloads", Json::Arr(workloads)),
            (
                "per_layer",
                Json::Arr(self.per_layer.iter().map(MetricValue::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Results, String> {
        if number(doc, "schema")? != 1.0 {
            return Err("unknown results schema".into());
        }
        let workloads = array(doc, "workloads")?
            .iter()
            .map(|w| {
                Ok(WorkloadResult {
                    name: text(w, "name")?,
                    skipped: flag(w, "skipped")?,
                    correct: flag(w, "correct")?,
                    attempted: number(w, "attempted")? as u64,
                    failed: number(w, "failed")? as u64,
                    metrics: metrics(w, "metrics")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Results {
            seed: number(doc, "seed")? as u64,
            seconds: number(doc, "seconds")? as u64,
            cpus: array(doc, "cpus")?
                .iter()
                .filter_map(Json::as_f64)
                .map(|c| c as usize)
                .collect(),
            workloads,
            per_layer: metrics(doc, "per_layer")?,
        })
    }

    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json().to_pretty())
    }

    pub fn load(path: &std::path::Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Results::from_json(&Json::parse(&text)?).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn number(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

fn flag(v: &Json, key: &str) -> Result<bool, String> {
    match field(v, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("`{key}` is not a boolean")),
    }
}

fn array<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not an array"))
}

fn metrics(v: &Json, key: &str) -> Result<Vec<MetricValue>, String> {
    array(v, key)?.iter().map(MetricValue::from_json).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn sample() -> Results {
        Results {
            seed: 7,
            seconds: 10,
            cpus: vec![0, 1],
            workloads: vec![
                WorkloadResult {
                    name: "pair_1t".into(),
                    skipped: false,
                    correct: true,
                    attempted: 123_456_789,
                    failed: 0,
                    metrics: vec![MetricValue {
                        name: "ops_per_s".into(),
                        unit: "ops/s".into(),
                        value: 20_345_678.912_345,
                        reps: vec![20_345_678.912_345, 2.05e7, 19_999_999.5],
                    }],
                },
                WorkloadResult {
                    name: "pair_2t".into(),
                    skipped: true,
                    correct: true,
                    attempted: 0,
                    failed: 0,
                    metrics: vec![],
                },
            ],
            per_layer: vec![MetricValue {
                name: "wcq.ring.pair_ns".into(),
                unit: "ns".into(),
                value: 20.812_5,
                reps: vec![20.812_5],
            }],
        }
    }

    #[test]
    fn file_round_trips() {
        let r = sample();
        let path =
            std::env::temp_dir().join(format!("wcq-bench-results-{}.json", std::process::id()));
        r.save(&path).unwrap();
        let back = Results::load(&path);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, Ok(r));
    }

    #[test]
    fn claims_nothing() {
        assert_eq!(sample().to_json().get("claim"), Some(&Json::Null));
    }

    #[test]
    fn rejects_other_documents() {
        assert!(Results::from_json(&Json::parse("{\"schema\": 2}").unwrap()).is_err());
        assert!(Results::from_json(&Json::parse("{\"schema\": 1}").unwrap()).is_err());
    }
}
