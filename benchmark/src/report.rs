//! What one workload's run produced, and how it is printed: table lines for
//! people, a result file for `results.json`, and the one-line JSON object the
//! benchmark contract asks for.

use crate::json::J;
use crate::spec::{END_TO_END, PARTIAL, PER_LAYER};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// `max / min - 1` over the repetitions behind `value`, when repeated.
    pub spread: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            spread: None,
        }
    }

    pub fn spread(mut self, spread: f64) -> Metric {
        self.spread = Some(spread);
        self
    }
}

pub struct Outcome {
    pub workload: String,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Check failures and remarks, printed under the table.
    pub notes: Vec<String>,
    /// Sizes and inputs of the run, for the result file.
    pub detail: J,
}

/// Unit of a metric, looked up in the vocabulary.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PARTIAL.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or("?")
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `workload metric value unit spread`, one line per metric.
    pub fn print_table(&self) {
        for m in &self.metrics {
            let spread = m
                .spread
                .map_or(String::from("-"), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<10} {:<30} {:>16.6} {:<9} {}",
                self.workload,
                m.name,
                m.value,
                unit_of(m.name),
                spread
            );
        }
        for note in &self.notes {
            println!("{:<10} # {note}", self.workload);
        }
        let verdict = if self.correct() { "ok" } else { "FAILED" };
        println!(
            "{:<10} # checks {verdict}: {} failed of {} attempted",
            self.workload, self.failed, self.attempted
        );
    }

    fn metrics_json(&self, names: &mut dyn Iterator<Item = &'static str>, spreads: bool) -> J {
        J::Obj(
            names
                .filter_map(|name| {
                    let m = self.metrics.iter().find(|m| m.name == name)?;
                    let mut fields = vec![
                        ("value", J::Num(m.value)),
                        ("unit", J::str(unit_of(m.name))),
                    ];
                    if let Some(s) = m.spread.filter(|_| spreads) {
                        fields.push(("spread", J::Num(s)));
                    }
                    Some((name.to_string(), J::obj(fields)))
                })
                .collect(),
        )
    }

    /// The full result, for `results.json`.
    pub fn to_json(&self) -> J {
        J::obj(vec![
            ("workload", J::str(&self.workload)),
            ("correct", J::Bool(self.correct())),
            ("attempted", J::Num(self.attempted as f64)),
            ("failed", J::Num(self.failed as f64)),
            (
                "metrics",
                self.metrics_json(&mut self.metrics.iter().map(|m| m.name), true),
            ),
            (
                "notes",
                J::Arr(self.notes.iter().map(|n| J::str(n.as_str())).collect()),
            ),
            ("inputs", self.detail.clone()),
        ])
    }

    /// The contract's last line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every end-to-end metric (tracing off) or
    /// every per-layer metric (tracing on) and nothing else.
    pub fn contract_line(&self, trace: bool) -> Result<String, String> {
        let wanted: Vec<&'static str> = if trace {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        if let Some(missing) = wanted.iter().find(|n| self.get(n).is_none()) {
            return Err(format!(
                "{}: metric {missing} was not measured",
                self.workload
            ));
        }
        let metrics = self.metrics_json(&mut wanted.into_iter(), false);
        Ok(J::obj(vec![
            ("correct", J::Bool(self.correct())),
            ("attempted", J::Num(self.attempted.max(1) as f64)),
            ("failed", J::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamloader::obs::json::{parse, Json};

    fn outcome() -> Outcome {
        Outcome {
            workload: "chain".into(),
            metrics: vec![
                Metric::new("setup_s", 0.000_312_5).spread(0.4),
                Metric::new("tuples_per_s", 134_567.891_234).spread(0.02),
                Metric::new("peak_rss_mb", 12.5),
                Metric::new("failed_share", 0.0),
            ],
            attempted: 230_400,
            failed: 0,
            notes: vec![],
            detail: J::obj(vec![("repetitions", J::Num(5.0))]),
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let line = outcome().contract_line(false).expect("all measured");
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("valid JSON");
        let obj = doc.as_obj().unwrap();
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(obj["correct"], Json::Bool(true));
        assert_eq!(obj["attempted"].as_u64(), Some(230_400));
        let metrics = obj["metrics"].as_obj().unwrap();
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        assert_eq!(names, ["peak_rss_mb", "setup_s", "tuples_per_s"]);
        let m = metrics["tuples_per_s"].as_obj().unwrap();
        assert_eq!(m.len(), 2, "value and unit only");
        assert_eq!(m["value"], Json::Num(134_567.891_234));
        assert_eq!(m["unit"].as_str(), Some("tuples/s"));
    }

    #[test]
    fn a_missing_metric_is_an_error_not_a_gap() {
        let mut o = outcome();
        o.metrics.remove(2);
        assert!(o.contract_line(false).unwrap_err().contains("peak_rss_mb"));
        assert!(o.contract_line(true).is_err());
    }

    #[test]
    fn result_file_keeps_spreads_and_inputs() {
        let doc = parse(&outcome().to_json().to_text()).expect("valid JSON");
        let obj = doc.as_obj().unwrap();
        let setup = obj["metrics"].as_obj().unwrap()["setup_s"]
            .as_obj()
            .unwrap();
        assert_eq!(setup["spread"], Json::Num(0.4));
        assert_eq!(
            obj["inputs"].as_obj().unwrap()["repetitions"].as_u64(),
            Some(5)
        );
    }
}
