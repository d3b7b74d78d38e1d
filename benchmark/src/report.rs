//! Named metric values on their way to the result line.

use crate::metrics::Metric;
use llp::obs::json::Json;

/// The metrics of one run: every name of `table`, each emitted once.
pub struct Report {
    table: &'static [Metric],
    values: Vec<(&'static Metric, f64)>,
}

impl Report {
    pub fn new(table: &'static [Metric]) -> Self {
        Report {
            table,
            values: Vec::new(),
        }
    }

    /// Record `name` and print it with its unit. A name outside the
    /// table, or emitted twice, is a bug in the benchmark.
    pub fn emit(&mut self, name: &str, value: f64) {
        self.emit_with(name, value, "");
    }

    /// [`Report::emit`] with a trailing remark (MAD, sample count, the
    /// threshold a regime check holds the value against).
    pub fn emit_with(&mut self, name: &str, value: f64, remark: &str) {
        let metric = crate::metrics::find(self.table, name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the benchmark's table"));
        assert!(self.get(name).is_none(), "metric `{name}` emitted twice");
        println!(
            "  {:<44} {:>16.6} {:<8} {remark}",
            metric.name, value, metric.unit
        );
        self.values.push((metric, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| *v)
    }

    /// Names of the table that have no finite value yet.
    pub fn unreported(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .filter(|m| !self.get(m.name).is_some_and(f64::is_finite))
            .map(|m| m.name)
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` in table order.
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.table
                .iter()
                .filter_map(|m| {
                    let value = self.get(m.name)?;
                    let entry = Json::object(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::str(m.unit)),
                    ]);
                    Some((m.name.to_string(), entry))
                })
                .collect(),
        )
    }
}
