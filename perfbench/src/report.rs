//! The result a run prints: metric values, the correctness tally and the
//! run's identity record.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (flow runs, supervised campaigns, daemon jobs) attempted.
    pub attempted: u64,
    /// Why each failed operation failed; one entry per failure.
    pub failures: Vec<String>,
    /// End-to-end metrics, from the untraced rounds.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (filled only with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Identity of the run: configuration, sizes and fingerprints, as
    /// `(key, JSON value)` pairs.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one attempted operation, failing it with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Adds an identity field; `value` must already be JSON.
    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.record.push((key.to_owned(), value.into()));
    }

    /// Failed operations.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Whether every attempted operation passed its gate.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failures.is_empty()
    }

    /// The one-line result object: `correct`, `attempted`, `failed` and
    /// the end-to-end (or, traced, the per-layer) metrics.
    #[must_use]
    pub fn result_json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed()
        );
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The identity record as one JSON object.
    #[must_use]
    pub fn record_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.record.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{k}\": {v}");
        }
        s.push('}');
        s
    }
}

/// A finite JSON number with every digit `Display` gives (`null` is never
/// produced: non-finite values become 0).
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A JSON string literal for `s` (the record's strings are plain ASCII
/// identifiers and hex digits; quotes and backslashes are escaped anyway).
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A 64-bit fingerprint as the 16-hex-digit JSON string the rest of
/// fastmon prints.
#[must_use]
pub fn json_fp(fp: u64) -> String {
    format!("\"{fp:016x}\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.e2e("wall_s", 1.25, "s");
        let v = fastmon_obs::json::parse(&o.result_json(false)).expect("valid JSON");
        let obj = v.as_obj().expect("an object");
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("wall_s"))
                .and_then(|m| m.get("value"))
                .and_then(fastmon_obs::json::Value::as_f64),
            Some(1.25)
        );
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut o = Outcome::default();
        assert!(!o.correct(), "nothing attempted is not a pass");
        o.check(false, || "boom".to_owned());
        assert_eq!((o.attempted, o.failed()), (1, 1));
        assert!(!o.correct());
    }
}
