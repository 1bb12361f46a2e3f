//! The result line and the result file.

use std::fmt::Write as _;
use std::path::Path;

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted, set-up operations included.
    pub attempted: u64,
    /// Operations that failed or never resolved, set-up included.
    pub failed: u64,
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Correctness findings, one line each; empty when all checks pass.
    pub violations: Vec<String>,
    /// Human-readable notes (check tallies, the layer budget).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed correctness check.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// The single result line: `correct`, `attempted`, `failed` and the
    /// metrics of the requested kind.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(metrics)
        )
    }

    /// Writes the full record of the run — machine, both metric sets,
    /// violations and notes — to `path`.
    pub fn write_file(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let list = |items: &[String]| {
            let quoted: Vec<String> = items.iter().map(|s| json_str(s)).collect();
            format!("[{}]", quoted.join(", "))
        };
        let body = format!(
            "{{{header}, \"correct\": {}, \"attempted\": {}, \"failed\": {},\n \"end_to_end\": {},\n \"per_layer\": {},\n \"violations\": {},\n \"notes\": {}}}\n",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.end_to_end),
            metrics_json(&self.per_layer),
            list(&self.violations),
            list(&self.notes),
        );
        std::fs::write(path, body)
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values are not JSON; a metric without samples is 0.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    out
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.e2e("latency_ms", 1.25, "ms");
        r.layer("core.views_per_op", 1.5, "count");
        assert_eq!(
            r.result_line(false),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(r
            .result_line(true)
            .contains("\"core.views_per_op\": {\"value\": 1.5"));
    }

    #[test]
    fn non_finite_values_print_as_zero() {
        let mut r = Report::default();
        r.e2e("x", f64::NAN, "ms");
        assert!(r.result_line(false).contains("\"value\": 0,"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
