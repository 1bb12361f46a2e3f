//! Per-layer metrics computed from a traced window's spans.

use std::collections::HashMap;

use simnet::Histogram;

use crate::ops::{OpRec, Outcome};
use crate::report::Report;
use crate::stats::{histogram, median_f64};
use crate::trace::Span;
use crate::wirecost::{Cost, KINDS};

/// Span durations of one traced window, by op id.
pub struct Spans {
    invoke: HashMap<u64, u64>,
    prelim_wait: HashMap<u64, u64>,
    final_wait: HashMap<u64, u64>,
    views: u64,
    /// Op ids of completed ICG reads with their latency from issue.
    reads: Vec<(u64, u64)>,
}

impl Spans {
    /// Indexes `spans` and the window's operation records.
    pub fn of(spans: &[Span], recs: &[OpRec]) -> Spans {
        let mut out = Spans {
            invoke: HashMap::new(),
            prelim_wait: HashMap::new(),
            final_wait: HashMap::new(),
            views: 0,
            reads: recs
                .iter()
                .filter(|r| r.is_read && r.outcome == Outcome::Ok && r.op_id != 0)
                .map(|r| (r.op_id, r.final_at.saturating_sub(r.start_ns)))
                .collect(),
        };
        for s in spans {
            match s.name {
                "core.invoke" => {
                    out.invoke.insert(s.op, s.ns());
                }
                "binding.prelim" => {
                    out.views += 1;
                    out.prelim_wait.insert(s.op, s.ns());
                }
                "binding.final" => {
                    out.views += 1;
                    out.final_wait.insert(s.op, s.ns());
                }
                _ => {}
            }
        }
        out
    }

    /// Reports the `core.*` and `binding.*` span metrics; `ops` is the
    /// traced window's completed operations.
    pub fn report(&self, report: &mut Report, ops: u64) {
        let mut invoke = histogram(self.invoke.values().copied());
        let mut prelim = histogram(self.prelim_wait.values().copied());
        // Final waits of ICG reads, the operations the budget explains.
        let mut fin = histogram(
            self.reads
                .iter()
                .filter_map(|(op, _)| self.final_wait.get(op).copied()),
        );
        let us = |h: &mut Histogram, p| h.percentile(p).as_nanos() as f64 / 1e3;
        report.layer("core.invoke_us.p50", us(&mut invoke, 50.0), "us");
        report.layer("core.invoke_us.p99", us(&mut invoke, 99.0), "us");
        report.layer(
            "core.views_per_op",
            self.views as f64 / ops.max(1) as f64,
            "count",
        );
        report.layer("binding.prelim_wait_us.p50", us(&mut prelim, 50.0), "us");
        report.layer("binding.prelim_wait_us.p99", us(&mut prelim, 99.0), "us");
        report.layer("binding.final_wait_us.p50", us(&mut fin, 50.0), "us");
        report.layer("binding.final_wait_us.p99", us(&mut fin, 99.0), "us");
    }

    /// The latency budget of an ICG read's final view, from issue:
    /// `core.invoke` + `binding.final_wait` + residue, each a p50, the
    /// residue taken per operation. `residue_name` says what the residue
    /// is on this workload.
    pub fn budget(&self, report: &mut Report, residue_name: &str) {
        let mut total = Vec::new();
        let mut invoke = Vec::new();
        let mut wait = Vec::new();
        let mut residue = Vec::new();
        for &(op, lat) in &self.reads {
            let (Some(&i), Some(&w)) = (self.invoke.get(&op), self.final_wait.get(&op)) else {
                continue;
            };
            total.push(lat);
            invoke.push(i);
            wait.push(w);
            residue.push((lat as f64 - i as f64 - w as f64) / 1e6);
        }
        let ms = |v: Vec<u64>| histogram(v).median().as_millis_f64();
        let (t, i, w) = (ms(total), ms(invoke), ms(wait));
        let r = median_f64(&residue).unwrap_or(0.0);
        report.layer("budget.final_p50_ms", t, "ms");
        report.layer("budget.invoke_p50_ms", i, "ms");
        report.layer("budget.final_wait_p50_ms", w, "ms");
        report.layer("budget.residue_p50_ms", r, "ms");
        report.notes.push(format!(
            "final latency budget (ICG reads, from issue, traced window, p50s): {t:.4} ms = \
             core.invoke {i:.4} + binding.final_wait {w:.4} + residue {r:.4} ({residue_name})"
        ));
    }
}

/// Reports the isolated wire costs, or zeros where no wire is used.
pub fn report_wire(report: &mut Report, costs: Option<&[Cost; 8]>) {
    for (k, kind) in KINDS.iter().enumerate() {
        let c = costs.map(|c| c[k]).unwrap_or_default();
        report.layer(&format!("wire.encode_ns.{kind}"), c.encode_ns, "ns");
        report.layer(&format!("wire.decode_ns.{kind}"), c.decode_ns, "ns");
        report.layer(
            &format!("wire.frame_bytes.{kind}"),
            c.frame_bytes as f64,
            "B",
        );
    }
}
