//! The per-layer time ledger of a traced request.
//!
//! A layer's self time is the time its spans cover minus the part their
//! child spans cover. The layer of a span is the segment of its name before
//! the first `.`, except that `adg.*` spans belong to `align`. Request time
//! that no layer's self time covers is reported as unattributed.

use std::collections::BTreeMap;

/// The pipeline's layers, in pipeline order.
pub const LAYERS: [&str; 5] = ["lp", "align", "distrib", "commsim", "phases"];

/// Always-on counters whose per-request deltas the per-layer metrics use.
pub const COUNTERS: [&str; 14] = [
    "lp.pivots",
    "lp.phase1_pivots",
    "lp.refactorisations",
    "lp.ftran.dense",
    "lp.ftran.sparse",
    "align.calls",
    "align.ladder_engaged",
    "distrib.candidates_evaluated",
    "commsim.elements_priced",
    "commsim.cache.prices",
    "commsim.cache.builds",
    "phases.dp.states_merged",
    "phases.pricer.hits",
    "phases.pricer.misses",
];

fn layer_of(span: &str) -> &str {
    match span.split('.').next().unwrap_or(span) {
        "adg" => "align",
        layer => layer,
    }
}

/// Raw quantities of one traced request: `self.<layer>_ns` for each layer,
/// `lp.solve_self_ns` (the exclusive time of the `lp.solve` span itself),
/// `request_ns`, `unattributed_ns`, and `count.<counter>` for each of
/// [`COUNTERS`].
pub fn request_sums(
    trace: &trace::Trace,
    counters: &trace::CounterSnapshot,
    wall_ns: u64,
) -> BTreeMap<String, f64> {
    let mut child_ns = vec![0u64; trace.spans.len()];
    for span in &trace.spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.dur_ns;
        }
    }
    let mut out = BTreeMap::new();
    for layer in LAYERS {
        out.insert(format!("self.{layer}_ns"), 0.0);
    }
    out.insert("lp.solve_self_ns".to_owned(), 0.0);
    let mut attributed = 0.0;
    for (span, &children) in trace.spans.iter().zip(&child_ns) {
        let own = span.dur_ns.saturating_sub(children) as f64;
        if let Some(slot) = out.get_mut(&format!("self.{}_ns", layer_of(span.name))) {
            *slot += own;
            attributed += own;
        }
        if span.name == "lp.solve" {
            *out.get_mut("lp.solve_self_ns").expect("inserted above") += own;
        }
    }
    out.insert("request_ns".to_owned(), wall_ns as f64);
    out.insert(
        "unattributed_ns".to_owned(),
        (wall_ns as f64 - attributed).max(0.0),
    );
    for name in COUNTERS {
        out.insert(format!("count.{name}"), counters.get(name) as f64);
    }
    out
}

/// Add one request's quantities into a running total.
pub fn accumulate(total: &mut BTreeMap<String, f64>, request: &BTreeMap<String, f64>) {
    for (k, v) in request {
        *total.entry(k.clone()).or_insert(0.0) += v;
    }
}

/// The ledger of one workload: self time per request of every layer,
/// largest first, then the unattributed rest.
pub fn render(workload: &str, totals: &BTreeMap<String, f64>, requests: usize) -> String {
    let get = |k: &str| totals.get(k).copied().unwrap_or(0.0);
    let per_request_ms = |ns: f64| ns / requests.max(1) as f64 / 1e6;
    let request_ns = get("request_ns");
    let share = |ns: f64| {
        if request_ns > 0.0 {
            ns / request_ns
        } else {
            0.0
        }
    };
    let mut rows: Vec<(&str, f64)> = LAYERS
        .iter()
        .map(|&l| (l, get(&format!("self.{l}_ns"))))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = format!(
        "ledger {workload}: {requests} traced requests, {:.3} ms/request traced\n",
        per_request_ms(request_ns)
    );
    for (layer, ns) in rows {
        out.push_str(&format!(
            "  {layer:<13} self {:>10.3} ms/request  {:>6.1}%\n",
            per_request_ms(ns),
            100.0 * share(ns)
        ));
    }
    let rest = get("unattributed_ns");
    out.push_str(&format!(
        "  {:<13} self {:>10.3} ms/request  {:>6.1}%\n",
        "unattributed",
        per_request_ms(rest),
        100.0 * share(rest)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        parent: Option<usize>,
    ) -> trace::SpanRecord {
        trace::SpanRecord {
            name,
            start_ns,
            dur_ns,
            depth: usize::from(parent.is_some()),
            parent,
        }
    }

    #[test]
    fn self_time_excludes_children_and_adg_counts_as_align() {
        let trace = trace::Trace {
            spans: vec![
                span("phases.pipeline", 0, 100, None),
                span("align.program", 10, 50, Some(0)),
                span("lp.solve", 20, 30, Some(1)),
                span("adg.build", 60, 5, Some(0)),
            ],
            ..trace::Trace::default()
        };
        let sums = request_sums(&trace, &trace::CounterSnapshot::default(), 120);
        assert_eq!(sums["self.phases_ns"], 45.0);
        assert_eq!(sums["self.align_ns"], 25.0);
        assert_eq!(sums["self.lp_ns"], 30.0);
        assert_eq!(sums["lp.solve_self_ns"], 30.0);
        assert_eq!(sums["unattributed_ns"], 20.0);
    }
}
