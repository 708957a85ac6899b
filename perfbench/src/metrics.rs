//! The metric catalogue: every metric the benchmark prints, with its unit,
//! its direction, and — for the per-layer metrics — the end-to-end metric
//! and workload it should move. `BENCHMARK.json` lists the same names; a
//! test keeps the two in step.

use std::collections::BTreeMap;

/// One metric's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [Metric; 7] = [
    lower("request_ms_p50", "ms"),
    lower("request_ms_p90", "ms"),
    higher("requests_per_s", "1/s"),
    lower("cpu_ms_per_request", "ms"),
    lower("peak_heap_mb", "MB"),
    lower("failed_share", "share"),
    lower("setup_s", "s"),
];

/// What the untraced pass measured, for the end-to-end metrics and for the
/// per-layer metrics that are read off the untraced pass.
#[derive(Debug, Clone, Default)]
pub struct Untraced {
    /// Latency of every attempted request, with its list index; a request
    /// that missed its deadline at the deadline.
    pub latencies_ms: Vec<(f64, usize)>,
    pub attempted: usize,
    pub completed: usize,
    pub failed: usize,
    /// Wall time of the closed loop, restarts included.
    pub wall_s: f64,
    /// CPU time of the worker processes over the loop, all threads.
    pub cpu_s: f64,
    pub peak_heap_bytes: u64,
    pub allocations: u64,
    /// Median of the set-up repetitions.
    pub setup_s: f64,
}

/// The end-to-end values, in [`END_TO_END`] order.
///
/// `failed_share` is the add-one estimate `(failed + 1) / (attempted + 1)`
/// of the failure probability: it is never 0, so a relative bound on it is
/// always defined, and one more failure always reads as worse.
pub fn end_to_end(u: &Untraced) -> Vec<(Metric, f64)> {
    let latencies: Vec<f64> = u.latencies_ms.iter().map(|&(ms, _)| ms).collect();
    let values = [
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.9),
        u.completed as f64 / u.wall_s,
        1e3 * u.cpu_s / u.attempted.max(1) as f64,
        u.peak_heap_bytes as f64 / 1e6,
        (u.failed + 1) as f64 / (u.attempted + 1) as f64,
        u.setup_s,
    ];
    END_TO_END.into_iter().zip(values).collect()
}

/// Linear interpolation between the closest ranks (0 for no samples).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One per-layer metric: identity, what it should move, and how it is read
/// from the traced totals.
pub struct LayerMetric {
    pub metric: Metric,
    /// The end-to-end metric and workload a change in this metric should
    /// show up in.
    pub moves: &'static str,
    pub value: fn(&LayerInputs) -> f64,
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Sums over the traced requests of [`crate::exec::Done::layers`].
    pub sums: &'a BTreeMap<String, f64>,
    /// Number of traced requests.
    pub traced: usize,
    /// Wall time of the same requests in the untraced pass.
    pub untraced_request_ns: f64,
    /// The untraced pass.
    pub untraced: &'a Untraced,
}

impl LayerInputs<'_> {
    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    fn per_request(&self, key: &str) -> f64 {
        ratio(self.sum(key), self.traced as f64)
    }

    fn ms(&self, key: &str) -> f64 {
        self.per_request(key) / 1e6
    }

    fn share(&self, part: &str, whole: &[&str]) -> f64 {
        ratio(self.sum(part), whole.iter().map(|k| self.sum(k)).sum())
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: [LayerMetric; 34] = [
    LayerMetric {
        metric: lower("lp.pivots_per_request", "count"),
        moves: "request_ms_p50 on generated_lp, suite",
        value: |i| i.per_request("count.lp.pivots"),
    },
    LayerMetric {
        metric: lower("lp.refactorisations_per_request", "count"),
        moves: "request_ms_p50 on generated_lp, suite",
        value: |i| i.per_request("count.lp.refactorisations"),
    },
    LayerMetric {
        metric: lower("lp.phase1_pivot_share", "share"),
        moves: "request_ms_p50 on generated_lp",
        value: |i| i.share("count.lp.phase1_pivots", &["count.lp.pivots"]),
    },
    LayerMetric {
        metric: lower("lp.ftran_dense_share", "share"),
        moves: "cpu_ms_per_request on generated_lp",
        value: |i| {
            i.share(
                "count.lp.ftran.dense",
                &["count.lp.ftran.dense", "count.lp.ftran.sparse"],
            )
        },
    },
    LayerMetric {
        metric: lower("lp.self_ms", "ms"),
        moves: "requests_per_s on generated_lp",
        value: |i| i.ms("self.lp_ns"),
    },
    LayerMetric {
        metric: lower("lp.ns_per_pivot", "ns"),
        moves: "requests_per_s on generated_lp",
        value: |i| ratio(i.sum("self.lp_ns"), i.sum("count.lp.pivots")),
    },
    LayerMetric {
        metric: lower("lp.solve_residual_ms", "ms"),
        moves: "failed_share, request_ms_p90 on generated_lp",
        value: |i| i.ms("lp.solve_self_ns"),
    },
    LayerMetric {
        metric: lower("align.atoms_ms", "ms"),
        moves: "request_ms_p50 on suite",
        value: |i| i.ms("probe.align_atoms_ns"),
    },
    LayerMetric {
        metric: lower("align.whole_ms", "ms"),
        moves: "request_ms_p90 on suite",
        value: |i| i.ms("probe.align_whole_ns"),
    },
    LayerMetric {
        metric: lower("align.calls_per_request", "count"),
        moves: "request_ms_p50 on generated_lp",
        value: |i| i.per_request("count.align.calls"),
    },
    LayerMetric {
        metric: lower("align.ladder_share", "share"),
        moves: "request_ms_p50 on generated_lp",
        value: |i| i.share("count.align.ladder_engaged", &["count.align.calls"]),
    },
    LayerMetric {
        metric: lower("align.self_ms", "ms"),
        moves: "request_ms_p50 on suite",
        value: |i| i.ms("self.align_ns"),
    },
    LayerMetric {
        metric: lower("distrib.search_ms", "ms"),
        moves: "request_ms_p50 on suite",
        value: |i| i.ms("probe.distrib_search_ns"),
    },
    LayerMetric {
        metric: lower("distrib.candidates_per_request", "count"),
        moves: "request_ms_p50 on suite",
        value: |i| i.per_request("count.distrib.candidates_evaluated"),
    },
    LayerMetric {
        metric: lower("distrib.self_ms", "ms"),
        moves: "request_ms_p50 on suite",
        value: |i| i.ms("self.distrib_ns"),
    },
    LayerMetric {
        metric: lower("commsim.sim_ms", "ms"),
        moves: "request_ms_p50 on suite",
        value: |i| i.ms("probe.commsim_sim_ns"),
    },
    LayerMetric {
        metric: lower("commsim.cache_build_ms", "ms"),
        moves: "request_ms_p50 on suite, verify_exact",
        value: |i| i.ms("probe.cache_build_ns"),
    },
    LayerMetric {
        metric: lower("commsim.cache_price_us", "us"),
        moves: "request_ms_p50 on suite, verify_exact",
        value: |i| i.per_request("probe.cache_price_ns") / 1e3,
    },
    LayerMetric {
        metric: lower("commsim.exact_replay_ms", "ms"),
        moves: "request_ms_p50 on verify_exact",
        value: |i| i.ms("probe.exact_replay_ns"),
    },
    LayerMetric {
        metric: lower("commsim.elements_priced_per_request", "count"),
        moves: "cpu_ms_per_request on verify_exact",
        value: |i| i.per_request("count.commsim.elements_priced"),
    },
    LayerMetric {
        metric: lower("commsim.prices_per_build", "count"),
        moves: "cpu_ms_per_request on verify_exact",
        value: |i| {
            ratio(
                i.sum("count.commsim.cache.prices"),
                i.sum("count.commsim.cache.builds"),
            )
        },
    },
    LayerMetric {
        metric: lower("commsim.sampling_error", "share"),
        moves: "none: estimator watch",
        value: |i| i.per_request("commsim.sampling_error"),
    },
    LayerMetric {
        metric: lower("commsim.self_ms", "ms"),
        moves: "request_ms_p50 on verify_exact",
        value: |i| i.ms("self.commsim_ns"),
    },
    LayerMetric {
        metric: lower("phases.layers_ms", "ms"),
        moves: "request_ms_p90 on suite",
        value: |i| i.ms("probe.phases_layers_ns"),
    },
    LayerMetric {
        metric: lower("phases.dp_ms", "ms"),
        moves: "request_ms_p90 on suite",
        value: |i| i.ms("probe.phases_dp_ns"),
    },
    LayerMetric {
        metric: lower("phases.dp_states_per_request", "count"),
        moves: "request_ms_p90 on suite",
        value: |i| i.per_request("count.phases.dp.states_merged"),
    },
    LayerMetric {
        metric: higher("phases.pricer_hit_share", "share"),
        moves: "request_ms_p90 on suite",
        value: |i| {
            i.share(
                "count.phases.pricer.hits",
                &["count.phases.pricer.hits", "count.phases.pricer.misses"],
            )
        },
    },
    LayerMetric {
        metric: lower("phases.self_ms", "ms"),
        moves: "request_ms_p90 on suite",
        value: |i| i.ms("self.phases_ns"),
    },
    LayerMetric {
        metric: lower("phases.plan_elements", "elements"),
        moves: "none: recorded, not gated",
        value: |i| i.per_request("phases.planned"),
    },
    LayerMetric {
        metric: lower("phases.plan_vs_static", "ratio"),
        moves: "none: recorded, not gated",
        value: |i| ratio(i.sum("phases.planned"), i.sum("phases.static_planned")),
    },
    LayerMetric {
        metric: higher("pool.cpu_per_wall", "ratio"),
        moves: "requests_per_s on suite",
        value: |i| ratio(i.untraced.cpu_s, i.untraced.wall_s),
    },
    LayerMetric {
        metric: lower("alloc.allocations_per_request", "count"),
        moves: "cpu_ms_per_request on all workloads",
        value: |i| ratio(i.untraced.allocations as f64, i.untraced.completed as f64),
    },
    LayerMetric {
        metric: lower("trace.overhead_share", "share"),
        moves: "none: ledger health",
        value: |i| ratio(i.sum("request_ns"), i.untraced_request_ns) - 1.0,
    },
    LayerMetric {
        metric: lower("trace.unattributed_share", "share"),
        moves: "none: ledger health",
        value: |i| i.share("unattributed_ns", &["request_ns"]),
    },
];
