//! One request, executed inside the worker process.
//!
//! A request plans one program with `try_align_then_distribute_dynamic` and
//! checks the answer: the cost must be finite and must equal, bit for bit,
//! the cost `simulate_dynamic` replays under the plan's own options.
//! `verify_exact` requests also replay the plan and the static baseline
//! exactly and render `explain`. Every check that fails is reported, never
//! raised: the parent counts it against `failed_share`.
//!
//! In the traced pass the same request runs with span recording on, and the
//! benchmark then times each layer's public entry points on the same
//! program, with spans off so the probes run at production speed.

use crate::ledger;
use crate::workload::{Request, Workload, NPROCS};
use commsim::SimOptions;
use distrib::FullPipelineConfig;
use phases::{DpPruning, DynamicConfig, DynamicPipelineResult};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What one request produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Done(Done),
    Failed(Failed),
}

/// A request that failed inside the worker.
#[derive(Debug, Clone, PartialEq)]
pub struct Failed {
    pub wall_ns: u64,
    /// The planner answered wrongly (a non-finite cost or a replay that
    /// disagrees with the planned cost) rather than not at all (a typed
    /// error or a panic).
    pub wrong: bool,
    pub reason: String,
}

/// A request that completed and passed its checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    /// Wall time of the request proper (program construction excluded).
    pub wall_ns: u64,
    /// Hash of the plan and of the always-on counter deltas of the request.
    pub fingerprint: u64,
    /// Allocations the request made, all threads.
    pub allocations: u64,
    /// Peak live heap of the request above the heap live when it started.
    pub peak_heap_bytes: u64,
    /// Raw per-layer quantities, traced pass only (see
    /// [`ledger::request_sums`]).
    pub layers: BTreeMap<String, f64>,
}

/// Execute `request` of `workload`. With `traced`, spans are recorded around
/// the request and the layer probes run after it.
pub fn execute(workload: Workload, request: &Request, traced: bool) -> Outcome {
    let program = request.kind.program();
    let config = DynamicConfig::default();
    trace::configure(trace::TraceConfig { spans: traced });
    drop(trace::take());
    bench::alloc::reset_peak();
    let heap_at_start = bench::alloc::stats();
    let counters_at_start = trace::CounterSnapshot::now();
    let start = Instant::now();

    let answer = catch_unwind(AssertUnwindSafe(|| {
        plan_and_check(workload, &program, &config)
    }));

    let wall_ns = start.elapsed().as_nanos() as u64;
    let counters = trace::CounterSnapshot::now().delta_since(&counters_at_start);
    let heap = bench::alloc::stats();
    trace::configure(trace::TraceConfig::default());
    let spans = trace::take();

    let failed = |wrong, reason| {
        Outcome::Failed(Failed {
            wall_ns,
            wrong,
            reason,
        })
    };
    let (result, exact) = match answer {
        Ok(Ok(Answer {
            wrong: Some(reason),
            ..
        })) => return failed(true, reason),
        Ok(Ok(Answer { result, exact, .. })) => (result, exact),
        Ok(Err(reason)) => return failed(false, reason),
        Err(panic) => return failed(false, format!("panic: {}", panic_message(&panic))),
    };

    let mut layers = BTreeMap::new();
    if traced {
        layers = ledger::request_sums(&spans, &counters, wall_ns);
        let exact = exact.unwrap_or_else(|| timed_exact_replay(&result));
        layers.insert("probe.exact_replay_ns".into(), exact.wall_ns as f64);
        let planned = result.dynamic.planned_cost;
        layers.insert(
            "commsim.sampling_error".into(),
            (planned - exact.dynamic).abs() / exact.dynamic.max(1.0),
        );
        layers.insert("phases.planned".into(), planned);
        layers.insert("phases.static_planned".into(), result.static_planned_cost);
        probe_layers(&program, &config, &mut layers);
    }

    Outcome::Done(Done {
        wall_ns,
        fingerprint: fingerprint(&result, &counters),
        allocations: heap.allocations - heap_at_start.allocations,
        peak_heap_bytes: heap.peak_bytes.saturating_sub(heap_at_start.current_bytes),
        layers,
    })
}

/// The exact replays of one plan: their wall time and the exact dynamic cost.
#[derive(Debug, Clone, Copy)]
struct ExactReplay {
    wall_ns: u64,
    dynamic: f64,
}

/// A plan and what its checks found.
struct Answer {
    result: DynamicPipelineResult,
    /// The exact replays, for `verify_exact` requests.
    exact: Option<ExactReplay>,
    /// The first check that failed.
    wrong: Option<String>,
}

/// Plan `program`, then run every check of the request; a failed check does
/// not cut the request short, so failed requests cost what passing ones do.
/// `Err` is a typed planner error.
fn plan_and_check(
    workload: Workload,
    program: &align_ir::Program,
    config: &DynamicConfig,
) -> Result<Answer, String> {
    let result = phases::try_align_then_distribute_dynamic(program, NPROCS, config)
        .map_err(|e| format!("typed error: {e}"))?;
    let mut wrong = None;
    let planned = result.dynamic.planned_cost;
    if !planned.is_finite() || !result.static_planned_cost.is_finite() {
        wrong = Some(format!(
            "non-finite cost: planned {planned}, static {}",
            result.static_planned_cost
        ));
    }
    let replay = {
        let _span = trace::span("commsim.replay");
        phases::simulate_dynamic(&result, result.config.sim).total_elements()
    };
    if replay.to_bits() != planned.to_bits() {
        wrong.get_or_insert(format!(
            "replay mismatch: planned {planned}, simulate_dynamic {replay}"
        ));
    }
    let mut exact = None;
    if workload.verifies_exactly() {
        let replay = timed_exact_replay(&result);
        if !replay.dynamic.is_finite() {
            wrong.get_or_insert(format!("non-finite exact replay: {}", replay.dynamic));
        }
        let report = {
            let _span = trace::span("phases.explain");
            phases::explain(&result)
        };
        if report.is_empty() {
            wrong.get_or_insert("explain rendered nothing".into());
        }
        exact = Some(replay);
    }
    Ok(Answer {
        result,
        exact,
        wrong,
    })
}

/// Exact `simulate_dynamic` plus exact `simulate_static` of `result`.
fn timed_exact_replay(result: &DynamicPipelineResult) -> ExactReplay {
    let _span = trace::span("commsim.exact_replay");
    let start = Instant::now();
    let dynamic = phases::simulate_dynamic(result, SimOptions::exact()).total_elements();
    let fixed = phases::simulate_static(result, SimOptions::exact()).total_elements();
    std::hint::black_box(fixed);
    ExactReplay {
        wall_ns: start.elapsed().as_nanos() as u64,
        dynamic,
    }
}

/// Time each layer's public entry point on `program`, in pipeline order,
/// with spans off.
fn probe_layers(
    program: &align_ir::Program,
    config: &DynamicConfig,
    out: &mut BTreeMap<String, f64>,
) {
    let mut time = |name: &str, start: Instant| {
        out.insert(name.to_owned(), start.elapsed().as_nanos() as f64);
    };
    let t = Instant::now();
    std::hint::black_box(phases::analyze_atoms(program, &config.alignment));
    time("probe.align_atoms_ns", t);

    let t = Instant::now();
    let (adg, alignment) = alignment_core::align_program(program, &config.alignment);
    time("probe.align_whole_ns", t);

    let full = FullPipelineConfig {
        alignment: config.alignment,
        distribution: config.distribution.clone(),
    };
    let t = Instant::now();
    let report = distrib::distribute_alignment(&adg, &alignment.alignment, NPROCS, &full);
    time("probe.distrib_search_ns", t);
    let best = &report.best().distribution;

    let t = Instant::now();
    std::hint::black_box(commsim::simulate(
        &adg,
        &alignment.alignment,
        best,
        config.sim,
    ));
    time("probe.commsim_sim_ns", t);

    let t = Instant::now();
    let cache = commsim::PlacementCache::new(&adg, &alignment.alignment, config.sim);
    time("probe.cache_build_ns", t);
    let t = Instant::now();
    std::hint::black_box(cache.price(best));
    time("probe.cache_price_ns", t);

    let t = Instant::now();
    let problem = phases::layout_dp_problem(program, NPROCS, config);
    time("probe.phases_layers_ns", t);
    let t = Instant::now();
    let plan = problem.solve(config.switch_margin, DpPruning::default());
    time("probe.phases_dp_ns", t);
    std::hint::black_box(plan.is_ok());
}

/// FNV-1a over everything that makes two executions of a request the same
/// execution: the cost bits, each phase's chosen signature, and every
/// always-on counter delta.
fn fingerprint(result: &DynamicPipelineResult, counters: &trace::CounterSnapshot) -> u64 {
    let mut text = format!(
        "{:x} {:x}",
        result.dynamic.planned_cost.to_bits(),
        result.static_planned_cost.to_bits()
    );
    for d in &result.dynamic.per_phase {
        text.push_str(&format!(" {:?}{:?}", d.grid(), d.layouts()));
    }
    for (name, value) in &counters.counters {
        text.push_str(&format!(" {name}={value}"));
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".into())
}
