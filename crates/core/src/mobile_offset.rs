//! Mobile offset alignment by rounded linear programming (Section 4).
//!
//! For each template axis independently (the grid metric is separable), the
//! offset of every non-replicated port is an affine function of the LIVs of
//! its iteration space, `a0 + a1·i1 + ... + ak·ik`. The hard node constraints
//! come from [`crate::constraints`]; this module adds the objective: for each
//! edge and each *subrange* of its iteration space, a surrogate variable
//! bounds the absolute value of the weighted span
//! `Σ_{i∈subrange} w(i)·(off_src(i) − off_dst(i))` (Equation 3), assuming the
//! span does not change sign inside the subrange. Choosing subranges is what
//! distinguishes the five strategies of Section 4.2:
//!
//! * [`OffsetStrategy::Unrolling`] — every iteration its own subrange (exact,
//!   impractical for long loops);
//! * [`OffsetStrategy::SingleRange`] — one subrange per edge;
//! * [`OffsetStrategy::FixedPartition`] — `m` equal subranges per loop level
//!   (the paper's recommended compromise; cost is within `1 + 2/m²` of
//!   optimal, i.e. 22 % for `m = 3` and 8 % for `m = 5`);
//! * [`OffsetStrategy::ZeroCrossing`] — two subranges whose boundary is moved
//!   to the located zero crossing, iterated;
//! * [`OffsetStrategy::RecursiveRefinement`] — subranges containing a zero
//!   crossing are split there, iterated;
//! * [`OffsetStrategy::StateSpaceSearch`] — single-range seed followed by a
//!   greedy search over subrange configurations, accepting a refinement only
//!   when the exact cost improves.
//!
//! After the LP solves, the fractional coefficients are rounded to integers
//! (RLP) and written into the [`ProgramAlignment`].

use crate::constraints::{build_offset_constraints, OffsetLp};
use crate::cost::CostModel;
use crate::position::{OffsetAlign, ProgramAlignment};
use adg::{Adg, Edge, EdgeId, PortId};
use align_ir::{Affine, IterationSpace, LivId};
use lp::{Problem, Relation};
use std::collections::{BTreeMap, HashSet};

/// How often the rounding safety-net ladder of [`solve_axis_offsets`] has
/// engaged on the current thread. The counts live in the thread-local
/// `trace` registry (`align.ladder_engaged` / `align.single_range_engaged`);
/// this struct is the compatibility view the pre-trace API exposed, kept so
/// regression tests and callers read one typed snapshot. Thread-locality
/// means tests assert on their own solves without interference from
/// parallel test threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FallbackStats {
    /// Solves where the primary strategy blew up on rounding and the ladder
    /// ran at all.
    pub ladder_engaged: u64,
    /// Solves that fell all the way through to the `SingleRange` last-resort
    /// rung. Since the revised simplex took over the offset LPs this stays
    /// at zero on every built-in workload (locked in by tests).
    pub single_range_engaged: u64,
}

/// Current thread's fallback counters (a view over the `trace` registry).
pub fn fallback_stats() -> FallbackStats {
    FallbackStats {
        ladder_engaged: trace::counter("align.ladder_engaged"),
        single_range_engaged: trace::counter("align.single_range_engaged"),
    }
}

/// Reset the current thread's fallback counters (test setup).
pub fn reset_fallback_stats() {
    trace::reset_counter("align.ladder_engaged");
    trace::reset_counter("align.single_range_engaged");
}

/// Strategy for choosing iteration-space subranges (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetStrategy {
    /// Every iteration is its own subrange (exact, `|Z|` variables per edge).
    Unrolling,
    /// One subrange covering the whole iteration space.
    SingleRange,
    /// `m` equal subranges per loop level (`m^k` per edge in a `k`-nest).
    FixedPartition(usize),
    /// Two subranges; the boundary tracks the located zero crossing.
    ZeroCrossing { max_rounds: usize },
    /// Split any subrange containing a zero crossing; repeat.
    RecursiveRefinement { max_rounds: usize },
    /// Greedy search over subrange configurations from a single-range seed.
    StateSpaceSearch { max_steps: usize },
}

impl OffsetStrategy {
    /// Stable label for reports.
    pub fn name(&self) -> String {
        match self {
            OffsetStrategy::Unrolling => "unrolling".into(),
            OffsetStrategy::SingleRange => "single-range".into(),
            OffsetStrategy::FixedPartition(m) => format!("fixed-partition(m={m})"),
            OffsetStrategy::ZeroCrossing { .. } => "zero-crossing".into(),
            OffsetStrategy::RecursiveRefinement { .. } => "recursive-refinement".into(),
            OffsetStrategy::StateSpaceSearch { .. } => "state-space-search".into(),
        }
    }

    /// The paper's a-priori error bound `1 + 2/m²` where it applies
    /// (fixed partitioning); `None` for the adaptive strategies.
    pub fn error_bound(&self) -> Option<f64> {
        match self {
            OffsetStrategy::Unrolling => Some(1.0),
            OffsetStrategy::SingleRange => Some(3.0), // m = 1
            OffsetStrategy::FixedPartition(m) => Some(1.0 + 2.0 / ((*m * *m) as f64)),
            _ => None,
        }
    }
}

/// Configuration of the mobile-offset solver.
#[derive(Debug, Clone, Copy)]
pub struct MobileOffsetConfig {
    /// Subrange strategy.
    pub strategy: OffsetStrategy,
    /// Forbid mobile offsets entirely: every LIV coefficient is pinned to
    /// zero, leaving only static offsets. This is the static-alignment
    /// baseline of the Figure 1 experiment.
    pub forbid_mobile: bool,
    /// Simplex pricing rule for the offset LPs. Alternate optima of a flat
    /// LP round differently, so the fallback ladder retries a blown-up
    /// rounding under the other rule before reaching for coarser subranges.
    pub pricing: lp::PricingRule,
}

impl Default for MobileOffsetConfig {
    fn default() -> Self {
        // The paper advocates three-way fixed partitioning as "a good
        // compromise between speed, reliability, and quality".
        MobileOffsetConfig {
            strategy: OffsetStrategy::FixedPartition(3),
            forbid_mobile: false,
            pricing: lp::PricingRule::default(),
        }
    }
}

impl MobileOffsetConfig {
    /// A configuration using `strategy` with mobile offsets allowed.
    pub fn with_strategy(strategy: OffsetStrategy) -> Self {
        MobileOffsetConfig {
            strategy,
            ..MobileOffsetConfig::default()
        }
    }

    /// The static-offset baseline (mobile coefficients pinned to zero).
    pub fn static_only() -> Self {
        MobileOffsetConfig {
            forbid_mobile: true,
            ..MobileOffsetConfig::default()
        }
    }
}

/// Statistics from one per-axis offset solve.
#[derive(Debug, Clone)]
pub struct OffsetSolveReport {
    /// Template axis solved.
    pub axis: usize,
    /// Final LP objective (approximate predicted shift cost on this axis).
    pub lp_objective: f64,
    /// Exact shift cost on this axis after rounding.
    pub exact_cost: f64,
    /// Number of LP variables (offsets plus surrogates).
    pub num_vars: usize,
    /// Number of LP constraints.
    pub num_constraints: usize,
    /// Total number of subranges across all edges.
    pub num_subranges: usize,
    /// Number of refinement rounds actually used.
    pub rounds: usize,
    /// Label of the safety-net rung that produced the final offsets, or
    /// `None` when the configured strategy's own solution stood. Stays
    /// `None` on the built-in workloads now that the revised simplex solves
    /// the degenerate axis-0 systems directly.
    pub fallback: Option<&'static str>,
}

/// One subrange of an edge's iteration space together with its weight moments.
#[derive(Debug, Clone)]
struct Subrange {
    space: IterationSpace,
    /// `Σ_{i} w(i)` over the subrange.
    const_moment: f64,
    /// `Σ_{i} w(i)·i_liv` per LIV.
    liv_moments: BTreeMap<LivId, f64>,
}

fn make_subrange(edge: &Edge, space: IterationSpace) -> Subrange {
    let mut const_moment = 0.0;
    let mut liv_moments: BTreeMap<LivId, f64> = BTreeMap::new();
    for point in space.points() {
        let w = edge.weight.eval(&point) as f64 * edge.control_weight;
        const_moment += w;
        for &(l, v) in &point {
            *liv_moments.entry(l).or_insert(0.0) += w * v as f64;
        }
    }
    Subrange {
        space,
        const_moment,
        liv_moments,
    }
}

/// Initial subranges of an edge for a strategy.
fn initial_subranges(edge: &Edge, strategy: OffsetStrategy) -> Vec<Subrange> {
    let space = &edge.space;
    match strategy {
        OffsetStrategy::Unrolling => space
            .points()
            .into_iter()
            .map(|pt| {
                let mut s = IterationSpace::scalar();
                for (l, v) in &pt {
                    s = s.enter_loop(
                        *l,
                        align_ir::triplet::AffineTriplet::constant(align_ir::Triplet::single(*v)),
                    );
                }
                make_subrange(edge, s)
            })
            .collect(),
        OffsetStrategy::SingleRange | OffsetStrategy::StateSpaceSearch { .. } => {
            vec![make_subrange(edge, space.clone())]
        }
        OffsetStrategy::FixedPartition(m) => space
            .subranges(m.max(1))
            .into_iter()
            .map(|s| make_subrange(edge, s))
            .collect(),
        OffsetStrategy::ZeroCrossing { .. } => space
            .subranges(2)
            .into_iter()
            .map(|s| make_subrange(edge, s))
            .collect(),
        OffsetStrategy::RecursiveRefinement { .. } => {
            vec![make_subrange(edge, space.clone())]
        }
    }
}

/// Solve the offsets of one template axis and write them (rounded) into
/// `alignment`. Ports in `replicated` get [`OffsetAlign::Replicated`] on this
/// axis instead. Returns solve statistics.
/// The trace counter tracking how often each offset strategy is chosen as
/// the primary solve (`align.strategy.*`; ladder retries count their own
/// rung separately via `align.ladder_engaged`).
fn strategy_counter_name(strategy: OffsetStrategy) -> &'static str {
    match strategy {
        OffsetStrategy::Unrolling => "align.strategy.unrolling",
        OffsetStrategy::SingleRange => "align.strategy.single_range",
        OffsetStrategy::FixedPartition(_) => "align.strategy.fixed_partition",
        OffsetStrategy::ZeroCrossing { .. } => "align.strategy.zero_crossing",
        OffsetStrategy::RecursiveRefinement { .. } => "align.strategy.recursive_refinement",
        OffsetStrategy::StateSpaceSearch { .. } => "align.strategy.state_space_search",
    }
}

pub fn solve_axis_offsets(
    adg: &Adg,
    alignment: &mut ProgramAlignment,
    axis: usize,
    replicated: &HashSet<PortId>,
    config: MobileOffsetConfig,
) -> OffsetSolveReport {
    let _span = trace::span("align.solve_axis_offsets");
    trace::count(strategy_counter_name(config.strategy), 1);
    // Edges participating in the objective: both endpoints non-replicated.
    let cost_edges: Vec<(EdgeId, &Edge)> = adg
        .edges()
        .filter(|(_, e)| !replicated.contains(&e.src) && !replicated.contains(&e.dst))
        .collect();

    let mut subranges: BTreeMap<EdgeId, Vec<Subrange>> = cost_edges
        .iter()
        .map(|(id, e)| (*id, initial_subranges(e, config.strategy)))
        .collect();

    let max_rounds = match config.strategy {
        OffsetStrategy::ZeroCrossing { max_rounds }
        | OffsetStrategy::RecursiveRefinement { max_rounds } => max_rounds.max(1),
        OffsetStrategy::StateSpaceSearch { max_steps } => max_steps.max(1),
        _ => 1,
    };

    let mut best_report: Option<OffsetSolveReport> = None;
    let mut best_offsets: Option<Vec<Option<Affine>>> = None;

    let mut rounds = 0;
    loop {
        rounds += 1;
        let (report, offsets) = solve_once(
            adg,
            alignment,
            axis,
            replicated,
            &subranges,
            &cost_edges,
            config,
        );
        let improved = best_report
            .as_ref()
            .is_none_or(|b| report.exact_cost < b.exact_cost - 1e-9);
        if improved {
            best_report = Some(report.clone());
            best_offsets = Some(offsets.clone());
        }
        if rounds >= max_rounds {
            break;
        }
        // Refine subranges at observed zero crossings of the current solution.
        let splits = refine_subranges(
            adg,
            &cost_edges,
            &mut subranges,
            &offsets,
            matches!(config.strategy, OffsetStrategy::ZeroCrossing { .. }),
        );
        if splits == 0 {
            break;
        }
    }

    // Rounding safety net: on hard instances the LP can end in a degenerate
    // vertex whose coefficients are huge; rounding then destroys the span
    // cancellations and the exact cost explodes far past the LP objective
    // (the a-priori bound says it should stay within a small factor). When
    // that happens, retry with other subrange configurations — every retry
    // goes through the same hard node constraints, so feasibility is kept —
    // and keep whichever candidate is exact-best.
    //
    // Since the revised simplex took over the offset LPs the ladder is
    // shorter and `SingleRange` is a true last resort: the figure1-style
    // degenerate axis-0 systems that used to stall the tableau and lean on
    // the single-range rung now solve outright, and the thread-local
    // [`fallback_stats`] counters prove it (no built-in workload reaches the
    // last rung any more — locked in by tests).
    let blown_up = |r: &OffsetSolveReport| {
        !r.exact_cost.is_finite()
            || !r.lp_objective.is_finite()
            || (r.exact_cost > 4.0 * (r.lp_objective.abs() + 1.0) && r.exact_cost > 100.0)
    };
    if best_report.as_ref().is_some_and(blown_up) {
        trace::count("align.ladder_engaged", 1);
        let total_points: u64 = cost_edges.iter().map(|(_, e)| e.space.size()).sum();
        // Rung order: the *other* pricing rule first — it is the cheapest
        // retry of all (same subranges, same LP; a flat optimum has many
        // vertices and a different pricing path usually parks on one whose
        // coefficients round cleanly); then a finer fixed partition (cheap,
        // usually enough) under each rule in turn — rounding fragility is a
        // property of the (subranges, pricing-path) pair, so every strategy
        // rung gets both rules before the ladder escalates; the static
        // restriction next — pinning the array homes removes most of the
        // degeneracy that defeats the solver on hard mobile instances, so a
        // mobile solve that keeps failing degrades to the (always
        // meaningful) static solution instead of to garbage; exact
        // unrolling after that and only for small iteration spaces — its LP
        // has one surrogate pair per iteration *point* and is by far the
        // most expensive thing the ladder can do. `SingleRange` comes dead
        // last: its one-subrange objective is the coarsest approximation of
        // the lot (error bound 3x) and it only ever mattered as a crutch
        // for the tableau solver's stalls.
        let other_rule = match config.pricing {
            lp::PricingRule::Devex => lp::PricingRule::Dantzig,
            lp::PricingRule::Dantzig => lp::PricingRule::Devex,
        };
        let m5 = OffsetStrategy::FixedPartition(5);
        let ladder = [
            (config.strategy, false, other_rule, "other-pricing"),
            (m5, false, config.pricing, "fixed-partition(m=5)"),
            (m5, false, other_rule, "fixed-partition(m=5)+other-pricing"),
            (m5, true, config.pricing, "static"),
            (
                OffsetStrategy::Unrolling,
                false,
                config.pricing,
                "unrolling",
            ),
            (
                OffsetStrategy::SingleRange,
                false,
                config.pricing,
                "single-range",
            ),
        ];
        for (alt, force_static, pricing, label) in ladder {
            if matches!(alt, OffsetStrategy::Unrolling) && total_points > 1024 {
                continue;
            }
            if matches!(alt, OffsetStrategy::SingleRange) {
                trace::count("align.single_range_engaged", 1);
            }
            let alt_subranges: BTreeMap<EdgeId, Vec<Subrange>> = cost_edges
                .iter()
                .map(|(id, e)| (*id, initial_subranges(e, alt)))
                .collect();
            let alt_config = MobileOffsetConfig {
                forbid_mobile: config.forbid_mobile || force_static,
                pricing,
                ..config
            };
            let (mut report, offsets) = solve_once(
                adg,
                alignment,
                axis,
                replicated,
                &alt_subranges,
                &cost_edges,
                alt_config,
            );
            report.fallback = Some(label);
            let improved = best_report
                .as_ref()
                .is_none_or(|b| report.exact_cost < b.exact_cost - 1e-9);
            if improved {
                best_report = Some(report);
                best_offsets = Some(offsets);
            }
            if !best_report.as_ref().is_some_and(blown_up) {
                break;
            }
        }
    }

    // Write the best offsets into the alignment.
    let offsets = best_offsets.expect("at least one solve ran");
    for pid in adg.port_ids() {
        if replicated.contains(&pid) {
            alignment.port_mut(pid).offsets[axis] = OffsetAlign::Replicated;
        } else if let Some(a) = &offsets[pid.0] {
            alignment.port_mut(pid).offsets[axis] = OffsetAlign::Fixed(a.clone());
        }
    }
    let mut report = best_report.expect("at least one solve ran");
    report.rounds = rounds;
    // Re-price what was actually written. When only an infeasible fallback
    // was available, the violation penalty keeps the cost honestly huge (the
    // cost model prices broken node constraints, so no infinity marker is
    // needed any more).
    let model = CostModel::new(adg);
    report.exact_cost =
        model.shift_cost_on_axis(alignment, axis) + model.offset_violation_on_axis(alignment, axis);
    report
}

/// Build the LP for the current subranges, solve, round, and return the
/// per-port offsets plus statistics (without mutating `alignment`).
fn solve_once(
    adg: &Adg,
    alignment: &ProgramAlignment,
    axis: usize,
    replicated: &HashSet<PortId>,
    subranges: &BTreeMap<EdgeId, Vec<Subrange>>,
    cost_edges: &[(EdgeId, &Edge)],
    config: MobileOffsetConfig,
) -> (OffsetSolveReport, Vec<Option<Affine>>) {
    let OffsetLp { mut problem, vars } = build_offset_constraints(adg, alignment, axis, replicated);
    problem.set_pricing(config.pricing);
    // Snapshot of the hard node constraints (used only to cross-check the
    // cost model's violation pricing in debug builds — see below).
    #[cfg(debug_assertions)]
    let hard_constraints = problem.clone();

    if config.forbid_mobile {
        // Static baseline: the *homes* of the declared arrays may not move —
        // their ports' LIV coefficients are pinned to zero. A home port is
        // one carrying the whole array (same rank and extents as the array's
        // source). Derived values (section values, operator results) must
        // stay free: their positions are tied to moving subscripts by hard
        // node constraints, so pinning them too would make the LP infeasible
        // — a view sliding over a static array is still a static alignment.
        let homes: std::collections::BTreeMap<usize, (usize, Vec<Affine>)> = adg
            .nodes()
            .filter_map(|(_, n)| match n.kind {
                adg::NodeKind::Source { array } => n.output_ports().first().map(|&p| {
                    let port = adg.port(p);
                    (array.0, (port.rank, port.extents.clone()))
                }),
                _ => None,
            })
            .collect();
        for pid in adg.port_ids() {
            let port = adg.port(pid);
            let Some(array) = port.array else { continue };
            let is_home = homes
                .get(&array.0)
                .is_some_and(|(rank, extents)| port.rank == *rank && port.extents == *extents);
            if !is_home {
                continue;
            }
            if let Some(pv) = &vars.port_vars[pid.0] {
                for &v in &pv[1..] {
                    problem.add_constraint(vec![(v, 1.0)], Relation::Eq, 0.0);
                }
            }
        }
    }

    // Tie-breaking weight: when several solutions minimise the subrange
    // objective (e.g. when the optimum is communication-free), a small
    // penalty on the span at each subrange endpoint steers the LP towards
    // solutions whose span is pointwise zero rather than merely zero on
    // average across a subrange.
    let tie_eps = 1e-3;

    let mut num_subranges = 0;
    for (eid, edge) in cost_edges {
        let (Some(src), Some(dst)) = (vars.sym(edge.src), vars.sym(edge.dst)) else {
            continue;
        };
        let span = src.sub(&dst);
        for sub in &subranges[eid] {
            if sub.const_moment == 0.0 {
                continue;
            }
            num_subranges += 1;
            let expr = span.weighted_sum(sub.const_moment, &sub.liv_moments);
            add_abs_surrogate(&mut problem, &expr, 1.0);
            // Endpoint tie-breakers (pointless for single-iteration subranges,
            // whose main surrogate is already exact).
            if sub.space.size() > 1 {
                let pts = sub.space.points();
                if let (Some(first), Some(last)) = (pts.first(), pts.last()) {
                    for pt in [first, last] {
                        let at: Vec<(LivId, f64)> =
                            pt.iter().map(|&(l, v)| (l, v as f64)).collect();
                        let e = span.eval_point(&at);
                        add_abs_surrogate(&mut problem, &e, tie_eps * sub.const_moment.max(1.0));
                    }
                }
            }
        }
    }

    let num_vars = problem.num_vars();
    let num_constraints = problem.num_constraints();
    let solution = problem.solve();

    let mut offsets: Vec<Option<Affine>> = vec![None; adg.num_ports()];
    let lp_objective = match &solution {
        Ok(sol) => {
            for pid in adg.port_ids() {
                offsets[pid.0] = vars.rounded_offset(pid, sol);
            }
            sol.objective
        }
        Err(_) => {
            // Hard constraints should always be satisfiable; if the solver
            // gives up we fall back to all-zero offsets.
            for pid in adg.port_ids() {
                if !replicated.contains(&pid) {
                    offsets[pid.0] = Some(Affine::zero());
                }
            }
            f64::INFINITY
        }
    };

    // Exact cost of this candidate on this axis, as the cost model prices
    // it: the residual shift plus the violation penalty for any hard node
    // constraint the rounding (or an infeasible solve's all-zero fallback)
    // broke. Infeasible candidates used to be gated out by an explicit
    // post-hoc feasibility check; the cost model now prices them directly —
    // the penalty dwarfs every feasible candidate's cost, so they can only
    // win when no feasible candidate exists at all.
    let exact_cost = {
        let mut candidate = alignment.clone();
        for pid in adg.port_ids() {
            if replicated.contains(&pid) {
                candidate.port_mut(pid).offsets[axis] = OffsetAlign::Replicated;
            } else if let Some(a) = &offsets[pid.0] {
                candidate.port_mut(pid).offsets[axis] = OffsetAlign::Fixed(a.clone());
            }
        }
        let model = CostModel::new(adg);
        let violation = model.offset_violation_on_axis(&candidate, axis);

        // Cross-check (the old post-hoc gate, demoted to an assertion): a
        // candidate the LP's own hard-constraint system accepts must price
        // violation-free. The converse need not hold — the LP snapshot also
        // carries the deterministic translation pin, which is not a
        // semantic constraint.
        #[cfg(debug_assertions)]
        {
            let values = vars.values_from(&candidate, axis, hard_constraints.num_vars());
            debug_assert!(
                !hard_constraints.is_feasible(&values, 1e-6) || violation == 0.0,
                "cost model charges violation {violation} for an LP-feasible candidate on axis {axis}"
            );
        }

        model.shift_cost_on_axis(&candidate, axis) + violation
    };

    (
        OffsetSolveReport {
            axis,
            lp_objective,
            exact_cost,
            num_vars,
            num_constraints,
            num_subranges,
            rounds: 1,
            fallback: None,
        },
        offsets,
    )
}

/// Add `z >= |expr|` with objective coefficient `weight` on `z`.
fn add_abs_surrogate(problem: &mut Problem, expr: &crate::constraints::LinExpr, weight: f64) {
    let z = problem.add_nonneg_var("z", weight);
    // z - expr >= 0
    let mut terms = vec![(z, 1.0)];
    terms.extend(expr.terms.iter().map(|&(v, c)| (v, -c)));
    problem.add_constraint(terms, Relation::Ge, expr.constant);
    // z + expr >= 0
    let mut terms = vec![(z, 1.0)];
    terms.extend(expr.terms.iter().copied());
    problem.add_constraint(terms, Relation::Ge, -expr.constant);
}

/// Split subranges at zero crossings of the solved span. Returns the number
/// of splits performed. When `move_boundary` is set (zero-crossing tracking)
/// the edge is re-split into exactly two pieces at the crossing instead of
/// accumulating pieces.
fn refine_subranges(
    adg: &Adg,
    cost_edges: &[(EdgeId, &Edge)],
    subranges: &mut BTreeMap<EdgeId, Vec<Subrange>>,
    offsets: &[Option<Affine>],
    move_boundary: bool,
) -> usize {
    let mut splits = 0;
    for (eid, edge) in cost_edges {
        let (Some(src), Some(dst)) = (&offsets[edge.src.0], &offsets[edge.dst.0]) else {
            continue;
        };
        let span = src - dst;
        if span.is_constant() {
            continue;
        }
        let entry = subranges.get_mut(eid).expect("edge has subranges");
        if move_boundary {
            // Re-split the whole edge space at the first located crossing.
            if let Some(at) = crossing_ordinal(&edge.space, &span) {
                let new = split_space_at(&edge.space, at)
                    .into_iter()
                    .map(|s| make_subrange(edge, s))
                    .collect::<Vec<_>>();
                if new.len() > 1 {
                    *entry = new;
                    splits += 1;
                }
            }
            continue;
        }
        let mut new_list = Vec::with_capacity(entry.len() + 1);
        for sub in entry.drain(..) {
            match crossing_ordinal(&sub.space, &span) {
                Some(at) if sub.space.size() > 1 => {
                    for piece in split_space_at(&sub.space, at) {
                        new_list.push(make_subrange(edge, piece));
                    }
                    splits += 1;
                }
                _ => new_list.push(sub),
            }
        }
        *entry = new_list;
    }
    let _ = adg;
    splits
}

/// Find the ordinal (0-based position along the outermost loop level) at
/// which `span` changes sign inside `space`, if it does.
fn crossing_ordinal(space: &IterationSpace, span: &Affine) -> Option<i64> {
    if space.depth() == 0 {
        return None;
    }
    let pts = space.points();
    if pts.len() < 2 {
        return None;
    }
    // Walk the outermost LIV's distinct values in order.
    let outer = space.livs()[0];
    let mut prev_sign: Option<i64> = None;
    let mut seen: Vec<i64> = Vec::new();
    for p in &pts {
        let v = p
            .iter()
            .find(|(l, _)| *l == outer)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        if seen.last() == Some(&v) {
            continue;
        }
        seen.push(v);
        let s = span.eval_assoc(p).signum();
        if s == 0 {
            continue;
        }
        match prev_sign {
            None => prev_sign = Some(s),
            Some(ps) if ps != s => {
                return Some((seen.len() - 1) as i64);
            }
            _ => {}
        }
    }
    None
}

/// Split a space at ordinal `at` of its outermost level.
fn split_space_at(space: &IterationSpace, at: i64) -> Vec<IterationSpace> {
    if space.depth() == 0 {
        return vec![space.clone()];
    }
    let levels = space.levels();
    let outer = &levels[0];
    if !outer.range.is_constant() {
        return vec![space.clone()];
    }
    let t = outer.range.at(&[]);
    let (a, b) = t.split_at(at);
    let mut out = Vec::new();
    for piece in [a, b].into_iter().flatten() {
        let mut s = IterationSpace::scalar()
            .enter_loop(outer.liv, align_ir::triplet::AffineTriplet::constant(piece));
        for lvl in &levels[1..] {
            s = s.enter_loop(lvl.liv, lvl.range.clone());
        }
        out.push(s);
    }
    out
}

/// Solve the offsets of every template axis with the same configuration.
/// Returns one report per axis.
pub fn solve_all_offsets(
    adg: &Adg,
    alignment: &mut ProgramAlignment,
    replicated_per_axis: &[HashSet<PortId>],
    config: MobileOffsetConfig,
) -> Vec<OffsetSolveReport> {
    (0..alignment.template_rank)
        .map(|axis| {
            let empty = HashSet::new();
            let replicated = replicated_per_axis.get(axis).unwrap_or(&empty);
            solve_axis_offsets(adg, alignment, axis, replicated, config)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use adg::build_adg;
    use align_ir::programs;

    fn identity_alignment(adg: &Adg, template_rank: usize) -> ProgramAlignment {
        let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
        ProgramAlignment::identity(template_rank, &ranks)
    }

    fn solve_program(
        prog: &align_ir::Program,
        template_rank: usize,
        strategy: OffsetStrategy,
    ) -> (Adg, ProgramAlignment) {
        let adg = build_adg(prog);
        let mut alignment = identity_alignment(&adg, template_rank);
        let reps = vec![HashSet::new(); template_rank];
        solve_all_offsets(
            &adg,
            &mut alignment,
            &reps,
            MobileOffsetConfig::with_strategy(strategy),
        );
        (adg, alignment)
    }

    #[test]
    fn example1_offsets_remove_the_shift() {
        // Paper Example 1: aligning B(i) with [i-1] removes all communication.
        let (adg, alignment) = solve_program(
            &programs::example1(100),
            1,
            OffsetStrategy::FixedPartition(3),
        );
        let cost = CostModel::new(&adg).total_cost(&alignment);
        assert_eq!(cost.shift, 0.0, "offset alignment must remove the shift");
        assert_eq!(cost.general, 0.0);
    }

    #[test]
    fn figure1_mobile_offsets_remove_all_communication() {
        // Paper Figure 1 / Example 4: V needs the mobile alignment
        // [k, i - k + 1]; with it the loop runs without residual communication.
        let (adg, alignment) =
            solve_program(&programs::figure1(32), 2, OffsetStrategy::FixedPartition(3));
        let cost = CostModel::new(&adg).total_cost(&alignment);
        assert_eq!(
            cost.shift, 0.0,
            "mobile offsets must eliminate residual shifts: {cost}"
        );
        assert!(alignment.num_mobile() > 0, "V's alignment must be mobile");
    }

    #[test]
    fn figure1_static_offsets_cost_more_than_mobile() {
        // The best *static* offsets (mobile coefficients pinned to zero)
        // must pay Θ(n) shifts per iteration, while the mobile alignment is
        // communication-free — the core claim of Figure 1 / Example 4.
        let prog = programs::figure1(32);
        let adg = build_adg(&prog);
        let mut static_alignment = identity_alignment(&adg, 2);
        // The offset constraints assume the axis and stride phases ran (raw
        // identity axis maps are inconsistent for rank-changing sections,
        // which the feasibility check would rightly reject).
        crate::axis::solve_axes(&adg, &mut static_alignment);
        crate::stride::solve_strides(&adg, &mut static_alignment);
        let reps = vec![HashSet::new(); 2];
        solve_all_offsets(
            &adg,
            &mut static_alignment,
            &reps,
            MobileOffsetConfig::static_only(),
        );
        let static_cost = CostModel::new(&adg).total_cost(&static_alignment);
        let (_, mobile_alignment) = solve_program(&prog, 2, OffsetStrategy::FixedPartition(3));
        let mobile_cost = CostModel::new(&adg).total_cost(&mobile_alignment);
        assert!(
            mobile_cost.shift < static_cost.shift,
            "mobile {mobile_cost} must beat static {static_cost}"
        );
        assert!(static_cost.shift > 0.0);
    }

    #[test]
    fn skewed_sweep_mobile_offsets() {
        let (adg, alignment) = solve_program(
            &programs::skewed_sweep(24),
            1,
            OffsetStrategy::FixedPartition(3),
        );
        let cost = CostModel::new(&adg).total_cost(&alignment);
        // A and B slide in opposite directions; zero cost is impossible for
        // both, but the mobile solution must beat the static identity.
        let static_cost = CostModel::new(&adg).total_cost(&identity_alignment(&adg, 1));
        assert!(cost.shift <= static_cost.shift);
    }

    #[test]
    fn all_strategies_agree_on_straight_line_code() {
        for strategy in [
            OffsetStrategy::Unrolling,
            OffsetStrategy::SingleRange,
            OffsetStrategy::FixedPartition(3),
            OffsetStrategy::FixedPartition(5),
            OffsetStrategy::ZeroCrossing { max_rounds: 4 },
            OffsetStrategy::RecursiveRefinement { max_rounds: 4 },
            OffsetStrategy::StateSpaceSearch { max_steps: 4 },
        ] {
            let (adg, alignment) = solve_program(&programs::example1(64), 1, strategy);
            let cost = CostModel::new(&adg).total_cost(&alignment);
            assert_eq!(
                cost.shift,
                0.0,
                "strategy {} failed on example1",
                strategy.name()
            );
        }
    }

    #[test]
    fn fixed_partition_error_bound_holds_on_figure1() {
        // Unrolling is exact; fixed partitioning must stay within 1 + 2/m².
        let prog = programs::figure1(24);
        let (adg, exact) = solve_program(&prog, 2, OffsetStrategy::Unrolling);
        let exact_cost = CostModel::new(&adg).total_cost(&exact).shift;
        for m in [2usize, 3, 5] {
            let (_, approx) = solve_program(&prog, 2, OffsetStrategy::FixedPartition(m));
            let approx_cost = CostModel::new(&adg).total_cost(&approx).shift;
            let bound = 1.0 + 2.0 / ((m * m) as f64);
            assert!(
                approx_cost <= exact_cost.max(1e-9) * bound + 1e-6,
                "m={m}: approx {approx_cost} vs exact {exact_cost} (bound {bound})"
            );
        }
    }

    #[test]
    fn figure1_axis0_fixed_partition_solves_without_single_range_rung() {
        // Regression: the figure1 axis-0 offset system is exactly the shape
        // of degenerate LP that used to stall the dense tableau under
        // FixedPartition and only survive through the strategy ladder's
        // SingleRange rung. The revised simplex must solve it outright —
        // feasibly, with no ladder fallback at all.
        let prog = programs::figure1(32);
        let adg = build_adg(&prog);
        let mut alignment = identity_alignment(&adg, 2);
        crate::axis::solve_axes(&adg, &mut alignment);
        crate::stride::solve_strides(&adg, &mut alignment);
        reset_fallback_stats();
        let report = solve_axis_offsets(
            &adg,
            &mut alignment,
            0,
            &HashSet::new(),
            MobileOffsetConfig::with_strategy(OffsetStrategy::FixedPartition(3)),
        );
        let stats = fallback_stats();
        assert_eq!(
            stats.single_range_engaged, 0,
            "the SingleRange last resort must not fire on figure1 axis 0"
        );
        assert_eq!(
            report.fallback, None,
            "figure1 axis 0 must solve via the revised simplex alone, \
             not a ladder rung"
        );
        assert_eq!(stats.ladder_engaged, 0, "ladder must not even engage");
        // Feasible: the rounded offsets satisfy every hard node constraint.
        let model = CostModel::new(&adg);
        assert_eq!(
            model.offset_violation_on_axis(&alignment, 0),
            0.0,
            "axis-0 solution must satisfy the hard node constraints"
        );
        assert!(report.exact_cost.is_finite());
    }

    #[test]
    fn built_in_workloads_never_reach_single_range_rung() {
        // The counter that proves SingleRange is a dead rung on everything
        // the repo ships: all built-in programs across both template axes.
        reset_fallback_stats();
        let workloads: Vec<align_ir::Program> = vec![
            programs::example1(64),
            programs::figure1(32),
            programs::skewed_sweep(24),
            programs::figure4(8, 10, 3),
            programs::fft_like(32, 16),
            programs::multigrid_vcycle(32, 3, 3),
        ];
        for prog in workloads {
            let adg = build_adg(&prog);
            let rank = crate::axis::template_rank(&adg);
            let mut alignment = identity_alignment(&adg, rank);
            crate::axis::solve_axes(&adg, &mut alignment);
            crate::stride::solve_strides(&adg, &mut alignment);
            let reps = vec![HashSet::new(); rank];
            solve_all_offsets(&adg, &mut alignment, &reps, MobileOffsetConfig::default());
        }
        let stats = fallback_stats();
        assert_eq!(
            stats.single_range_engaged, 0,
            "SingleRange fired on a built-in workload: {stats:?}"
        );
    }

    #[test]
    fn fallback_stats_reset_and_report_field_default() {
        reset_fallback_stats();
        let stats = fallback_stats();
        assert_eq!(stats.ladder_engaged, 0);
        assert_eq!(stats.single_range_engaged, 0);
        let prog = programs::example1(16);
        let adg = build_adg(&prog);
        let mut alignment = identity_alignment(&adg, 1);
        let report = solve_axis_offsets(
            &adg,
            &mut alignment,
            0,
            &HashSet::new(),
            MobileOffsetConfig::default(),
        );
        assert_eq!(report.fallback, None);
    }

    #[test]
    fn report_statistics_are_populated() {
        let prog = programs::figure1(16);
        let adg = build_adg(&prog);
        let mut alignment = identity_alignment(&adg, 2);
        let report = solve_axis_offsets(
            &adg,
            &mut alignment,
            0,
            &HashSet::new(),
            MobileOffsetConfig::with_strategy(OffsetStrategy::FixedPartition(3)),
        );
        assert!(report.num_vars > 0);
        assert!(report.num_constraints > 0);
        assert!(report.num_subranges > 0);
        assert!(report.lp_objective >= -1e-9);
    }

    #[test]
    fn replicated_ports_get_replicated_offsets() {
        let prog = programs::figure4(8, 10, 3);
        let adg = build_adg(&prog);
        let mut alignment = identity_alignment(&adg, 2);
        // Replicate every rank-1 (t-valued) port along axis 1.
        let replicated: HashSet<PortId> =
            adg.port_ids().filter(|&p| adg.port(p).rank == 1).collect();
        solve_axis_offsets(
            &adg,
            &mut alignment,
            1,
            &replicated,
            MobileOffsetConfig::default(),
        );
        for p in &replicated {
            assert!(alignment.port(*p).offsets[1].is_replicated());
        }
    }

    #[test]
    fn strategy_names_and_bounds() {
        assert_eq!(
            OffsetStrategy::FixedPartition(3).name(),
            "fixed-partition(m=3)"
        );
        assert!(
            (OffsetStrategy::FixedPartition(3).error_bound().unwrap() - (1.0 + 2.0 / 9.0)).abs()
                < 1e-12
        );
        assert!((OffsetStrategy::FixedPartition(5).error_bound().unwrap() - 1.08).abs() < 1e-12);
        assert_eq!(OffsetStrategy::Unrolling.error_bound(), Some(1.0));
        assert_eq!(
            OffsetStrategy::ZeroCrossing { max_rounds: 3 }.error_bound(),
            None
        );
    }
}
