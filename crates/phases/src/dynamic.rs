//! The per-array layout-state DP over phase candidate layers.
//!
//! After the per-phase distribution search, each phase contributes a layer
//! of ranked candidates. The old formulation priced a *global* layout per
//! phase: an edge from candidate `j` of phase `i` to candidate `k` of phase
//! `i+1` had to guess where an array that skips phases rests (the min over
//! the two adjacent candidates — an optimistic lower bound the simulator
//! did not share). This module replaces that layered shortest path with a
//! dynamic program whose state carries **each array's actual resting
//! signature**: the candidate layout chosen by the phase that last used it.
//! A transition into a phase prices exactly the arrays that phase touches,
//! each from its true last-use layout — the same accounting the
//! communication simulator uses, so the priced plan cost is *identical* to
//! the simulated plan cost (exact under `SimOptions::exact()`).
//!
//! Two paths that agree on the resting signature of every array still alive
//! merge into one state, so the state space stays small in practice (it is
//! the number of distinct "which phase last placed each live array where"
//! combinations, not the number of paths). When a layer does blow up, the
//! default [`DpPruning::Dominance`] mode drops a state only when another
//! state provably reaches every continuation at least as cheaply (exact
//! per-candidate move totals for the arrays the next phase prices, a
//! per-array move-cost upper bound for the arrays that carry through), so
//! pruning never changes the chosen plan. [`DpPruning::Exhaustive`] turns
//! pruning off; it is the ground truth the property tests compare against.

use crate::redist::RedistCost;
use align_ir::ArrayId;
use distrib::ProgramDistribution;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasher, RandomState};

/// Global identity of a candidate (grid, layout) signature within the
/// pipeline's shared pool. Per-array resting state is tracked as `SigId`s so
/// states hash and compare cheaply.
pub type SigId = usize;

/// One layer of the DP: a phase's candidate distributions.
#[derive(Debug, Clone)]
pub struct PhaseCandidates {
    /// Candidate distributions, cheapest-in-phase (by the model) first.
    pub dists: Vec<ProgramDistribution>,
    /// In-phase cost of each candidate in **simulated elements** (the
    /// phase's atoms played through `commsim` under the candidate, on the
    /// phase's covering template) — the same units the boundary moves are
    /// priced in, so the DP minimises end-to-end simulated traffic.
    pub costs: Vec<f64>,
    /// Global signature id of each candidate in the shared pool.
    pub sigs: Vec<SigId>,
}

/// One priced redistribution of one array at a phase boundary.
#[derive(Debug, Clone)]
pub struct RedistStep {
    /// Which array moves.
    pub array: ArrayId,
    /// Its name (for reports).
    pub name: String,
    /// Its per-axis element extents.
    pub extents: Vec<i64>,
    /// The phase that last used the array — where it actually rests. Not
    /// necessarily the phase adjacent to the boundary: an array that skips
    /// phases stays put (in its last-use layout) until the phase *before*
    /// its next use ends.
    pub src_phase: usize,
    /// The priced cost of the move (exact sampled owner comparison).
    pub cost: RedistCost,
}

/// The phase-analysis output: a distribution per phase plus the explicit
/// per-array redistribution steps between consecutive phases.
#[derive(Debug, Clone)]
pub struct DynamicDistribution {
    /// Index of the chosen candidate within each phase's layer.
    pub chosen: Vec<usize>,
    /// The chosen distribution of each phase.
    pub per_phase: Vec<ProgramDistribution>,
    /// Redistribution steps at each boundary (`phases - 1` entries) for the
    /// chosen path: one entry per array whose next use is the phase after
    /// the boundary.
    pub steps: Vec<Vec<RedistStep>>,
    /// The plan's priced cost in **simulated elements**: every phase's
    /// in-phase simulated traffic plus every per-array redistribution step,
    /// each priced from the array's true last-use layout. Equals
    /// `simulate_dynamic(..).total_elements()` under the same `SimOptions`
    /// (exactly, when the options are `SimOptions::exact()`).
    pub planned_cost: f64,
}

impl DynamicDistribution {
    /// Number of phases.
    pub fn num_phases(&self) -> usize {
        self.per_phase.len()
    }

    /// True when some boundary actually changes the distribution.
    pub fn redistributes(&self) -> bool {
        self.per_phase.windows(2).any(|w| w[0] != w[1])
            || self.steps.iter().flatten().any(|s| !s.cost.is_zero())
    }
}

impl std::fmt::Display for DynamicDistribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "dynamic distribution over {} phases (planned cost {:.1} simulated elements):",
            self.num_phases(),
            self.planned_cost
        )?;
        for (i, d) in self.per_phase.iter().enumerate() {
            writeln!(f, "  phase {i}: {d}")?;
            if let Some(steps) = self.steps.get(i) {
                for s in steps {
                    if !s.cost.is_zero() {
                        writeln!(
                            f,
                            "    redistribute {} (resting since phase {}): {}",
                            s.name, s.src_phase, s.cost
                        )?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// A malformed DP instance, reported instead of panicking so the
/// server-bound pipeline can surface a degenerate request as an error
/// response rather than a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutDpError {
    /// No phases at all: nothing to plan.
    NoPhases,
    /// `layers` and `refs` disagree about the number of phases.
    LayerCountMismatch {
        /// Number of candidate layers supplied.
        layers: usize,
        /// Number of reference sets supplied.
        refs: usize,
    },
    /// A phase arrived with an empty candidate list.
    EmptyLayer {
        /// The offending phase index.
        phase: usize,
    },
    /// A state layer was empty at backtrack time. No pruning mode empties
    /// a layer (the closure-pricer beam keeps at least one state), so this
    /// reports an internal inconsistency rather than a bad input.
    BacktrackFailed {
        /// The layer whose states ran out.
        phase: usize,
    },
}

impl std::fmt::Display for LayoutDpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutDpError::NoPhases => write!(f, "layout DP needs at least one phase"),
            LayoutDpError::LayerCountMismatch { layers, refs } => write!(
                f,
                "layout DP got {layers} candidate layers but {refs} reference sets"
            ),
            LayoutDpError::EmptyLayer { phase } => {
                write!(f, "phase {phase} has no candidate distributions")
            }
            LayoutDpError::BacktrackFailed { phase } => {
                write!(
                    f,
                    "no surviving DP state to backtrack through at phase {phase}"
                )
            }
        }
    }
}

impl std::error::Error for LayoutDpError {}

/// What the DP asks of its boundary-move pricer.
///
/// [`DpPricer::price`] is the exact per-cell query the DP always made; any
/// `FnMut(usize, ArrayId, SigId, SigId) -> f64` closure is a pricer via the
/// blanket impl. [`DpPricer::prefill`] lets a memoising pricer see a
/// layer's **complete query set up front**: the transition loop enumerates
/// every (previous state, candidate) pair unconditionally, so the distinct
/// `(array, src, dst)` cells it will ask about are known before the loop
/// runs, and a pricer can compute them in parallel (each cell is an
/// independent owner-comparison) while keeping its hit/miss accounting —
/// and therefore every trace counter — bitwise-identical to serial
/// on-demand pricing. [`DpPricer::wants_prefill`] also opts the pricer into
/// the structured layer path: the DP then prices each distinct cell exactly
/// once, reports the collapsed duplicate queries through
/// [`DpPricer::note_repeat_queries`], and runs the transition loop itself in
/// parallel over read-only price tables.
pub trait DpPricer {
    /// Exact price (in simulated elements) of moving `array` into phase
    /// `phase` from resting signature `src` to signature `dst`.
    fn price(&mut self, phase: usize, array: ArrayId, src: SigId, dst: SigId) -> f64;

    /// Announce the deduplicated query set of one layer before its
    /// transition loop. Default: ignore.
    fn prefill(&mut self, _phase: usize, _cells: &[(ArrayId, SigId, SigId)]) {}

    /// Whether [`DpPricer::prefill`] is worth calling and the structured
    /// (distinct-cell) layer path should be used. Default: no.
    fn wants_prefill(&self) -> bool {
        false
    }

    /// An upper bound on [`DpPricer::price`] for any move of `array`
    /// (any phase, any signature pair). Used by dominance pruning to bound
    /// the future-cost advantage of a differing carried-over resting spot;
    /// `INFINITY` (the default) disables that part of the rule.
    fn move_bound(&mut self, _array: ArrayId) -> f64 {
        f64::INFINITY
    }

    /// The structured layer path prices each distinct cell once and calls
    /// this with the number of duplicate queries it collapsed, so a
    /// memoising pricer can keep its hit counters identical to the
    /// per-query path. Default: ignore.
    fn note_repeat_queries(&mut self, _n: u64) {}
}

impl<F: FnMut(usize, ArrayId, SigId, SigId) -> f64> DpPricer for F {
    fn price(&mut self, phase: usize, array: ArrayId, src: SigId, dst: SigId) -> f64 {
        self(phase, array, src, dst)
    }
}

/// Default width at which [`DpPruning::Dominance`] starts spending effort.
/// Real workloads stay far below; the trigger only guards adversarial
/// inputs.
const MAX_STATES_PER_LAYER: usize = 4096;

/// How many of the cheapest states are tried as dominators against each
/// candidate victim — bounds the pruning pass at `O(width · POOL · K)`
/// instead of `O(width² · K)`.
const DOMINATOR_POOL: usize = 128;

/// How a layer that outgrows the trigger width is cut back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpPruning {
    /// Drop a state only when another state provably reaches every
    /// continuation at least as cheaply (exact per-candidate move totals
    /// for the next phase's arrays, [`DpPricer::move_bound`] for carried
    /// arrays, with a strict epsilon so ties always survive). Never changes
    /// the chosen plan. Runs only when a layer exceeds `trigger` states,
    /// and only on the structured pricer path ([`DpPricer::wants_prefill`]);
    /// a plain closure pricer has no price tables to bound dominance with,
    /// so it falls back to keeping the `trigger` cheapest states (at least
    /// one) — a beam that can lose optima.
    Dominance {
        /// Layer width above which the pruning pass runs.
        trigger: usize,
    },
    /// No pruning at all — the ground truth the property tests compare
    /// against.
    Exhaustive,
}

impl Default for DpPruning {
    fn default() -> Self {
        DpPruning::Dominance {
            trigger: MAX_STATES_PER_LAYER,
        }
    }
}

/// The per-array resting state: which pool signature each still-relevant
/// array last rested in. Kept as a sorted vec so it hashes as a map key.
type Resting = Vec<(ArrayId, SigId)>;

/// A state's resting map split for transition pricing: interned priced-row
/// ids plus the carried entries the current phase doesn't price.
type StatePartition = (Vec<usize>, Resting);

#[derive(Clone)]
struct DpState {
    resting: Resting,
    /// Search cost: exact cost plus the hysteresis margin per layout switch.
    cost: f64,
    /// Index of the predecessor state in the previous layer.
    back: usize,
    /// Candidate chosen for this layer.
    k: usize,
}

/// The chosen plan of [`solve_layout_dp`]: candidate indices per phase. The
/// caller materialises distributions, steps and the exact planned cost.
#[derive(Debug, Clone)]
pub struct LayoutDpPlan {
    /// Chosen candidate index per layer.
    pub chosen: Vec<usize>,
    /// The chosen path's search cost (in-phase costs plus priced moves plus
    /// the hysteresis margin per switch). With a zero margin this equals the
    /// exact planned cost the caller re-derives.
    pub cost: f64,
    /// Number of DP states that were alive per layer (diagnostic).
    pub states_per_layer: Vec<usize>,
}

#[inline]
fn bit_get(bits: &[u64], id: usize) -> bool {
    bits[id / 64] >> (id % 64) & 1 == 1
}

#[inline]
fn bit_set(bits: &mut [u64], id: usize) {
    bits[id / 64] |= 1 << (id % 64);
}

/// Solve the per-array layout-state DP with the default
/// [`DpPruning::Dominance`] policy.
///
/// * `layers` — one candidate layer per phase (with global signature ids);
/// * `refs` — the arrays each phase references (same length as `layers`);
/// * `switch_margin` — hysteresis: an array's move is charged this extra
///   amount *during the search* whenever its resting signature changes, so
///   a switch must beat staying put by a margin before the DP takes it
///   (guards against sampling noise flip-flopping layouts). The margin is
///   search-only — callers re-price the returned plan exactly;
/// * `move_cost` — exact price (in simulated elements) of moving `array`
///   into the given destination phase from resting signature `src` to the
///   destination phase's signature `dst` ([`DpPricer`]; any closure of the
///   same shape works). Called only for arrays the destination phase
///   touches that were referenced before; memoisation is the pricer's (the
///   same (phase, array, src, dst) query recurs across states).
pub fn solve_layout_dp(
    layers: &[PhaseCandidates],
    refs: &[BTreeSet<ArrayId>],
    switch_margin: f64,
    move_cost: &mut dyn DpPricer,
) -> Result<LayoutDpPlan, LayoutDpError> {
    solve_layout_dp_with(layers, refs, switch_margin, move_cost, DpPruning::default())
}

/// [`solve_layout_dp`] with an explicit pruning policy (benches and the
/// pruned-vs-exhaustive property tests pick their own).
pub fn solve_layout_dp_with(
    layers: &[PhaseCandidates],
    refs: &[BTreeSet<ArrayId>],
    switch_margin: f64,
    move_cost: &mut dyn DpPricer,
    pruning: DpPruning,
) -> Result<LayoutDpPlan, LayoutDpError> {
    let _span = trace::span("phases.dp.solve");
    if layers.is_empty() {
        return Err(LayoutDpError::NoPhases);
    }
    if layers.len() != refs.len() {
        return Err(LayoutDpError::LayerCountMismatch {
            layers: layers.len(),
            refs: refs.len(),
        });
    }
    if let Some(phase) = layers.iter().position(|l| l.dists.is_empty()) {
        return Err(LayoutDpError::EmptyLayer { phase });
    }

    let n = layers.len();
    let structured = move_cost.wants_prefill();
    // A closure pricer (no structured path, so no price tables to bound
    // dominance with) falls back to a beam at the trigger width. A zero
    // trigger still keeps one state: an empty layer has no plan.
    let beam = match pruning {
        DpPruning::Dominance { trigger } if !structured => Some(trigger.max(1)),
        _ => None,
    };

    // Per-phase array membership as bitsets: refs_bits[b] the arrays phase
    // b references, future_bits[b] the arrays any phase after b references
    // (the only arrays whose resting signature can still matter).
    let max_id = refs
        .iter()
        .flat_map(|s| s.iter())
        .map(|a| a.0)
        .max()
        .unwrap_or(0);
    let words = max_id / 64 + 1;
    let mut refs_bits = vec![vec![0u64; words]; n];
    for (b, set) in refs.iter().enumerate() {
        for a in set {
            bit_set(&mut refs_bits[b], a.0);
        }
    }
    let mut future_bits = vec![vec![0u64; words]; n];
    for b in (0..n.saturating_sub(1)).rev() {
        for w in 0..words {
            future_bits[b][w] = future_bits[b + 1][w] | refs_bits[b + 1][w];
        }
    }

    let mut arena = DedupArena::new();

    // Layer 0: one state per candidate.
    let mut state_layers: Vec<Vec<DpState>> = Vec::with_capacity(n);
    let mut first: Vec<DpState> = layers[0]
        .sigs
        .iter()
        .enumerate()
        .map(|(j, &sig)| DpState {
            resting: refs[0]
                .iter()
                .filter(|a| bit_get(&future_bits[0], a.0))
                .map(|&a| (a, sig))
                .collect(),
            cost: layers[0].costs[j],
            back: usize::MAX,
            k: j,
        })
        .collect();
    arena.dedup(&mut first, beam);
    state_layers.push(first);

    // Reusable per-layer scratch (the structured path's dedup arena spirit
    // extended to the whole layer: no per-layer map/vec reallocation).
    let mut rows: Vec<(ArrayId, SigId)> = Vec::new();
    let mut row_index: HashMap<(ArrayId, SigId), usize> = HashMap::new();
    let mut parts: Vec<StatePartition> = Vec::new();
    let mut cells: Vec<(ArrayId, SigId, SigId)> = Vec::new();
    let mut flat: Vec<f64> = Vec::new();
    let mut bound_cache: HashMap<ArrayId, f64> = HashMap::new();

    for b in 1..n {
        // Arrays this phase touches that still matter afterwards: the
        // phase's own (sorted) contribution to every successor state,
        // identical across candidates except for the signature.
        let touched: Vec<ArrayId> = refs[b]
            .iter()
            .copied()
            .filter(|a| bit_get(&future_bits[b], a.0))
            .collect();
        let k_count = layers[b].sigs.len();

        let mut next: Vec<DpState> = if structured {
            structured_layer(
                &mut state_layers[b - 1],
                &layers[b],
                &refs_bits[b],
                &future_bits[b],
                &touched,
                b,
                switch_margin,
                move_cost,
                pruning,
                &mut rows,
                &mut row_index,
                &mut parts,
                &mut cells,
                &mut flat,
                &mut bound_cache,
            )
        } else {
            // Legacy on-demand path: every (state, candidate, array) query
            // goes straight to the pricer, preserving the exact per-query
            // call pattern (and therefore every counter a memo-less pricer
            // books per call).
            let mut next: Vec<DpState> = Vec::new();
            let mut priced: Vec<(ArrayId, SigId)> = Vec::new();
            let mut carry: Vec<(ArrayId, SigId)> = Vec::new();
            for (prev_idx, s) in state_layers[b - 1].iter().enumerate() {
                // Partition the state's resting entries once (not once per
                // candidate): the entries this phase prices, in resting
                // order — the exact query sequence the pricer always saw —
                // and the entries that carry through unchanged.
                priced.clear();
                carry.clear();
                for &(a, src) in &s.resting {
                    if bit_get(&refs_bits[b], a.0) {
                        priced.push((a, src));
                    } else if bit_get(&future_bits[b], a.0) {
                        carry.push((a, src));
                    }
                }
                for (k, &sig) in layers[b].sigs.iter().enumerate() {
                    let mut cost = s.cost + layers[b].costs[k];
                    for &(a, src) in &priced {
                        cost += move_cost.price(b, a, src, sig);
                        if src != sig {
                            cost += switch_margin;
                        }
                    }
                    next.push(DpState {
                        resting: merge_resting(&carry, &touched, sig),
                        cost,
                        back: prev_idx,
                        k,
                    });
                }
            }
            let _ = k_count;
            next
        };
        arena.dedup(&mut next, beam);
        state_layers.push(next);
    }

    // Backtrack from the cheapest final state.
    let last = state_layers.last().unwrap();
    let (mut idx, best) = last
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost))
        .ok_or(LayoutDpError::BacktrackFailed { phase: n - 1 })?;
    let cost = best.cost;
    let mut chosen = vec![0usize; n];
    for b in (0..n).rev() {
        let s = state_layers[b]
            .get(idx)
            .ok_or(LayoutDpError::BacktrackFailed { phase: b })?;
        chosen[b] = s.k;
        idx = s.back;
    }

    let states_per_layer: Vec<usize> = state_layers.iter().map(Vec::len).collect();
    for &w in &states_per_layer {
        trace::record_value("phases.dp.layer_width", w as f64);
    }
    Ok(LayoutDpPlan {
        chosen,
        cost,
        states_per_layer,
    })
}

/// One layer of the structured path: assemble the layer's distinct
/// `(array, src)` pricing rows across all states, prefill + price each
/// distinct `(row, candidate)` cell exactly once into a flat table, prune
/// provably-dominated states, then run the transition loop in parallel over
/// the read-only table. Costs accumulate in the exact per-state order of
/// the serial path, so the produced states (and the chosen plan) are
/// bitwise identical at any worker count.
#[allow(clippy::too_many_arguments)]
fn structured_layer(
    prev: &mut Vec<DpState>,
    layer: &PhaseCandidates,
    refs_bits: &[u64],
    future_bits: &[u64],
    touched: &[ArrayId],
    b: usize,
    switch_margin: f64,
    move_cost: &mut dyn DpPricer,
    pruning: DpPruning,
    rows: &mut Vec<(ArrayId, SigId)>,
    row_index: &mut HashMap<(ArrayId, SigId), usize>,
    parts: &mut Vec<StatePartition>,
    cells: &mut Vec<(ArrayId, SigId, SigId)>,
    flat: &mut Vec<f64>,
    bound_cache: &mut HashMap<ArrayId, f64>,
) -> Vec<DpState> {
    let k_count = layer.sigs.len();

    // Partition every state's resting map and intern its priced entries as
    // rows (first-seen order), replacing the old per-layer HashSet rebuild.
    rows.clear();
    row_index.clear();
    parts.clear();
    for s in prev.iter() {
        let mut pr: Vec<usize> = Vec::with_capacity(s.resting.len());
        let mut ca: Vec<(ArrayId, SigId)> = Vec::new();
        for &(a, src) in &s.resting {
            if bit_get(refs_bits, a.0) {
                let rid = *row_index.entry((a, src)).or_insert_with(|| {
                    rows.push((a, src));
                    rows.len() - 1
                });
                pr.push(rid);
            } else if bit_get(future_bits, a.0) {
                ca.push((a, src));
            }
        }
        parts.push((pr, ca));
    }

    // Hand the memoising pricer the complete distinct query set, then price
    // each cell exactly once. The pricer books one hit-or-miss per cell
    // here, exactly as the serial loop's first query of each cell would.
    cells.clear();
    for &(a, src) in rows.iter() {
        for &sig in &layer.sigs {
            cells.push((a, src, sig));
        }
    }
    {
        let _span = trace::span("phases.dp.price");
        move_cost.prefill(b, cells);
        flat.clear();
        flat.resize(rows.len() * k_count, 0.0);
        for (r, &(a, src)) in rows.iter().enumerate() {
            for (ki, &sig) in layer.sigs.iter().enumerate() {
                flat[r * k_count + ki] = move_cost.price(b, a, src, sig);
            }
        }
    }

    // Dominance pruning, only when the layer outgrows the trigger: state x
    // dies when a cheaper state y reaches every candidate k at least
    // `eps` more cheaply, accounting exactly for the entries this phase
    // prices (same key set in every state — only signatures differ) and
    // bounding the carried entries' future advantage by move_bound + margin
    // per differing spot. A strict eps means no optimal state (or tie) is
    // ever dropped, so the chosen plan matches the exhaustive DP.
    let mut dominated = 0u64;
    if let DpPruning::Dominance { trigger } = pruning {
        if prev.len() > trigger {
            let w = prev.len();
            let mut move_tot = vec![0.0f64; w * k_count];
            for (si, (pr, _)) in parts.iter().enumerate() {
                for (ki, &sig) in layer.sigs.iter().enumerate() {
                    let mut t = 0.0;
                    for &r in pr {
                        t += flat[r * k_count + ki];
                        if rows[r].1 != sig {
                            t += switch_margin;
                        }
                    }
                    move_tot[si * k_count + ki] = t;
                }
            }
            let mut order: Vec<usize> = (0..w).collect();
            order.sort_by(|&i, &j| prev[i].cost.total_cmp(&prev[j].cost));
            let pool_n = order.len().min(DOMINATOR_POOL);
            let mut dead = vec![false; w];
            for &x in &order {
                if dead[x] {
                    continue;
                }
                let cx = prev[x].cost;
                let eps = 1e-6 * (1.0 + cx.abs());
                for &y in &order[..pool_n] {
                    if y == x || dead[y] {
                        continue;
                    }
                    let cy = prev[y].cost;
                    if cy > cx {
                        break;
                    }
                    // Future advantage of y's carried spots over x's.
                    let mut d_carry = 0.0;
                    let mut bounded = true;
                    for (ex, ey) in parts[x].1.iter().zip(parts[y].1.iter()) {
                        debug_assert_eq!(ex.0, ey.0, "states share resting keys");
                        if ex.1 != ey.1 {
                            let bnd = *bound_cache
                                .entry(ex.0)
                                .or_insert_with(|| move_cost.move_bound(ex.0));
                            if !bnd.is_finite() {
                                bounded = false;
                                break;
                            }
                            d_carry += bnd + switch_margin;
                        }
                    }
                    if !bounded {
                        continue;
                    }
                    let mut d_exact = f64::NEG_INFINITY;
                    for ki in 0..k_count {
                        let d = move_tot[y * k_count + ki] - move_tot[x * k_count + ki];
                        if d > d_exact {
                            d_exact = d;
                        }
                    }
                    if cx - cy > d_exact + d_carry + eps {
                        dead[x] = true;
                        break;
                    }
                }
            }
            if dead.iter().any(|&d| d) {
                dominated = dead.iter().filter(|&&d| d).count() as u64;
                let mut keep = 0usize;
                for (i, &is_dead) in dead.iter().enumerate() {
                    if !is_dead {
                        if keep != i {
                            prev.swap(keep, i);
                            parts.swap(keep, i);
                        }
                        keep += 1;
                    }
                }
                prev.truncate(keep);
                parts.truncate(keep);
            }
        }
    }
    if dominated > 0 {
        trace::count("phases.dp.dominated", dominated);
    }

    // Parallel transitions over the surviving states: each task reads the
    // frozen price table and accumulates its costs in the serial order
    // (state cost, in-phase cost, then each priced entry in resting order),
    // so the results are bitwise identical to the serial loop; flattening
    // in task order restores the serial state-major, candidate-minor order.
    let _span = trace::span("phases.dp.transitions");
    let prev_ref: &[DpState] = prev;
    let parts_ref: &[StatePartition] = parts;
    let rows_ref: &[(ArrayId, SigId)] = rows;
    let flat_ref: &[f64] = flat;
    let produced: Vec<Vec<DpState>> = pool::map(prev_ref.len(), |si| {
        let s = &prev_ref[si];
        let (pr, ca) = &parts_ref[si];
        let mut out = Vec::with_capacity(k_count);
        for (k, &sig) in layer.sigs.iter().enumerate() {
            let mut cost = s.cost + layer.costs[k];
            for &r in pr {
                cost += flat_ref[r * k_count + k];
                if rows_ref[r].1 != sig {
                    cost += switch_margin;
                }
            }
            out.push(DpState {
                resting: merge_resting(ca, touched, sig),
                cost,
                back: si,
                k,
            });
        }
        out
    });

    // The serial loop would have asked the pricer once per (state,
    // candidate, priced entry); the structured path asked once per distinct
    // cell. Report the collapsed duplicates so memo hit accounting stays
    // identical.
    let total_queries: usize = parts.iter().map(|(pr, _)| pr.len() * k_count).sum();
    let booked = rows.len() * k_count;
    if total_queries > booked {
        move_cost.note_repeat_queries((total_queries - booked) as u64);
    }

    produced.into_iter().flatten().collect()
}

/// New resting map after a phase: arrays the phase touches now rest in its
/// signature; everything else carries over; arrays with no future use drop
/// out (so equivalent paths merge). The two halves are sorted and disjoint,
/// so a linear merge produces the sorted map directly.
fn merge_resting(carry: &[(ArrayId, SigId)], touched: &[ArrayId], sig: SigId) -> Resting {
    let mut resting: Resting = Vec::with_capacity(carry.len() + touched.len());
    let (mut i, mut j) = (0, 0);
    while i < carry.len() && j < touched.len() {
        if carry[i].0 < touched[j] {
            resting.push(carry[i]);
            i += 1;
        } else {
            resting.push((touched[j], sig));
            j += 1;
        }
    }
    resting.extend_from_slice(&carry[i..]);
    resting.extend(touched[j..].iter().map(|&a| (a, sig)));
    resting
}

/// Reusable dedup scratch: one hasher and one bucket map for the whole
/// solve instead of a fresh allocation per layer.
struct DedupArena {
    hasher: RandomState,
    buckets: HashMap<u64, Vec<usize>>,
}

impl DedupArena {
    fn new() -> Self {
        DedupArena {
            hasher: RandomState::new(),
            buckets: HashMap::new(),
        }
    }

    /// Merge states with identical resting maps keeping the cheapest, then
    /// apply the optional beam cap. Future costs depend only on the resting
    /// map, so of two paths that park every still-live array in the same
    /// layout only the cheaper can be part of an optimal continuation — the
    /// survivor keeps its own `(k, back)` for backtracking.
    fn dedup(&mut self, states: &mut Vec<DpState>, beam: Option<usize>) {
        let before = states.len();
        // Bucket by resting-map hash so no state's resting vec is cloned
        // into a map key; collisions compare the actual maps.
        self.buckets.clear();
        let mut keep: Vec<DpState> = Vec::with_capacity(states.len());
        for s in states.drain(..) {
            let ids = self
                .buckets
                .entry(self.hasher.hash_one(&s.resting))
                .or_default();
            match ids.iter().copied().find(|&i| keep[i].resting == s.resting) {
                Some(i) => {
                    if s.cost < keep[i].cost {
                        keep[i] = s;
                    }
                }
                None => {
                    ids.push(keep.len());
                    keep.push(s);
                }
            }
        }
        trace::count("phases.dp.states_merged", (before - keep.len()) as u64);
        if let Some(cap) = beam {
            if keep.len() > cap {
                trace::count("phases.dp.states_pruned", (keep.len() - cap) as u64);
                keep.sort_by(|a, b| a.cost.total_cmp(&b.cost));
                keep.truncate(cap);
            }
        }
        *states = keep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrib::Layout;

    fn dist(grid: &[usize]) -> ProgramDistribution {
        let extents = vec![16i64; grid.len()];
        ProgramDistribution::new(&extents, grid, &vec![Layout::Block; grid.len()])
    }

    fn layer(costs: &[f64], grids: &[&[usize]], sigs: &[SigId]) -> PhaseCandidates {
        PhaseCandidates {
            dists: grids.iter().map(|g| dist(g)).collect(),
            costs: costs.to_vec(),
            sigs: sigs.to_vec(),
        }
    }

    fn one_array_refs(n: usize) -> Vec<BTreeSet<ArrayId>> {
        (0..n).map(|_| BTreeSet::from([ArrayId(0)])).collect()
    }

    #[test]
    fn switching_wins_when_redistribution_is_cheap() {
        // Phase 1 prefers candidate 0, phase 2 prefers candidate 1; moving
        // the array costs 1, staying is free.
        let layers = vec![
            layer(&[0.0, 100.0], &[&[4, 1], &[1, 4]], &[0, 1]),
            layer(&[100.0, 0.0], &[&[4, 1], &[1, 4]], &[0, 1]),
        ];
        let plan = solve_layout_dp(&layers, &one_array_refs(2), 0.0, &mut |_, _, src, dst| {
            if src == dst {
                0.0
            } else {
                1.0
            }
        })
        .unwrap();
        assert_eq!(plan.chosen, vec![0, 1]);
    }

    #[test]
    fn staying_wins_when_redistribution_is_expensive() {
        let layers = vec![
            layer(&[0.0, 10.0], &[&[4, 1], &[1, 4]], &[0, 1]),
            layer(&[10.0, 0.0], &[&[4, 1], &[1, 4]], &[0, 1]),
        ];
        let plan = solve_layout_dp(&layers, &one_array_refs(2), 0.0, &mut |_, _, src, dst| {
            if src == dst {
                0.0
            } else {
                1000.0
            }
        })
        .unwrap();
        // Either all-[4,1] or all-[1,4] costs 10; switching costs 1000.
        assert_eq!(plan.chosen[0], plan.chosen[1]);
    }

    #[test]
    fn single_phase_is_just_the_cheapest_candidate() {
        let layers = vec![layer(&[5.0, 3.0, 7.0], &[&[4], &[2], &[1]], &[0, 1, 2])];
        let plan = solve_layout_dp(&layers, &one_array_refs(1), 0.0, &mut |_, _, _, _| {
            unreachable!("no boundaries")
        })
        .unwrap();
        assert_eq!(plan.chosen, vec![1]);
    }

    #[test]
    fn three_layer_path_threads_through_the_middle() {
        // The middle layer's candidate 1 is expensive in-phase but the only
        // one with cheap moves from and to the neighbours' favourites.
        let layers = vec![
            layer(&[0.0, 50.0], &[&[4, 1], &[1, 4]], &[0, 1]),
            layer(&[5.0, 5.0], &[&[4, 1], &[2, 2]], &[0, 2]),
            layer(&[50.0, 0.0], &[&[4, 1], &[1, 4]], &[0, 1]),
        ];
        let plan = solve_layout_dp(
            &layers,
            &one_array_refs(3),
            0.0,
            &mut |_, _, src, dst| match (src, dst) {
                (0, 2) => 1.0,
                (2, 1) => 1.0,
                (a, c) if a == c => 3.0,
                _ => 100.0,
            },
        )
        .unwrap();
        // 0 (cost 0) -> move 1 -> sig2 (cost 5) -> move 1 -> sig1 (cost 0).
        assert_eq!(plan.chosen, vec![0, 1, 1]);
    }

    #[test]
    fn arrays_move_independently_through_untouched_phases() {
        // A is touched by phases 0 and 1; B by phases 0 and 2. B must NOT
        // pay for phase 1's switch: it rests in phase 0's layout until its
        // next use, so staying on sig 0 in phase 2 is free even though
        // phase 1 ran under sig 1.
        let a = ArrayId(0);
        let b = ArrayId(1);
        let refs = vec![
            BTreeSet::from([a, b]),
            BTreeSet::from([a]),
            BTreeSet::from([b]),
        ];
        let layers = vec![
            layer(&[0.0, 100.0], &[&[4, 1], &[1, 4]], &[0, 1]),
            layer(&[100.0, 0.0], &[&[4, 1], &[1, 4]], &[0, 1]),
            layer(&[0.0, 100.0], &[&[4, 1], &[1, 4]], &[0, 1]),
        ];
        let mut b_moves_priced = 0usize;
        let plan = solve_layout_dp(&layers, &refs, 0.0, &mut |phase, arr, src, dst| {
            if arr == b && phase == 2 {
                b_moves_priced += 1;
            }
            if src == dst {
                0.0
            } else {
                10.0
            }
        })
        .unwrap();
        // A flips for phase 1; B stays on sig 0 throughout.
        assert_eq!(plan.chosen, vec![0, 1, 0]);
        assert!(b_moves_priced > 0, "B's entry into phase 2 is priced");
    }

    #[test]
    fn switch_margin_holds_a_near_tie_in_place() {
        // Switching saves 1 element of in-phase cost but the margin demands
        // more: the plan stays put. With zero margin it switches.
        let layers = vec![
            layer(&[0.0, 5.0], &[&[4, 1], &[1, 4]], &[0, 1]),
            layer(&[1.0, 0.0], &[&[4, 1], &[1, 4]], &[0, 1]),
        ];
        let refs = one_array_refs(2);
        let mut free_moves = |_: usize, _: ArrayId, _: SigId, _: SigId| 0.0;
        let eager = solve_layout_dp(&layers, &refs, 0.0, &mut free_moves).unwrap();
        assert_eq!(eager.chosen, vec![0, 1]);
        let steady = solve_layout_dp(&layers, &refs, 2.0, &mut free_moves).unwrap();
        assert_eq!(steady.chosen, vec![0, 0]);
    }

    #[test]
    fn equivalent_paths_merge() {
        // Two arrays, three phases, 4 candidates each: the state space
        // stays bounded by distinct resting maps, not by path count.
        let a = ArrayId(0);
        let b = ArrayId(1);
        let refs: Vec<BTreeSet<ArrayId>> = (0..3).map(|_| BTreeSet::from([a, b])).collect();
        let grids: Vec<Vec<usize>> = vec![vec![4, 1], vec![1, 4], vec![2, 2], vec![4, 1]];
        let grid_refs: Vec<&[usize]> = grids.iter().map(|g| g.as_slice()).collect();
        let layers: Vec<PhaseCandidates> = (0..3)
            .map(|_| layer(&[1.0, 2.0, 3.0, 4.0], &grid_refs, &[0, 1, 2, 3]))
            .collect();
        let plan = solve_layout_dp(&layers, &refs, 0.0, &mut |_, _, src, dst| {
            if src == dst {
                0.0
            } else {
                1.0
            }
        })
        .unwrap();
        // Every phase touches both arrays, so the resting map is (sig, sig)
        // per candidate — at most 4 states per layer survive per choice.
        assert!(plan.states_per_layer.iter().all(|&s| s <= 4));
        assert_eq!(plan.chosen, vec![0, 0, 0]);
    }

    #[test]
    fn degenerate_inputs_report_typed_errors() {
        let refs = one_array_refs(1);
        assert_eq!(
            solve_layout_dp(&[], &[], 0.0, &mut |_, _, _, _| 0.0).unwrap_err(),
            LayoutDpError::NoPhases
        );
        let layers = vec![layer(&[1.0], &[&[4]], &[0])];
        assert_eq!(
            solve_layout_dp(&layers, &[], 0.0, &mut |_, _, _, _| 0.0).unwrap_err(),
            LayoutDpError::LayerCountMismatch { layers: 1, refs: 0 }
        );
        let empty = vec![PhaseCandidates {
            dists: vec![],
            costs: vec![],
            sigs: vec![],
        }];
        assert_eq!(
            solve_layout_dp(&empty, &refs, 0.0, &mut |_, _, _, _| 0.0).unwrap_err(),
            LayoutDpError::EmptyLayer { phase: 0 }
        );
    }

    /// A table-backed pricer that opts into the structured path, for
    /// exercising prefill + dominance the way the pipeline's `MovePricer`
    /// does.
    struct TablePricer {
        price_calls: usize,
        prefilled_cells: usize,
        repeats: u64,
        bound: f64,
    }

    impl DpPricer for TablePricer {
        fn price(&mut self, _phase: usize, _array: ArrayId, src: SigId, dst: SigId) -> f64 {
            self.price_calls += 1;
            if src == dst {
                0.0
            } else {
                (src as f64 - dst as f64).abs()
            }
        }
        fn prefill(&mut self, _phase: usize, cells: &[(ArrayId, SigId, SigId)]) {
            self.prefilled_cells += cells.len();
        }
        fn wants_prefill(&self) -> bool {
            true
        }
        fn move_bound(&mut self, _array: ArrayId) -> f64 {
            self.bound
        }
        fn note_repeat_queries(&mut self, n: u64) {
            self.repeats += n;
        }
    }

    #[test]
    fn structured_path_matches_serial_closure_path() {
        // Same cost structure priced through the structured (prefill +
        // flat-table + parallel transitions) path and the legacy per-query
        // closure path: identical plan and bitwise-identical cost.
        let a = ArrayId(0);
        let b = ArrayId(1);
        let refs = vec![
            BTreeSet::from([a, b]),
            BTreeSet::from([a]),
            BTreeSet::from([b]),
            BTreeSet::from([a, b]),
        ];
        let layers: Vec<PhaseCandidates> = vec![
            layer(&[0.0, 3.0, 9.0], &[&[4, 1], &[1, 4], &[2, 2]], &[0, 1, 2]),
            layer(&[7.0, 1.0, 2.0], &[&[4, 1], &[1, 4], &[2, 2]], &[0, 1, 2]),
            layer(&[2.0, 8.0, 1.0], &[&[4, 1], &[1, 4], &[2, 2]], &[0, 1, 2]),
            layer(&[5.0, 0.0, 4.0], &[&[4, 1], &[1, 4], &[2, 2]], &[0, 1, 2]),
        ];
        let mut table = TablePricer {
            price_calls: 0,
            prefilled_cells: 0,
            repeats: 0,
            bound: 2.0,
        };
        let structured = solve_layout_dp(&layers, &refs, 0.0, &mut table).unwrap();
        let serial = solve_layout_dp(&layers, &refs, 0.0, &mut |_, _, src: SigId, dst: SigId| {
            if src == dst {
                0.0
            } else {
                (src as f64 - dst as f64).abs()
            }
        })
        .unwrap();
        assert_eq!(structured.chosen, serial.chosen);
        assert_eq!(structured.cost.to_bits(), serial.cost.to_bits());
        assert!(table.prefilled_cells > 0, "structured path prefills");
        assert!(
            table.repeats > 0,
            "duplicate queries were collapsed and reported"
        );
    }

    #[test]
    fn dominance_pruning_matches_exhaustive_bitwise() {
        // Force pruning on every layer (trigger 1) and compare against the
        // exhaustive ground truth: same plan, bitwise-equal cost, and the
        // pruning must actually have fired (fewer states per layer).
        let a = ArrayId(0);
        let b = ArrayId(1);
        let c = ArrayId(2);
        let refs: Vec<BTreeSet<ArrayId>> = vec![
            BTreeSet::from([a, b, c]),
            BTreeSet::from([a]),
            BTreeSet::from([b]),
            BTreeSet::from([a, c]),
            BTreeSet::from([a, b, c]),
        ];
        let grids: Vec<Vec<usize>> = vec![vec![4, 1], vec![1, 4], vec![2, 2], vec![4, 1]];
        let grid_refs: Vec<&[usize]> = grids.iter().map(|g| g.as_slice()).collect();
        let costs: Vec<Vec<f64>> = vec![
            vec![5.0, 20.0, 35.0, 10.0],
            vec![40.0, 2.5, 20.0, 30.0],
            vec![15.0, 15.0, 7.5, 25.0],
            vec![30.0, 20.0, 5.0, 12.5],
            vec![0.0, 50.0, 22.5, 40.0],
        ];
        let layers: Vec<PhaseCandidates> = costs
            .iter()
            .map(|cs| layer(cs, &grid_refs, &[0, 1, 2, 3]))
            .collect();
        let mut exact_pricer = TablePricer {
            price_calls: 0,
            prefilled_cells: 0,
            repeats: 0,
            bound: 3.0,
        };
        let exhaustive = solve_layout_dp_with(
            &layers,
            &refs,
            0.0,
            &mut exact_pricer,
            DpPruning::Exhaustive,
        )
        .unwrap();
        let mut pruned_pricer = TablePricer {
            price_calls: 0,
            prefilled_cells: 0,
            repeats: 0,
            bound: 3.0,
        };
        let pruned = solve_layout_dp_with(
            &layers,
            &refs,
            0.0,
            &mut pruned_pricer,
            DpPruning::Dominance { trigger: 1 },
        )
        .unwrap();
        assert_eq!(pruned.chosen, exhaustive.chosen);
        assert_eq!(pruned.cost.to_bits(), exhaustive.cost.to_bits());
        let pruned_total: usize = pruned.states_per_layer.iter().sum();
        let full_total: usize = exhaustive.states_per_layer.iter().sum();
        assert!(
            pruned_total < full_total,
            "dominance actually pruned ({pruned_total} vs {full_total} states)"
        );
    }

    #[test]
    fn zero_trigger_still_plans_through_the_closure_beam() {
        // A closure pricer has no structured path, so `Dominance` falls
        // back to a beam at the trigger width. A zero trigger must keep one
        // state per layer, not empty every layer.
        let layers = vec![
            layer(&[0.0, 100.0], &[&[4, 1], &[1, 4]], &[0, 1]),
            layer(&[100.0, 0.0], &[&[4, 1], &[1, 4]], &[0, 1]),
        ];
        let before = trace::counter("phases.dp.states_pruned");
        let plan = solve_layout_dp_with(
            &layers,
            &one_array_refs(2),
            0.0,
            &mut |_: usize, _: ArrayId, src: SigId, dst: SigId| {
                if src == dst {
                    0.0
                } else {
                    1.0
                }
            },
            DpPruning::Dominance { trigger: 0 },
        )
        .expect("a zero trigger keeps one state per layer");
        assert_eq!(plan.chosen, vec![0, 1]);
        assert_eq!(plan.states_per_layer, vec![1, 1]);
        // Layer 0 drops its dearer state; the last layer's states carry no
        // live array, so they merge instead of being pruned.
        assert_eq!(trace::counter("phases.dp.states_pruned") - before, 1);
    }
}
