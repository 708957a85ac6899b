//! The three-stage pipeline: align → distribute per phase → redistribute
//! between phases — built on a **single analysis per atom** and priced by a
//! **per-array layout-state DP** whose plan cost is exactly what the
//! communication simulator reports.
//!
//! [`align_then_distribute_dynamic`] fissions the program into distributable
//! atoms (loop distribution, [`align_ir::fission`]), aligns each atom
//! exactly once ([`crate::segment::analyze_atoms`]), and threads that one
//! [`AtomAnalysis`] through everything downstream. Candidate generation
//! searches the (grid, layout) signature space **once per phase** on the
//! phase's covering template ([`distrib::solve_distribution_pooled`]) —
//! atoms never re-enumerate the same grids — and every phase prices the
//! shared signature pool so "staying put" is always a comparable option.
//!
//! The decision layer is exact: each candidate's in-phase cost is its
//! **simulated element traffic** (every atom played through `commsim` under
//! the candidate instantiated on the phase's covering template), and the
//! per-array layout-state DP ([`crate::dynamic::solve_layout_dp`]) prices a
//! transition into a phase as the exact redistribution of just the arrays
//! that phase touches, each from the layout chosen by the phase that
//! *actually last used it* — no min-over-adjacent-candidates guess, no
//! per-gap special case. The plan's [`DynamicDistribution::planned_cost`]
//! therefore equals [`simulate_dynamic`]'s total under the same
//! [`SimOptions`] (identical under [`SimOptions::exact`]) — the priced plan
//! *is* the simulated plan.
//!
//! Boundary selection is DAG-driven with hysteresis: detection proposes
//! seams generously, the DP decides which to use (a layout switch must beat
//! staying put by [`DynamicConfig::switch_margin`]), and proposed seams the
//! chosen path leaves unused — same layout and same covering template on
//! both sides, no array actually moving, so the merge is exactly
//! cost-neutral — are coalesced away: a per-array move never forces a
//! global cut.

use crate::dynamic::{
    solve_layout_dp, solve_layout_dp_with, DpPricer, DpPruning, DynamicDistribution, LayoutDpError,
    LayoutDpPlan, PhaseCandidates, RedistStep, SigId,
};
use crate::redist::{price_resting, RedistCost};
use crate::segment::{analyze_atoms, detect_boundaries, AtomAnalysis, SegmentationConfig};
use adg::{Adg, NodeKind, PortId};
use align_ir::{ArrayId, Program};
use alignment_core::pipeline::PipelineConfig;
use alignment_core::position::PortAlignment;
use commsim::{identical_placement_traffic, simulate, RestingPlacement, SimOptions, SimReport};
use distrib::{
    align_then_distribute, distribute_alignment, solve_distribution_pooled, DistributionCost,
    DistributionCostModel, DistributionReport, FullPipelineConfig, FullPipelineResult, Layout,
    ProgramDistribution, RankedDistribution, SolveConfig,
};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

/// Configuration of the dynamic pipeline.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Alignment configuration (used for each atom and for the static
    /// baseline).
    pub alignment: PipelineConfig,
    /// Distribution search per phase, minus the processor count. `None` keys
    /// every knob off [`SolveConfig::new`].
    pub distribution: Option<SolveConfig>,
    /// Safety bound on the candidate layer size per phase, applied (by
    /// ascending model cost) before the DP; every phase's model optimum is
    /// exempt — it stays in every layer even past the cap, so "staying put"
    /// on a favourite is always priced (layers are therefore bounded by
    /// `cap + #phases`).
    pub max_candidates_per_phase: usize,
    /// Explicit phase boundaries — indices into the **distributable atom**
    /// sequence ([`Program::distributable_atoms`]) — overriding detection.
    /// `None` runs [`detect_boundaries`].
    pub boundaries: Option<Vec<usize>>,
    /// Residual-volume threshold below which an atom is neutral during
    /// boundary detection.
    pub neutral_volume: f64,
    /// Sampling bounds for all plan pricing (in-phase simulation and
    /// redistribution pricing). [`DynamicDistribution::planned_cost`] is
    /// exact when this is [`SimOptions::exact`].
    pub sim: SimOptions,
    /// Hysteresis of the layout-state DP: during the search an array's
    /// layout switch is charged this many extra elements, so a switch must
    /// beat staying put by a margin before the plan takes it (guards
    /// against sampling noise flip-flopping layouts). Search-only — the
    /// returned plan is re-priced exactly, without the margin.
    pub switch_margin: f64,
    /// DAG-driven boundary selection: when true (the default), detected
    /// boundaries the chosen path does not use — identical layout and
    /// identical covering template on both sides, no array paying any
    /// redistribution — are coalesced away and the adjacent phases merged.
    /// The equal-cover requirement makes every merge exactly cost-neutral.
    pub coalesce_phases: bool,
    /// Memoise redistribution pricing in the layout-state DP (the
    /// `MovePricer` cache). On by default; turning it off re-prices every
    /// `(phase, array, src, dst)` query from scratch. The plan is
    /// unchanged — this is an ablation/diagnostic knob, and the canonical
    /// "injected algorithmic regression" the counter gate's tests use:
    /// disabling it shifts `phases.pricer.*` and the downstream `commsim.*`
    /// pricing counters without moving any cost.
    pub pricer_memo: bool,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            alignment: PipelineConfig::default(),
            distribution: None,
            max_candidates_per_phase: 12,
            boundaries: None,
            neutral_volume: 0.0,
            sim: SimOptions::default(),
            switch_margin: 0.0,
            coalesce_phases: true,
            pricer_memo: true,
        }
    }
}

impl DynamicConfig {
    fn solve_config(&self, nprocs: usize) -> SolveConfig {
        match &self.distribution {
            Some(cfg) => SolveConfig {
                nprocs,
                ..cfg.clone()
            },
            None => SolveConfig::new(nprocs),
        }
    }
}

/// Everything one phase produced. A phase is a contiguous run of atoms;
/// everything here is assembled from the atoms' single analyses — the phase
/// is never re-aligned as a whole.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Atom-index range `[start, end)` of the phase within the program's
    /// distributable-atom sequence.
    pub atom_range: (usize, usize),
    /// Top-level statement span `[start, end)` the phase's atoms originate
    /// from. Spans of adjacent phases overlap when loop distribution split
    /// one statement across a boundary.
    pub range: (usize, usize),
    /// The phase's atoms, each carrying its one-and-only analysis.
    pub atoms: Vec<AtomAnalysis>,
    /// Each atom's own template extents (diagnostic; pricing and simulation
    /// always instantiate candidates on the covering template,
    /// `report.template_extents`).
    pub atom_templates: Vec<Vec<i64>>,
    /// The phase-level report: one signature-space search over all the
    /// phase's atoms (shared enumeration), re-priced over the shared pool,
    /// ranked ascending by model cost on the phase's covering template.
    /// `best()` is the phase's model optimum.
    pub report: DistributionReport,
}

impl PhaseResult {
    /// The arrays this phase reads or assigns.
    pub fn referenced(&self) -> BTreeSet<ArrayId> {
        let mut out = BTreeSet::new();
        for a in &self.atoms {
            out.extend(a.referenced.iter().copied());
        }
        out
    }

    /// The covering template the phase's candidates are instantiated on:
    /// the elementwise max of its atoms' template extents. Pricing every
    /// atom on this shared cover (rather than on its own, possibly smaller
    /// template) is what keeps intra-phase seams honest — an atom touching
    /// a half-sized array sees the same block boundaries the rest of the
    /// phase sees, instead of a twice-as-fine grid that inflates its shift
    /// traffic.
    pub fn cover_extents(&self) -> &[i64] {
        &self.report.template_extents
    }
}

/// A (grid, per-axis layout) signature — the portable identity of a
/// distribution, instantiable on any template extents. Per-array layout
/// state in the DP is tracked as indices ([`SigId`]) into the shared pool
/// of these.
pub type Sig = (Vec<usize>, Vec<Layout>);

/// Adapt a signature to a template of rank `rank`: missing axes get one
/// processor (BLOCK), excess grid dimensions are folded into the last kept
/// one (preserving the processor count).
fn adapt_sig(sig: &Sig, rank: usize) -> Sig {
    let (grid, layouts) = sig;
    let rank = rank.max(1);
    match grid.len().cmp(&rank) {
        std::cmp::Ordering::Equal => sig.clone(),
        std::cmp::Ordering::Less => {
            let mut g = grid.clone();
            let mut l = layouts.clone();
            g.resize(rank, 1);
            l.resize(rank, Layout::Block);
            (g, l)
        }
        std::cmp::Ordering::Greater => {
            let mut g = grid[..rank].to_vec();
            let folded: usize = grid[rank - 1..].iter().product();
            g[rank - 1] = folded;
            (g, layouts[..rank].to_vec())
        }
    }
}

/// Instantiate a signature on a concrete template.
fn instantiate(sig: &Sig, extents: &[i64]) -> ProgramDistribution {
    let (grid, layouts) = adapt_sig(sig, extents.len());
    ProgramDistribution::new(extents, &grid, &layouts)
}

/// The portable signature of a concrete distribution.
fn sig_of(d: &ProgramDistribution) -> Sig {
    (d.grid(), d.layouts())
}

/// A one-line digest of what one [`align_then_distribute_dynamic`] run did
/// internally, assembled from the trace-counter deltas of the run (so
/// identical solves report identical numbers). Spans are counted only when
/// span recording is enabled ([`trace::TraceConfig`]); every other field is
/// always live.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveSummary {
    /// Timed spans the run recorded (0 with tracing disabled).
    pub spans: usize,
    /// Widest layer of the layout-state DP (live states after merging).
    pub peak_dp_layer_width: usize,
    /// Memoised boundary-pricing lookups answered from the memo.
    pub pricer_hits: u64,
    /// Boundary-pricing lookups that had to price from scratch.
    pub pricer_misses: u64,
    /// LP simplex pivots spent across all alignment solves.
    pub lp_pivots: u64,
}

impl SolveSummary {
    fn from_run(
        at_entry: &trace::CounterSnapshot,
        spans: usize,
        peak_dp_layer_width: usize,
    ) -> SolveSummary {
        let delta = trace::CounterSnapshot::now().delta_since(at_entry);
        let get = |name: &str| delta.counters.get(name).copied().unwrap_or(0);
        SolveSummary {
            spans,
            peak_dp_layer_width,
            pricer_hits: get("phases.pricer.hits"),
            pricer_misses: get("phases.pricer.misses"),
            lp_pivots: get("lp.pivots"),
        }
    }

    /// Fraction of boundary-pricing lookups answered from the memo, as a
    /// percentage (0 when the run priced no boundaries).
    pub fn pricer_hit_pct(&self) -> f64 {
        let total = self.pricer_hits + self.pricer_misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.pricer_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for SolveSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "solve: {} spans, peak DP layer {}, pricer hit {:.0}% ({}/{}), {} LP pivots",
            self.spans,
            self.peak_dp_layer_width,
            self.pricer_hit_pct(),
            self.pricer_hits,
            self.pricer_hits + self.pricer_misses,
            self.lp_pivots
        )
    }
}

/// The dynamic pipeline's full output.
#[derive(Debug, Clone)]
pub struct DynamicPipelineResult {
    /// Processor count everything is distributed over.
    pub nprocs: usize,
    /// Per-phase analyses, in program order (after boundary coalescing).
    pub phases: Vec<PhaseResult>,
    /// Arrays priced at each boundary: `(array, name, extents)` — the arrays
    /// whose *next* use after the boundary is the immediately following
    /// phase. An array that skips phases appears only where it comes back
    /// into use; it is priced there from its true last-use layout.
    pub live: Vec<Vec<(ArrayId, String, Vec<i64>)>>,
    /// The shared signature pool all phases price.
    pub pool: Vec<Sig>,
    /// The candidate layer of each phase the DP chose from (model-capped,
    /// with every phase's favourite retained; `costs` are in-phase
    /// simulated elements).
    pub layers: Vec<PhaseCandidates>,
    /// The chosen dynamic distribution, priced exactly.
    pub dynamic: DynamicDistribution,
    /// The whole-program static solution, for comparison.
    pub static_result: FullPipelineResult,
    /// Simulated element traffic of the static solution under
    /// [`DynamicConfig::sim`] — the number [`DynamicDistribution::planned_cost`]
    /// is compared against (same units, same options).
    pub static_planned_cost: f64,
    /// One-line digest of the run's internal work (trace-counter deltas).
    pub summary: SolveSummary,
    /// The configuration used (needed to re-price or simulate).
    pub config: DynamicConfig,
    /// Per-phase, per-atom placement caches built under [`DynamicConfig::sim`]
    /// during the candidate-layer pass. [`simulate_dynamic`] replays the plan
    /// through them (owner lookups only) whenever it is asked for the same
    /// options — the caches reproduce [`simulate`] exactly, so the report is
    /// unchanged, just cheaper.
    phase_caches: Vec<Arc<Vec<commsim::PlacementCache>>>,
    /// Lazily-built placement caches for every *other* `SimOptions` the
    /// standalone [`simulate_dynamic`] / [`simulate_static`] entry points
    /// are asked for: per-options per-phase per-atom caches of the dynamic
    /// plan and a per-options cache of the static solution's ADG. Shared
    /// across clones (the caches depend only on immutable analysis state),
    /// so repeated calls price by owner lookups instead of re-walking every
    /// position.
    sim_caches: Arc<Mutex<SimCacheStore>>,
}

/// Placement caches built on demand for simulation options other than the
/// retained [`DynamicConfig::sim`] set, keyed by the exact [`SimOptions`]
/// value (a small `Copy + Eq` struct — a linear scan beats hashing for the
/// handful of option sets a result ever sees).
#[derive(Debug, Default)]
struct SimCacheStore {
    /// Per-phase, per-atom caches of the dynamic plan's phases.
    dynamic: Vec<(SimOptions, Vec<Arc<Vec<commsim::PlacementCache>>>)>,
    /// Cache of the static solution's whole-program ADG.
    static_adg: Vec<(SimOptions, Arc<commsim::PlacementCache>)>,
}

impl DynamicPipelineResult {
    /// Model cost of the best *static* distribution
    /// ([`distrib::DistributionCost::total`] units — **not** comparable to
    /// [`DynamicDistribution::planned_cost`], which is simulated elements;
    /// compare against [`DynamicPipelineResult::static_planned_cost`]).
    pub fn static_model_cost(&self) -> f64 {
        self.static_result.best().cost.total()
    }

    /// Total number of distributable atoms across all phases.
    pub fn num_atoms(&self) -> usize {
        self.phases.iter().map(|p| p.atoms.len()).sum()
    }

    /// Per-phase, per-atom placement caches for `opts`: the caches retained
    /// from the candidate-layer pass when the options match
    /// [`DynamicConfig::sim`], otherwise built once per distinct options and
    /// memoised in the shared store. Either way [`simulate_dynamic`] prices
    /// by owner lookups instead of re-walking every position per call.
    fn phase_caches_for(&self, opts: SimOptions) -> Vec<Arc<Vec<commsim::PlacementCache>>> {
        if opts == self.config.sim && self.phase_caches.len() == self.phases.len() {
            return self.phase_caches.clone();
        }
        // The store only ever appends finished entries, so a guard poisoned
        // by a panicking holder still guards valid caches.
        let mut store = self
            .sim_caches
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, caches)) = store.dynamic.iter().find(|(o, _)| *o == opts) {
            return caches.clone();
        }
        let caches: Vec<Arc<Vec<commsim::PlacementCache>>> = self
            .phases
            .iter()
            .map(|phase| {
                Arc::new(
                    phase
                        .atoms
                        .iter()
                        .map(|atom| {
                            commsim::PlacementCache::new(&atom.adg, &atom.alignment.alignment, opts)
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        store.dynamic.push((opts, caches.clone()));
        caches
    }

    /// Placement cache of the static solution's ADG under `opts`, built
    /// once per distinct options and shared across clones.
    fn static_cache_for(&self, opts: SimOptions) -> Arc<commsim::PlacementCache> {
        let mut store = self
            .sim_caches
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, cache)) = store.static_adg.iter().find(|(o, _)| *o == opts) {
            return cache.clone();
        }
        let cache = Arc::new(commsim::PlacementCache::new(
            &self.static_result.adg,
            &self.static_result.alignment.alignment,
            opts,
        ));
        store.static_adg.push((opts, cache.clone()));
        cache
    }
}

/// The port where an array rests in an atom: the sink side when the atom
/// assigns it, otherwise its source.
fn resting_port(adg: &Adg, array: ArrayId, prefer_sink: bool) -> Option<PortId> {
    let sink = || {
        adg.nodes().find_map(|(_, n)| match n.kind {
            NodeKind::Sink { array: a } if a == array => n.ports.first().copied(),
            _ => None,
        })
    };
    let source = || {
        adg.nodes().find_map(|(_, n)| match n.kind {
            NodeKind::Source { array: a } if a == array => n.output_ports().first().copied(),
            _ => None,
        })
    };
    if prefer_sink {
        sink().or_else(source)
    } else {
        source()
    }
}

/// The resting placement of `array` looking *backwards* from the end of
/// phase `b`: its resting port's alignment in the last atom (searching
/// right-to-left through phase `b` and every earlier phase) that references
/// the array, the covering template of that phase, and the phase index.
fn resting_before(
    phases: &[PhaseResult],
    b: usize,
    array: ArrayId,
) -> Option<(PortAlignment, Vec<i64>, usize)> {
    for (p, phase) in phases.iter().enumerate().take(b + 1).rev() {
        for atom in phase.atoms.iter().rev() {
            if atom.references(array) {
                let port = resting_port(&atom.adg, array, true)?;
                return Some((
                    atom.alignment.alignment.port(port).clone(),
                    phase.cover_extents().to_vec(),
                    p,
                ));
            }
        }
    }
    None
}

/// The resting placement of `array` at the start of phase `b`: its source
/// alignment in the first of the phase's atoms that references it, plus the
/// phase's covering template.
fn resting_at_start(phase: &PhaseResult, array: ArrayId) -> Option<(PortAlignment, Vec<i64>)> {
    phase
        .atoms
        .iter()
        .find(|atom| atom.references(array))
        .and_then(|atom| {
            let port = resting_port(&atom.adg, array, false)?;
            Some((
                atom.alignment.alignment.port(port).clone(),
                phase.cover_extents().to_vec(),
            ))
        })
}

/// Memoised exact pricing of per-array boundary moves: one owner-comparison
/// per distinct `(destination phase, array, source signature, destination
/// signature)` quadruple, shared between every DP state that asks and the
/// final step materialisation. (The source/destination alignments of a
/// given (phase, array) pair are fixed by the program structure; only the
/// signatures vary with the path.)
struct MovePricer<'a> {
    phases: &'a [PhaseResult],
    pool: &'a [Sig],
    program: &'a Program,
    sim: SimOptions,
    use_memo: bool,
    memo: HashMap<(usize, ArrayId, SigId, SigId), RedistCost>,
    /// Cells priced ahead of demand by [`MovePricer::prefill`] and not yet
    /// queried. The first `price` of such a cell books a **miss** (as the
    /// serial on-demand order would have) and clears the flag; later
    /// queries book hits — so `phases.pricer.{hits,misses}` are
    /// bitwise-identical whether or not prefill ran.
    fresh: HashSet<(usize, ArrayId, SigId, SigId)>,
    resting: HashMap<(usize, ArrayId), Option<RestingSpot>>,
}

/// Where an array rests entering a phase: its resting alignment, the cover
/// extents of the phase it rests in, and that phase's index.
type RestingSpot = (PortAlignment, Vec<i64>, usize);

impl<'a> MovePricer<'a> {
    fn new(
        phases: &'a [PhaseResult],
        pool: &'a [Sig],
        program: &'a Program,
        sim: SimOptions,
        use_memo: bool,
    ) -> Self {
        MovePricer {
            phases,
            pool,
            program,
            sim,
            use_memo,
            memo: HashMap::new(),
            fresh: HashSet::new(),
            resting: HashMap::new(),
        }
    }

    /// Where `array` rests entering phase `q` (memoised): alignment, cover
    /// extents and index of its last-use phase.
    fn resting_before_phase(
        &mut self,
        q: usize,
        array: ArrayId,
    ) -> Option<(PortAlignment, Vec<i64>, usize)> {
        let phases = self.phases;
        self.resting
            .entry((q, array))
            .or_insert_with(|| resting_before(phases, q - 1, array))
            .clone()
    }

    /// Exact price of moving `array` into phase `q` from resting signature
    /// `src` to the destination phase's signature `dst`.
    fn price(&mut self, q: usize, array: ArrayId, src: SigId, dst: SigId) -> RedistCost {
        if self.use_memo {
            if let Some(c) = self.memo.get(&(q, array, src, dst)) {
                if self.fresh.remove(&(q, array, src, dst)) {
                    // Prefilled, first query: serial on-demand pricing
                    // would have missed here.
                    trace::count("phases.pricer.misses", 1);
                } else {
                    trace::count("phases.pricer.hits", 1);
                }
                return *c;
            }
        }
        trace::count("phases.pricer.misses", 1);
        let cost = match (
            self.resting_before_phase(q, array),
            resting_at_start(&self.phases[q], array),
        ) {
            (Some((src_align, src_cover, _)), Some((dst_align, dst_cover))) => {
                let src_dist = instantiate(&self.pool[src], &src_cover);
                let dst_dist = instantiate(&self.pool[dst], &dst_cover);
                if src_align == dst_align && src_dist == dst_dist {
                    // Identical placements: a "stay put" transition (common
                    // in the DP's query set). The traversal's result is
                    // known — nothing moves — so book its counters and skip
                    // the enumeration.
                    identical_placement_traffic(&self.program.decl(array).extents, self.sim);
                    RedistCost::default()
                } else {
                    price_resting(
                        &self.program.decl(array).extents,
                        &RestingPlacement::new(&src_align, &src_dist),
                        &RestingPlacement::new(&dst_align, &dst_dist),
                        self.sim,
                    )
                }
            }
            _ => RedistCost::default(),
        };
        if self.use_memo {
            self.memo.insert((q, array, src, dst), cost);
        }
        cost
    }

    /// Price the missing cells of one DP layer's query set in parallel
    /// (each `(array, src, dst)` cell is an independent owner-comparison
    /// over shared read-only inputs). Resting spots are resolved serially
    /// first (they mutate the memo); the priced cells enter the memo
    /// flagged *fresh* so [`MovePricer::price`]'s hit/miss accounting
    /// stays bitwise-identical to serial on-demand pricing. Counters the
    /// pricing itself emits (`commsim.*`) cover exactly the cells a serial
    /// run would have priced, merged from the workers' deltas — identical
    /// totals in any worker count.
    fn prefill(&mut self, q: usize, cells: &[(ArrayId, SigId, SigId)]) {
        if !self.use_memo {
            return;
        }
        let todo: Vec<(ArrayId, SigId, SigId)> = cells
            .iter()
            .copied()
            .filter(|&(a, src, dst)| !self.memo.contains_key(&(q, a, src, dst)))
            .collect();
        if todo.is_empty() {
            return;
        }
        let jobs: Vec<_> = todo
            .iter()
            .map(|&(a, src, dst)| {
                let endpoints = match (
                    self.resting_before_phase(q, a),
                    resting_at_start(&self.phases[q], a),
                ) {
                    (Some((sa, sc, _)), Some((da, dc))) => Some((sa, sc, da, dc)),
                    _ => None,
                };
                (a, src, dst, endpoints)
            })
            .collect();
        let sigs = self.pool;
        let program = self.program;
        let sim = self.sim;
        let priced: Vec<RedistCost> = pool::map(jobs.len(), |i| {
            let (a, src, dst, ref endpoints) = jobs[i];
            match endpoints {
                Some((src_align, src_cover, dst_align, dst_cover)) => {
                    let src_dist = instantiate(&sigs[src], src_cover);
                    let dst_dist = instantiate(&sigs[dst], dst_cover);
                    if src_align == dst_align && src_dist == dst_dist {
                        identical_placement_traffic(&program.decl(a).extents, sim);
                        RedistCost::default()
                    } else {
                        price_resting(
                            &program.decl(a).extents,
                            &RestingPlacement::new(src_align, &src_dist),
                            &RestingPlacement::new(dst_align, &dst_dist),
                            sim,
                        )
                    }
                }
                None => RedistCost::default(),
            }
        });
        for (&(a, src, dst), cost) in todo.iter().zip(priced) {
            self.memo.insert((q, a, src, dst), cost);
            self.fresh.insert((q, a, src, dst));
        }
    }
}

impl DpPricer for MovePricer<'_> {
    fn price(&mut self, phase: usize, array: ArrayId, src: SigId, dst: SigId) -> f64 {
        MovePricer::price(self, phase, array, src, dst).elements()
    }

    fn prefill(&mut self, phase: usize, cells: &[(ArrayId, SigId, SigId)]) {
        MovePricer::prefill(self, phase, cells);
    }

    fn wants_prefill(&self) -> bool {
        // Worker-count independent on purpose: the structured DP path (and
        // the pruning decisions it feeds) must be identical whether
        // `pool::map` runs the prefill inline or across workers.
        self.use_memo
    }

    fn move_bound(&mut self, array: ArrayId) -> f64 {
        // Every move's element traffic is bounded by the array's total
        // element count: `redistribution_traffic` attributes each sampled
        // element's scale to either the point-to-point or the broadcast
        // bucket, and the scales sum to the extents product.
        self.program
            .decl(array)
            .extents
            .iter()
            .product::<i64>()
            .max(1) as f64
    }

    fn note_repeat_queries(&mut self, n: u64) {
        // The structured DP path asks once per distinct cell and reports the
        // duplicates it collapsed; booking them as hits keeps
        // `phases.pricer.{hits,misses}` bitwise-identical to per-query
        // pricing.
        trace::count("phases.pricer.hits", n);
    }
}

/// Build the [`PhaseResult`]s for the given atom ranges: group the atoms,
/// search the signature space **once per phase** over all its atoms on the
/// phase's covering template (shared enumeration — no per-atom re-search).
/// The reports are then re-priced over the cross-phase pool by
/// [`price_pool`].
fn build_phases(
    mut atoms: Vec<AtomAnalysis>,
    atom_ranges: &[(usize, usize)],
    solve_cfg: &SolveConfig,
) -> Vec<PhaseResult> {
    let mut phases: Vec<PhaseResult> = Vec::with_capacity(atom_ranges.len());
    for &(lo, hi) in atom_ranges.iter().rev() {
        let phase_atoms: Vec<AtomAnalysis> = atoms.split_off(lo);
        let range = (
            phase_atoms.first().map_or(0, |a| a.stmt_index),
            phase_atoms.last().map_or(0, |a| a.stmt_index + 1),
        );
        let (atom_templates, report) = {
            let models: Vec<DistributionCostModel<'_>> = phase_atoms
                .iter()
                .map(|a| {
                    DistributionCostModel::with_max_points(
                        &a.adg,
                        &a.alignment.alignment,
                        solve_cfg.params.max_points_per_edge,
                    )
                })
                .collect();
            let atom_templates: Vec<Vec<i64>> =
                models.iter().map(|m| m.template_extents()).collect();
            let cover = cover_of(&atom_templates);
            let report = solve_distribution_pooled(&models, &cover, solve_cfg);
            (atom_templates, report)
        };
        phases.push(PhaseResult {
            atom_range: (lo, hi),
            range,
            atoms: phase_atoms,
            atom_templates,
            report,
        });
    }
    phases.reverse();
    phases
}

/// The elementwise-max cover of a set of template extents.
fn cover_of(templates: &[Vec<i64>]) -> Vec<i64> {
    let rank = templates.iter().map(Vec::len).max().unwrap_or(1).max(1);
    let mut cover = vec![1i64; rank];
    for t in templates {
        for (i, &e) in t.iter().enumerate() {
            cover[i] = cover[i].max(e);
        }
    }
    cover
}

/// Re-price every phase's report over the shared signature pool: each pool
/// signature is instantiated on the phase's covering template and priced by
/// summing the phase's per-atom model costs. Rankings use the same ordering
/// key as `solve_distribution`, so a single-phase program's `best()`
/// matches the static choice.
fn price_pool(phases: &mut [PhaseResult], pool: &[Sig], solve_cfg: &SolveConfig) {
    let params = solve_cfg.params;
    for phase in phases.iter_mut() {
        let ranked = {
            let models: Vec<DistributionCostModel<'_>> = phase
                .atoms
                .iter()
                .map(|a| {
                    DistributionCostModel::with_max_points(
                        &a.adg,
                        &a.alignment.alignment,
                        params.max_points_per_edge,
                    )
                })
                .collect();
            let cover = phase.report.template_extents.clone();
            let mut ranked: Vec<RankedDistribution> = pool
                .iter()
                .map(|sig| {
                    let dist = instantiate(sig, &cover);
                    let cost = models
                        .iter()
                        .map(|m| m.cost(&dist, &params))
                        .fold(DistributionCost::default(), |a, b| a.plus(&b));
                    RankedDistribution {
                        distribution: dist,
                        cost,
                    }
                })
                .collect();
            sort_ranked(&mut ranked);
            ranked
        };
        phase.report.ranked = ranked;
    }
}

/// Rank candidates cheapest-first with the same ordering key as
/// `solve_distribution` (so a single-phase program's `best()` matches the
/// static choice), deduplicating identical instances.
fn sort_ranked(ranked: &mut Vec<RankedDistribution>) {
    ranked.sort_by_cached_key(|r| {
        let grid = r.distribution.grid();
        (
            r.cost.total().max(0.0).to_bits(),
            grid.iter().copied().max().unwrap_or(1),
            grid,
            r.distribution.to_string(),
        )
    });
    ranked.dedup_by(|a, b| a.distribution == b.distribution);
}

/// The shared signature pool: every phase's top-ranked candidates, dedup'd
/// in first-seen order.
fn build_pool(phases: &[PhaseResult]) -> Vec<Sig> {
    let mut pool: Vec<Sig> = Vec::new();
    for phase in phases {
        for r in &phase.report.ranked {
            let sig = sig_of(&r.distribution);
            if !pool.contains(&sig) {
                pool.push(sig);
            }
        }
    }
    pool
}

/// Arrays priced at each boundary: next use is the following phase, and
/// referenced somewhere before.
fn build_live(
    program: &Program,
    phase_refs: &[BTreeSet<ArrayId>],
) -> Vec<Vec<(ArrayId, String, Vec<i64>)>> {
    (0..phase_refs.len().saturating_sub(1))
        .map(|b| {
            let before: BTreeSet<ArrayId> = phase_refs[..=b]
                .iter()
                .flat_map(|s| s.iter().copied())
                .collect();
            phase_refs[b + 1]
                .iter()
                .filter(|a| before.contains(a))
                .map(|&a| {
                    let decl = program.decl(a);
                    (a, decl.name.clone(), decl.extents.clone())
                })
                .collect()
        })
        .collect()
}

/// Candidate layers from the pool-priced reports: the `cap` cheapest by
/// model cost, plus every phase's favourite (and any `forced` signatures —
/// used after coalescing to keep the already-chosen signature in its
/// layer). `costs` are **in-phase simulated elements** under `sim` — the
/// same accounting [`simulate_dynamic`] replays, via the per-atom placement
/// caches — so the DP minimises end-to-end simulated traffic.
fn build_layers(
    phases: &[PhaseResult],
    pool: &[Sig],
    cap: usize,
    forced: &[Sig],
    sim: SimOptions,
) -> (Vec<PhaseCandidates>, Vec<Arc<Vec<commsim::PlacementCache>>>) {
    let retained: Vec<Sig> = phases
        .iter()
        .filter_map(|p| p.report.ranked.first())
        .map(|r| sig_of(&r.distribution))
        .chain(forced.iter().cloned())
        .collect();
    // Each phase's layer is independent (cache builds + candidate pricing
    // over read-only inputs), so the phases fan out over the pool; results
    // land in phase order and worker counter deltas are absorbed, keeping
    // every `commsim.*` total identical to a serial build.
    let built = pool::map(phases.len(), |i| {
        layer_from_report(&phases[i], pool, cap, &retained, sim)
    });
    built
        .into_iter()
        .map(|(layer, caches)| (layer, Arc::new(caches)))
        .unzip()
}

/// One phase's candidate layer: the `cap` cheapest of its pool-priced
/// ranking plus every `retained` signature, with in-phase simulated-element
/// costs. Placements depend on the alignment, not the candidate, so the
/// per-atom placement caches are built once and every candidate is priced
/// by owner lookups alone ([`commsim::PlacementCache`] reproduces
/// `simulate()` exactly, so these costs equal the final plan pricing).
fn layer_from_report(
    p: &PhaseResult,
    pool: &[Sig],
    cap: usize,
    retained: &[Sig],
    sim: SimOptions,
) -> (PhaseCandidates, Vec<commsim::PlacementCache>) {
    let sig_id = |sig: &Sig| -> SigId {
        pool.iter()
            .position(|s| s == sig)
            .expect("layer signature must come from the pool")
    };
    let keep: Vec<&RankedDistribution> = p
        .report
        .ranked
        .iter()
        .enumerate()
        .filter(|(i, r)| *i < cap || retained.contains(&sig_of(&r.distribution)))
        .map(|(_, r)| r)
        .collect();
    let caches: Vec<commsim::PlacementCache> = p
        .atoms
        .iter()
        .map(|a| commsim::PlacementCache::new(&a.adg, &a.alignment.alignment, sim))
        .collect();
    let layer = PhaseCandidates {
        costs: keep
            .iter()
            .map(|r| {
                commsim::sum_elements(caches.iter().map(|c| c.total_elements(&r.distribution)))
            })
            .collect(),
        sigs: keep
            .iter()
            .map(|r| sig_id(&sig_of(&r.distribution)))
            .collect(),
        dists: keep.iter().map(|r| r.distribution.clone()).collect(),
    };
    // The caches are handed back so `simulate_dynamic` can replay the
    // chosen plan by owner lookups instead of re-walking every position.
    (layer, caches)
}

/// Materialise the per-array redistribution steps of the chosen plan: at
/// each boundary, every live array priced exactly from the layout of the
/// phase that actually last used it.
fn build_steps(
    phases: &[PhaseResult],
    live: &[Vec<(ArrayId, String, Vec<i64>)>],
    chosen_sigs: &[SigId],
    pricer: &mut MovePricer<'_>,
) -> Vec<Vec<RedistStep>> {
    (0..phases.len().saturating_sub(1))
        .map(|b| {
            live[b]
                .iter()
                .filter_map(|(array, name, extents)| {
                    let (_, _, src_phase) = pricer.resting_before_phase(b + 1, *array)?;
                    let cost =
                        pricer.price(b + 1, *array, chosen_sigs[src_phase], chosen_sigs[b + 1]);
                    Some(RedistStep {
                        array: *array,
                        name: name.clone(),
                        extents: extents.clone(),
                        src_phase,
                        cost,
                    })
                })
                .collect()
        })
        .collect()
}

/// Everything the layout DP consumes, computed by stages 2+3 of the
/// pipeline from the per-atom analyses: the pooled per-phase candidate
/// reports, the shared signature pool, per-phase reference sets, the
/// simulated candidate layers, and the per-atom placement caches retained
/// from the layer pass.
struct DpInputs {
    phases: Vec<PhaseResult>,
    sig_pool: Vec<Sig>,
    phase_refs: Vec<BTreeSet<ArrayId>>,
    layers: Vec<PhaseCandidates>,
    phase_caches: Vec<Arc<Vec<commsim::PlacementCache>>>,
}

/// Boundaries from the per-atom signatures, then one signature-space search
/// per phase (shared enumeration over all the phase's atoms), the
/// cross-phase pool with pool-priced reports, and the candidate layers
/// (model-capped, favourites retained, in-phase costs simulated).
fn build_dp_inputs(atoms: Vec<AtomAnalysis>, nprocs: usize, config: &DynamicConfig) -> DpInputs {
    let boundaries = match &config.boundaries {
        Some(b) => b.clone(),
        None => detect_boundaries(
            &atoms,
            &SegmentationConfig {
                alignment: config.alignment,
                neutral_volume: config.neutral_volume,
            },
        ),
    };
    let atom_ranges = align_ir::ast::cut_ranges(atoms.len(), &boundaries);
    let solve_cfg = config.solve_config(nprocs);
    let (phases, sig_pool) = {
        let _span = trace::span("phases.search");
        let mut phases = build_phases(atoms, &atom_ranges, &solve_cfg);
        let sig_pool = build_pool(&phases);
        price_pool(&mut phases, &sig_pool, &solve_cfg);
        (phases, sig_pool)
    };
    let phase_refs: Vec<BTreeSet<ArrayId>> = phases.iter().map(|p| p.referenced()).collect();
    let cap = config.max_candidates_per_phase.max(1);
    let (layers, phase_caches) = {
        let _span = trace::span("phases.layers");
        build_layers(&phases, &sig_pool, cap, &[], config.sim)
    };
    DpInputs {
        phases,
        sig_pool,
        phase_refs,
        layers,
        phase_caches,
    }
}

/// A self-contained layout-DP instance over **real pipeline state**: the
/// candidate layers, reference sets and pooled phase analyses of a program,
/// detached from the rest of the pipeline so the DP can be solved
/// repeatedly under different pruning policies against the same inputs
/// (the `layout_dp` microbench and the pruned-vs-exhaustive property tests
/// drive this). Each [`LayoutDpProblem::solve`] builds a fresh `MovePricer`
/// — same memo behaviour, same counters — so runs are independent.
pub struct LayoutDpProblem {
    program: Program,
    config: DynamicConfig,
    phases: Vec<PhaseResult>,
    sig_pool: Vec<Sig>,
    phase_refs: Vec<BTreeSet<ArrayId>>,
    layers: Vec<PhaseCandidates>,
}

impl LayoutDpProblem {
    /// The candidate layers the DP chooses from.
    pub fn layers(&self) -> &[PhaseCandidates] {
        &self.layers
    }

    /// Solve the DP over the captured layers with a fresh exact pricer.
    pub fn solve(
        &self,
        switch_margin: f64,
        pruning: DpPruning,
    ) -> Result<LayoutDpPlan, LayoutDpError> {
        let mut pricer = MovePricer::new(
            &self.phases,
            &self.sig_pool,
            &self.program,
            self.config.sim,
            self.config.pricer_memo,
        );
        solve_layout_dp_with(
            &self.layers,
            &self.phase_refs,
            switch_margin,
            &mut pricer,
            pruning,
        )
    }
}

/// Capture the layout-DP instance of `program` at `nprocs` — the exact
/// layers and reference sets [`align_then_distribute_dynamic`] would hand
/// [`solve_layout_dp`] — without solving it.
pub fn layout_dp_problem(
    program: &Program,
    nprocs: usize,
    config: &DynamicConfig,
) -> LayoutDpProblem {
    let atoms = analyze_atoms(program, &config.alignment);
    let DpInputs {
        phases,
        sig_pool,
        phase_refs,
        layers,
        phase_caches: _,
    } = build_dp_inputs(atoms, nprocs, config);
    LayoutDpProblem {
        program: program.clone(),
        config: config.clone(),
        phases,
        sig_pool,
        phase_refs,
        layers,
    }
}

/// Run the complete three-stage analysis: fission into atoms, align each
/// once, detect candidate boundaries, search the signature space once per
/// phase, solve the per-array layout-state DP over the shared pool, and
/// coalesce the boundaries the chosen path does not use. The static
/// whole-program solution is computed alongside for comparison, simulated
/// under the same options as the plan pricing.
///
/// ```
/// use phases::{align_then_distribute_dynamic, simulate_dynamic, DynamicConfig};
///
/// // Row-work then column-work over the same array: no static distribution
/// // is good everywhere, so the plan flips layouts at the boundary.
/// let program = align_ir::programs::fft_like(16, 8);
/// let result = align_then_distribute_dynamic(&program, 4, &DynamicConfig::default());
///
/// assert_eq!(result.phases.len(), 2);
/// assert!(result.dynamic.redistributes());
/// // The priced plan IS the simulated plan: same accounting, same options.
/// let replay = simulate_dynamic(&result, result.config.sim);
/// assert_eq!(result.dynamic.planned_cost, replay.total_elements());
/// ```
pub fn align_then_distribute_dynamic(
    program: &Program,
    nprocs: usize,
    config: &DynamicConfig,
) -> DynamicPipelineResult {
    try_align_then_distribute_dynamic(program, nprocs, config)
        .expect("layout DP rejected the phase structure")
}

/// [`align_then_distribute_dynamic`] that reports a degenerate phase
/// structure (no phases, a phase with no candidates, a layer/reference
/// mismatch) as a typed [`LayoutDpError`] instead of panicking — the entry
/// point for server-bound callers that must answer every request.
pub fn try_align_then_distribute_dynamic(
    program: &Program,
    nprocs: usize,
    config: &DynamicConfig,
) -> Result<DynamicPipelineResult, LayoutDpError> {
    let _span = trace::span("phases.pipeline");
    trace::count("phases.pipeline_runs", 1);
    let counters_at_entry = trace::CounterSnapshot::now();
    let spans_at_entry = trace::span_count();

    // Stage 0+1: one analysis per atom — shared with the static baseline
    // below, which for a single-atom program IS the whole-program alignment
    // (the atom's standalone program equals the program), so the baseline
    // reuses it instead of aligning a second time.
    let atoms = analyze_atoms(program, &config.alignment);
    let static_seed =
        (atoms.len() == 1).then(|| (atoms[0].adg.clone(), atoms[0].alignment.clone()));

    // The rest of the dynamic analysis and the static baseline share
    // nothing but the atom set, so they overlap on the pool when
    // parallelism is available (the baseline's counter delta is absorbed,
    // keeping totals identical to the serial order the fallback still runs
    // in).
    let (dynamic_side, (static_result, static_planned_cost)) = pool::join(
        || {
            // Stages 2+3: boundaries, per-phase signature search, shared
            // pool, candidate layers — then the per-array layout-state DP.
            let solve_cfg = config.solve_config(nprocs);
            let DpInputs {
                phases,
                sig_pool,
                phase_refs,
                layers,
                phase_caches,
            } = build_dp_inputs(atoms, nprocs, config);
            let live = build_live(program, &phase_refs);
            let cap = config.max_candidates_per_phase.max(1);
            let mut pricer =
                MovePricer::new(&phases, &sig_pool, program, config.sim, config.pricer_memo);
            let plan = solve_layout_dp(&layers, &phase_refs, config.switch_margin, &mut pricer)?;
            let peak_dp_layer_width = plan.states_per_layer.iter().copied().max().unwrap_or(0);
            let chosen_sigs: Vec<SigId> = plan
                .chosen
                .iter()
                .zip(&layers)
                .map(|(&k, l)| l.sigs[k])
                .collect();
            let steps = build_steps(&phases, &live, &chosen_sigs, &mut pricer);
            drop(pricer);

            // DAG-driven boundary selection: coalesce every detected
            // boundary the chosen path leaves unused (same signature and
            // same covering template on both sides, no array paying
            // anything — a cost-neutral merge by construction). The DP
            // decided which seams are real; the rest disappear from the
            // plan.
            let (phases, live, layers, phase_caches, chosen_sigs, chosen, steps) =
                if config.coalesce_phases {
                    let _span = trace::span("phases.coalesce");
                    coalesce(
                        phases,
                        live,
                        layers,
                        phase_caches,
                        chosen_sigs,
                        plan.chosen,
                        steps,
                        &sig_pool,
                        &solve_cfg,
                        program,
                        cap,
                        config.sim,
                        config.pricer_memo,
                    )
                } else {
                    (
                        phases,
                        live,
                        layers,
                        phase_caches,
                        chosen_sigs,
                        plan.chosen,
                        steps,
                    )
                };

            // Exact plan pricing on the final structure: in-phase simulated
            // traffic plus every per-array step — the same accounting, in
            // the same summation order, that `simulate_dynamic` replays, so
            // `planned_cost` IS the simulated plan cost, bit for bit.
            let per_phase: Vec<ProgramDistribution> = chosen_sigs
                .iter()
                .zip(&phases)
                .map(|(&s, p)| instantiate(&sig_pool[s], p.cover_extents()))
                .collect();
            let planned_cost = plan_elements(
                chosen.iter().zip(&layers).map(|(&k, l)| l.costs[k]),
                steps
                    .iter()
                    .map(|b| commsim::sum_elements(b.iter().map(|s| s.cost.elements()))),
            );
            let dynamic = DynamicDistribution {
                chosen,
                per_phase,
                steps,
                planned_cost,
            };
            Ok((
                phases,
                live,
                sig_pool,
                layers,
                phase_caches,
                dynamic,
                peak_dp_layer_width,
            ))
        },
        || {
            // The static baseline over the whole program, simulated under
            // the same options the plan is priced with. A single-atom
            // program's baseline alignment is the atom's own (already
            // computed above) — only the distribution search runs here.
            let _span = trace::span("phases.static_baseline");
            let full_config = FullPipelineConfig {
                alignment: config.alignment,
                distribution: config.distribution.clone(),
            };
            let static_result = match static_seed {
                Some((adg, alignment)) => {
                    let distribution =
                        distribute_alignment(&adg, &alignment.alignment, nprocs, &full_config);
                    FullPipelineResult {
                        adg,
                        alignment,
                        distribution,
                    }
                }
                None => align_then_distribute(program, nprocs, &full_config),
            };
            let static_planned_cost = simulate(
                &static_result.adg,
                &static_result.alignment.alignment,
                &static_result.best().distribution,
                config.sim,
            )
            .total_elements();
            (static_result, static_planned_cost)
        },
    );

    let (phases, live, sig_pool, layers, phase_caches, dynamic, peak_dp_layer_width) =
        dynamic_side?;

    let summary = SolveSummary::from_run(
        &counters_at_entry,
        trace::span_count() - spans_at_entry,
        peak_dp_layer_width,
    );

    Ok(DynamicPipelineResult {
        nprocs,
        phases,
        live,
        pool: sig_pool,
        layers,
        dynamic,
        static_result,
        static_planned_cost,
        summary,
        config: config.clone(),
        phase_caches,
        sim_caches: Arc::new(Mutex::new(SimCacheStore::default())),
    })
}

/// Merge adjacent phases across boundaries the chosen path does not use:
/// identical chosen signature on both sides, identical covering template,
/// and every step free. Requiring equal covers makes the merge exactly
/// cost-neutral — the candidate instances (and therefore every in-phase
/// simulation) are unchanged, so the merged plan prices identically to the
/// plan the DP selected; a boundary between phases with *different* covers
/// is kept even when nothing moves, because merging it would re-price the
/// smaller phase's atoms on a different block structure.
///
/// Only the merged groups are rebuilt: their reports are the signature-wise
/// sums of the members' pool-priced rankings (same cover ⇒ same candidate
/// instances ⇒ model costs add; no re-search, no new cost models), and
/// their layers are re-simulated with the chosen signature forced in.
/// Untouched phases keep their reports, layers and chosen indices.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn coalesce(
    phases: Vec<PhaseResult>,
    live: Vec<Vec<(ArrayId, String, Vec<i64>)>>,
    layers: Vec<PhaseCandidates>,
    phase_caches: Vec<Arc<Vec<commsim::PlacementCache>>>,
    chosen_sigs: Vec<SigId>,
    chosen: Vec<usize>,
    steps: Vec<Vec<RedistStep>>,
    pool: &[Sig],
    solve_cfg: &SolveConfig,
    program: &Program,
    cap: usize,
    sim: SimOptions,
    pricer_memo: bool,
) -> (
    Vec<PhaseResult>,
    Vec<Vec<(ArrayId, String, Vec<i64>)>>,
    Vec<PhaseCandidates>,
    Vec<Arc<Vec<commsim::PlacementCache>>>,
    Vec<SigId>,
    Vec<usize>,
    Vec<Vec<RedistStep>>,
) {
    // Group consecutive phases separated only by unused boundaries.
    let mut groups: Vec<Vec<usize>> = vec![vec![0]];
    for b in 0..phases.len().saturating_sub(1) {
        let unused = chosen_sigs[b] == chosen_sigs[b + 1]
            && phases[b].cover_extents() == phases[b + 1].cover_extents()
            && steps[b].iter().all(|s| s.cost.is_zero());
        if unused {
            groups.last_mut().unwrap().push(b + 1);
        } else {
            groups.push(vec![b + 1]);
        }
    }
    trace::count(
        "phases.seams_coalesced",
        (phases.len() - groups.len()) as u64,
    );
    if groups.len() == phases.len() {
        return (
            phases,
            live,
            layers,
            phase_caches,
            chosen_sigs,
            chosen,
            steps,
        );
    }

    let mut phases_iter = phases.into_iter();
    let mut layers_iter = layers.into_iter();
    let mut caches_iter = phase_caches.into_iter();
    let mut new_phases: Vec<PhaseResult> = Vec::with_capacity(groups.len());
    let mut new_layers: Vec<PhaseCandidates> = Vec::with_capacity(groups.len());
    let mut new_caches: Vec<Arc<Vec<commsim::PlacementCache>>> = Vec::with_capacity(groups.len());
    let mut new_sigs: Vec<SigId> = Vec::with_capacity(groups.len());
    let mut new_chosen: Vec<usize> = Vec::with_capacity(groups.len());
    for group in &groups {
        let members: Vec<PhaseResult> = phases_iter.by_ref().take(group.len()).collect();
        let member_layers: Vec<PhaseCandidates> = layers_iter.by_ref().take(group.len()).collect();
        let member_caches: Vec<Arc<Vec<commsim::PlacementCache>>> =
            caches_iter.by_ref().take(group.len()).collect();
        let sig = chosen_sigs[group[0]];
        new_sigs.push(sig);
        if members.len() == 1 {
            new_phases.push(members.into_iter().next().unwrap());
            new_layers.push(member_layers.into_iter().next().unwrap());
            new_caches.push(member_caches.into_iter().next().unwrap());
            new_chosen.push(chosen[group[0]]);
            continue;
        }
        let merged = merge_phase_group(members, solve_cfg.nprocs);
        let (layer, caches) = layer_from_report(&merged, pool, cap, &[pool[sig].clone()], sim);
        new_chosen.push(
            layer
                .sigs
                .iter()
                .position(|&x| x == sig)
                .expect("chosen signature forced into its layer"),
        );
        new_layers.push(layer);
        new_caches.push(Arc::new(caches));
        new_phases.push(merged);
    }

    let phase_refs: Vec<BTreeSet<ArrayId>> = new_phases.iter().map(|p| p.referenced()).collect();
    let live = build_live(program, &phase_refs);
    let mut pricer = MovePricer::new(&new_phases, pool, program, sim, pricer_memo);
    let steps = build_steps(&new_phases, &live, &new_sigs, &mut pricer);
    drop(pricer);
    (
        new_phases, live, new_layers, new_caches, new_sigs, new_chosen, steps,
    )
}

/// Merge a run of phases that share one covering template into a single
/// [`PhaseResult`]. The members' pool-priced rankings are over identical
/// candidate instances (same cover), so the merged ranking is their
/// signature-wise sum — no re-search and no new cost models.
fn merge_phase_group(members: Vec<PhaseResult>, nprocs: usize) -> PhaseResult {
    let atom_range = (
        members.first().unwrap().atom_range.0,
        members.last().unwrap().atom_range.1,
    );
    let range = (
        members.iter().map(|p| p.range.0).min().unwrap(),
        members.iter().map(|p| p.range.1).max().unwrap(),
    );
    let cover = members[0].report.template_extents.clone();
    let mut summed: Vec<(Sig, DistributionCost)> = members[0]
        .report
        .ranked
        .iter()
        .map(|r| (sig_of(&r.distribution), r.cost))
        .collect();
    for m in &members[1..] {
        for r in &m.report.ranked {
            let sig = sig_of(&r.distribution);
            if let Some(entry) = summed.iter_mut().find(|(s, _)| *s == sig) {
                entry.1 = entry.1.plus(&r.cost);
            }
        }
    }
    let mut ranked: Vec<RankedDistribution> = summed
        .into_iter()
        .map(|(sig, cost)| RankedDistribution {
            distribution: instantiate(&sig, &cover),
            cost,
        })
        .collect();
    sort_ranked(&mut ranked);
    let candidates_evaluated = members.iter().map(|m| m.report.candidates_evaluated).sum();
    let exhaustive = members.iter().all(|m| m.report.exhaustive);
    let mut atoms: Vec<AtomAnalysis> = Vec::new();
    let mut atom_templates: Vec<Vec<i64>> = Vec::new();
    for p in members {
        atoms.extend(p.atoms);
        atom_templates.extend(p.atom_templates);
    }
    PhaseResult {
        atom_range,
        range,
        atoms,
        atom_templates,
        report: DistributionReport {
            nprocs,
            template_extents: cover,
            ranked,
            candidates_evaluated,
            exhaustive,
        },
    }
}

/// A plan's total in simulated elements: every phase's in-phase elements,
/// then every boundary's redistribution elements, added by
/// [`commsim::sum_elements`]. Each phase term is itself that sum over the
/// phase's atoms, each boundary term over its steps. The planner prices
/// [`DynamicDistribution::planned_cost`] with this function and
/// [`DynamicSimReport::total_elements`] replays through it, so the two
/// agree bit for bit.
fn plan_elements(
    phases: impl IntoIterator<Item = f64>,
    boundaries: impl IntoIterator<Item = f64>,
) -> f64 {
    commsim::sum_elements(phases.into_iter().chain(boundaries))
}

/// Simulated traffic of a dynamic plan, phase by phase plus the per-array
/// redistribution steps — the end-to-end validation of the plan. Under the
/// options the plan was priced with ([`DynamicConfig::sim`]), the total
/// equals [`DynamicDistribution::planned_cost`] bit for bit; under
/// [`SimOptions::exact`] both are exact.
#[derive(Debug, Clone)]
pub struct DynamicSimReport {
    /// Simulated element traffic of each phase under its chosen
    /// distribution (each phase's atoms summed on the phase's covering
    /// template; `per_edge` entries are per-atom edge ids).
    pub per_phase: Vec<SimReport>,
    /// Element total of each phase: its atoms' per-edge elements, summed
    /// atom by atom in the order the planner prices the phase. It can
    /// differ from `per_phase[i].total_elements()`, which sums moves and
    /// broadcasts separately, in the last bits.
    pub phase_elements: Vec<f64>,
    /// Element traffic of each boundary's per-array redistribution steps.
    pub redist_elements: Vec<f64>,
}

impl DynamicSimReport {
    /// Total elements moved: in-phase traffic plus redistribution.
    pub fn total_elements(&self) -> f64 {
        plan_elements(
            self.phase_elements.iter().copied(),
            self.redist_elements.iter().copied(),
        )
    }
}

/// Play the chosen dynamic distribution through the communication
/// simulator: each atom's ADG under its phase's chosen distribution on the
/// phase's covering template, plus the exact owner-comparison cost of every
/// per-array redistribution step — each array priced from the layout of the
/// phase that *actually last used it*. This is the same accounting the DP
/// priced the plan with, so with `opts == result.config.sim` the report's
/// total equals `result.dynamic.planned_cost`.
pub fn simulate_dynamic(result: &DynamicPipelineResult, opts: SimOptions) -> DynamicSimReport {
    let chosen_sigs: Vec<Sig> = result.dynamic.per_phase.iter().map(sig_of).collect();
    // Replay each phase through per-atom placement caches — the ones
    // retained from the candidate-layer pass when `opts` matches the plan's
    // own options, otherwise built once per distinct options and shared
    // across calls. The caches reproduce `simulate` exactly (same sampling,
    // same traffic), priced by owner-table lookups instead of re-walking
    // every position per call.
    let phase_caches = result.phase_caches_for(opts);
    let (per_phase, phase_elements): (Vec<SimReport>, Vec<f64>) = result
        .phases
        .iter()
        .zip(&chosen_sigs)
        .enumerate()
        .map(|(i, (phase, sig))| {
            let dist = instantiate(sig, phase.cover_extents());
            let mut merged = SimReport {
                processors: result.nprocs,
                ..SimReport::default()
            };
            let mut atom_elements = Vec::with_capacity(phase_caches[i].len());
            for cache in phase_caches[i].iter() {
                let report = cache.price(&dist);
                atom_elements.push(commsim::sum_elements(
                    report.per_edge.iter().map(|(_, t)| t.elements()),
                ));
                merged.merge(report);
            }
            (merged, commsim::sum_elements(atom_elements))
        })
        .unzip();
    let redist_elements: Vec<f64> = (0..result.phases.len().saturating_sub(1))
        .map(|b| {
            commsim::sum_elements(result.live[b].iter().filter_map(|(array, _, extents)| {
                let (src_align, src_cover, src_phase) = resting_before(&result.phases, b, *array)?;
                let (dst_align, dst_cover) = resting_at_start(&result.phases[b + 1], *array)?;
                let src_dist = instantiate(&chosen_sigs[src_phase], &src_cover);
                let dst_dist = instantiate(&chosen_sigs[b + 1], &dst_cover);
                let spec = commsim::RedistSpec {
                    extents,
                    src: RestingPlacement::new(&src_align, &src_dist),
                    dst: RestingPlacement::new(&dst_align, &dst_dist),
                };
                Some(commsim::simulate_redistribution(std::slice::from_ref(&spec), opts).elements())
            }))
        })
        .collect();
    DynamicSimReport {
        per_phase,
        phase_elements,
        redist_elements,
    }
}

/// Simulated element traffic of the best *static* distribution over the
/// whole program — the baseline [`simulate_dynamic`] is compared against.
pub fn simulate_static(result: &DynamicPipelineResult, opts: SimOptions) -> SimReport {
    // Every call prices through a lazily-built placement cache of the
    // static ADG — one per distinct `SimOptions`, shared across clones —
    // identical traffic to `simulate`, by owner lookups instead of
    // re-walking every position per call.
    result
        .static_cache_for(opts)
        .price(&result.static_result.best().distribution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use align_ir::programs;

    #[test]
    fn fft_like_plans_two_phases_and_redistributes() {
        let result = align_then_distribute_dynamic(
            &programs::fft_like(32, 40),
            8,
            &DynamicConfig::default(),
        );
        assert_eq!(result.phases.len(), 2, "detected phases");
        assert_eq!(result.live.len(), 1);
        assert_eq!(result.live[0].len(), 1, "A is live across the boundary");
        let d = &result.dynamic;
        assert!(d.redistributes(), "{d}");
        // Each phase serialises its traffic axis.
        assert_eq!(d.per_phase[0].grid(), vec![8, 1], "{d}");
        assert_eq!(d.per_phase[1].grid(), vec![1, 8], "{d}");
        assert!(d.planned_cost < result.static_planned_cost, "{d}");
    }

    #[test]
    fn standalone_simulation_prices_through_caches_unchanged() {
        // The standalone `simulate_dynamic` / `simulate_static` entry
        // points replay through placement caches — the set retained from
        // the candidate-layer pass for the plan's own options, lazily-built
        // memoised ones for any other options. The reports must equal a
        // direct cache-free `commsim::simulate` of the same placements, and
        // repeat calls must price through the existing caches without
        // building new ones.
        let result = align_then_distribute_dynamic(
            &programs::fft_like(32, 40),
            8,
            &DynamicConfig::default(),
        );
        for opts in [result.config.sim, SimOptions::sampled(64, 256)] {
            let report = simulate_dynamic(&result, opts);
            let chosen_sigs: Vec<Sig> = result.dynamic.per_phase.iter().map(sig_of).collect();
            for (i, (phase, sig)) in result.phases.iter().zip(&chosen_sigs).enumerate() {
                let dist = instantiate(sig, phase.cover_extents());
                let mut direct = SimReport {
                    processors: result.nprocs,
                    ..SimReport::default()
                };
                for atom in &phase.atoms {
                    direct.merge(simulate(&atom.adg, &atom.alignment.alignment, &dist, opts));
                }
                assert_eq!(
                    format!("{:?}", report.per_phase[i]),
                    format!("{direct:?}"),
                    "phase {i} cached replay diverged from direct simulation"
                );
            }
            let static_report = simulate_static(&result, opts);
            let static_direct = simulate(
                &result.static_result.adg,
                &result.static_result.alignment.alignment,
                &result.static_result.best().distribution,
                opts,
            );
            assert_eq!(
                format!("{static_report:?}"),
                format!("{static_direct:?}"),
                "static cached replay diverged from direct simulation"
            );

            let builds = trace::counter("commsim.cache.builds");
            let again = simulate_dynamic(&result, opts);
            let _ = simulate_static(&result, opts);
            assert_eq!(
                trace::counter("commsim.cache.builds"),
                builds,
                "repeat calls rebuilt placement caches"
            );
            assert_eq!(
                format!("{:?}", again.per_phase),
                format!("{:?}", report.per_phase),
                "repeat cached replay diverged"
            );
        }
    }

    #[test]
    fn explicit_boundaries_override_detection() {
        let mut cfg = DynamicConfig::default();
        cfg.coalesce_phases = false;
        cfg.boundaries = Some(vec![]);
        let one = align_then_distribute_dynamic(&programs::fft_like(16, 4), 4, &cfg);
        assert_eq!(one.phases.len(), 1);
        assert!(!one.dynamic.redistributes());
        cfg.boundaries = Some(vec![1]);
        let two = align_then_distribute_dynamic(&programs::fft_like(16, 4), 4, &cfg);
        assert_eq!(two.phases.len(), 2);
    }

    #[test]
    fn single_phase_dynamic_matches_static_choice() {
        // A program with one topology: the dynamic plan degenerates to a
        // single phase with no redistribution steps, and its simulated cost
        // is no worse than the static solution's.
        let result = align_then_distribute_dynamic(
            &programs::stencil2d(24, 3),
            4,
            &DynamicConfig::default(),
        );
        assert_eq!(result.phases.len(), 1);
        assert!(result.dynamic.steps.is_empty());
        assert!(
            result.dynamic.planned_cost <= result.static_planned_cost + 1e-9,
            "dynamic {} vs static {}",
            result.dynamic.planned_cost,
            result.static_planned_cost
        );
    }

    #[test]
    fn multigrid_pipeline_runs_end_to_end() {
        let result = align_then_distribute_dynamic(
            &programs::multigrid_vcycle(16, 2, 2),
            4,
            &DynamicConfig::default(),
        );
        assert!(!result.phases.is_empty());
        let sim = simulate_dynamic(&result, SimOptions::default());
        assert!(sim.total_elements().is_finite());
        assert!(result.dynamic.planned_cost.is_finite());
    }

    #[test]
    fn layers_are_capped_and_well_formed() {
        let result =
            align_then_distribute_dynamic(&programs::fft_like(16, 8), 8, &DynamicConfig::default());
        for (layer, phase) in result.layers.iter().zip(&result.phases) {
            assert!(!layer.dists.is_empty());
            assert_eq!(layer.dists.len(), layer.costs.len());
            assert_eq!(layer.dists.len(), layer.sigs.len());
            // Bounded by the cap plus the always-retained favourites (one
            // per phase, plus at most one forced signature per phase after
            // coalescing).
            assert!(
                layer.dists.len()
                    <= result.config.max_candidates_per_phase + 2 * result.phases.len()
            );
            // The phase's own model optimum is always retained.
            let best = phase.report.best().distribution.grid();
            assert!(
                layer.dists.iter().any(|d| d.grid() == best),
                "layer missing the phase optimum {best:?}"
            );
            for d in &layer.dists {
                assert_eq!(d.grid().iter().product::<usize>(), 8);
            }
        }
        // The chosen plan picks within the layers.
        for (layer, (&chosen, dist)) in result
            .layers
            .iter()
            .zip(result.dynamic.chosen.iter().zip(&result.dynamic.per_phase))
        {
            assert!(chosen < layer.dists.len());
            assert_eq!(format!("{}", layer.dists[chosen]), format!("{dist}"));
        }
    }

    #[test]
    fn pool_signatures_span_phases() {
        // Every phase prices the shared pool, so "stay put" on any other
        // phase's favourite is always a comparable option and the plan can
        // never price worse than the best static candidate of the pool.
        let result =
            align_then_distribute_dynamic(&programs::fft_like(16, 8), 8, &DynamicConfig::default());
        assert_eq!(result.phases.len(), 2);
        let d = &result.dynamic;
        assert!(d.planned_cost <= result.static_planned_cost + 1e-9, "{d}");
    }

    #[test]
    fn planned_cost_equals_simulated_cost() {
        // The exactness contract, spot-checked here (the full property test
        // over every phase workload lives in tests/dynamic_tests.rs):
        // priced == simulated under the pricing options, bit for bit. The
        // sampled instances carry non-integer scales and control weights,
        // so their totals only agree when both sides add the same terms in
        // the same order.
        let mut exact = DynamicConfig::default();
        exact.sim = SimOptions::exact();
        let sampled = DynamicConfig::default();
        let cases = [
            (programs::fft_like(16, 8), &exact),
            (programs::conditional_pipeline(36, 9, 0.7), &sampled),
            (programs::fft_like_nested(90, 40), &sampled),
            (programs::multi_array_pipeline(102, 8), &sampled),
            (programs::reduction_tree(86, 24), &sampled),
            (programs::reduction_tree(96, 24), &sampled),
        ];
        for (program, cfg) in cases {
            let result = align_then_distribute_dynamic(&program, 8, cfg);
            let sim = simulate_dynamic(&result, cfg.sim);
            assert_eq!(
                result.dynamic.planned_cost.to_bits(),
                sim.total_elements().to_bits(),
                "{}: planned {} vs simulated {}",
                program.name,
                result.dynamic.planned_cost,
                sim.total_elements()
            );
        }
    }

    #[test]
    fn replays_survive_a_poisoned_sim_cache_store() {
        let result =
            align_then_distribute_dynamic(&programs::fft_like(16, 8), 8, &DynamicConfig::default());
        let store = Arc::clone(&result.sim_caches);
        let _ = std::thread::spawn(move || {
            let _guard = store.lock().unwrap();
            panic!("poisoning the sim-cache store");
        })
        .join();
        assert!(result.sim_caches.is_poisoned());
        let exact = SimOptions::exact();
        let first = simulate_dynamic(&result, exact).total_elements();
        assert_eq!(first, simulate_dynamic(&result, exact).total_elements());
        assert!(simulate_static(&result, exact).total_elements().is_finite());
    }

    #[test]
    fn unused_boundaries_coalesce() {
        // One trip per phase: the boundary all-to-all cannot pay for
        // itself, the DP keeps one layout, and the unused seam disappears
        // from the plan entirely.
        let result =
            align_then_distribute_dynamic(&programs::fft_like(32, 1), 8, &DynamicConfig::default());
        assert_eq!(result.phases.len(), 1, "unused boundary coalesced");
        assert!(!result.dynamic.redistributes());
        assert_eq!(result.num_atoms(), 2, "both atoms survive the merge");
    }
}
