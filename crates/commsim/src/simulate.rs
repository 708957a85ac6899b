//! The simulation proper: walk every edge, iteration and element and count
//! where the data has to move.

use crate::machine::TemplateDistribution;
use adg::{Adg, Edge, EdgeId};
use align_ir::LivId;
use alignment_core::position::{OffsetAlign, PortAlignment, ProgramAlignment};
use std::collections::HashSet;

/// Knobs bounding the cost of a simulation run.
///
/// # Sampling and its error bound
///
/// Objects (and edge iteration spaces) whose total count is at most
/// [`SimOptions::exact_below`] are enumerated **exactly** — every element and
/// every iteration point is visited and the reported traffic is not an
/// estimate. Beyond the threshold the enumeration is strided down to the
/// respective cap and every visited point is scaled up by
/// `total / sampled`.
///
/// The sample is a deterministic lattice (every `s`-th index per axis, `s =
/// ⌈(total/budget)^(1/rank)⌉`), not a random draw, so the error is
/// systematic, not probabilistic: ownership under a block-cyclic layout is
/// piecewise constant on runs of `block` consecutive cells, and a strided
/// scan misclassifies at most the elements lying within one stride of a
/// run boundary. Per distributed axis of extent `e` with per-processor run
/// length `b`, that is a fraction of at most `min(1, s/b)` of the axis —
/// i.e. the *relative* error of each traffic count is bounded by
/// `Σ_axis s/b_axis` (and is exactly 0 when `s = 1`). Shift-style traffic
/// that moves an `Θ(1/b)` boundary fraction is therefore resolved reliably
/// only while `s ≲ b`; raise the caps (or [`SimOptions::exact`]) when
/// pricing fine-grained layouts of very large objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Maximum number of elements enumerated per object per iteration;
    /// objects larger than [`SimOptions::exact_below`] are strided down to
    /// this budget and the counts scaled up.
    pub max_elements_per_object: usize,
    /// Maximum number of iteration points enumerated per edge; longer loops
    /// (above [`SimOptions::exact_below`]) are sampled and scaled up.
    pub max_iterations_per_edge: usize,
    /// Exact-iteration threshold: objects and iteration spaces whose total
    /// count is at most this are always enumerated exactly, even when the
    /// respective cap is smaller. Set to 0 to make the caps unconditional
    /// (pure sampling), or to `usize::MAX` for fully exact runs.
    pub exact_below: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_elements_per_object: 4096,
            max_iterations_per_edge: 512,
            exact_below: 4096,
        }
    }
}

impl SimOptions {
    /// Fully exact simulation: no sampling anywhere, whatever the object or
    /// loop sizes. The cost is linear in `Σ_edges |iterations| × |elements|`.
    pub fn exact() -> Self {
        SimOptions {
            max_elements_per_object: usize::MAX,
            max_iterations_per_edge: usize::MAX,
            exact_below: usize::MAX,
        }
    }

    /// Pure sampling with explicit budgets: the exact-iteration threshold is
    /// disabled, so the caps apply unconditionally (used by tests that
    /// exercise the sampling path itself).
    pub fn sampled(max_elements_per_object: usize, max_iterations_per_edge: usize) -> Self {
        SimOptions {
            max_elements_per_object,
            max_iterations_per_edge,
            exact_below: 0,
        }
    }

    /// The element budget for an object of `total` elements: the object
    /// itself when exact, the cap otherwise.
    pub(crate) fn element_budget(&self, total: usize) -> usize {
        if total <= self.exact_below {
            total.max(1)
        } else {
            self.max_elements_per_object
        }
    }

    /// The iteration budget for an edge traversed `total` times.
    pub(crate) fn iteration_budget(&self, total: usize) -> usize {
        if total <= self.exact_below {
            total.max(1)
        } else {
            self.max_iterations_per_edge
        }
    }
}

/// Traffic measured on one edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeTraffic {
    /// Elements that changed owning processor.
    pub element_moves: f64,
    /// Distinct (sender, receiver) pairs summed over traversals.
    pub messages: f64,
    /// Elements broadcast into a replicated position.
    pub broadcast_elements: f64,
}

impl EdgeTraffic {
    /// Accumulate another edge's traffic into this one.
    pub fn add(&mut self, other: &EdgeTraffic) {
        self.element_moves += other.element_moves;
        self.messages += other.messages;
        self.broadcast_elements += other.broadcast_elements;
    }

    /// True if the edge needed no communication at all.
    pub fn is_zero(&self) -> bool {
        self.element_moves == 0.0 && self.messages == 0.0 && self.broadcast_elements == 0.0
    }

    /// Total elements carried: point-to-point moves plus broadcasts. The
    /// scalar the phase pipeline's exact plan pricing sums.
    pub fn elements(&self) -> f64 {
        self.element_moves + self.broadcast_elements
    }
}

/// Add element totals left to right, starting from zero: the one summation
/// order behind every total a plan's cost is compared on — an atom's edges
/// ([`PlacementCache::total_elements`] and the per-edge breakdown of
/// [`PlacementCache::price`]), a phase's atoms, and a plan's phases and
/// redistribution steps. The same terms in the same order give the same
/// bits, so a priced total and its replay can be compared with `==`.
pub fn sum_elements(terms: impl IntoIterator<Item = f64>) -> f64 {
    terms.into_iter().fold(0.0, |acc, t| acc + t)
}

/// The result of simulating a whole program.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Total traffic.
    pub total: EdgeTraffic,
    /// Traffic per edge (indexed in step with the ADG's edge ids), skipping
    /// zero-traffic edges.
    pub per_edge: Vec<(EdgeId, EdgeTraffic)>,
    /// Number of processors of the simulated machine.
    pub processors: usize,
}

impl SimReport {
    /// Total elements moved (point-to-point plus broadcast).
    pub fn total_elements(&self) -> f64 {
        self.total.element_moves + self.total.broadcast_elements
    }

    /// Fold another report into this one (summing totals, concatenating the
    /// per-edge breakdown — edge ids then refer to the *contributing* ADGs,
    /// e.g. one per atom when a phase is simulated atom by atom).
    pub fn merge(&mut self, other: SimReport) {
        self.total.add(&other.total);
        self.per_edge.extend(other.per_edge);
    }
}

/// Simulate the residual communication of `alignment` on `machine` — any
/// [`TemplateDistribution`]: the built-in block-cyclic [`crate::Machine`] or
/// an explicit per-axis distribution such as `distrib::ProgramDistribution`.
pub fn simulate<D: TemplateDistribution + ?Sized>(
    adg: &Adg,
    alignment: &ProgramAlignment,
    machine: &D,
    opts: SimOptions,
) -> SimReport {
    let _span = trace::span("commsim.simulate");
    let sampling_before = trace::counter("commsim.sampling_events");
    let mut report = SimReport {
        processors: machine.num_processors(),
        ..SimReport::default()
    };
    for (eid, edge) in adg.edges() {
        let traffic = simulate_edge(adg, edge, alignment, machine, opts);
        if !traffic.is_zero() {
            report.per_edge.push((eid, traffic));
        }
        report.total.add(&traffic);
    }
    // A run is "exact" when no edge strided its iterations and no object
    // strided its element lattice — judged by what actually happened, not
    // by the options (default options enumerate small programs exactly).
    let kind = if trace::counter("commsim.sampling_events") > sampling_before {
        "commsim.sims.sampled"
    } else {
        "commsim.sims.exact"
    };
    trace::count(kind, 1);
    report
}

fn simulate_edge<D: TemplateDistribution + ?Sized>(
    adg: &Adg,
    edge: &Edge,
    alignment: &ProgramAlignment,
    machine: &D,
    opts: SimOptions,
) -> EdgeTraffic {
    let src_port = adg.port(edge.src);
    let src_align = alignment.port(edge.src);
    let dst_align = alignment.port(edge.dst);

    let mut traffic = EdgeTraffic::default();
    let num_points = edge.space.size() as usize;
    if num_points == 0 {
        return traffic;
    }
    // Sample iterations if the loop is long, streaming the points rather
    // than materialising the whole enumeration.
    let iter_stride = num_points
        .div_ceil(opts.iteration_budget(num_points))
        .max(1);
    if iter_stride > 1 {
        trace::count("commsim.sampling_events", 1);
    }
    let iter_scale = iter_stride as f64;
    let mut idx = 0usize;
    let mut pairs = PairSet::new(machine.num_processors());

    edge.space.for_each_point(|point| {
        let take = idx.is_multiple_of(iter_stride);
        idx += 1;
        if !take {
            return;
        }
        let extents: Vec<i64> = src_port
            .extents
            .iter()
            .map(|a| a.eval_assoc(point).max(0))
            .collect();
        let total_elements: i64 = extents.iter().product::<i64>().max(0);
        if total_elements == 0 {
            return;
        }
        let per_iter = element_traffic(
            &extents, src_align, dst_align, machine, point, opts, &mut pairs,
        );
        traffic.element_moves += per_iter.element_moves * iter_scale * edge.control_weight;
        traffic.messages += per_iter.messages * iter_scale * edge.control_weight;
        traffic.broadcast_elements +=
            per_iter.broadcast_elements * iter_scale * edge.control_weight;
    });
    traffic
}

/// The sampling lattice of one element traversal: per-axis strides chosen so
/// the sampled count stays within the budget, plus the bookkeeping the
/// counters need. Shared between the real traversal and the fast paths that
/// can prove a traversal contributes nothing — both must book identical
/// `commsim.elements_priced` / `commsim.sampling_events` counts.
struct SampleLattice {
    strides: Vec<i64>,
    sampled: i64,
    total: i64,
    scale: f64,
}

impl SampleLattice {
    fn new(extents: &[i64], budget: usize) -> SampleLattice {
        let total: i64 = extents.iter().product::<i64>().max(1);
        let shrink =
            ((total as f64) / budget.max(1) as f64).powf(1.0 / extents.len().max(1) as f64);
        let strides: Vec<i64> = extents
            .iter()
            .map(|_| (shrink.ceil() as i64).max(1))
            .collect();
        let sampled: i64 = extents
            .iter()
            .zip(&strides)
            .map(|(&e, &s)| (e + s - 1) / s)
            .product::<i64>()
            .max(1);
        let scale = total as f64 / sampled as f64;
        SampleLattice {
            strides,
            sampled,
            total,
            scale,
        }
    }

    /// Book the traversal's counters (identical whether or not the element
    /// loop actually runs).
    fn count(&self) {
        trace::count("commsim.elements_priced", self.sampled as u64);
        if self.sampled < self.total {
            trace::count("commsim.sampling_events", 1);
        }
    }
}

/// Visit a bounded sample of the (1-based) element indices of an object with
/// the given extents: every axis is strided so the sampled count stays within
/// `budget`, and each visited index represents `scale` real elements.
fn for_each_sampled_index(extents: &[i64], budget: usize, mut visit: impl FnMut(&[i64], f64)) {
    let lattice = SampleLattice::new(extents, budget);
    lattice.count();
    let strides = &lattice.strides;
    let scale = lattice.scale;

    let mut index = vec![1i64; extents.len()];
    loop {
        visit(&index, scale);
        // Advance the multi-index (last axis fastest), stepping by the
        // sampling stride.
        let mut carry = true;
        for a in (0..extents.len()).rev() {
            if !carry {
                break;
            }
            index[a] += strides[a];
            if index[a] > extents[a] {
                index[a] = 1;
            } else {
                carry = false;
            }
        }
        if carry || extents.is_empty() {
            break;
        }
    }
}

/// Distinct `(sender, receiver)` pair tracker for the element loops. The
/// straightforward `HashSet<(usize, usize)>` pays a SipHash per *element*
/// (the loops insert on every moved element, not every distinct pair),
/// which dominates the traversal on high-traffic edges. Small machines —
/// the only kind the pipeline prices — use an epoch-marked dense matrix
/// instead: one array read/write per insert, `begin` is O(1), and the
/// distinct-pair count (the only output) is identical. Machines too large
/// for the dense matrix spill to the hash set.
struct PairSet {
    /// `nprocs + 1`: receiver `usize::MAX` (a broadcast) maps to the extra
    /// last column.
    stride: usize,
    /// Dense marks (empty when spilling).
    marks: Vec<u32>,
    epoch: u32,
    spill: HashSet<(usize, usize)>,
    len: usize,
}

impl PairSet {
    /// Cells cap for the dense representation (4 MiB of marks).
    const DENSE_LIMIT: usize = 1 << 20;

    fn new(nprocs: usize) -> PairSet {
        let stride = nprocs + 1;
        let cells = stride.saturating_mul(stride);
        let marks = if cells <= Self::DENSE_LIMIT {
            vec![0u32; cells]
        } else {
            Vec::new()
        };
        PairSet {
            stride,
            marks,
            epoch: 0,
            spill: HashSet::new(),
            len: 0,
        }
    }

    /// Start a fresh traversal: the set becomes empty.
    fn begin(&mut self) {
        self.len = 0;
        if self.marks.is_empty() {
            self.spill.clear();
        } else {
            self.epoch = self.epoch.wrapping_add(1);
            if self.epoch == 0 {
                self.marks.fill(0);
                self.epoch = 1;
            }
        }
    }

    #[inline]
    fn insert(&mut self, src: usize, dst: usize) {
        if self.marks.is_empty() {
            if self.spill.insert((src, dst)) {
                self.len += 1;
            }
            return;
        }
        let dst = if dst == usize::MAX {
            self.stride - 1
        } else {
            dst
        };
        let cell = src * self.stride + dst;
        if self.marks[cell] != self.epoch {
            self.marks[cell] = self.epoch;
            self.len += 1;
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Traffic of one traversal: enumerate (or sample) the elements of the object
/// and compare owners under the two alignments. `pairs` is caller-provided
/// workspace (reused across the iteration points of an edge).
fn element_traffic<D: TemplateDistribution + ?Sized>(
    extents: &[i64],
    src: &PortAlignment,
    dst: &PortAlignment,
    machine: &D,
    point: &[(LivId, i64)],
    opts: SimOptions,
    pairs: &mut PairSet,
) -> EdgeTraffic {
    let dst_replicated = dst.offsets.iter().any(OffsetAlign::is_replicated)
        && !src.offsets.iter().any(OffsetAlign::is_replicated);

    pairs.begin();

    let src_eval = PosEval::new(src, point);
    let dst_eval = PosEval::new(dst, point);
    let total: usize = extents.iter().product::<i64>().max(1) as usize;

    // A perfectly aligned traversal (identical position evaluators, no
    // replication asymmetry) puts every element's copies on the same owner:
    // book the traversal's sampling counters and skip the element loop.
    if !dst_replicated && src_eval == dst_eval {
        SampleLattice::new(extents, opts.element_budget(total)).count();
        return EdgeTraffic::default();
    }

    // Compiled fast path — the same owner tables the redistribution loop
    // uses ([`RedistOwnerLut`]). Both sides share the machine, and
    // `owner_flat` pins replicated/missing axes to coordinate 0 exactly as
    // the compiler does, so "moved" reduces to table-fold inequality. Falls
    // through to the per-element evaluation when an owner map does not
    // decompose per lattice axis; both paths visit the identical sample and
    // book identical counters.
    if let Some(traffic) = element_traffic_compiled(
        extents,
        &src_eval,
        &dst_eval,
        machine,
        dst_replicated,
        opts.element_budget(total),
        pairs,
    ) {
        return traffic;
    }
    element_traffic_evaluated(
        extents,
        &src_eval,
        &dst_eval,
        machine,
        dst_replicated,
        opts.element_budget(total),
        pairs,
    )
}

/// The per-element owner evaluation of [`element_traffic`] — the historical
/// loop, kept as the fallback for owner maps the table compiler rejects.
fn element_traffic_evaluated<D: TemplateDistribution + ?Sized>(
    extents: &[i64],
    src_eval: &PosEval,
    dst_eval: &PosEval,
    machine: &D,
    dst_replicated: bool,
    budget: usize,
    pairs: &mut PairSet,
) -> EdgeTraffic {
    let mut moves = 0.0;
    let mut broadcast = 0.0;
    let mut src_buf = Vec::new();
    let mut dst_buf = Vec::new();

    for_each_sampled_index(extents, budget, |index, scale| {
        src_eval.write(index, &mut src_buf);
        if dst_replicated {
            broadcast += scale;
            pairs.insert(machine.owner_flat(&src_buf), usize::MAX);
        } else {
            dst_eval.write(index, &mut dst_buf);
            // Identical template positions have identical owners (same
            // machine on both sides): the element cannot move, so skip both
            // owner evaluations — on a well-aligned program this is the
            // overwhelmingly common case.
            if src_buf == dst_buf {
                return;
            }
            let src_owner = machine.owner_flat(&src_buf);
            let dst_owner = machine.owner_flat(&dst_buf);
            if src_owner != dst_owner {
                moves += scale;
                pairs.insert(src_owner, dst_owner);
            }
        }
    });

    EdgeTraffic {
        element_moves: moves,
        messages: pairs.len() as f64,
        broadcast_elements: broadcast,
    }
}

/// The table-driven element loop of [`element_traffic`]; `None` when an
/// owner map does not decompose per sampling-lattice axis (the caller then
/// runs the per-element evaluation on an untouched `pairs`).
fn element_traffic_compiled<D: TemplateDistribution + ?Sized>(
    extents: &[i64],
    src_eval: &PosEval,
    dst_eval: &PosEval,
    machine: &D,
    dst_replicated: bool,
    budget: usize,
    pairs: &mut PairSet,
) -> Option<EdgeTraffic> {
    let dims = machine.grid_dims();
    if dims.contains(&0) {
        return None;
    }
    let lattice = SampleLattice::new(extents, budget);
    let counts: Vec<usize> = extents
        .iter()
        .zip(&lattice.strides)
        .map(|(&e, &s)| ((e + s - 1) / s) as usize)
        .collect();
    let scale = lattice.scale;

    let mut moves = 0.0;
    let mut broadcast = 0.0;
    let w = fold_weights(&dims, |_| true);
    let src_lut = RedistOwnerLut::compile(src_eval, machine, &w, &counts, &lattice.strides)?;
    if dst_replicated {
        lattice.count();
        for_each_lattice_pos(&counts, |pos| {
            broadcast += scale;
            pairs.insert(src_lut.eval(pos), usize::MAX);
        });
        return Some(EdgeTraffic {
            element_moves: moves,
            messages: pairs.len() as f64,
            broadcast_elements: broadcast,
        });
    }
    let dst_lut = RedistOwnerLut::compile(dst_eval, machine, &w, &counts, &lattice.strides)?;
    lattice.count();
    for_each_lattice_pos(&counts, |pos| {
        let src_owner = src_lut.eval(pos);
        let dst_owner = dst_lut.eval(pos);
        if src_owner != dst_owner {
            moves += scale;
            pairs.insert(src_owner, dst_owner);
        }
    });
    Some(EdgeTraffic {
        element_moves: moves,
        messages: pairs.len() as f64,
        broadcast_elements: broadcast,
    })
}

use crate::machine::REPLICATED_COORD;

/// [`PortAlignment::position_of`] with the per-traversal work hoisted out of
/// the element loop: offsets and strides are affine in the *iteration point*
/// and never in the element index, so one traversal evaluates them once and
/// every element reduces to one integer multiply-add per body axis into a
/// reusable flat buffer ([`REPLICATED_COORD`] standing in for `None`).
/// Produces bit-identical coordinates to `position_of` — the owner values,
/// and therefore every traffic count, are unchanged.
///
/// Two equal evaluators produce equal coordinates at every element index —
/// the element loops use this to prove a perfectly aligned traversal moves
/// nothing without enumerating it.
#[derive(PartialEq)]
struct PosEval {
    /// Per template axis: the offset at this iteration point.
    base: Vec<i64>,
    /// Per body axis: (template axis, stride at this iteration point).
    terms: Vec<(usize, i64)>,
}

impl PosEval {
    fn new(align: &PortAlignment, point: &[(LivId, i64)]) -> PosEval {
        PosEval {
            base: align
                .offsets
                .iter()
                .map(|o| o.eval(point).unwrap_or(REPLICATED_COORD))
                .collect(),
            terms: align
                .axis_map
                .iter()
                .enumerate()
                .map(|(b, &t)| (t, align.strides[b].eval_assoc(point)))
                .collect(),
        }
    }

    /// Write the template coordinates of element `index` into `out`.
    fn write(&self, index: &[i64], out: &mut Vec<i64>) {
        out.clear();
        out.extend_from_slice(&self.base);
        for (b, &(t, stride)) in self.terms.iter().enumerate() {
            if out[t] != REPLICATED_COORD {
                out[t] += stride * index[b];
            }
        }
    }
}

/// Pre-evaluated element placements of one (ADG, alignment) pair.
///
/// [`simulate`] spends most of its time evaluating *positions* — affine
/// offsets and strides per element per iteration — yet positions depend
/// only on the alignment, never on the candidate distribution. When many
/// distributions must be priced against the same aligned program (the phase
/// pipeline prices every candidate layer entry), building this cache once
/// and calling [`PlacementCache::price`] per candidate does the affine work
/// once and reduces each candidate to owner lookups.
///
/// The cache mirrors [`simulate`]'s sampling exactly (same iteration
/// strides, same element lattice, same scales), so for any distribution
/// `d`: `cache.price(&d)` reports the same traffic as
/// `simulate(adg, alignment, &d, opts)` — locked in by the
/// `cache_matches_simulate` test. The two scale and add the sampled
/// elements in different orders, so non-integer scales or control weights
/// can make them differ in the last bits. Within the cache the order is
/// fixed: an edge's sampled elements are summed over all its iterations
/// and scaled once, and the edges are added with [`sum_elements`] — so the
/// per-edge breakdown of [`PlacementCache::price`], summed that way, equals
/// [`PlacementCache::total_elements`] bit for bit.
#[derive(Debug, Clone)]
pub struct PlacementCache {
    edges: Vec<CachedEdge>,
    /// Per-template-axis lower/upper bounds over every stored coordinate
    /// (source and destination alike, replicated sentinels excluded), so a
    /// price call can build per-axis owner lookup tables covering exactly
    /// the coordinates its sweep will ask about.
    coord_lo: Vec<i64>,
    coord_hi: Vec<i64>,
}

/// Per-axis owner lookup tables over a known coordinate range: the
/// per-sample `owner_flat` arithmetic (a euclidean divide and remainder per
/// axis) collapses to one bounds-free load per axis. The mixed-radix fold
/// (axis 0 most significant, missing/replicated axes pinned to cell 0)
/// reproduces [`TemplateDistribution::owner_flat`] exactly — guaranteed by
/// the trait's `owner_coord` composition contract.
struct OwnerTables {
    axes: Vec<OwnerAxisTable>,
}

struct OwnerAxisTable {
    g: usize,
    lo: i64,
    owners: Vec<u32>,
    /// Owner of cell 0 — what `owner_flat` substitutes for replicated or
    /// missing coordinates.
    zero: u32,
}

impl OwnerTables {
    /// Widest per-axis coordinate span worth tabulating; beyond it the
    /// sweep falls back to direct `owner_flat` calls.
    const MAX_SPAN: i64 = 1 << 16;

    fn build<D: TemplateDistribution + ?Sized>(
        machine: &D,
        lo: &[i64],
        hi: &[i64],
    ) -> Option<OwnerTables> {
        let dims = machine.grid_dims();
        let mut axes = Vec::with_capacity(dims.len());
        for (t, &g) in dims.iter().enumerate() {
            // Cover cell 0 as well, so the replicated/missing substitute is
            // a plain table read.
            let (l, h) = match (lo.get(t), hi.get(t)) {
                (Some(&l), Some(&h)) if l <= h => (l.min(0), h.max(0)),
                _ => (0, 0),
            };
            if h - l >= Self::MAX_SPAN {
                return None;
            }
            let owners: Vec<u32> = (l..=h).map(|c| machine.owner_coord(t, c) as u32).collect();
            let zero = owners[(-l) as usize];
            axes.push(OwnerAxisTable {
                g,
                lo: l,
                owners,
                zero,
            });
        }
        Some(OwnerTables { axes })
    }

    #[inline]
    fn owner(&self, coords: &[i64]) -> usize {
        let mut id = 0usize;
        for (t, ax) in self.axes.iter().enumerate() {
            let oc = match coords.get(t).copied() {
                Some(c) if c != REPLICATED_COORD => ax.owners[(c - ax.lo) as usize] as usize,
                _ => ax.zero as usize,
            };
            id = id * ax.g + oc;
        }
        id
    }
}

#[derive(Debug, Clone)]
struct CachedEdge {
    id: EdgeId,
    /// Iteration-sampling scale × the edge's control weight.
    weight: f64,
    /// Destination replicated while the source is not: every element is a
    /// broadcast, no destination positions stored.
    dst_replicated: bool,
    src_rank: usize,
    dst_rank: usize,
    iterations: Vec<CachedIteration>,
}

#[derive(Debug, Clone)]
struct CachedIteration {
    /// Flat-packed coords per sample: `src_rank` source coordinates then
    /// (unless the edge broadcasts) `dst_rank` destination coordinates,
    /// with [`REPLICATED_COORD`] standing in for `None`.
    coords: Vec<i64>,
    /// Element-sampling scale per sample.
    scales: Vec<f64>,
}

impl PlacementCache {
    /// Evaluate every sampled (edge, iteration, element) placement of the
    /// aligned program once.
    pub fn new(adg: &Adg, alignment: &ProgramAlignment, opts: SimOptions) -> Self {
        let _span = trace::span("commsim.cache.build");
        trace::count("commsim.cache.builds", 1);
        let mut edges = Vec::new();
        let mut coord_lo: Vec<i64> = Vec::new();
        let mut coord_hi: Vec<i64> = Vec::new();
        fn note_range(lo: &mut Vec<i64>, hi: &mut Vec<i64>, buf: &[i64]) {
            if lo.len() < buf.len() {
                lo.resize(buf.len(), i64::MAX);
                hi.resize(buf.len(), i64::MIN);
            }
            for (t, &c) in buf.iter().enumerate() {
                if c == REPLICATED_COORD {
                    continue;
                }
                lo[t] = lo[t].min(c);
                hi[t] = hi[t].max(c);
            }
        }
        for (eid, edge) in adg.edges() {
            let src_port = adg.port(edge.src);
            let src_align = alignment.port(edge.src);
            let dst_align = alignment.port(edge.dst);
            let num_points = edge.space.size() as usize;
            if num_points == 0 {
                continue;
            }
            let dst_replicated = dst_align.offsets.iter().any(OffsetAlign::is_replicated)
                && !src_align.offsets.iter().any(OffsetAlign::is_replicated);
            let src_rank = src_align.template_rank();
            let dst_rank = dst_align.template_rank();
            let iter_stride = num_points
                .div_ceil(opts.iteration_budget(num_points))
                .max(1);
            let mut iterations = Vec::new();
            let mut idx = 0usize;
            edge.space.for_each_point(|point| {
                let take = idx.is_multiple_of(iter_stride);
                idx += 1;
                if !take {
                    return;
                }
                let extents: Vec<i64> = src_port
                    .extents
                    .iter()
                    .map(|a| a.eval_assoc(point).max(0))
                    .collect();
                let total_elements: i64 = extents.iter().product::<i64>().max(0);
                if total_elements == 0 {
                    return;
                }
                let budget = opts.element_budget(total_elements as usize);
                let src_eval = PosEval::new(src_align, point);
                let dst_eval = PosEval::new(dst_align, point);
                // Identical evaluators: every sample would be dropped as
                // position-identical below — book the sampling counters and
                // store the (empty) iteration without enumerating.
                if !dst_replicated && src_eval == dst_eval {
                    SampleLattice::new(&extents, budget).count();
                    iterations.push(CachedIteration {
                        coords: Vec::new(),
                        scales: Vec::new(),
                    });
                    return;
                }
                let mut coords = Vec::new();
                let mut scales = Vec::new();
                let mut src_buf = Vec::new();
                let mut dst_buf = Vec::new();
                for_each_sampled_index(&extents, budget, |index, scale| {
                    src_eval.write(index, &mut src_buf);
                    if !dst_replicated {
                        dst_eval.write(index, &mut dst_buf);
                        if dst_buf == src_buf {
                            // Identical positions have identical owners
                            // under EVERY distribution: the sample can
                            // never contribute traffic, so don't store it.
                            // (This is what makes pricing a well-aligned
                            // program cheap — only the residual edges
                            // survive into the cache.)
                            return;
                        }
                        note_range(&mut coord_lo, &mut coord_hi, &src_buf);
                        note_range(&mut coord_lo, &mut coord_hi, &dst_buf);
                        coords.extend_from_slice(&src_buf);
                        coords.extend_from_slice(&dst_buf);
                    } else {
                        note_range(&mut coord_lo, &mut coord_hi, &src_buf);
                        coords.extend_from_slice(&src_buf);
                    }
                    scales.push(scale);
                });
                iterations.push(CachedIteration { coords, scales });
            });
            edges.push(CachedEdge {
                id: eid,
                weight: iter_stride as f64 * edge.control_weight,
                dst_replicated,
                src_rank,
                dst_rank,
                iterations,
            });
        }
        PlacementCache {
            edges,
            coord_lo,
            coord_hi,
        }
    }

    /// Price one candidate distribution: identical traffic to running
    /// [`simulate`] with the same options the cache was built with.
    pub fn price<D: TemplateDistribution + ?Sized>(&self, machine: &D) -> SimReport {
        self.run(machine)
    }

    /// Total elements moved under one candidate — the fast path for
    /// ranking: skips the per-edge breakdown and the distinct
    /// (sender, receiver) message sets (whose counts the element totals do
    /// not depend on).
    pub fn total_elements<D: TemplateDistribution + ?Sized>(&self, machine: &D) -> f64 {
        trace::count("commsim.cache.prices", 1);
        let tables = OwnerTables::build(machine, &self.coord_lo, &self.coord_hi);
        sum_elements(self.edges.iter().map(|edge| {
            let mut edge_elems = 0.0;
            let sample_width = edge.sample_width();
            for iteration in &edge.iterations {
                for (s, chunk) in iteration.coords.chunks_exact(sample_width).enumerate() {
                    let scale = iteration.scales[s];
                    if edge.dst_replicated {
                        edge_elems += scale;
                        continue;
                    }
                    let (src_owner, dst_owner) = match &tables {
                        Some(t) => (
                            t.owner(&chunk[..edge.src_rank]),
                            t.owner(&chunk[edge.src_rank..]),
                        ),
                        None => (
                            machine.owner_flat(&chunk[..edge.src_rank]),
                            machine.owner_flat(&chunk[edge.src_rank..]),
                        ),
                    };
                    if src_owner != dst_owner {
                        edge_elems += scale;
                    }
                }
            }
            edge_elems * edge.weight
        }))
    }

    fn run<D: TemplateDistribution + ?Sized>(&self, machine: &D) -> SimReport {
        trace::count("commsim.cache.prices", 1);
        let tables = OwnerTables::build(machine, &self.coord_lo, &self.coord_hi);
        let mut report = SimReport {
            processors: machine.num_processors(),
            ..SimReport::default()
        };
        let mut pairs = PairSet::new(machine.num_processors());
        for edge in &self.edges {
            let mut traffic = EdgeTraffic::default();
            // Sampled elements over every iteration, scaled once at the end
            // — the order `total_elements` adds them in.
            let mut edge_elems = 0.0;
            let sample_width = edge.sample_width();
            for iteration in &edge.iterations {
                pairs.begin();
                for (s, chunk) in iteration.coords.chunks_exact(sample_width).enumerate() {
                    let scale = iteration.scales[s];
                    let src_owner = match &tables {
                        Some(t) => t.owner(&chunk[..edge.src_rank]),
                        None => machine.owner_flat(&chunk[..edge.src_rank]),
                    };
                    if edge.dst_replicated {
                        edge_elems += scale;
                        pairs.insert(src_owner, usize::MAX);
                    } else {
                        let dst_owner = match &tables {
                            Some(t) => t.owner(&chunk[edge.src_rank..]),
                            None => machine.owner_flat(&chunk[edge.src_rank..]),
                        };
                        if src_owner != dst_owner {
                            edge_elems += scale;
                            pairs.insert(src_owner, dst_owner);
                        }
                    }
                }
                traffic.messages += pairs.len() as f64 * edge.weight;
            }
            if edge.dst_replicated {
                traffic.broadcast_elements = edge_elems * edge.weight;
            } else {
                traffic.element_moves = edge_elems * edge.weight;
            }
            if !traffic.is_zero() {
                report.per_edge.push((edge.id, traffic));
            }
            report.total.add(&traffic);
        }
        report
    }
}

impl CachedEdge {
    fn sample_width(&self) -> usize {
        if self.dst_replicated {
            self.src_rank
        } else {
            self.src_rank + self.dst_rank
        }
    }
}

/// Exact (sampled) traffic of redistributing one object between two
/// (alignment, distribution) pairs over the *same* physical processors — the
/// inter-phase step of a dynamic distribution.
///
/// For every element the destination owner is computed under the target
/// alignment and distribution; the element moves unless some copy of it
/// already lives on that processor under the source pair. Replication is
/// handled per axis: a position replicated along a source axis is held at
/// every processor coordinate of that grid dimension (a *collapse* into a
/// single position is therefore free), while a destination that replicates a
/// previously single position charges a broadcast of the object (*spread*).
///
/// `extents` are the object's per-axis element counts, `point` the iteration
/// point at which mobile offsets are evaluated (boundary objects are loop
/// invariant, so this is usually the empty point).
/// The traffic of redistributing an object between two placements a caller
/// has already proven **identical** (equal alignments and equal
/// distributions): zero, without enumerating the elements. Books exactly
/// the sampling counters (`commsim.elements_priced`,
/// `commsim.sampling_events`) the full [`redistribution_traffic`] traversal
/// would have booked — with identical placements every element is held in
/// place, so this is the traversal's result, not an approximation of it.
pub fn identical_placement_traffic(extents: &[i64], opts: SimOptions) -> EdgeTraffic {
    let total: usize = extents.iter().product::<i64>().max(1) as usize;
    SampleLattice::new(extents, opts.element_budget(total)).count();
    EdgeTraffic::default()
}

/// One side's owner computation of [`redistribution_traffic`], compiled
/// against the element-sampling lattice: the flat owner id of the element
/// at lattice position `pos` is `base + Σ tables[k][pos[bₖ]]`.
///
/// The compilation exploits that both maps in the composition
/// `owner_flat ∘ PosEval` are per-axis: a grid axis's template coordinate
/// is affine in at most one body-axis index (replicated and missing axes
/// pin to cell 0), and `owner` is the mixed-radix fold of the per-axis
/// owner coordinates ([`TemplateDistribution::owner_coord`]'s composition
/// contract). Each grid axis therefore contributes either a constant or a
/// per-sampled-position table of weighted `owner_coord` values, and the
/// two euclidean divisions per grid axis per element collapse to one load
/// and add per body axis. The looked-up ids are exactly the evaluated
/// `owner_flat` values — traffic, message pairs, and sampling counters are
/// bit-identical to the uncompiled loop.
struct RedistOwnerLut {
    /// Weighted fold of the pinned axes (replicated, missing, or driven by
    /// no body axis).
    base: usize,
    /// `(body axis, weighted contribution per sampled position)` for each
    /// axis some body axis drives.
    tables: Vec<(usize, Vec<usize>)>,
}

impl RedistOwnerLut {
    /// Compile `dist`'s owner map under `eval`, weighting grid axis `t` by
    /// `weights[t]`; weight 0 drops the axis (the masked folds of the
    /// replicated-source held test use this). `counts` and `strides`
    /// describe the sampling lattice. `None` when some counted grid axis is
    /// driven by two body axes (a skewed alignment like `i + j`): its owner
    /// coordinate is then not a function of a single lattice axis.
    fn compile<D: TemplateDistribution + ?Sized>(
        eval: &PosEval,
        dist: &D,
        weights: &[usize],
        counts: &[usize],
        strides: &[i64],
    ) -> Option<RedistOwnerLut> {
        let mut base = 0usize;
        let mut tables: Vec<(usize, Vec<usize>)> = Vec::new();
        for (t, &w) in weights.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let c0 = eval.base.get(t).copied().unwrap_or(REPLICATED_COORD);
            if c0 == REPLICATED_COORD {
                base += dist.owner_coord(t, 0) * w;
                continue;
            }
            let mut driver: Option<(usize, i64)> = None;
            for (b, &(tb, stride)) in eval.terms.iter().enumerate() {
                if tb == t && stride != 0 && driver.replace((b, stride)).is_some() {
                    return None;
                }
            }
            match driver {
                None => base += dist.owner_coord(t, c0) * w,
                Some((b, stride)) => tables.push((
                    b,
                    (0..counts[b].max(1) as i64)
                        .map(|j| dist.owner_coord(t, c0 + stride * (1 + j * strides[b])) * w)
                        .collect(),
                )),
            }
        }
        Some(RedistOwnerLut { base, tables })
    }

    #[inline]
    fn eval(&self, pos: &[usize]) -> usize {
        let mut id = self.base;
        for (b, table) in &self.tables {
            id += table[pos[*b]];
        }
        id
    }
}

/// Mixed-radix fold weights (axis 0 most significant) over the axes `keep`
/// selects; dropped axes get weight 0. With every axis kept this reproduces
/// `owner_flat`'s positional weights.
fn fold_weights(dims: &[usize], keep: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut weights = vec![0usize; dims.len()];
    let mut acc = 1usize;
    for t in (0..dims.len()).rev() {
        if keep(t) {
            weights[t] = acc;
            acc *= dims[t].max(1);
        }
    }
    weights
}

/// Visit every position of the sampling lattice (`counts` per axis, last
/// axis fastest) in exactly [`for_each_sampled_index`]'s element order —
/// including its quirk of visiting the origin once even when an axis has a
/// zero count.
fn for_each_lattice_pos(counts: &[usize], mut visit: impl FnMut(&[usize])) {
    let mut pos = vec![0usize; counts.len()];
    loop {
        visit(&pos);
        let mut carry = true;
        for a in (0..counts.len()).rev() {
            pos[a] += 1;
            if pos[a] < counts[a] {
                carry = false;
                break;
            }
            pos[a] = 0;
        }
        if carry || counts.is_empty() {
            break;
        }
    }
}

pub fn redistribution_traffic<S, D>(
    extents: &[i64],
    src: &PortAlignment,
    src_dist: &S,
    dst: &PortAlignment,
    dst_dist: &D,
    point: &[(LivId, i64)],
    opts: SimOptions,
) -> EdgeTraffic
where
    S: TemplateDistribution + ?Sized,
    D: TemplateDistribution + ?Sized,
{
    assert_eq!(
        src_dist.num_processors(),
        dst_dist.num_processors(),
        "redistribution keeps the machine; only the mapping changes"
    );
    // A spread happens on any axis the destination replicates but the source
    // does not — judged per axis, so a source replicated along some *other*
    // axis still pays for the newly replicated one.
    let spread = dst.offsets.iter().enumerate().any(|(t, o)| {
        o.is_replicated() && !src.offsets.get(t).is_some_and(OffsetAlign::is_replicated)
    });

    let src_eval = PosEval::new(src, point);
    let dst_eval = PosEval::new(dst, point);
    let total: usize = extents.iter().product::<i64>().max(1) as usize;
    let budget = opts.element_budget(total);

    // Compiled fast path — see [`RedistOwnerLut`]. Falls through to the
    // per-element evaluation when an owner map does not decompose per
    // lattice axis, or when a replicated source must be compared across
    // differently-shaped grids. Both paths visit the identical element
    // sample and book identical counters; the `compiled_and_evaluated_*`
    // tests lock their agreement bit for bit.
    if let Some(traffic) = redistribution_compiled(
        extents, &src_eval, src_dist, &dst_eval, dst_dist, spread, budget,
    ) {
        return traffic;
    }
    redistribution_evaluated(
        extents, &src_eval, src_dist, &dst_eval, dst_dist, spread, budget,
    )
}

/// The table-driven element loop of [`redistribution_traffic`]; `None` when
/// the owner maps cannot be compiled against the sampling lattice.
fn redistribution_compiled<S, D>(
    extents: &[i64],
    src_eval: &PosEval,
    src_dist: &S,
    dst_eval: &PosEval,
    dst_dist: &D,
    spread: bool,
    budget: usize,
) -> Option<EdgeTraffic>
where
    S: TemplateDistribution + ?Sized,
    D: TemplateDistribution + ?Sized,
{
    let src_dims = src_dist.grid_dims();
    let dst_dims = dst_dist.grid_dims();
    if src_dims.iter().chain(&dst_dims).any(|&g| g == 0) {
        return None;
    }
    let lattice = SampleLattice::new(extents, budget);
    let counts: Vec<usize> = extents
        .iter()
        .zip(&lattice.strides)
        .map(|(&e, &s)| ((e + s - 1) / s) as usize)
        .collect();
    let scale = lattice.scale;

    let mut moves = 0.0;
    let mut broadcast = 0.0;
    let mut pairs = PairSet::new(src_dist.num_processors());
    pairs.begin();

    let src_w = fold_weights(&src_dims, |_| true);
    let src_lut = RedistOwnerLut::compile(src_eval, src_dist, &src_w, &counts, &lattice.strides)?;
    if spread {
        lattice.count();
        for_each_lattice_pos(&counts, |pos| {
            broadcast += scale;
            pairs.insert(src_lut.eval(pos), usize::MAX);
        });
        return Some(EdgeTraffic {
            element_moves: moves,
            messages: pairs.len() as f64,
            broadcast_elements: broadcast,
        });
    }
    let dst_w = fold_weights(&dst_dims, |_| true);
    let dst_lut = RedistOwnerLut::compile(dst_eval, dst_dist, &dst_w, &counts, &lattice.strides)?;
    // Axes the held test skips: replicated (or missing) source axes hold a
    // copy at every grid coordinate.
    let pinned: Vec<bool> = (0..src_dims.len())
        .map(|t| src_eval.base.get(t).copied().unwrap_or(REPLICATED_COORD) == REPLICATED_COORD)
        .collect();
    if pinned.iter().any(|&p| p) {
        // Masked comparison: with equal grid shapes the destination owner's
        // decomposition in the source radix recovers exactly the
        // destination's per-axis owner coordinates, so "held" reduces to
        // equal mixed-radix folds over the unpinned axes.
        if src_dims != dst_dims {
            return None;
        }
        let held_w = fold_weights(&src_dims, |t| !pinned[t]);
        let src_held =
            RedistOwnerLut::compile(src_eval, src_dist, &held_w, &counts, &lattice.strides)?;
        let dst_held =
            RedistOwnerLut::compile(dst_eval, dst_dist, &held_w, &counts, &lattice.strides)?;
        lattice.count();
        for_each_lattice_pos(&counts, |pos| {
            if src_held.eval(pos) != dst_held.eval(pos) {
                moves += scale;
                pairs.insert(src_lut.eval(pos), dst_lut.eval(pos));
            }
        });
    } else {
        // No replicated source axes: every per-axis coordinate is
        // constrained, and the mixed-radix fold is a bijection below the
        // (shared) processor count — "held" is flat-id equality.
        lattice.count();
        for_each_lattice_pos(&counts, |pos| {
            let src_owner = src_lut.eval(pos);
            let dst_owner = dst_lut.eval(pos);
            if src_owner != dst_owner {
                moves += scale;
                pairs.insert(src_owner, dst_owner);
            }
        });
    }
    Some(EdgeTraffic {
        element_moves: moves,
        messages: pairs.len() as f64,
        broadcast_elements: broadcast,
    })
}

/// The original per-element owner evaluation of [`redistribution_traffic`] —
/// the fallback when the owner maps do not compile, and the reference the
/// compiled path is tested against.
fn redistribution_evaluated<S, D>(
    extents: &[i64],
    src_eval: &PosEval,
    src_dist: &S,
    dst_eval: &PosEval,
    dst_dist: &D,
    spread: bool,
    budget: usize,
) -> EdgeTraffic
where
    S: TemplateDistribution + ?Sized,
    D: TemplateDistribution + ?Sized,
{
    let src_dims = src_dist.grid_dims();
    let mut moves = 0.0;
    let mut broadcast = 0.0;
    let mut pairs = PairSet::new(src_dist.num_processors());
    pairs.begin();

    let mut src_buf = Vec::new();
    let mut dst_buf = Vec::new();
    let mut dst_in_src = vec![0usize; src_dims.len()];

    for_each_sampled_index(extents, budget, |index, scale| {
        src_eval.write(index, &mut src_buf);
        if spread {
            broadcast += scale;
            pairs.insert(src_dist.owner_flat(&src_buf), usize::MAX);
            return;
        }
        dst_eval.write(index, &mut dst_buf);
        let dst_owner = dst_dist.owner_flat(&dst_buf);
        // Does any source copy already live on dst_owner? Decompose the
        // destination owner in the source grid's radix and compare axis by
        // axis; replicated source axes hold copies at every coordinate.
        // The same pass folds the per-axis source owner coordinates into
        // the source's linear owner id (mixed-radix, axis 0 most
        // significant — the composition `owner` is specified by), so a
        // moved element needs no second `owner_flat` sweep.
        let mut id = dst_owner;
        for (t, &g) in src_dims.iter().enumerate().rev() {
            dst_in_src[t] = id % g.max(1);
            id /= g.max(1);
        }
        let mut held = true;
        let mut src_owner = 0usize;
        for (t, &g) in src_dims.iter().enumerate() {
            let oc = match src_buf.get(t).copied() {
                Some(c) if c != REPLICATED_COORD => {
                    let oc = src_dist.owner_coord(t, c);
                    held &= oc == dst_in_src[t];
                    oc
                }
                // Replicated along t: a copy at every coordinate, and the
                // linear id pins to the coordinate-0 owner (as `owner_flat`
                // does for `None` axes).
                _ => src_dist.owner_coord(t, 0),
            };
            src_owner = src_owner * g + oc;
        }
        if !held {
            moves += scale;
            pairs.insert(src_owner, dst_owner);
        }
    });

    EdgeTraffic {
        element_moves: moves,
        messages: pairs.len() as f64,
        broadcast_elements: broadcast,
    }
}

/// Where an object rests: an alignment onto the template combined with a
/// distribution of the template onto processors. The phase pipeline's
/// layered-DAG edges price redistributions between *chosen* resting
/// placements — which, with phase-aware placement, need not be the sink and
/// source placements of the adjacent phases — so the pairing is first-class
/// here rather than four loose arguments.
/// The distribution parameter defaults to the trait object, but callers on
/// the pricing hot path (the layout DP's boundary pricer) instantiate it
/// with the concrete distribution type so the per-element owner evaluations
/// monomorphise and inline.
pub struct RestingPlacement<'a, D: TemplateDistribution + ?Sized = dyn TemplateDistribution> {
    /// The object's alignment onto the template.
    pub alignment: &'a PortAlignment,
    /// The distribution of the template onto the machine.
    pub distribution: &'a D,
}

impl<D: TemplateDistribution + ?Sized> Clone for RestingPlacement<'_, D> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<D: TemplateDistribution + ?Sized> Copy for RestingPlacement<'_, D> {}

impl<'a, D: TemplateDistribution + ?Sized> RestingPlacement<'a, D> {
    /// Pair an alignment with a distribution.
    pub fn new(alignment: &'a PortAlignment, distribution: &'a D) -> Self {
        RestingPlacement {
            alignment,
            distribution,
        }
    }

    /// Exact (sampled) traffic of moving an object with the given extents
    /// from this resting placement to `dst` — a thin, self-describing front
    /// end to [`redistribution_traffic`] at the loop-invariant point.
    pub fn traffic_to<E: TemplateDistribution + ?Sized>(
        &self,
        dst: &RestingPlacement<'_, E>,
        extents: &[i64],
        opts: SimOptions,
    ) -> EdgeTraffic {
        redistribution_traffic(
            extents,
            self.alignment,
            self.distribution,
            dst.alignment,
            dst.distribution,
            &[],
            opts,
        )
    }
}

/// One array's move at a phase boundary: the object's extents plus its
/// resting placements on either side. A dynamic plan's boundary is a *list*
/// of these — each array moves independently from wherever it actually
/// rests (the layout chosen by the phase that last used it), there is no
/// whole-boundary "flip" of a single global layout.
pub struct RedistSpec<'a> {
    /// The object's per-axis element extents.
    pub extents: &'a [i64],
    /// Where the object rests before the boundary.
    pub src: RestingPlacement<'a>,
    /// Where the next phase needs it.
    pub dst: RestingPlacement<'a>,
}

/// Simulate the per-array redistribution steps of one boundary: each step is
/// priced by the exact (sampled) owner comparison and the traffic summed.
pub fn simulate_redistribution(steps: &[RedistSpec<'_>], opts: SimOptions) -> EdgeTraffic {
    let _span = trace::span("commsim.redistribution");
    trace::count("commsim.redistributions", 1);
    let mut total = EdgeTraffic::default();
    for step in steps {
        total.add(&step.src.traffic_to(&step.dst, step.extents, opts));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use adg::build_adg;
    use align_ir::programs;
    use alignment_core::pipeline::{align_program, PipelineConfig};
    use alignment_core::position::ProgramAlignment;

    fn identity(adg: &Adg, t: usize) -> ProgramAlignment {
        let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
        ProgramAlignment::identity(t, &ranks)
    }

    #[test]
    fn identical_alignments_move_nothing() {
        let adg = build_adg(&programs::example1(64));
        let a = identity(&adg, 1);
        let m = Machine::block_distribution(vec![4], &[64]);
        let r = simulate(&adg, &a, &m, SimOptions::default());
        assert_eq!(r.total.element_moves, 0.0);
        assert_eq!(r.total.broadcast_elements, 0.0);
    }

    #[test]
    fn shifted_alignment_moves_boundary_elements_only() {
        // A one-cell offset mismatch under a block distribution moves only
        // the elements that cross a block boundary: n / block per traversal.
        use align_ir::Affine;
        use alignment_core::position::OffsetAlign;
        let adg = build_adg(&programs::example1(64));
        let mut a = identity(&adg, 1);
        let (pid, _) = adg.ports().find(|(_, p)| p.label.contains("B(2:")).unwrap();
        a.ports[pid.0].offsets[0] = OffsetAlign::Fixed(Affine::constant(1));
        let m = Machine::block_distribution(vec![4], &[64]);
        let r = simulate(&adg, &a, &m, SimOptions::default());
        // 63 elements, block 16: elements at positions 16, 32, 48 shift into
        // the next block (plus possibly one at the top boundary).
        assert!(
            r.total.element_moves >= 3.0 && r.total.element_moves <= 5.0,
            "expected a handful of boundary moves, got {}",
            r.total.element_moves
        );
        assert!(r.total.messages >= 3.0);
    }

    #[test]
    fn cyclic_distribution_makes_shifts_expensive() {
        // Under a cyclic distribution every element changes owner on a
        // one-cell shift — the distribution phase matters, which is exactly
        // why the paper separates it from alignment.
        use align_ir::Affine;
        use alignment_core::position::OffsetAlign;
        let adg = build_adg(&programs::example1(64));
        let mut a = identity(&adg, 1);
        let (pid, _) = adg.ports().find(|(_, p)| p.label.contains("B(2:")).unwrap();
        a.ports[pid.0].offsets[0] = OffsetAlign::Fixed(Affine::constant(1));
        let m = Machine::cyclic(vec![4]);
        let r = simulate(&adg, &a, &m, SimOptions::default());
        assert!((r.total.element_moves - 63.0).abs() < 1e-9);
    }

    #[test]
    fn replicated_destination_counts_broadcast() {
        let (adg, result) = align_program(&programs::figure4(16, 8, 4), &PipelineConfig::default());
        let m = Machine::new(vec![2, 2], vec![8, 4]);
        let r = simulate(&adg, &result.alignment, &m, SimOptions::default());
        // The min-cut labeling broadcasts t once at loop entry (16 elements).
        assert!(r.total.broadcast_elements > 0.0);
        assert!(
            r.total.broadcast_elements <= 16.0 * 2.0,
            "broadcast volume {} should be a loop-entry broadcast, not per-iteration",
            r.total.broadcast_elements
        );
    }

    #[test]
    fn aligned_pipeline_output_is_cheaper_than_identity() {
        let prog = programs::figure1(32);
        let (adg, result) = align_program(&prog, &PipelineConfig::default());
        let m = Machine::new(vec![2, 2], vec![16, 16]);
        let aligned = simulate(&adg, &result.alignment, &m, SimOptions::default());
        let naive = simulate(&adg, &identity(&adg, 2), &m, SimOptions::default());
        assert!(
            aligned.total_elements() <= naive.total_elements(),
            "aligned {} vs naive {}",
            aligned.total_elements(),
            naive.total_elements()
        );
    }

    #[test]
    fn redistribution_between_identical_pairs_is_free() {
        let a = PortAlignment::identity(2, 2);
        let m = Machine::new(vec![2, 2], vec![8, 8]);
        let t = redistribution_traffic(&[16, 16], &a, &m, &a, &m, &[], SimOptions::default());
        assert_eq!(t.element_moves, 0.0);
        assert_eq!(t.broadcast_elements, 0.0);
    }

    #[test]
    fn grid_flip_moves_most_elements() {
        // Row-distributed -> column-distributed on 4 processors: everything
        // off the block diagonal moves (the FFT transpose pattern).
        let a = PortAlignment::identity(2, 2);
        let rows = Machine::new(vec![4, 1], vec![4, 16]);
        let cols = Machine::new(vec![1, 4], vec![16, 4]);
        let t = redistribution_traffic(&[16, 16], &a, &rows, &a, &cols, &[], SimOptions::default());
        // 16x16 elements; each row block holds 4x16; under cols each element
        // stays only if its column block index equals its row block index:
        // 4x4 per processor stay -> 256 - 64 = 192 move.
        assert!((t.element_moves - 192.0).abs() < 1e-9, "{t:?}");
        assert!(t.messages >= 12.0, "{t:?}");
    }

    #[test]
    fn replicated_source_collapse_is_free_spread_charges_broadcast() {
        use alignment_core::position::OffsetAlign as OA;
        let single = PortAlignment::identity(1, 2);
        let mut replicated = PortAlignment::identity(1, 2);
        replicated.offsets[1] = OA::Replicated;
        let m = Machine::new(vec![2, 2], vec![8, 8]);
        // Collapse: every processor column already holds a copy, so landing
        // on any single position is local.
        let collapse = redistribution_traffic(
            &[16],
            &replicated,
            &m,
            &single,
            &m,
            &[],
            SimOptions::default(),
        );
        assert_eq!(collapse.element_moves, 0.0, "{collapse:?}");
        assert_eq!(collapse.broadcast_elements, 0.0);
        // Spread: a single position becoming replicated broadcasts the data.
        let spread = redistribution_traffic(
            &[16],
            &single,
            &m,
            &replicated,
            &m,
            &[],
            SimOptions::default(),
        );
        assert_eq!(spread.broadcast_elements, 16.0, "{spread:?}");
    }

    #[test]
    fn newly_replicated_axis_charges_spread_despite_other_source_replication() {
        // src replicated on axis 0 only; dst replicated on axes 0 and 1.
        // Axis 1 is *newly* replicated, so the move is a broadcast even
        // though the source was already replicated elsewhere.
        use alignment_core::position::OffsetAlign as OA;
        let mut src = PortAlignment::identity(1, 3);
        src.axis_map = vec![2];
        src.offsets[0] = OA::Replicated;
        let mut dst = src.clone();
        dst.offsets[1] = OA::Replicated;
        let m = Machine::new(vec![2, 2, 2], vec![8, 8, 8]);
        let t = redistribution_traffic(&[16], &src, &m, &dst, &m, &[], SimOptions::default());
        assert_eq!(t.broadcast_elements, 16.0, "{t:?}");
        assert_eq!(t.element_moves, 0.0);
    }

    #[test]
    fn cache_matches_simulate() {
        // The placement cache must reproduce simulate() traffic exactly —
        // same sampling, same scales, same message sets — for any candidate
        // distribution, under exact and sampled options alike.
        use alignment_core::pipeline::{align_program, PipelineConfig};
        for program in [
            programs::example1(200),
            programs::figure1(24),
            programs::figure4(16, 8, 4),
            programs::stencil2d(24, 3),
        ] {
            let (adg, result) = align_program(&program, &PipelineConfig::default());
            for opts in [
                SimOptions::default(),
                SimOptions::exact(),
                SimOptions::sampled(64, 32),
            ] {
                let cache = PlacementCache::new(&adg, &result.alignment, opts);
                for machine in [
                    Machine::new(vec![2, 2], vec![8, 8]),
                    Machine::new(vec![4, 1], vec![8, 32]),
                    Machine::cyclic(vec![2, 2]),
                ] {
                    let direct = simulate(&adg, &result.alignment, &machine, opts);
                    let cached = cache.price(&machine);
                    assert_eq!(
                        direct.total.element_moves, cached.total.element_moves,
                        "{}: moves",
                        program.name
                    );
                    assert_eq!(
                        direct.total.broadcast_elements, cached.total.broadcast_elements,
                        "{}: broadcast",
                        program.name
                    );
                    assert_eq!(
                        direct.total.messages, cached.total.messages,
                        "{}: messages",
                        program.name
                    );
                    assert_eq!(
                        direct.per_edge.len(),
                        cached.per_edge.len(),
                        "{}",
                        program.name
                    );
                    assert_eq!(
                        cached.total_elements(),
                        cache.total_elements(&machine),
                        "{}: fast path",
                        program.name
                    );
                    let by_edge = sum_elements(cached.per_edge.iter().map(|(_, t)| t.elements()));
                    assert_eq!(
                        by_edge.to_bits(),
                        cache.total_elements(&machine).to_bits(),
                        "{}: per-edge breakdown",
                        program.name
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_scales_counts() {
        // With a tiny element budget the counts are scaled estimates but stay
        // in the right ballpark.
        use align_ir::Affine;
        use alignment_core::position::OffsetAlign;
        let adg = build_adg(&programs::example1(1000));
        let mut a = identity(&adg, 1);
        let (pid, _) = adg.ports().find(|(_, p)| p.label.contains("B(2:")).unwrap();
        a.ports[pid.0].offsets[0] = OffsetAlign::Fixed(Affine::constant(1));
        let m = Machine::cyclic(vec![4]);
        let exact = simulate(&adg, &a, &m, SimOptions::default());
        let sampled = simulate(&adg, &a, &m, SimOptions::sampled(64, 512));
        let ratio = sampled.total.element_moves / exact.total.element_moves;
        assert!(ratio > 0.8 && ratio < 1.2, "sampled/exact = {ratio}");
    }

    #[test]
    fn compiled_and_evaluated_redistribution_agree_bitwise() {
        // The table-driven redistribution loop must be indistinguishable
        // from the per-element owner evaluation: identical traffic (bitwise
        // f64s), identical message sets, identical sampling counters —
        // across offsets, strides, transposes, replication, unequal grid
        // shapes, and both exact and strided sampling lattices.
        use align_ir::Affine;
        use alignment_core::position::OffsetAlign;

        let mut aligns: Vec<(&str, PortAlignment)> = Vec::new();
        aligns.push(("identity", PortAlignment::identity(2, 2)));
        let mut transpose = PortAlignment::identity(2, 2);
        transpose.axis_map = vec![1, 0];
        aligns.push(("transpose", transpose));
        let mut offset = PortAlignment::identity(2, 2);
        offset.offsets[0] = OffsetAlign::Fixed(Affine::constant(3));
        offset.offsets[1] = OffsetAlign::Fixed(Affine::constant(-5));
        aligns.push(("offset", offset));
        let mut strided = PortAlignment::identity(2, 2);
        strided.strides[1] = Affine::constant(2);
        aligns.push(("strided", strided));
        let mut replicated = PortAlignment::identity(1, 2);
        replicated.offsets[1] = OffsetAlign::Replicated;
        aligns.push(("replicated", replicated));
        aligns.push(("collapsed", PortAlignment::identity(1, 2)));

        let machines: Vec<(&str, Machine)> = vec![
            ("block", Machine::block_distribution(vec![2, 4], &[13, 9])),
            ("cyclic", Machine::cyclic(vec![2, 4])),
            ("blockcyclic", Machine::new(vec![2, 4], vec![3, 2])),
            ("flipped", Machine::new(vec![4, 2], vec![2, 5])),
        ];
        let options = [SimOptions::exact(), SimOptions::sampled(24, 512)];

        let mut compiled_hits = 0usize;
        for (sa, src_align) in &aligns {
            for (da, dst_align) in &aligns {
                // The element lattice is the source object's; a replicated
                // source has rank 1 here, so pair it with rank-1 partners.
                if src_align.rank() != dst_align.rank() {
                    continue;
                }
                let extents: Vec<i64> = vec![13, 9][..src_align.rank()].to_vec();
                for (sm, src_dist) in &machines {
                    for (dm, dst_dist) in &machines {
                        for (oi, &opts) in options.iter().enumerate() {
                            let label = format!("{sa}->{da} on {sm}->{dm} opts{oi}");
                            let spread = dst_align.offsets.iter().enumerate().any(|(t, o)| {
                                o.is_replicated()
                                    && !src_align
                                        .offsets
                                        .get(t)
                                        .is_some_and(OffsetAlign::is_replicated)
                            });
                            let src_eval = PosEval::new(src_align, &[]);
                            let dst_eval = PosEval::new(dst_align, &[]);
                            let total: usize = extents.iter().product::<i64>().max(1) as usize;
                            let budget = opts.element_budget(total);

                            let before = trace::counter("commsim.elements_priced");
                            let reference = redistribution_evaluated(
                                &extents, &src_eval, src_dist, &dst_eval, dst_dist, spread, budget,
                            );
                            let ref_priced = trace::counter("commsim.elements_priced") - before;

                            let before = trace::counter("commsim.elements_priced");
                            let Some(compiled) = redistribution_compiled(
                                &extents, &src_eval, src_dist, &dst_eval, dst_dist, spread, budget,
                            ) else {
                                continue;
                            };
                            compiled_hits += 1;
                            let compiled_priced =
                                trace::counter("commsim.elements_priced") - before;

                            assert!(
                                compiled.element_moves == reference.element_moves
                                    && compiled.messages == reference.messages
                                    && compiled.broadcast_elements == reference.broadcast_elements,
                                "{label}: compiled {compiled:?} != evaluated {reference:?}"
                            );
                            assert_eq!(compiled_priced, ref_priced, "{label}: counters");
                        }
                    }
                }
            }
        }
        // The compiled path must take every separable scenario — a silent
        // fallback would invalidate the speedup. Rank-2 pairs all compile
        // (4² aligns x 4² machines x 2 options = 512). Of the rank-1 pairs,
        // collapsed sources and spreads compile everywhere (16 machine
        // pairs each), while a replicated source compiles only across
        // equal-shaped grids (3² same-shape + 1 flipped² = 10 pairs):
        // (16 + 16 + 10 + 10) x 2 options = 104.
        assert_eq!(compiled_hits, 512 + 104, "fast-path coverage");

        // A skewed alignment (two body axes on one template axis) is the
        // documented fallback: the owner coordinate is not a function of a
        // single lattice axis.
        let mut skewed = PortAlignment::identity(2, 2);
        skewed.axis_map = vec![0, 0];
        let eval = PosEval::new(&skewed, &[]);
        let m = &machines[0].1;
        assert!(redistribution_compiled(
            &[13, 9],
            &eval,
            m,
            &PosEval::new(&aligns[0].1, &[]),
            m,
            false,
            13 * 9,
        )
        .is_none());
    }

    #[test]
    fn compiled_and_evaluated_element_traffic_agree_bitwise() {
        // The in-phase element loop shares the owner-table compiler with the
        // redistribution loop; its compiled path must likewise be
        // indistinguishable from the per-element evaluation — and, because
        // both sides share the machine and `owner_flat` pins replicated
        // axes to coordinate 0 exactly as the compiler does, every
        // separable scenario (replication included) must compile.
        use align_ir::Affine;
        use alignment_core::position::OffsetAlign;

        let mut aligns: Vec<(&str, PortAlignment)> = Vec::new();
        aligns.push(("identity", PortAlignment::identity(2, 2)));
        let mut transpose = PortAlignment::identity(2, 2);
        transpose.axis_map = vec![1, 0];
        aligns.push(("transpose", transpose));
        let mut offset = PortAlignment::identity(2, 2);
        offset.offsets[0] = OffsetAlign::Fixed(Affine::constant(3));
        offset.offsets[1] = OffsetAlign::Fixed(Affine::constant(-5));
        aligns.push(("offset", offset));
        let mut strided = PortAlignment::identity(2, 2);
        strided.strides[1] = Affine::constant(2);
        aligns.push(("strided", strided));
        let mut replicated = PortAlignment::identity(1, 2);
        replicated.offsets[1] = OffsetAlign::Replicated;
        aligns.push(("replicated", replicated));
        aligns.push(("collapsed", PortAlignment::identity(1, 2)));

        let machines: Vec<(&str, Machine)> = vec![
            ("block", Machine::block_distribution(vec![2, 4], &[13, 9])),
            ("cyclic", Machine::cyclic(vec![2, 4])),
            ("blockcyclic", Machine::new(vec![2, 4], vec![3, 2])),
            ("flipped", Machine::new(vec![4, 2], vec![2, 5])),
        ];
        let options = [SimOptions::exact(), SimOptions::sampled(24, 512)];

        let mut compiled_hits = 0usize;
        for (sa, src_align) in &aligns {
            for (da, dst_align) in &aligns {
                if src_align.rank() != dst_align.rank() {
                    continue;
                }
                let extents: Vec<i64> = vec![13, 9][..src_align.rank()].to_vec();
                for (mn, machine) in &machines {
                    for (oi, &opts) in options.iter().enumerate() {
                        let label = format!("{sa}->{da} on {mn} opts{oi}");
                        let dst_replicated =
                            dst_align.offsets.iter().any(OffsetAlign::is_replicated)
                                && !src_align.offsets.iter().any(OffsetAlign::is_replicated);
                        let src_eval = PosEval::new(src_align, &[]);
                        let dst_eval = PosEval::new(dst_align, &[]);
                        let total: usize = extents.iter().product::<i64>().max(1) as usize;
                        let budget = opts.element_budget(total);

                        let mut ref_pairs = PairSet::new(machine.num_processors());
                        ref_pairs.begin();
                        let before = trace::counter("commsim.elements_priced");
                        let reference = element_traffic_evaluated(
                            &extents,
                            &src_eval,
                            &dst_eval,
                            machine,
                            dst_replicated,
                            budget,
                            &mut ref_pairs,
                        );
                        let ref_priced = trace::counter("commsim.elements_priced") - before;

                        let mut pairs = PairSet::new(machine.num_processors());
                        pairs.begin();
                        let before = trace::counter("commsim.elements_priced");
                        let compiled = element_traffic_compiled(
                            &extents,
                            &src_eval,
                            &dst_eval,
                            machine,
                            dst_replicated,
                            budget,
                            &mut pairs,
                        )
                        .unwrap_or_else(|| panic!("{label}: separable scenario fell back"));
                        compiled_hits += 1;
                        let compiled_priced = trace::counter("commsim.elements_priced") - before;

                        assert!(
                            compiled.element_moves == reference.element_moves
                                && compiled.messages == reference.messages
                                && compiled.broadcast_elements == reference.broadcast_elements,
                            "{label}: compiled {compiled:?} != evaluated {reference:?}"
                        );
                        assert_eq!(compiled_priced, ref_priced, "{label}: counters");
                    }
                }
            }
        }
        // 4² rank-2 align pairs + 2² rank-1 pairs, each on 4 machines and 2
        // sampling options.
        assert_eq!(compiled_hits, (16 + 4) * 4 * 2, "fast-path coverage");
    }
}
