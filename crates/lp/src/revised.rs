//! Bounded-variable revised simplex with a sparse LU basis kernel.
//!
//! This is the production solver behind [`Problem::solve`]. It differs from
//! the dense tableau implementation in [`crate::simplex`] (kept as a
//! differential-testing oracle behind [`Problem::solve_tableau`]) in three
//! structural ways:
//!
//! * **No tableau.** The basis inverse is never materialised. The solver
//!   keeps a sparse LU factorisation of the basis (Markowitz-style ordering
//!   with threshold partial pivoting — see the private `factor` module)
//!   over the once-built CSC constraint matrix, applies a Forrest–Tomlin
//!   update per pivot, and solves hypersparse FTRAN/BTRAN against
//!   `(index, value)` right-hand sides so work scales with the support of
//!   the vector rather than with `m`. `U` carries a row index, so a
//!   Forrest–Tomlin update and the pivot-row BTRAN visit only the columns
//!   reachable from their row. The factorisation is rebuilt from the sparse
//!   columns once `REFACTOR_INTERVAL` pivots have accumulated on top of the
//!   last reinversion, so rounding error cannot accumulate across an
//!   unbounded pivot sequence the way it does in a tableau. The kernel is
//!   held to one contract: a kernel change may make a pivot cheaper but may
//!   not move any `lp.*` counter — every skipped operation would have
//!   produced an exact zero, and every performed one keeps its order, so
//!   the pivot sequence and every plan stay bit-identical (locked by
//!   `crates/bench/tests/pivot_paths.rs` and the counter gate).
//! * **Bounded variables stay implicit.** A finite upper bound is handled
//!   by the ratio test (a nonbasic variable can sit at *either* bound and a
//!   pivot can be a pure *bound flip*), so box constraints on offsets no
//!   longer inflate the constraint matrix with explicit `x <= u` rows —
//!   exactly the rows that made the mobile-offset tableaux large and
//!   degenerate. Free variables are priced in both directions instead of
//!   being split into differences of non-negatives.
//! * **Pricing is pluggable and anti-cycling is positional.** The entering
//!   column is chosen by a [`PricingRule`]: Devex reference-framework
//!   pricing (the default — reduced cost normalised by an iteratively
//!   maintained estimate of the column's steepest-edge norm, which cuts
//!   pivot counts sharply on the degenerate alignment LPs) or classic
//!   Dantzig pricing (most negative reduced cost, kept as the simple
//!   fallback). The Devex weight update is sparse: candidate columns are
//!   discovered through a CSR row index restricted to the pivot row
//!   vector's support. Either rule switches to Bland's rule — smallest
//!   eligible column entering, smallest basis column leaving — after a run
//!   of degenerate pivots, and switches back after the first pivot that
//!   moves the objective. Bland makes termination *finite*; because finite
//!   is not fast on the extremely degenerate alignment LPs, an
//!   objective-stall cutoff (like the tableau's, but reporting `Stalled`
//!   so phase 1 can never turn a stall into a spurious Infeasible) bounds
//!   the pivot count in practice.
//! * **Singular bases roll back.** A Forrest–Tomlin update with too small a
//!   new diagonal is rejected and the new basis refactorised from scratch.
//!   If that basis is numerically singular too, the pivot is undone: the
//!   previous basis, factorised one pivot earlier, is refactorised (which
//!   re-derives the basic values), and the entering column is kept out of
//!   pricing until the objective next moves. When only such rejected
//!   columns still price, the run ends as `Stalled` — a feasible vertex,
//!   which phase 2 accepts. Each rollback counts `lp.pivot_rollbacks`. A
//!   scheduled reinversion that finds the basis singular has no earlier
//!   basis to return to; it counts `lp.singular_refactors` and the solve
//!   reports `IterationLimit`, which [`Problem::solve`] answers with the
//!   counted tableau fallback.
//!
//! Phase 1 starts from a crash basis (slack / structural columns where the
//! start residuals allow, signed artificials for the rest) and minimises
//! the artificial sum; phase 2 fixes the artificials to zero and minimises
//! the user objective over the surviving basis.

use crate::factor::LuFactor;
use crate::model::{Problem, Relation, Solution, SolveError};
use crate::sparse::{CscMatrix, CsrIndex, IndexedVec};
use crate::EPS;

/// Reduced-cost tolerance for pricing.
const PRICE_TOL: f64 = 1e-9;
/// Minimum magnitude accepted for a pivot element.
const PIVOT_TOL: f64 = 1e-8;
/// Degenerate-pivot streak after which Bland's rule takes over.
const BLAND_AFTER: usize = 40;
/// Refactorise after this many Forrest–Tomlin updates accumulate on top of
/// the last reinversion.
const REFACTOR_INTERVAL: usize = 64;
/// A Devex weight above this triggers a reference-framework reset (all
/// weights back to 1): the iterated estimates have drifted too far from
/// any real steepest-edge norm to rank columns meaningfully.
const DEVEX_RESET: f64 = 1e8;
/// Pivots between dense reduced-cost refreshes under incremental Devex
/// pricing. The in-place updates accumulate roundoff that can steer the
/// entering choice onto longer pivot paths; re-deriving the reduced costs
/// from a fresh BTRAN every few pivots bounds the drift while keeping the
/// batched-BTRAN saving on the pivots in between.
const CBAR_REFRESH: usize = 25;

/// How the simplex selects the entering column. Configured per problem via
/// [`Problem::set_pricing`]; the default is [`PricingRule::Devex`].
///
/// Both rules find an optimal vertex; they differ only in how many pivots
/// the journey takes. Devex prices a column by `c̄²/w` where `w` estimates
/// the steepest-edge norm `‖B⁻¹aⱼ‖²`, which on the degenerate alignment
/// LPs avoids the long ties Dantzig wanders through.
///
/// ```
/// use lp::{PricingRule, Problem, Relation};
/// let mut p = Problem::new();
/// let x = p.add_nonneg_var("x", 2.0);
/// let y = p.add_nonneg_var("y", 3.0);
/// p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
/// let devex = p.solve().unwrap(); // Devex is the default rule
/// p.set_pricing(PricingRule::Dantzig); // classic rule kept as fallback
/// let dantzig = p.solve().unwrap();
/// assert!((devex.objective - dantzig.objective).abs() < 1e-9);
/// assert_eq!(p.pricing(), PricingRule::Dantzig);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingRule {
    /// Devex reference-framework pricing (Forrest–Goldfarb): reduced cost
    /// squared over an iteratively updated weight. The default.
    #[default]
    Devex,
    /// Classic Dantzig pricing: most negative reduced cost, ties by
    /// magnitude.
    Dantzig,
}

/// The solver working state over the standard-form columns
/// (structural | slack | artificial).
struct Revised {
    /// Number of rows.
    m: usize,
    /// The row-equilibrated constraint matrix, built once per solve.
    csc: CscMatrix,
    /// Row-pattern index over the structural + slack columns (Devex
    /// candidate discovery).
    csr: CsrIndex,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Current value of every column (basic or nonbasic).
    x: Vec<f64>,
    /// Right-hand side after row equilibration.
    b: Vec<f64>,
    /// Column basic in each row.
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    factor: LuFactor,
    /// First artificial column index.
    art0: usize,
}

enum RunResult {
    Optimal,
    /// The objective made no progress for the stall budget. The vertex is
    /// feasible but possibly suboptimal; phase 1 must not read this as an
    /// infeasibility certificate.
    Stalled,
    Unbounded,
    IterationLimit,
}

impl Revised {
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        m: usize,
        cols: Vec<Vec<(usize, f64)>>,
        b: Vec<f64>,
        lower: Vec<f64>,
        upper: Vec<f64>,
        x: Vec<f64>,
        basis: Vec<usize>,
        in_basis: Vec<bool>,
        art0: usize,
    ) -> Revised {
        let _span = trace::span("lp.assemble");
        let csc = CscMatrix::from_cols(m, &cols);
        let csr = CsrIndex::build(&csc, art0);
        Revised {
            m,
            csc,
            csr,
            lower,
            upper,
            x,
            b,
            basis,
            in_basis,
            factor: LuFactor::new(m),
            art0,
        }
    }

    /// `out = B⁻¹ a_j` (slot-indexed; support sorted ascending). This also
    /// caches the Forrest–Tomlin spike, so the FTRAN of the entering column
    /// must immediately precede the factorisation update of its pivot (a
    /// rejected update, `false`, means the caller must refactorise).
    fn ftran_col(&mut self, j: usize, out: &mut IndexedVec) {
        let _span = trace::span("lp.ftran");
        self.factor.ftran_col(&self.csc, j, out);
    }

    /// Dense pricing BTRAN: `y = B⁻ᵀ cb` where `cb[i]` is the cost of the
    /// column basic in slot `i`.
    fn btran_costs(&mut self, cb: &[f64], y: &mut [f64]) {
        let _span = trace::span("lp.btran");
        self.factor.btran_costs(cb, y);
    }

    /// Sparse `rho = B⁻ᵀ e_r` (the pivot row of the inverse), used by the
    /// Devex weight update.
    fn btran_unit(&mut self, r: usize, rho: &mut IndexedVec) {
        let _span = trace::span("lp.btran");
        self.factor.btran_unit(r, rho);
    }

    /// Has the factorisation accumulated enough Forrest–Tomlin updates to
    /// warrant a reinversion?
    fn needs_refactor(&self) -> bool {
        self.factor.updates() >= REFACTOR_INTERVAL
    }

    /// Recompute the basic values `x_B = B⁻¹ (b − N x_N)` from scratch.
    fn recompute_basics(&mut self) {
        let mut r = self.b.clone();
        for j in 0..self.csc.ncols() {
            if self.in_basis[j] || self.x[j] == 0.0 {
                continue;
            }
            let (rows, vals) = self.csc.col(j);
            for (&i, &a) in rows.iter().zip(vals) {
                r[i] -= a * self.x[j];
            }
        }
        let mut out = vec![0.0; self.m];
        self.factor.solve_dense(&mut r, &mut out);
        for (i, &bi) in self.basis.iter().enumerate() {
            self.x[bi] = out[i];
        }
    }

    /// Rebuild the factorisation from the current basis columns
    /// (reinversion). Returns `false` if the basis has become numerically
    /// singular (every basis reached by exact pivots is nonsingular, so this
    /// only flags rounding damage or a near-zero pivot; the simplex loop
    /// rolls the offending pivot back where it can, see the module docs).
    fn refactorize(&mut self) -> bool {
        trace::count("lp.refactorisations", 1);
        let _span = trace::span("lp.factor");
        if !self.factor.factor(&self.csc, &self.basis) {
            return false;
        }
        self.recompute_basics();
        true
    }

    /// One simplex phase: minimise `cost` until optimality.
    ///
    /// `stall_patience` scales the objective-stall cutoff: on the extremely
    /// degenerate alignment LPs the simplex can shuffle zero-length pivots
    /// (or reduced-cost noise) for astronomically long without moving the
    /// objective. Bland's rule makes that *finite* but not *fast*, so —
    /// exactly like the tableau oracle — a long enough stall is declared
    /// optimal. The callers this solver serves re-price the rounded result
    /// exactly afterwards, so a slightly suboptimal (still feasible) vertex
    /// is far better than burning the whole iteration budget. Phase 1 gets
    /// extra patience because stopping it early would misreport a feasible
    /// problem as infeasible.
    fn run(
        &mut self,
        cost: &[f64],
        max_iters: usize,
        stall_patience: usize,
        rule: PricingRule,
    ) -> RunResult {
        let ncols = self.csc.ncols();
        let mut degenerate_streak = 0usize;
        let cost_scale = cost.iter().fold(0.0f64, |a, &c| a.max(c.abs()));
        let stall_tol = 1e-10 * (1.0 + cost_scale);
        let stall_limit = 500.max((self.m + ncols) / 4) * stall_patience.max(1);
        let mut last_obj = f64::INFINITY;
        let mut stalled = 0usize;
        // Nonzero objective terms only: adding an exact 0.0 never changes
        // the running sum, so the restricted scan is bit-identical to the
        // historical full sweep.
        let cost_nz: Vec<(usize, f64)> = cost
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0.0)
            .map(|(j, &c)| (j, c))
            .collect();
        // Devex reference framework: every nonbasic column starts with unit
        // weight; pivots grow the weights of columns the pivot row touches.
        let mut weights = vec![1.0f64; ncols];
        // Monotone upper bound on every nonbasic Devex weight: every write
        // to `weights` is folded into `wcap`, so the O(n) reset sweep only
        // runs when the bound itself crosses `DEVEX_RESET` — the sweep's
        // outcome is unchanged, it just stops running when it provably
        // cannot trigger.
        let mut wcap = 1.0f64;
        // Per-run workspaces, reused across pivots (the historical solver
        // allocated fresh dense vectors on every iteration).
        let mut cb = vec![0.0f64; self.m];
        let mut y = vec![0.0f64; self.m];
        let mut d = IndexedVec::new(self.m);
        let mut rho = IndexedVec::new(self.m);
        let mut cand: Vec<usize> = Vec::new();
        let mut cand_mark = vec![false; self.art0];
        // Reduced costs of the structural/slack columns. Under Devex they
        // are maintained *incrementally* across pivots — the dual step is
        // read off the same pivot-row BTRAN the weight update already
        // performs — so the dense pricing BTRAN only runs on the first
        // iteration, after a reinversion, under Bland's rule, and to
        // confirm optimality. Dantzig keeps the historical dense sweep.
        let incremental = rule == PricingRule::Devex;
        let mut cbar = vec![0.0f64; self.art0];
        let mut cbar_fresh = false;
        let mut cbar_age = 0usize;
        // The end-of-iteration bound snap is idempotent, and a basic value
        // only moves when its row is in the pivot column's support — so
        // after one full pass the snap can be restricted to the touched
        // rows. `snap_all` forces the full pass on the first pivot (the
        // start values were never snapped) and after any reinversion.
        let mut snap_all = true;
        // Bounds are fixed for the whole run, so a column pinned to a
        // single value (presolve-tightened) can never price in: hoist the
        // range test out of the per-pivot scan. Ascending order preserved —
        // the scan's tie-breaking depends on it.
        let scannable: Vec<usize> = (0..self.art0)
            .filter(|&j| self.upper[j] - self.lower[j] > EPS)
            .collect();
        // Columns whose pivot was rolled back (see the rejected-update path
        // below). They stay out of pricing until the objective next moves.
        let mut rejected = vec![false; self.art0];
        let mut rejected_cols: Vec<usize> = Vec::new();
        for _ in 0..max_iters {
            if self.needs_refactor() {
                if !self.refactorize() {
                    // A scheduled reinversion has no previous basis to fall
                    // back to: the basis it refactorises has carried every
                    // Forrest–Tomlin update since the last one.
                    trace::count("lp.singular_refactors", 1);
                    return RunResult::IterationLimit;
                }
                // A reinversion changes the rounding of B⁻ᵀ; re-derive the
                // maintained reduced costs from the fresh factor.
                cbar_fresh = false;
                snap_all = true;
            }
            let obj: f64 = cost_nz.iter().map(|&(j, cj)| cj * self.x[j]).sum();
            if obj < last_obj - stall_tol {
                last_obj = obj;
                stalled = 0;
                for j in rejected_cols.drain(..) {
                    rejected[j] = false;
                }
            } else {
                stalled += 1;
                if stalled > stall_limit {
                    return RunResult::Stalled;
                }
            }
            let use_bland = degenerate_streak > BLAND_AFTER;

            // Pricing: y = B⁻ᵀ c_B, then reduced costs of nonbasic columns.
            // The dense BTRAN is skipped when the incrementally maintained
            // reduced costs are still fresh (Devex); Bland's rule always
            // re-derives them densely — its anti-cycling guarantee rests on
            // exact reduced-cost signs.
            let densely_priced =
                !incremental || use_bland || !cbar_fresh || cbar_age >= CBAR_REFRESH;
            if densely_priced {
                let _span = trace::span("lp.price");
                cbar_age = 0;
                for (ci, &j) in cb.iter_mut().zip(&self.basis) {
                    *ci = cost[j];
                }
                self.btran_costs(&cb, &mut y);
                // A basic column's reduced cost is never read while it
                // stays basic, and is reassigned when it leaves.
                for (j, cj) in cbar.iter_mut().enumerate() {
                    if self.in_basis[j] {
                        continue;
                    }
                    let mut c = cost[j];
                    let (rows, vals) = self.csc.col(j);
                    for (&i, &a) in rows.iter().zip(vals) {
                        c -= y[i] * a;
                    }
                    *cj = c;
                }
                cbar_fresh = true;
            } else {
                // One dense pricing BTRAN folded into the weight-update
                // BTRAN of the previous pivot.
                trace::count("lp.devex.batched_btran", 1);
                cbar_age += 1;
            }

            // `to_upper` is the chosen direction: increase (false) or
            // decrease (true) the entering variable.
            let mut entering: Option<(usize, bool)> = None;
            let mut best_mag = PRICE_TOL;
            let mut best_score = 0.0f64;
            let mut rejected_priced = false;
            let scan_span = trace::span("lp.scan");
            // Artificial columns (j >= art0) are never priced: an
            // artificial that left the basis never re-enters.
            for &j in &scannable {
                if self.in_basis[j] {
                    continue;
                }
                let cbar = cbar[j];
                let at_lower = self.x[j] <= self.lower[j] + EPS;
                let at_upper = self.x[j] >= self.upper[j] - EPS;
                // Free nonbasic variables (at neither bound) may move in
                // whichever direction improves the objective.
                let dir = if at_lower && cbar < -PRICE_TOL {
                    Some(false)
                } else if at_upper && cbar > PRICE_TOL {
                    Some(true)
                } else if !at_lower && !at_upper && cbar.abs() > PRICE_TOL {
                    Some(cbar > 0.0)
                } else {
                    None
                };
                if let Some(decrease) = dir {
                    if rejected[j] {
                        rejected_priced = true;
                        continue;
                    }
                    if use_bland {
                        entering = Some((j, decrease));
                        break;
                    }
                    match rule {
                        PricingRule::Dantzig => {
                            if cbar.abs() > best_mag {
                                best_mag = cbar.abs();
                                entering = Some((j, decrease));
                            }
                        }
                        PricingRule::Devex => {
                            let score = cbar * cbar / weights[j];
                            if score > best_score {
                                best_score = score;
                                entering = Some((j, decrease));
                            }
                        }
                    }
                }
            }
            drop(scan_span);
            let Some((q, decrease)) = entering else {
                if !densely_priced {
                    // The maintained reduced costs accumulate roundoff
                    // across pivots; optimality is only declared against a
                    // freshly recomputed set.
                    cbar_fresh = false;
                    continue;
                }
                // Only rolled-back columns still price: the vertex is
                // feasible, but optimality is not proven.
                if rejected_priced {
                    return RunResult::Stalled;
                }
                return RunResult::Optimal;
            };
            trace::count("lp.pivots", 1);
            let tail_span = trace::span("lp.pivot_tail");
            let s: f64 = if decrease { -1.0 } else { 1.0 };

            // Ratio test over x_B' = x_B − θ·s·d, plus the entering
            // variable's own bound-to-bound distance (bound flip). The
            // support is sorted, so the scan visits rows in the same
            // ascending order as the historical dense sweep.
            self.ftran_col(q, &mut d);
            let own_range = self.upper[q] - self.lower[q]; // may be +inf
            let mut theta = own_range;
            let mut leaving: Option<(usize, f64)> = None; // (row, bound hit)
            for &i in d.support() {
                let di = d.get(i);
                if di.abs() <= PIVOT_TOL {
                    continue;
                }
                let bi = self.basis[i];
                let delta = s * di;
                let limit = if delta > 0.0 {
                    self.lower[bi]
                } else {
                    self.upper[bi]
                };
                if !limit.is_finite() {
                    continue;
                }
                let ratio = ((self.x[bi] - limit) / delta).max(0.0);
                let replace = if ratio < theta - EPS {
                    true
                } else if ratio <= theta + EPS {
                    // Tie. Against the bound flip (`leaving == None`) keep
                    // the flip — it is cheaper and adds no eta. Between rows,
                    // Bland's rule takes the smallest basis column when
                    // anti-cycling is active and the largest pivot magnitude
                    // (best conditioning) otherwise.
                    match leaving {
                        None => false,
                        Some((r, _)) => {
                            if use_bland {
                                self.basis[i] < self.basis[r]
                            } else {
                                di.abs() > d.get(r).abs()
                            }
                        }
                    }
                } else {
                    false
                };
                if replace {
                    theta = ratio.min(theta);
                    leaving = Some((i, limit));
                }
            }

            if theta.is_infinite() {
                return RunResult::Unbounded;
            }

            match leaving {
                // Entering variable runs to its opposite bound before any
                // basic variable blocks: a bound flip, no basis change.
                None => {
                    debug_assert!(own_range.is_finite());
                    self.x[q] = if decrease {
                        self.lower[q]
                    } else {
                        self.upper[q]
                    };
                    for &i in d.support() {
                        let di = d.get(i);
                        if di != 0.0 {
                            let bi = self.basis[i];
                            self.x[bi] -= own_range * s * di;
                        }
                    }
                    degenerate_streak = 0;
                }
                Some((r, bound)) => {
                    if theta <= EPS {
                        degenerate_streak += 1;
                    } else {
                        degenerate_streak = 0;
                    }
                    let leave = self.basis[r];
                    let _devex_span =
                        (rule == PricingRule::Devex).then(|| trace::span("lp.devex.update"));
                    if rule == PricingRule::Devex {
                        // Devex weight update over the *old* basis inverse
                        // (before this pivot reaches the kernel):
                        // ρ = eᵣᵀB⁻¹ gives the pivot row, and every
                        // nonbasic column j with αⱼ = ρ·aⱼ ≠ 0 inherits
                        // w_j = max(w_j, (αⱼ/α_q)²·w_q) — the
                        // reference-framework recurrence that makes the
                        // weights track steepest-edge norms. Only columns
                        // intersecting ρ's support can have αⱼ ≠ 0, so the
                        // candidates come from the CSR rows of the support;
                        // every α is still gathered in column-entry order,
                        // which keeps the arithmetic bit-identical to the
                        // historical all-columns sweep.
                        self.btran_unit(r, &mut rho);
                        let alpha_q = d.get(r);
                        // The same pivot-row BTRAN also yields the dual
                        // step, so the reduced costs of every touched
                        // column are updated in place — this is what lets
                        // the next iteration skip the dense pricing BTRAN.
                        let dual_step = cbar[q] / alpha_q;
                        let wq = weights[q].max(1.0);
                        let ratio_w = wq / (alpha_q * alpha_q);
                        for &i in rho.support() {
                            if rho.get(i) == 0.0 {
                                continue;
                            }
                            for &j in self.csr.row(i) {
                                if !cand_mark[j] {
                                    cand_mark[j] = true;
                                    cand.push(j);
                                }
                            }
                        }
                        for &j in &cand {
                            cand_mark[j] = false;
                            if self.in_basis[j] || j == q {
                                continue;
                            }
                            let mut alpha = 0.0;
                            let (rows, vals) = self.csc.col(j);
                            for (&i, &a) in rows.iter().zip(vals) {
                                alpha += rho.get(i) * a;
                            }
                            if alpha != 0.0 {
                                let grown = alpha * alpha * ratio_w;
                                if grown > weights[j] {
                                    weights[j] = grown;
                                    wcap = wcap.max(grown);
                                }
                                cbar[j] -= dual_step * alpha;
                            }
                        }
                        cand.clear();
                        // The entering column's reduced cost is exactly
                        // zero once basic; the leaving variable inherits
                        // the negated dual step (its pivot-row alpha is 1).
                        cbar[q] = 0.0;
                        if leave < self.art0 {
                            cbar[leave] = -dual_step;
                        }
                        if wcap > DEVEX_RESET {
                            let mut wmax = 0.0f64;
                            for (j, &w) in weights.iter().enumerate().take(self.art0) {
                                if self.in_basis[j] || j == q {
                                    continue;
                                }
                                wmax = wmax.max(w);
                            }
                            weights[leave] = ratio_w.max(1.0);
                            weights[q] = 1.0;
                            if wmax.max(weights[leave]) > DEVEX_RESET {
                                weights.fill(1.0);
                                wcap = 1.0;
                            } else {
                                // The sweep just produced the true maximum
                                // over the nonbasic set; adopt it as the new
                                // (tight) bound.
                                wcap = wmax.max(weights[leave]);
                            }
                        } else {
                            weights[leave] = ratio_w.max(1.0);
                            wcap = wcap.max(weights[leave]);
                            weights[q] = 1.0;
                        }
                    }
                    drop(_devex_span);
                    for &i in d.support() {
                        let di = d.get(i);
                        if di != 0.0 {
                            let bi = self.basis[i];
                            self.x[bi] -= theta * s * di;
                        }
                    }
                    let xq_before = self.x[q];
                    self.x[q] += theta * s;
                    self.x[leave] = bound;
                    self.in_basis[leave] = false;
                    self.in_basis[q] = true;
                    self.basis[r] = q;
                    if !self.factor.update(r) {
                        if !self.refactorize() {
                            // The new basis is numerically singular. The
                            // previous one was factorised a pivot ago, so
                            // undo the pivot, refactorise that basis (which
                            // re-derives every basic value) and keep `q` out
                            // of pricing until the objective moves.
                            trace::count("lp.pivot_rollbacks", 1);
                            self.basis[r] = leave;
                            self.in_basis[q] = false;
                            self.in_basis[leave] = true;
                            self.x[q] = xq_before;
                            if !self.refactorize() {
                                return RunResult::IterationLimit;
                            }
                            rejected[q] = true;
                            rejected_cols.push(q);
                        }
                        cbar_fresh = false;
                        snap_all = true;
                    }
                }
            }

            // Snap tiny bound violations introduced by the pivot update.
            // Only rows in the pivot column's support changed value this
            // iteration (the entering column now sits on one of them);
            // every other basic value is bitwise-unchanged since its last
            // snap, so re-snapping it is a no-op the restricted pass skips.
            if snap_all {
                for &bi in &self.basis {
                    if self.x[bi] < self.lower[bi] && self.x[bi] > self.lower[bi] - 1e-9 {
                        self.x[bi] = self.lower[bi];
                    }
                    if self.x[bi] > self.upper[bi] && self.x[bi] < self.upper[bi] + 1e-9 {
                        self.x[bi] = self.upper[bi];
                    }
                }
                snap_all = false;
            } else {
                for &i in d.support() {
                    let bi = self.basis[i];
                    if self.x[bi] < self.lower[bi] && self.x[bi] > self.lower[bi] - 1e-9 {
                        self.x[bi] = self.lower[bi];
                    }
                    if self.x[bi] > self.upper[bi] && self.x[bi] < self.upper[bi] + 1e-9 {
                        self.x[bi] = self.upper[bi];
                    }
                }
            }
            drop(tail_span);
        }
        RunResult::IterationLimit
    }

    /// Pivot zero-valued basic artificials out of the basis where a
    /// non-artificial column can replace them (post phase 1).
    fn drive_out_artificials(&mut self) {
        let _span = trace::span("lp.drive_out");
        let mut d = IndexedVec::new(self.m);
        for r in 0..self.m {
            if self.basis[r] < self.art0 || self.x[self.basis[r]].abs() > 1e-7 {
                continue;
            }
            // Any nonbasic non-artificial column with a usable pivot in this
            // row will do; the pivot is degenerate (θ = 0) so values do not
            // move.
            for j in 0..self.art0 {
                if self.in_basis[j] {
                    continue;
                }
                self.ftran_col(j, &mut d);
                if d.get(r).abs() > PIVOT_TOL {
                    let art = self.basis[r];
                    let art_x = self.x[art];
                    self.in_basis[art] = false;
                    self.x[art] = 0.0;
                    self.in_basis[j] = true;
                    self.basis[r] = j;
                    if !self.factor.update(r) && !self.refactorize() {
                        // Numerically unusable replacement: restore the
                        // artificial (the kernel still matches the old
                        // basis) and stop driving out.
                        self.basis[r] = art;
                        self.in_basis[art] = true;
                        self.in_basis[j] = false;
                        self.x[art] = art_x;
                        return;
                    }
                    break;
                }
            }
        }
    }
}

/// Bench-harness hook: a solver parked at a problem's **optimal basis**, so
/// the kernel primitives (reinversion, FTRAN, BTRAN) can be timed in
/// isolation on a representative basis instead of through a whole solve.
/// Hidden from the documented API — the only consumer is the `lp_kernel`
/// regression bench.
#[doc(hidden)]
pub struct KernelBench {
    rev: Revised,
    work: IndexedVec,
    rho: IndexedVec,
    /// Structural/slack columns with at least one nonzero (FTRAN targets).
    cols: Vec<usize>,
}

impl KernelBench {
    /// Solve `problem` and keep the solver parked at its final basis.
    /// `None` when the problem has no optimum, no rows, or no structural
    /// columns to sweep.
    pub fn prepare(problem: &Problem) -> Option<KernelBench> {
        let mut rev = solve_parked(problem).ok()?.1?;
        if !rev.refactorize() {
            return None;
        }
        let cols: Vec<usize> = (0..rev.art0).filter(|&j| rev.csc.col_nnz(j) > 0).collect();
        if cols.is_empty() {
            return None;
        }
        let m = rev.m;
        Some(KernelBench {
            rev,
            work: IndexedVec::new(m),
            rho: IndexedVec::new(m),
            cols,
        })
    }

    /// Rows of the parked basis.
    pub fn rows(&self) -> usize {
        self.rev.m
    }

    /// Rebuild the kernel from the parked basis (one reinversion).
    pub fn refactor(&mut self) -> bool {
        self.rev.refactorize()
    }

    /// `rounds` FTRAN/BTRAN pairs over the parked basis: each round solves
    /// `B⁻¹ a_j` for the next structural column and `B⁻ᵀ e_r` for the next
    /// row — the two kernel primitives every simplex iteration performs.
    /// Returns a value checksum so the work cannot be optimised away.
    pub fn sweeps(&mut self, rounds: usize) -> f64 {
        let mut acc = 0.0;
        for k in 0..rounds {
            let j = self.cols[k % self.cols.len()];
            self.rev.ftran_col(j, &mut self.work);
            for &i in self.work.support() {
                acc += self.work.get(i);
            }
            let r = k % self.rev.m;
            self.rev.btran_unit(r, &mut self.rho);
            for &i in self.rho.support() {
                acc += self.rho.get(i);
            }
        }
        acc
    }
}

/// The finite bound closest to zero (0 for a free variable).
fn nearest_bound(lower: f64, upper: f64) -> f64 {
    if lower.is_finite() && upper.is_finite() {
        if lower.abs() <= upper.abs() {
            lower
        } else {
            upper
        }
    } else if lower.is_finite() {
        lower
    } else if upper.is_finite() {
        upper
    } else {
        0.0
    }
}

/// Build the solver state: the standard-form columns (structural | slack)
/// of `problem`, then a crash basis over them with artificials for the
/// rows the crash cannot make feasible.
fn cold_start(problem: &Problem) -> Revised {
    let n = problem.vars.len();
    let m = problem.constraints.len();

    // Rows are equilibrated by their largest structural coefficient, like the
    // tableau solver: alignment constraint systems mix element-count weights
    // in the thousands with unit coefficients.
    let mut row_scale = vec![1.0f64; m];
    for (i, c) in problem.constraints.iter().enumerate() {
        let mag = c.terms.iter().fold(0.0f64, |a, &(_, v)| a.max(v.abs()));
        row_scale[i] = mag.max(1e-12).recip();
    }

    let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut b = vec![0.0; m];
    for (i, c) in problem.constraints.iter().enumerate() {
        b[i] = c.rhs * row_scale[i];
        for &(v, a) in &c.terms {
            if a != 0.0 {
                cols[v.0].push((i, a * row_scale[i]));
            }
        }
    }
    // Merge duplicate terms within a column's row list.
    for col in cols.iter_mut() {
        col.sort_by_key(|&(i, _)| i);
        col.dedup_by(|&mut (i2, a2), &mut (i1, ref mut a1)| {
            if i1 == i2 {
                *a1 += a2;
                true
            } else {
                false
            }
        });
        col.retain(|&(_, a)| a != 0.0);
    }

    let mut lower: Vec<f64> = problem.vars.iter().map(|v| v.lower).collect();
    let mut upper: Vec<f64> = problem.vars.iter().map(|v| v.upper).collect();
    let mut x: Vec<f64> = problem
        .vars
        .iter()
        .map(|v| nearest_bound(v.lower, v.upper))
        .collect();

    // Slacks: `Ax + s = b` with `s >= 0` for `<=`, `s <= 0` for `>=`.
    let mut slack_of_row: Vec<Option<usize>> = vec![None; m];
    for (i, c) in problem.constraints.iter().enumerate() {
        let (lo, hi) = match c.relation {
            Relation::Le => (0.0, f64::INFINITY),
            Relation::Ge => (f64::NEG_INFINITY, 0.0),
            Relation::Eq => continue,
        };
        slack_of_row[i] = Some(cols.len());
        cols.push(vec![(i, 1.0)]);
        lower.push(lo);
        upper.push(hi);
        x.push(0.0);
    }

    let _span = trace::span("lp.crash");
    // Crash basis from the residual of the nonbasic start point. Rows are
    // processed in order and each picks the cheapest basic column that makes
    // it feasible *now*:
    //
    // 1. the row's own slack, when the residual fits the slack's bounds —
    //    already feasible, no phase-1 work;
    // 2. a structural column (triangular crash): a nonbasic column of the
    //    row whose shift to absorb the residual stays inside its own bounds
    //    and does not break any already-crashed row. This is tailored to
    //    the `z >= |expr|` surrogate pairs the mobile-offset objective is
    //    made of: the surrogate has coefficient +1 in both of its rows, so
    //    basing `z` in whichever row is infeasible satisfies the other as
    //    a side effect;
    // 3. a signed artificial, costing phase-1 pivots — the fallback.
    //
    // Phase 1 then minimises `sum |still-infeasible residuals|` instead of
    // `sum |all residuals|`; on the mobile-offset LPs the artificial count
    // drops from O(rows) to a handful, which is what makes the degenerate
    // figure1-style systems solve in milliseconds instead of grinding.
    let mut resid = b.clone();
    for (j, col) in cols.iter().enumerate() {
        if x[j] != 0.0 {
            for &(i, a) in col {
                resid[i] -= a * x[j];
            }
        }
    }
    // Row-major structural view for the crash scan.
    let mut rows_structural: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for (j, col) in cols.iter().enumerate().take(n) {
        for &(i, a) in col {
            rows_structural[i].push((j, a));
        }
    }

    #[derive(Clone, Copy, PartialEq)]
    enum RowState {
        Unprocessed,
        SlackBasic,
        Fixed,
    }
    let mut state = vec![RowState::Unprocessed; m];
    let mut basis = vec![usize::MAX; m];
    let mut col_basic = vec![false; n];

    for r in 0..m {
        // 1. Slack crash.
        if let Some(sc) = slack_of_row[r] {
            if resid[r] >= lower[sc] && resid[r] <= upper[sc] {
                x[sc] = resid[r];
                basis[r] = sc;
                state[r] = RowState::SlackBasic;
                continue;
            }
        }
        // 2. Structural crash. Candidates are tried lowest column fan-out
        // first: a `z >= |expr|` surrogate touches exactly its two rows, so
        // it is always preferred over a shared offset variable whose shift
        // would disturb the residuals of every other row it appears in.
        let mut candidates: Vec<(usize, f64)> = rows_structural[r]
            .iter()
            .filter(|&&(j, a)| !col_basic[j] && a.abs() >= 0.1)
            .map(|&(j, a)| (j, a))
            .collect();
        candidates.sort_by_key(|&(j, _)| cols[j].len());
        let mut chosen: Option<(usize, f64)> = None; // (col, new value)
        'candidates: for &(j, a) in &candidates {
            let delta = resid[r] / a;
            let xj_new = x[j] + delta;
            if xj_new < lower[j] - EPS || xj_new > upper[j] + EPS {
                continue;
            }
            // The shift must not break rows already made feasible.
            for &(i, aij) in &cols[j] {
                if i == r {
                    continue;
                }
                match state[i] {
                    RowState::Fixed => continue 'candidates,
                    RowState::SlackBasic => {
                        let sc = basis[i];
                        let s_new = x[sc] - aij * delta;
                        if s_new < lower[sc] - EPS || s_new > upper[sc] + EPS {
                            continue 'candidates;
                        }
                    }
                    RowState::Unprocessed => {}
                }
            }
            chosen = Some((j, xj_new));
            break;
        }
        if let Some((j, xj_new)) = chosen {
            let delta = xj_new - x[j];
            x[j] = xj_new;
            for &(i, aij) in &cols[j] {
                resid[i] -= aij * delta;
                if state[i] == RowState::SlackBasic {
                    x[basis[i]] -= aij * delta;
                }
            }
            basis[r] = j;
            col_basic[j] = true;
            state[r] = RowState::Fixed;
            continue;
        }
        state[r] = RowState::Fixed; // artificial decided below
    }

    // 3. Artificials for whatever is left.
    let art0 = cols.len();
    for r in 0..m {
        if basis[r] != usize::MAX {
            // The crash may have nudged a slack-crashed row's value; the
            // recompute below re-derives all basic values consistently.
            continue;
        }
        let sign = if resid[r] < 0.0 { -1.0 } else { 1.0 };
        basis[r] = cols.len();
        cols.push(vec![(r, sign)]);
        lower.push(0.0);
        upper.push(f64::INFINITY);
        x.push(resid[r].abs());
    }

    let ncols = cols.len();
    let mut in_basis = vec![false; ncols];
    for &j in &basis {
        in_basis[j] = true;
    }

    Revised::assemble(m, cols, b, lower, upper, x, basis, in_basis, art0)
}

/// Solve `problem` with the bounded-variable revised simplex.
pub fn solve(problem: &Problem) -> Result<Solution, SolveError> {
    solve_parked(problem).map(|(sol, _)| sol)
}

/// [`solve`], also handing back the solver parked at its final basis
/// (`None` when the problem has no rows, so no basis). The kernel bench
/// times its primitives on that basis.
fn solve_parked(problem: &Problem) -> Result<(Solution, Option<Revised>), SolveError> {
    let n = problem.vars.len();
    let m = problem.constraints.len();

    if m == 0 {
        // Pure bound minimisation: each variable independently runs to the
        // bound its objective coefficient points at.
        let mut values = vec![0.0; n];
        for (i, v) in problem.vars.iter().enumerate() {
            values[i] = if v.obj > 0.0 {
                if !v.lower.is_finite() {
                    return Err(SolveError::Unbounded);
                }
                v.lower
            } else if v.obj < 0.0 {
                if !v.upper.is_finite() {
                    return Err(SolveError::Unbounded);
                }
                v.upper
            } else {
                nearest_bound(v.lower, v.upper)
            };
        }
        let objective = problem.eval_objective(&values);
        return Ok((Solution { values, objective }, None));
    }

    let rule = problem.pricing();
    let mut solver = cold_start(problem);
    // Factorise the crash basis (slack, structural and artificial columns)
    // once up front, which also derives all basic values consistently.
    if !solver.refactorize() {
        return Err(SolveError::IterationLimit);
    }

    let art0 = solver.art0;
    let ncols = solver.csc.ncols();
    let max_iters = 400 * (ncols + m + 10);

    // --- Phase 1: minimise the artificial sum. Skipped when the crash
    // needed no artificials. ---
    let b_scale = solver.b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    let art_sum = |s: &Revised| -> f64 { (art0..ncols).map(|j| s.x[j].abs()).sum() };
    if art0 < ncols {
        let mut phase1_cost = vec![0.0; ncols];
        for c in phase1_cost.iter_mut().skip(art0) {
            *c = 1.0;
        }
        let pivots_before_phase1 = trace::counter("lp.pivots");
        let phase1 = solver.run(&phase1_cost, max_iters, 4, rule);
        trace::count(
            "lp.phase1_pivots",
            trace::counter("lp.pivots") - pivots_before_phase1,
        );
        let feasible = art_sum(&solver) <= 1e-7 * (1.0 + b_scale);
        match phase1 {
            RunResult::Optimal if !feasible => return Err(SolveError::Infeasible),
            RunResult::Optimal => {}
            // A stalled phase 1 that nevertheless drove the artificials to
            // zero found a feasible point; a stall with artificials left is
            // *not* an infeasibility certificate — report numerical failure
            // so the caller can fall back, never a spurious Infeasible.
            RunResult::Stalled if feasible => {}
            // Phase 1 is bounded below by zero; an unbounded report is
            // numerical failure, not a certificate.
            RunResult::Stalled | RunResult::Unbounded | RunResult::IterationLimit => {
                return Err(SolveError::IterationLimit)
            }
        }
    }

    // --- Phase 2: fix artificials at zero, minimise the user objective. ---
    solver.drive_out_artificials();
    for j in art0..ncols {
        // Pricing never lets a fixed (l == u) column enter; an artificial
        // still basic on a redundant row stays at zero because the ratio
        // test evicts it the moment any pivot would move it off its bound.
        solver.upper[j] = 0.0;
        if !solver.in_basis[j] {
            solver.x[j] = 0.0;
        }
    }

    let mut phase2_cost = vec![0.0; ncols];
    for (j, c) in phase2_cost.iter_mut().enumerate().take(n) {
        *c = problem.vars[j].obj;
    }
    match solver.run(&phase2_cost, max_iters, 1, rule) {
        // A stalled phase 2 is accepted as optimal: the vertex is feasible
        // and the callers this solver serves re-price the result exactly.
        RunResult::Optimal | RunResult::Stalled => {}
        RunResult::Unbounded => return Err(SolveError::Unbounded),
        RunResult::IterationLimit => return Err(SolveError::IterationLimit),
    }

    let values: Vec<f64> = solver.x[..n].to_vec();
    let objective = problem.eval_objective(&values);
    Ok((Solution { values, objective }, Some(solver)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn simple_minimization() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        let y = p.add_nonneg_var("y", 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Ge, 4.0);
        p.add_constraint(vec![(x, 3.0), (y, 1.0)], Relation::Ge, 6.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, 14.0 / 5.0);
        assert!(p.is_feasible(&s.values, 1e-6));
    }

    #[test]
    fn maximization_via_negated_objective() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", -3.0);
        let y = p.add_nonneg_var("y", -5.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, -36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn equality_constraints() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 2.0);
        let y = p.add_nonneg_var("y", 3.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 10.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Eq, 2.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 6.0);
        assert_close(s.value(y), 4.0);
        assert_close(s.objective, 24.0);
    }

    #[test]
    fn free_variables_and_negative_optimum() {
        let mut p = Problem::new();
        let x = p.add_free_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, -7.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), -7.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(solve(&p).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new();
        let x = p.add_free_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 10.0);
        assert_eq!(solve(&p).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn box_bounds_without_explicit_rows() {
        // The whole point of the bounded-variable ratio test: no `x <= u`
        // rows, the bound is honoured implicitly.
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 3.0, -1.0);
        let y = p.add_var("y", 1.0, 2.0, -1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 10.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 3.0);
        assert_close(s.value(y), 2.0);
        assert_close(s.objective, -5.0);
    }

    #[test]
    fn bound_flip_only_problem() {
        // min -x - y with x,y in [0,1] and a slack constraint that never
        // binds: the optimum is reached purely through bound flips.
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 1.0, -1.0);
        let y = p.add_var("y", 0.0, 1.0, -1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 5.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, -2.0);
    }

    #[test]
    fn reflected_variable_only_upper_bound() {
        let mut p = Problem::new();
        let x = p.add_var("x", f64::NEG_INFINITY, 9.0, -1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 9.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 9.0);
    }

    #[test]
    fn no_constraints_bound_minimisation() {
        let mut p = Problem::new();
        let x = p.add_var("x", -2.0, 5.0, 1.0);
        let y = p.add_var("y", -2.0, 5.0, -1.0);
        let z = p.add_var("z", -2.0, 5.0, 0.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), -2.0);
        assert_close(s.value(y), 5.0);
        assert!(s.value(z) >= -2.0 && s.value(z) <= 5.0);
    }

    #[test]
    fn no_constraints_unbounded() {
        let mut p = Problem::new();
        let _ = p.add_free_var("x", 1.0);
        assert_eq!(solve(&p).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn degenerate_beale_terminates() {
        let mut p = Problem::new();
        let x1 = p.add_nonneg_var("x1", -0.75);
        let x2 = p.add_nonneg_var("x2", 150.0);
        let x3 = p.add_nonneg_var("x3", -0.02);
        let x4 = p.add_nonneg_var("x4", 6.0);
        p.add_constraint(
            vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(vec![(x3, 1.0)], Relation::Le, 1.0);
        let s = solve(&p).unwrap();
        assert!(p.is_feasible(&s.values, 1e-6));
        assert_close(s.objective, -0.05);
    }

    #[test]
    fn redundant_equalities_handled() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        let y = p.add_nonneg_var("y", 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 0.0);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0), (x, 1.0)], Relation::Ge, 4.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 2.0);
    }

    #[test]
    fn negative_rhs_rows() {
        let mut p = Problem::new();
        let x = p.add_nonneg_var("x", 1.0);
        p.add_constraint(vec![(x, -1.0)], Relation::Le, -3.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 3.0);
    }

    #[test]
    fn fixed_variables_are_respected() {
        // l == u pins the variable without ever letting it enter the basis.
        let mut p = Problem::new();
        let x = p.add_var("x", 2.0, 2.0, 1.0);
        let y = p.add_nonneg_var("y", 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 5.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 3.0);
    }

    #[test]
    fn many_pivots_trigger_refactorisation() {
        // A chain of coupled rows long enough to push the Forrest–Tomlin
        // update count past the refactorisation interval.
        let n = 150;
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_nonneg_var(format!("x{i}"), 1.0 + (i % 7) as f64))
            .collect();
        for i in 0..n - 1 {
            p.add_constraint(vec![(vars[i], 1.0), (vars[i + 1], 1.0)], Relation::Ge, 2.0);
        }
        let s = solve(&p).unwrap();
        assert!(p.is_feasible(&s.values, 1e-5));
    }

    #[test]
    fn refactorisation_cadence_is_per_pivot_not_per_file_length() {
        // On a problem with more rows than REFACTOR_INTERVAL the trigger
        // must count updates *since* the last reinversion, not anything that
        // scales with `m` — otherwise every pivot refactorises and the
        // solver degrades to O(m²) per pivot. Locked by counters:
        // refactorisations must stay well below the pivot count.
        trace::reset();
        let n = 150;
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_nonneg_var(format!("x{i}"), 1.0 + (i % 7) as f64))
            .collect();
        for i in 0..n - 1 {
            p.add_constraint(vec![(vars[i], 1.0), (vars[i + 1], 1.0)], Relation::Ge, 2.0);
        }
        let _ = solve(&p).unwrap();
        let pivots = trace::counter("lp.pivots");
        let refactors = trace::counter("lp.refactorisations");
        assert!(
            refactors <= 2 + pivots / (REFACTOR_INTERVAL as u64 / 2),
            "refactorising too often: {refactors} reinversions for {pivots} pivots"
        );
        trace::reset();
    }

    #[test]
    fn dantzig_and_devex_agree_on_objectives() {
        // Both rules must land on an optimal vertex; on a non-degenerate
        // problem the optimum is unique, so the full solutions agree.
        let build = || {
            let mut p = Problem::new();
            let x = p.add_nonneg_var("x", 1.0);
            let y = p.add_nonneg_var("y", 1.0);
            p.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Ge, 4.0);
            p.add_constraint(vec![(x, 3.0), (y, 1.0)], Relation::Ge, 6.0);
            p
        };
        let mut devex = build();
        devex.set_pricing(PricingRule::Devex);
        let mut dantzig = build();
        dantzig.set_pricing(PricingRule::Dantzig);
        let sd = solve(&devex).unwrap();
        let sz = solve(&dantzig).unwrap();
        assert_close(sd.objective, sz.objective);
        for (a, b) in sd.values.iter().zip(&sz.values) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn moderately_sized_random_feasible_problem() {
        let n = 40;
        let m = 30;
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_nonneg_var(format!("x{i}"), ((i * 7 + 3) % 11) as f64 / 7.0 + 0.1))
            .collect();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 7) as f64 - 3.0
        };
        for _ in 0..m {
            let terms: Vec<_> = vars.iter().map(|&v| (v, next())).collect();
            let lhs_at_ones: f64 = terms.iter().map(|(_, a)| *a).sum();
            p.add_constraint(terms, Relation::Le, lhs_at_ones.abs() + 5.0);
        }
        let s = solve(&p).unwrap();
        assert!(p.is_feasible(&s.values, 1e-5));
        assert!(s.objective.abs() < 1e-6);
    }

    #[test]
    fn both_rules_solve_the_random_problem_feasibly() {
        let n = 40;
        let m = 30;
        let build = |rule: PricingRule| {
            let mut p = Problem::new();
            let vars: Vec<_> = (0..n)
                .map(|i| p.add_nonneg_var(format!("x{i}"), ((i * 7 + 3) % 11) as f64 / 7.0 + 0.1))
                .collect();
            let mut state = 0xdeadbeef12345678u64;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 9) as f64 - 4.0
            };
            for _ in 0..m {
                let terms: Vec<_> = vars.iter().map(|&v| (v, next())).collect();
                let lhs_at_ones: f64 = terms.iter().map(|(_, a)| *a).sum();
                p.add_constraint(terms, Relation::Le, lhs_at_ones.abs() + 5.0);
            }
            p.set_pricing(rule);
            p
        };
        let pd = build(PricingRule::Devex);
        let pz = build(PricingRule::Dantzig);
        let sd = solve(&pd).unwrap();
        let sz = solve(&pz).unwrap();
        assert!(pd.is_feasible(&sd.values, 1e-5));
        assert!(pz.is_feasible(&sz.values, 1e-5));
        assert!((sd.objective - sz.objective).abs() < 1e-6);
    }

    #[test]
    fn devex_folds_pricing_btrans_into_the_weight_update() {
        // A problem big enough to take several pivots: under Devex every
        // iteration after the first prices from the incrementally
        // maintained reduced costs, so the batched-BTRAN counter must run
        // close to the pivot count; Dantzig keeps the dense sweep and must
        // book none.
        let build = |rule: PricingRule| {
            let mut p = Problem::new();
            let vars: Vec<_> = (0..12)
                .map(|i| p.add_var(format!("x{i}"), 0.0, 10.0, -(1.0 + (i % 5) as f64)))
                .collect();
            for r in 0..8 {
                let terms: Vec<_> = vars
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (i + r) % 3 != 0)
                    .map(|(i, &v)| (v, 1.0 + ((i * 7 + r * 3) % 4) as f64))
                    .collect();
                p.add_constraint(terms, Relation::Le, 30.0 + 2.0 * r as f64);
            }
            p.set_pricing(rule);
            p
        };

        trace::reset();
        solve(&build(PricingRule::Devex)).unwrap();
        let batched = trace::counter("lp.devex.batched_btran");
        let pivots = trace::counter("lp.pivots");
        trace::reset();
        assert!(pivots > 2, "workload too small to exercise pricing");
        assert!(
            batched > 0,
            "Devex never priced from the maintained reduced costs"
        );

        trace::reset();
        solve(&build(PricingRule::Dantzig)).unwrap();
        let batched = trace::counter("lp.devex.batched_btran");
        trace::reset();
        assert_eq!(batched, 0, "Dantzig must keep the dense pricing sweep");
    }

    #[test]
    fn lu_kernel_emits_ft_updates_and_sparse_ftrans() {
        trace::reset();
        let n = 150;
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_nonneg_var(format!("x{i}"), 1.0 + (i % 7) as f64))
            .collect();
        for i in 0..n - 1 {
            p.add_constraint(vec![(vars[i], 1.0), (vars[i + 1], 1.0)], Relation::Ge, 2.0);
        }
        let s = solve(&p).unwrap();
        assert!(p.is_feasible(&s.values, 1e-5));
        assert!(
            trace::counter("lp.ft_updates") > 0,
            "no FT updates recorded"
        );
        assert!(
            trace::counter("lp.factor.nnz") > 0,
            "no factor nnz recorded"
        );
        assert!(
            trace::counter("lp.ftran.sparse") > 0,
            "chain FTRANs should stay hypersparse"
        );
        trace::reset();
    }

    #[test]
    fn kernel_bench_parks_at_the_final_basis() {
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 10.0, -5.0);
        let y = p.add_var("y", 0.0, 10.0, -4.0);
        p.add_constraint(vec![(x, 6.0), (y, 4.0)], Relation::Le, 24.0);
        p.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Le, 6.0);
        let mut bench = KernelBench::prepare(&p).expect("bounded LP parks a basis");
        assert_eq!(bench.rows(), 2);
        assert!(bench.refactor());
        let first = bench.sweeps(100);
        assert!(first.is_finite());
        assert_eq!(first.to_bits(), bench.sweeps(100).to_bits());

        // No rows, no basis to park.
        let mut q = Problem::new();
        q.add_var("z", 0.0, 1.0, 1.0);
        assert!(KernelBench::prepare(&q).is_none());
    }
}
