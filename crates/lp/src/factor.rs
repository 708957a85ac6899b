//! Sparse LU factorisation of the simplex basis with Forrest–Tomlin
//! updates.
//!
//! The basis `B` (columns of the CSC constraint matrix) is factorised once
//! as `L·U` with approximate-Markowitz column ordering and threshold
//! partial pivoting, and each simplex pivot then *updates* the
//! factorisation in place (a Forrest–Tomlin row eta plus a spike column).
//! Refactorisation still happens every `REFACTOR_INTERVAL` pivots; it
//! rebuilds from the sparse columns in `O(nnz)`-ish work, into the buffers
//! of the factorisation before last.
//!
//! Representation. Every elimination has a pivot row, and the factors are
//! keyed by it, so no entry needs an id-to-row lookup. Indices are `u32`.
//!
//! * `L` is a sequence of elimination etas in elimination order, stored
//!   flat: eta `k` subtracts `mult · v[l_prow[k]]` from the rows in its
//!   slice of `l_rows`/`l_vals`.
//! * `U` column `p` is the column whose diagonal sits in row `p`: a slice
//!   of the flat `u_rows`/`u_vals` arrays (entries in rows that come
//!   earlier in the column order) plus `udiag[p]`. `uorder` is the current
//!   column order; a Forrest–Tomlin update moves the replaced column to the
//!   back and appends its rebuilt entries to the flat arrays.
//! * The row index lists, per row, the columns with an entry in that row,
//!   each tagged with the column's generation. Rebuilding a column bumps
//!   its generation, so its stale tags are skipped, not searched out. The
//!   Forrest–Tomlin update and the unit BTRAN use the index to visit only
//!   the columns reachable from their start row, in `uorder`.
//! * The Forrest–Tomlin row etas, in append order, are applied between the
//!   `L` and `U` passes of every FTRAN (and transposed, in reverse, in
//!   BTRAN).
//!
//! FTRAN right-hand sides are [`IndexedVec`] support lists. The `L` pass
//! walks a min-heap of elimination positions, so etas whose pivot row is
//! not in the support are never touched (hypersparse). The `U` pass writes
//! straight into the dense workspace, zeroing each pivot row once it is
//! read, and the result's support is collected by one scan of the output
//! marks. Solves are counted under `lp.ftran.sparse` / `lp.ftran.dense` by
//! the support of the spike *entering* the `U` pass (dense above `m / 4`
//! rows), not by the result: on the generated offset LPs a spike of ≈10
//! rows fills in to ≈330 of ≈700, and the solve still counts as sparse.
//!
//! Skipping work never changes a bit: every pass performs the same
//! floating-point operations in the same order as a sweep over all
//! columns, and a column the sweep would visit without a nonzero input
//! only produces exact zeros, which it discards. A kernel change must leave
//! every `lp.*` counter where it was.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::sparse::{CscMatrix, IndexedVec};

/// Minimum magnitude accepted for a pivot element (matches the revised
/// simplex's ratio-test tolerance).
const PIVOT_TOL: f64 = 1e-8;
/// Threshold partial pivoting: any row within this factor of the column's
/// largest remaining entry is stability-eligible, and the sparsest eligible
/// row (fewest a-priori nonzeros) wins.
const PIVOT_THRESHOLD: f64 = 0.1;
/// FTRAN support larger than `m / DENSE_RATIO` counts as a dense solve.
const DENSE_RATIO: usize = 4;
/// "No index" in the `u32` index arrays.
const NONE: u32 = u32::MAX;

/// `L` and `U` of one basis. A refactorisation builds into a spare set and
/// commits by swapping, so a singular basis leaves the old set intact.
#[derive(Debug, Clone, Default)]
struct Factors {
    /// `L` eta `k` owns `l_rows`/`l_vals[l_start[k]..l_start[k + 1]]`.
    l_start: Vec<u32>,
    l_rows: Vec<u32>,
    l_vals: Vec<f64>,
    /// Eta -> pivot row.
    l_prow: Vec<u32>,
    /// Row -> eta (`NONE` while the row is not yet pivotal).
    l_eta: Vec<u32>,
    /// `U` column `p` owns `u_rows`/`u_vals[u_start[p]..][..u_len[p]]`.
    u_start: Vec<u32>,
    u_len: Vec<u32>,
    u_rows: Vec<u32>,
    u_vals: Vec<f64>,
    udiag: Vec<f64>,
}

impl Factors {
    /// Empty factors of an `m`-row basis, keeping every buffer's capacity.
    fn reset(&mut self, m: usize) {
        self.l_start.clear();
        self.l_start.push(0);
        self.l_rows.clear();
        self.l_vals.clear();
        self.l_prow.clear();
        self.l_eta.clear();
        self.l_eta.resize(m, NONE);
        self.u_start.resize(m, 0);
        self.u_len.resize(m, 0);
        self.u_rows.clear();
        self.u_vals.clear();
        self.udiag.resize(m, 0.0);
    }

    /// `L` eta `k`: `(rows, multipliers)`.
    #[inline]
    fn l_col(&self, k: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.l_start[k] as usize, self.l_start[k + 1] as usize);
        (&self.l_rows[lo..hi], &self.l_vals[lo..hi])
    }

    /// `U` column `p` without its diagonal: `(rows, values)`.
    #[inline]
    fn u_col(&self, p: usize) -> (&[u32], &[f64]) {
        let lo = self.u_start[p] as usize;
        let hi = lo + self.u_len[p] as usize;
        (&self.u_rows[lo..hi], &self.u_vals[lo..hi])
    }

    /// Hypersparse `L` solve: walk a min-heap of etas seeded from the
    /// support, so etas whose pivot row never becomes nonzero are skipped
    /// entirely. `l_eta` may be partial (mid-factorisation).
    fn solve_l(&self, work: &mut IndexedVec, heap: &mut BinaryHeap<Reverse<u32>>) {
        debug_assert!(heap.is_empty());
        for &r in work.support() {
            let k = self.l_eta[r];
            if k != NONE {
                heap.push(Reverse(k));
            }
        }
        let mut prev = NONE;
        while let Some(Reverse(k)) = heap.pop() {
            if k == prev {
                continue; // duplicate seed/scatter
            }
            prev = k;
            let t = work.get(self.l_prow[k as usize] as usize);
            if t == 0.0 {
                continue;
            }
            let (rows, mults) = self.l_col(k as usize);
            for (&r, &mult) in rows.iter().zip(mults) {
                work.add(r as usize, -mult * t);
                let k2 = self.l_eta[r as usize];
                if k2 != NONE {
                    debug_assert!(k2 > k);
                    heap.push(Reverse(k2));
                }
            }
        }
    }
}

/// The column order of `U` and the row index over it, the part of the
/// factorisation that Forrest–Tomlin updates rearrange. Rebuilt from the
/// factors at every refactorisation.
#[derive(Debug, Clone, Default)]
struct Order {
    /// Position -> pivot row, and its inverse.
    uorder: Vec<u32>,
    upos: Vec<u32>,
    /// Pivot row -> basis slot, and back.
    slot: Vec<u32>,
    row_of_slot: Vec<u32>,
    /// Row index of `U`, as per-row linked lists of `(column, generation,
    /// next)` nodes starting at `row_head`. A node whose generation is not
    /// its column's current one is stale.
    row_head: Vec<u32>,
    nodes: Vec<(u32, u32, u32)>,
    generation: Vec<u32>,
}

impl Order {
    /// Record that column `c` (at its current generation) has an entry in
    /// row `r`.
    #[inline]
    fn link(&mut self, r: usize, c: usize) {
        self.nodes
            .push((c as u32, self.generation[c], self.row_head[r]));
        self.row_head[r] = (self.nodes.len() - 1) as u32;
    }

    /// Queue, by `U` position, every column with a current entry in row
    /// `r` (all of them come after column `r` in the order).
    #[inline]
    fn queue_dependents(&self, r: usize, heap: &mut BinaryHeap<Reverse<u32>>, queued: &mut [bool]) {
        let mut e = self.row_head[r];
        while e != NONE {
            let (c, generation, next) = self.nodes[e as usize];
            let c = c as usize;
            if generation == self.generation[c] && !queued[c] {
                debug_assert!(self.upos[c] > self.upos[r]);
                queued[c] = true;
                heap.push(Reverse(self.upos[c]));
            }
            e = next;
        }
    }
}

/// A sparse LU factorisation of the current basis, updatable in place.
#[derive(Debug, Clone)]
pub(crate) struct LuFactor {
    m: usize,
    f: Factors,
    /// Where the next refactorisation builds: the buffers of the factors
    /// before the current ones.
    spare: Factors,
    order: Order,
    /// Forrest–Tomlin row eta `e`: `v[ft_row[e]] -= Σ w·v[r]` over
    /// `ft_rows`/`ft_vals[ft_start[e]..ft_start[e + 1]]`.
    ft_row: Vec<u32>,
    ft_start: Vec<u32>,
    ft_rows: Vec<u32>,
    ft_vals: Vec<f64>,
    /// Updates since the last full factorisation (`usize::MAX` until the
    /// first factorisation so an unfactored kernel always refactorises).
    updates: usize,
    // -- workspaces --
    work: IndexedVec,
    /// The pre-`U` vector of the last FTRAN (the Forrest–Tomlin spike).
    spike: Vec<f64>,
    spike_rows: Vec<u32>,
    heap: BinaryHeap<Reverse<u32>>,
    /// Columns waiting in `heap` during an ordered `U` traversal.
    queued: Vec<bool>,
    wvals: Vec<f64>,
    wmark: Vec<bool>,
    wlist: Vec<u32>,
    /// Refactorisation scratch: slots in elimination order, and a-priori
    /// row counts.
    elim: Vec<u32>,
    row_count: Vec<u32>,
}

impl LuFactor {
    pub fn new(m: usize) -> Self {
        assert!(m < NONE as usize, "basis too large for u32 indices");
        LuFactor {
            m,
            f: Factors::default(),
            spare: Factors::default(),
            order: Order::default(),
            ft_row: Vec::new(),
            ft_start: vec![0],
            ft_rows: Vec::new(),
            ft_vals: Vec::new(),
            updates: usize::MAX,
            work: IndexedVec::new(m),
            spike: vec![0.0; m],
            spike_rows: Vec::new(),
            heap: BinaryHeap::new(),
            queued: vec![false; m],
            wvals: vec![0.0; m],
            wmark: vec![false; m],
            wlist: Vec::new(),
            elim: Vec::new(),
            row_count: Vec::new(),
        }
    }

    /// Forrest–Tomlin updates applied since the last full factorisation.
    /// `usize::MAX` means "never factorised".
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Forrest–Tomlin eta `e`: `(rows, weights)`.
    #[inline]
    fn ft_eta(&self, e: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.ft_start[e] as usize, self.ft_start[e + 1] as usize);
        (&self.ft_rows[lo..hi], &self.ft_vals[lo..hi])
    }

    /// Factorise the basis columns `csc[:, basis]`. Builds into the spare
    /// factors and commits only on success, so a `false` return
    /// (numerically singular basis) leaves the previous factorisation
    /// intact.
    pub fn factor(&mut self, csc: &CscMatrix, basis: &[usize]) -> bool {
        let m = self.m;
        debug_assert_eq!(basis.len(), m);
        let LuFactor {
            spare: f,
            work,
            heap,
            elim,
            row_count,
            ..
        } = self;
        f.reset(m);

        // A-priori ordering: sparsest basis columns first (slack/artificial
        // singletons eliminate for free), ties by slot for determinism.
        elim.clear();
        elim.extend(0..m as u32);
        elim.sort_by_key(|&s| (csc.col_nnz(basis[s as usize]), s));
        // A-priori row counts over the basis columns: the Markowitz-style
        // tie-break prefers pivot rows that appear in few columns.
        row_count.clear();
        row_count.resize(m, 0);
        for &j in basis {
            for &i in csc.col(j).0 {
                row_count[i] += 1;
            }
        }

        for (k, &slot) in elim.iter().enumerate() {
            work.clear();
            let (rows, vals) = csc.col(basis[slot as usize]);
            for (&i, &a) in rows.iter().zip(vals) {
                work.add(i, a);
            }
            f.solve_l(work, heap);

            // Threshold partial pivoting over the not-yet-pivotal support.
            let mut vmax = 0.0f64;
            for &r in work.support() {
                if f.l_eta[r] == NONE {
                    vmax = vmax.max(work.get(r).abs());
                }
            }
            if vmax <= PIVOT_TOL {
                work.clear();
                return false; // singular; previous factorisation kept
            }
            let cutoff = PIVOT_THRESHOLD * vmax;
            let mut best = usize::MAX;
            let mut best_mag = 0.0f64;
            for &r in work.support() {
                if f.l_eta[r] != NONE {
                    continue;
                }
                let mag = work.get(r).abs();
                if mag < cutoff || mag <= PIVOT_TOL {
                    continue;
                }
                let better = best == usize::MAX
                    || row_count[r] < row_count[best]
                    || (row_count[r] == row_count[best]
                        && (mag > best_mag || (mag == best_mag && r < best)));
                if better {
                    best = r;
                    best_mag = mag;
                }
            }
            let p = best; // vmax itself is always eligible
            let piv = work.get(p);
            f.u_start[p] = f.u_rows.len() as u32;
            for &r in work.support() {
                let v = work.get(r);
                if v == 0.0 || r == p {
                    continue;
                }
                if f.l_eta[r] == NONE {
                    f.l_rows.push(r as u32);
                    f.l_vals.push(v / piv);
                } else {
                    f.u_rows.push(r as u32);
                    f.u_vals.push(v);
                }
            }
            f.u_len[p] = f.u_rows.len() as u32 - f.u_start[p];
            f.udiag[p] = piv;
            f.l_eta[p] = k as u32;
            f.l_prow.push(p as u32);
            f.l_start.push(f.l_rows.len() as u32);
        }
        work.clear();

        // Commit, then derive the column order (elimination order) and the
        // row index from the new factors.
        std::mem::swap(&mut self.f, &mut self.spare);
        let f = &self.f;
        let o = &mut self.order;
        o.uorder.clone_from(&f.l_prow);
        o.upos.clone_from(&f.l_eta);
        o.slot.resize(m, 0);
        o.row_of_slot.resize(m, 0);
        for (&p, &slot) in f.l_prow.iter().zip(self.elim.iter()) {
            o.slot[p as usize] = slot;
            o.row_of_slot[slot as usize] = p;
        }
        o.row_head.clear();
        o.row_head.resize(m, NONE);
        o.nodes.clear();
        o.generation.clear();
        o.generation.resize(m, 0);
        for p in 0..m {
            for &r in f.u_col(p).0 {
                o.link(r as usize, p);
            }
        }
        self.ft_row.clear();
        self.ft_start.truncate(1);
        self.ft_rows.clear();
        self.ft_vals.clear();
        self.updates = 0;
        for &r in &self.spike_rows {
            self.spike[r as usize] = 0.0;
        }
        self.spike_rows.clear();
        trace::count(
            "lp.factor.nnz",
            (f.l_rows.len() + f.u_rows.len() + m) as u64,
        );
        true
    }

    /// `out = B⁻¹ a_j` (slot-indexed, support sorted ascending). The pre-`U`
    /// intermediate is cached as the Forrest–Tomlin spike, so an
    /// [`update`](Self::update) must follow the FTRAN of the very column
    /// that enters the basis.
    pub fn ftran_col(&mut self, csc: &CscMatrix, j: usize, out: &mut IndexedVec) {
        out.clear();
        self.work.clear();
        let (rows, vals) = csc.col(j);
        for (&i, &a) in rows.iter().zip(vals) {
            self.work.add(i, a);
        }
        self.f.solve_l(&mut self.work, &mut self.heap);
        for (e, &p) in self.ft_row.iter().enumerate() {
            let (rows, weights) = self.ft_eta(e);
            let mut s = 0.0;
            for (&r, &w) in rows.iter().zip(weights) {
                s += w * self.work.get(r as usize);
            }
            if s != 0.0 {
                self.work.add(p as usize, -s);
            }
        }
        let LuFactor {
            m,
            f,
            order,
            work,
            spike,
            spike_rows,
            ..
        } = self;
        // Cache the spike for a possible Forrest–Tomlin update.
        for &r in spike_rows.iter() {
            spike[r as usize] = 0.0;
        }
        spike_rows.clear();
        for &r in work.support() {
            let v = work.get(r);
            if v != 0.0 {
                spike[r] = v;
                spike_rows.push(r as u32);
            }
        }
        if work.support().len() * DENSE_RATIO > *m {
            trace::count("lp.ftran.dense", 1);
        } else {
            trace::count("lp.ftran.sparse", 1);
        }
        // Backward U solve over the current column order, in the dense
        // workspace: each pivot row is read once and zeroed, so the
        // workspace is clean again once the pass ends.
        let v = work.values_mut();
        for &p in order.uorder.iter().rev() {
            let p = p as usize;
            let num = v[p];
            if num == 0.0 {
                continue;
            }
            v[p] = 0.0;
            let z = num / f.udiag[p];
            let (rows, us) = f.u_col(p);
            for (&r, &u) in rows.iter().zip(us) {
                v[r as usize] -= u * z;
            }
            out.set_deferred(order.slot[p] as usize, z);
        }
        work.clear();
        out.rebuild_support();
    }

    /// Sparse `out = B⁻ᵀ e_r` for basis slot `r` (row-indexed; support is a
    /// superset of the nonzeros). Used by the Devex weight update.
    pub fn btran_unit(&mut self, r_slot: usize, out: &mut IndexedVec) {
        out.clear();
        let LuFactor {
            f,
            order,
            heap,
            queued,
            ..
        } = self;
        // Uᵀ solve over the columns reachable from the unit's column, in
        // column order.
        let t = order.row_of_slot[r_slot] as usize;
        queued[t] = true;
        heap.push(Reverse(order.upos[t]));
        while let Some(Reverse(pos)) = heap.pop() {
            let c = order.uorder[pos as usize] as usize;
            queued[c] = false;
            let mut num = if c == t { 1.0 } else { 0.0 };
            let (rows, us) = f.u_col(c);
            for (&r, &u) in rows.iter().zip(us) {
                num -= u * out.get(r as usize);
            }
            if num != 0.0 {
                out.set(c, num / f.udiag[c]);
                order.queue_dependents(c, heap, queued);
            }
        }
        for (e, &p) in self.ft_row.iter().enumerate().rev() {
            let t = out.get(p as usize);
            if t == 0.0 {
                continue;
            }
            let (rows, weights) = self.ft_eta(e);
            for (&r, &w) in rows.iter().zip(weights) {
                out.add(r as usize, -w * t);
            }
        }
        let f = &self.f;
        for (k, &p) in f.l_prow.iter().enumerate().rev() {
            let (rows, mults) = f.l_col(k);
            if rows.is_empty() {
                continue;
            }
            let mut s = 0.0;
            for (&r, &mult) in rows.iter().zip(mults) {
                s += mult * out.get(r as usize);
            }
            if s != 0.0 {
                out.add(p as usize, -s);
            }
        }
    }

    /// Dense `y = B⁻ᵀ c` where `c` is slot-indexed (`c[i]` = cost of the
    /// column basic in slot `i`) and `y` is row-indexed. The pricing pass
    /// reads every row, so the output is naturally dense.
    pub fn btran_costs(&mut self, c_slots: &[f64], y: &mut [f64]) {
        let (f, order) = (&self.f, &self.order);
        // Every row is written before it is read: a column reads only rows
        // that come earlier in the order.
        for &p in &order.uorder {
            let p = p as usize;
            let mut num = c_slots[order.slot[p] as usize];
            let (rows, us) = f.u_col(p);
            for (&r, &u) in rows.iter().zip(us) {
                num -= u * y[r as usize];
            }
            y[p] = num / f.udiag[p];
        }
        for (e, &p) in self.ft_row.iter().enumerate().rev() {
            let t = y[p as usize];
            if t == 0.0 {
                continue;
            }
            let (rows, weights) = self.ft_eta(e);
            for (&r, &w) in rows.iter().zip(weights) {
                y[r as usize] -= w * t;
            }
        }
        for (k, &p) in f.l_prow.iter().enumerate().rev() {
            let (rows, mults) = f.l_col(k);
            if rows.is_empty() {
                continue;
            }
            let mut s = 0.0;
            for (&r, &mult) in rows.iter().zip(mults) {
                s += mult * y[r as usize];
            }
            if s != 0.0 {
                y[p as usize] -= s;
            }
        }
    }

    /// Dense `out_slots = B⁻¹ rhs_rows` (destroys `rhs_rows`). Used to
    /// rederive all basic values after a refactorisation.
    pub fn solve_dense(&self, rhs_rows: &mut [f64], out_slots: &mut [f64]) {
        let (f, order) = (&self.f, &self.order);
        for (k, &p) in f.l_prow.iter().enumerate() {
            let (rows, mults) = f.l_col(k);
            if rows.is_empty() {
                continue;
            }
            let t = rhs_rows[p as usize];
            if t == 0.0 {
                continue;
            }
            for (&r, &mult) in rows.iter().zip(mults) {
                rhs_rows[r as usize] -= mult * t;
            }
        }
        for (e, &p) in self.ft_row.iter().enumerate() {
            let (rows, weights) = self.ft_eta(e);
            let mut s = 0.0;
            for (&r, &w) in rows.iter().zip(weights) {
                s += w * rhs_rows[r as usize];
            }
            rhs_rows[p as usize] -= s;
        }
        for &p in order.uorder.iter().rev() {
            let p = p as usize;
            let num = rhs_rows[p];
            let z = num / f.udiag[p];
            if num != 0.0 {
                let (rows, us) = f.u_col(p);
                for (&r, &u) in rows.iter().zip(us) {
                    rhs_rows[r as usize] -= u * z;
                }
            }
            out_slots[order.slot[p] as usize] = z;
        }
    }

    /// Forrest–Tomlin update: basis slot `r_slot` now holds the column whose
    /// FTRAN produced the cached spike. Returns `false` (leaving the
    /// factorisation *unchanged*) when the new diagonal is too small — the
    /// caller refactorises from scratch instead.
    pub fn update(&mut self, r_slot: usize) -> bool {
        let LuFactor {
            f,
            order,
            heap,
            queued,
            spike,
            spike_rows,
            wvals,
            wmark,
            wlist,
            ..
        } = self;
        let p = order.row_of_slot[r_slot] as usize;
        let pos_t = order.upos[p] as usize;

        // Row eta weights w over the columns ordered after p, ascending:
        // w_c·udiag[c] = u_{p,c} − Σ_{pos(p) < pos(c') < pos(c)} w_{c'}·u_{c',c}.
        // Only columns reachable from row p through the row index can get
        // a nonzero weight. Computed non-destructively so a rejected update
        // changes nothing.
        wlist.clear();
        order.queue_dependents(p, heap, queued);
        while let Some(Reverse(pos)) = heap.pop() {
            let c = order.uorder[pos as usize] as usize;
            queued[c] = false;
            let mut u_pc = 0.0;
            let mut acc = 0.0;
            let (rows, us) = f.u_col(c);
            for (&r, &u) in rows.iter().zip(us) {
                let r = r as usize;
                if r == p {
                    u_pc = u;
                } else if wmark[r] {
                    acc += wvals[r] * u;
                }
            }
            let num = u_pc - acc;
            if num != 0.0 {
                wvals[c] = num / f.udiag[c];
                wmark[c] = true;
                wlist.push(c as u32);
                order.queue_dependents(c, heap, queued);
            }
        }
        let mut diag = spike[p];
        for &c in wlist.iter() {
            diag -= wvals[c as usize] * spike[c as usize];
        }
        if !diag.is_finite() || diag.abs() <= PIVOT_TOL {
            for &c in wlist.iter() {
                wmark[c as usize] = false;
            }
            return false;
        }

        // Commit: drop row p's entries from the later columns (they are
        // absorbed by the row eta), rebuild column p from the spike, move it
        // to the back of the order, and append the row eta.
        let mut e = order.row_head[p];
        while e != NONE {
            let (c, generation, next) = order.nodes[e as usize];
            e = next;
            let c = c as usize;
            if generation != order.generation[c] {
                continue;
            }
            let lo = f.u_start[c] as usize;
            let len = f.u_len[c] as usize;
            if let Some(ix) = f.u_rows[lo..lo + len].iter().position(|&r| r as usize == p) {
                // `Vec::swap_remove` within the column's slice.
                f.u_rows.swap(lo + ix, lo + len - 1);
                f.u_vals.swap(lo + ix, lo + len - 1);
                f.u_len[c] -= 1;
            }
        }
        order.row_head[p] = NONE;
        order.generation[p] += 1;
        f.u_start[p] = f.u_rows.len() as u32;
        for &r in spike_rows.iter() {
            let r = r as usize;
            if r == p {
                continue;
            }
            let v = spike[r];
            if v != 0.0 {
                f.u_rows.push(r as u32);
                f.u_vals.push(v);
                order.link(r, p);
            }
        }
        f.u_len[p] = f.u_rows.len() as u32 - f.u_start[p];
        f.udiag[p] = diag;
        order.uorder.remove(pos_t);
        order.uorder.push(p as u32);
        for (pos, &c) in order.uorder.iter().enumerate().skip(pos_t) {
            order.upos[c as usize] = pos as u32;
        }
        if !wlist.is_empty() {
            self.ft_row.push(p as u32);
            for &c in wlist.iter() {
                self.ft_rows.push(c);
                self.ft_vals.push(wvals[c as usize]);
                wmark[c as usize] = false;
            }
            self.ft_start.push(self.ft_rows.len() as u32);
        }
        self.updates += 1;
        trace::count("lp.ft_updates", 1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift for reproducible random bases.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn f(&mut self) -> f64 {
            (self.next() % 2001) as f64 / 1000.0 - 1.0
        }
    }

    /// A random sparse diagonally-weighted m×m matrix (always nonsingular).
    fn random_basis(m: usize, seed: u64) -> (CscMatrix, Vec<usize>) {
        let mut rng = Rng(seed | 1);
        let mut cols = vec![Vec::new(); m];
        for (j, col) in cols.iter_mut().enumerate() {
            let mut rows = vec![j];
            for _ in 0..(rng.next() % 3) {
                rows.push((rng.next() % m as u64) as usize);
            }
            rows.sort_unstable();
            rows.dedup();
            for r in rows {
                let base = if r == j { 4.0 } else { 0.0 };
                col.push((r, base + rng.f()));
            }
        }
        let basis = (0..m).collect();
        (CscMatrix::from_cols(m, &cols), basis)
    }

    fn dense_col(csc: &CscMatrix, j: usize, m: usize) -> Vec<f64> {
        let mut v = vec![0.0; m];
        let (rows, vals) = csc.col(j);
        for (&i, &a) in rows.iter().zip(vals) {
            v[i] = a;
        }
        v
    }

    /// FTRAN of every basis column must reproduce the unit vector of its
    /// slot: `B⁻¹ a_{basis[s]} = e_s`.
    fn assert_solves_identity(f: &mut LuFactor, csc: &CscMatrix, basis: &[usize]) {
        let m = basis.len();
        let mut out = IndexedVec::new(m);
        for (s, &j) in basis.iter().enumerate() {
            f.ftran_col(csc, j, &mut out);
            for i in 0..m {
                let want = if i == s { 1.0 } else { 0.0 };
                assert!(
                    (out.get(i) - want).abs() < 1e-7,
                    "slot {s}: entry {i} = {} (want {want})",
                    out.get(i)
                );
            }
        }
    }

    #[test]
    fn lu_round_trip_reconstructs_the_basis() {
        // Direct L·U == P·B·Q check: scatter U densely (original row/slot
        // coordinates), push each column back through L, compare with B.
        for seed in [3, 17, 94, 2024] {
            let m = 24;
            let (csc, basis) = random_basis(m, seed);
            let mut f = LuFactor::new(m);
            assert!(f.factor(&csc, &basis));
            let (fs, order) = (&f.f, &f.order);
            let mut u_dense = vec![vec![0.0; m]; m]; // [row][slot]
            for p in 0..m {
                let slot = order.slot[p] as usize;
                u_dense[p][slot] = fs.udiag[p];
                let (rows, us) = fs.u_col(p);
                for (&r, &u) in rows.iter().zip(us) {
                    u_dense[r as usize][slot] = u;
                }
            }
            for slot in 0..m {
                let mut v: Vec<f64> = (0..m).map(|i| u_dense[i][slot]).collect();
                // Apply L (inverse etas, reverse order): v[r] += mult·v[p].
                for k in (0..m).rev() {
                    let vp = v[fs.l_prow[k] as usize];
                    let (rows, mults) = fs.l_col(k);
                    for (&r, &mult) in rows.iter().zip(mults) {
                        v[r as usize] += mult * vp;
                    }
                }
                let b = dense_col(&csc, basis[slot], m);
                for i in 0..m {
                    assert!(
                        (v[i] - b[i]).abs() < 1e-8,
                        "seed {seed} slot {slot} row {i}: {} vs {}",
                        v[i],
                        b[i]
                    );
                }
            }
        }
    }

    #[test]
    fn ftran_and_btran_solve_random_bases() {
        for seed in [1, 7, 42, 1234, 99999] {
            let m = 30;
            let (csc, basis) = random_basis(m, seed);
            let mut f = LuFactor::new(m);
            assert!(f.factor(&csc, &basis), "seed {seed} should factor");
            assert_solves_identity(&mut f, &csc, &basis);
            // BTRAN: y = B⁻ᵀe_r  ⇔  yᵀ·a_{basis[s]} = δ_{rs}.
            let mut y = IndexedVec::new(m);
            for r in 0..m {
                f.btran_unit(r, &mut y);
                for (s, &j) in basis.iter().enumerate() {
                    let (rows, vals) = csc.col(j);
                    let dot: f64 = rows.iter().zip(vals).map(|(&i, &a)| y.get(i) * a).sum();
                    let want = if s == r { 1.0 } else { 0.0 };
                    assert!((dot - want).abs() < 1e-7, "seed {seed} r={r} s={s}: {dot}");
                }
            }
        }
    }

    #[test]
    fn forrest_tomlin_updates_track_basis_changes() {
        for seed in [5, 21, 77, 4242] {
            let m = 20;
            let (csc, basis) = random_basis(m, seed);
            // Spare columns to pivot in: shifted copies of the originals.
            let mut all_cols: Vec<Vec<(usize, f64)>> = (0..m)
                .map(|j| {
                    let (rows, vals) = csc.col(j);
                    rows.iter().zip(vals).map(|(&i, &a)| (i, a)).collect()
                })
                .collect();
            let mut rng = Rng(seed * 31 + 7);
            for j in 0..m {
                let mut col: Vec<(usize, f64)> = all_cols[j]
                    .iter()
                    .map(|&(i, a)| ((i + 1) % m, a + rng.f()))
                    .collect();
                col.sort_by_key(|&(i, _)| i);
                col.push(((j + m / 2) % m, 3.0 + rng.f()));
                col.sort_by_key(|&(i, _)| i);
                col.dedup_by(|&mut (i2, a2), &mut (i1, ref mut a1)| {
                    if i1 == i2 {
                        *a1 += a2;
                        true
                    } else {
                        false
                    }
                });
                all_cols.push(col);
            }
            let full = CscMatrix::from_cols(m, &all_cols);
            let mut basis = basis;
            let mut f = LuFactor::new(m);
            assert!(f.factor(&full, &basis));
            let mut d = IndexedVec::new(m);
            let mut applied = 0;
            for step in 0..8 {
                let slot = (seed as usize + step * 7) % m;
                let q = m + ((seed as usize + step * 3) % m);
                if basis.contains(&q) {
                    continue;
                }
                f.ftran_col(&full, q, &mut d);
                if d.get(slot).abs() < 1e-6 {
                    continue; // would be a singular replacement
                }
                if f.update(slot) {
                    basis[slot] = q;
                    applied += 1;
                } else {
                    basis[slot] = q;
                    assert!(f.factor(&full, &basis));
                }
                assert_solves_identity(&mut f, &full, &basis);
            }
            assert!(applied > 0, "seed {seed}: no FT update exercised");
        }
    }

    #[test]
    fn singular_basis_is_rejected_and_old_factor_survives() {
        let m = 4;
        let (csc, basis) = random_basis(m, 11);
        let mut f = LuFactor::new(m);
        assert!(f.factor(&csc, &basis));
        // A basis repeating one column is singular.
        let mut cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| {
                let (rows, vals) = csc.col(j);
                rows.iter().zip(vals).map(|(&i, &a)| (i, a)).collect()
            })
            .collect();
        cols[1] = cols[0].clone();
        let bad = CscMatrix::from_cols(m, &cols);
        assert!(!f.factor(&bad, &basis));
        // The previous factorisation must still solve the old basis.
        assert_solves_identity(&mut f, &csc, &basis);
    }
}
