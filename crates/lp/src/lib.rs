//! A small, dependency-free linear-programming solver.
//!
//! The alignment analysis of Chatterjee, Gilbert and Schreiber (SC'93)
//! repeatedly reduces mobile offset alignment to *rounded linear programming*
//! (RLP): a linear program whose fractional optimum is rounded to integer
//! offsets. The original work assumed an external LP package; this crate is
//! that substrate, rebuilt from scratch.
//!
//! The production path ([`Problem::solve`]) is an equality-chain presolve
//! followed by a bounded-variable *revised* simplex ([`revised`]). The
//! constraint matrix is held in compressed sparse column form, and the
//! basis inverse is a Markowitz sparse LU factorisation with threshold
//! partial pivoting, kept current across pivots by Forrest–Tomlin updates
//! and periodically refactorised; FTRAN and BTRAN walk only the nonzero
//! pattern (hypersparse solves), falling back to dense sweeps when a
//! right-hand side fills in. Box bounds are handled by the ratio test
//! instead of explicit rows, the entering column is chosen by a configurable
//! [`PricingRule`] (Devex by default, Dantzig as fallback — see
//! [`Problem::set_pricing`]), and Bland's rule takes over as an
//! anti-cycling fallback after a run of degenerate pivots. Every solve
//! starts cold from a crash basis and runs the two-phase method; integrality
//! is never enforced, the callers round the LP optimum. The original dense
//! two-phase tableau simplex ([`simplex`]) is retained as a
//! differential-testing oracle behind [`Problem::solve_tableau`], and as a
//! last-resort fallback when the revised solver reports numerical failure.
//! Both are designed for the problem sizes the alignment phase produces (a
//! handful of variables per port plus one surrogate variable per
//! edge-subrange — hundreds to a few thousand variables), not for
//! industrial LPs.
//!
//! # Example
//!
//! ```
//! use lp::{Problem, Relation};
//!
//! // minimize  x + 2y   subject to   x + y >= 3,  x <= 2,  x,y >= 0
//! let mut p = Problem::new();
//! let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
//! let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
//! p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 3.0);
//! p.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
//! let sol = p.solve().unwrap();
//! assert!((sol.value(x) - 2.0).abs() < 1e-7);
//! assert!((sol.value(y) - 1.0).abs() < 1e-7);
//! assert!((sol.objective - 4.0).abs() < 1e-7);
//! ```

mod factor;
pub mod model;
pub mod presolve;
pub mod revised;
pub mod simplex;
mod sparse;

pub use model::{Problem, Relation, Solution, SolveError, VarId};
#[doc(hidden)]
pub use revised::KernelBench;
pub use revised::PricingRule;

/// Numerical tolerance used throughout the solver.
pub const EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_holds() {
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 3.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-7);
    }
}
