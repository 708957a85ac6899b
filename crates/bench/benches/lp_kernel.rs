//! The sparse simplex kernel in isolation: one reinversion plus 1000
//! FTRAN/BTRAN pairs on representative offset-LP bases, and a full
//! `Problem::solve` of the same LP. The LPs are the *real* per-axis offset
//! systems of the phase-workload suite (hard node constraints from the
//! aligned program, boxed offsets, a deterministic objective so the solve
//! walks to a non-trivial vertex) — the exact difference-constraint shapes
//! the mobile-offset formulation emits, which is what the hypersparse
//! FTRAN/BTRAN paths are built for. The sweep rows time the primitives on
//! a freshly factorised basis; the solve rows add what only a pivot
//! sequence exercises: Forrest–Tomlin updates and the `U` they grow.

use align_ir::programs;
use alignment_core::constraints::build_offset_constraints;
use alignment_core::{align_program, PipelineConfig};
use bench::BenchGroup;
use lp::KernelBench;
use std::collections::HashSet;

/// FTRAN/BTRAN pairs per sample.
const SWEEP_ROUNDS: usize = 1000;

fn main() {
    let mut group = BenchGroup::new("lp_kernel");
    for (name, program) in programs::phase_workloads() {
        let (adg, alignment) = align_program(&program, &PipelineConfig::default());
        // Axis 0 carries the densest constraint system of every workload in
        // the suite; one axis per workload keeps the gate's bench run short.
        let lp = build_offset_constraints(&adg, &alignment.alignment, 0, &HashSet::new());
        let mut problem = lp.problem;
        // The builder leaves the objective all-zero (the production solver
        // adds pricing terms). Box the offsets and pull each variable
        // toward an alternating corner so the solve pivots to a real
        // vertex instead of stopping at the first feasible point.
        for i in 0..problem.num_vars() {
            let v = lp::VarId(i);
            problem.set_bounds(v, -64.0, 64.0);
            problem.set_objective(v, if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let Some(mut kb) = KernelBench::prepare(&problem) else {
            eprintln!("lp_kernel: {name}: no usable basis, skipped");
            continue;
        };
        group.bench(format!("{name}/axis0/{}r", kb.rows()), || {
            assert!(kb.refactor(), "parked basis must refactorise");
            kb.sweeps(SWEEP_ROUNDS)
        });
        group.bench(format!("{name}/axis0/{}r/solve", kb.rows()), || {
            problem.solve().expect("offset LP must solve").objective
        });
    }
    group.finish();
}
