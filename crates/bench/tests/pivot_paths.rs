//! Pivot-path lock: the simplex basis kernel may change how fast a pivot
//! runs, never which pivots run. Each canonical `phase_workloads()` program
//! and three generated single-loop programs are aligned once, and the LP
//! work counters of that alignment must match exactly:
//!
//! * `lp.pivots`, `lp.ft_updates`, `lp.refactorisations` — the pivot
//!   sequence and the Forrest–Tomlin update cadence;
//! * `lp.devex.batched_btran` — how often pricing read the incrementally
//!   maintained reduced costs instead of a dense BTRAN;
//! * `lp.factor.nnz` — the size of every refactorised `L·U`;
//! * a hash of the bits of every `OffsetSolveReport`'s `lp_objective` and
//!   `exact_cost`, so a rounding change anywhere in the kernel shows even
//!   when the pivot counts happen to agree.
//!
//! The counter gate covers the canonical suite through the whole dynamic
//! pipeline; this lock adds the generated programs whose offset LPs
//! dominate the `generated_lp` benchmark workload, and runs in tier 1.

use align_ir::{programs, Program};
use alignment_core::{align_program, PipelineConfig};
use bench::{random_loop_program, RandomProgramConfig};

/// The locked LP path of one alignment.
#[derive(Debug, PartialEq, Eq)]
struct PivotPath {
    pivots: u64,
    ft_updates: u64,
    refactorisations: u64,
    batched_btran: u64,
    factor_nnz: u64,
    report_hash: u64,
}

/// FNV-1a over the bit patterns of the reports' objective and exact cost,
/// in report order.
fn report_hash(result: &alignment_core::AlignmentResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in &result.offset_reports {
        for v in [r.lp_objective, r.exact_cost] {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn pivot_path(program: &Program) -> PivotPath {
    let before = trace::CounterSnapshot::now();
    let (_, result) = align_program(program, &PipelineConfig::default());
    let delta = trace::CounterSnapshot::now().delta_since(&before);
    PivotPath {
        pivots: delta.get("lp.pivots"),
        ft_updates: delta.get("lp.ft_updates"),
        refactorisations: delta.get("lp.refactorisations"),
        batched_btran: delta.get("lp.devex.batched_btran"),
        factor_nnz: delta.get("lp.factor.nnz"),
        report_hash: report_hash(&result),
    }
}

/// A `generated_lp`-shaped program: three statements, default extents.
fn generated(trips: i64, seed: u64) -> (String, Program) {
    let program = random_loop_program(RandomProgramConfig {
        statements: 3,
        trips,
        seed,
        ..RandomProgramConfig::default()
    });
    (format!("random(3,{trips},{seed})"), program)
}

/// The locked paths, in program order. Recorded before the kernel was last
/// reworked; a kernel change that moves any of them changed the pivots.
const LOCKED: [(&str, PivotPath); 10] = [
    (
        "fft_like",
        PivotPath {
            pivots: 294,
            ft_updates: 294,
            refactorisations: 6,
            batched_btran: 251,
            factor_nnz: 5461,
            report_hash: 0x02d3534adf26d5c4,
        },
    ),
    (
        "fft_like_nested",
        PivotPath {
            pivots: 381,
            ft_updates: 381,
            refactorisations: 7,
            batched_btran: 283,
            factor_nnz: 11636,
            report_hash: 0x01e35b09a5c546e5,
        },
    ),
    (
        "multi_array_pipeline",
        PivotPath {
            pivots: 681,
            ft_updates: 681,
            refactorisations: 12,
            batched_btran: 486,
            factor_nnz: 34951,
            report_hash: 0x729a593b74f8aac3,
        },
    ),
    (
        "conditional_pipeline",
        PivotPath {
            pivots: 102,
            ft_updates: 102,
            refactorisations: 3,
            batched_btran: 89,
            factor_nnz: 1827,
            report_hash: 0x6c5dd002127efb76,
        },
    ),
    (
        "multigrid_vcycle",
        PivotPath {
            pivots: 1890,
            ft_updates: 1890,
            refactorisations: 35,
            batched_btran: 932,
            factor_nnz: 42352,
            report_hash: 0x82861d86bd505825,
        },
    ),
    (
        "reduction_tree",
        PivotPath {
            pivots: 364,
            ft_updates: 364,
            refactorisations: 6,
            batched_btran: 324,
            factor_nnz: 12094,
            report_hash: 0xa69cb11882e64f38,
        },
    ),
    (
        "lookup_table",
        PivotPath {
            pivots: 0,
            ft_updates: 0,
            refactorisations: 1,
            batched_btran: 0,
            factor_nnz: 167,
            report_hash: 0x88201fb960ff6465,
        },
    ),
    (
        "random(3,6,1)",
        PivotPath {
            pivots: 3320,
            ft_updates: 3320,
            refactorisations: 55,
            batched_btran: 1106,
            factor_nnz: 125884,
            report_hash: 0x2efd86b41c84f06a,
        },
    ),
    (
        "random(3,8,2)",
        PivotPath {
            pivots: 3218,
            ft_updates: 3218,
            refactorisations: 53,
            batched_btran: 1450,
            factor_nnz: 146684,
            report_hash: 0xf04542d111685d68,
        },
    ),
    (
        "random(3,10,3)",
        PivotPath {
            pivots: 3422,
            ft_updates: 3422,
            refactorisations: 56,
            batched_btran: 1668,
            factor_nnz: 179600,
            report_hash: 0xc91f4bd1f01c57f4,
        },
    ),
];

#[test]
fn kernel_changes_keep_every_pivot_path() {
    let mut programs: Vec<(String, Program)> = programs::phase_workloads()
        .into_iter()
        .map(|(name, p)| (name.to_owned(), p))
        .collect();
    programs.extend([generated(6, 1), generated(8, 2), generated(10, 3)]);
    assert_eq!(programs.len(), LOCKED.len());

    let mut mismatches = Vec::new();
    for ((name, program), (locked_name, locked)) in programs.iter().zip(&LOCKED) {
        assert_eq!(name, locked_name, "program order changed");
        let got = pivot_path(program);
        if &got != locked {
            mismatches.push(format!("{name}: locked {locked:?}, got {got:?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "pivot paths moved:\n{}",
        mismatches.join("\n")
    );
}
