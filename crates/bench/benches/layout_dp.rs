//! The layout DP in isolation: real candidate layers captured from the
//! phase-flip workloads (`layout_dp_problem` — the exact layers and
//! reference sets the pipeline hands `solve_layout_dp`), solved under the
//! dominance pruner. The capture (atom analysis, distribution search, layer
//! pricing) happens once outside the timed region, so the rows isolate the
//! DP's own transition product.

use bench::BenchGroup;
use phases::{layout_dp_problem, DpPruning, DynamicConfig};

fn main() {
    let workloads = [
        (
            "multi_array/32x8",
            align_ir::programs::multi_array_pipeline(32, 8),
        ),
        (
            "reduction_tree/24x24",
            align_ir::programs::reduction_tree(24, 24),
        ),
        (
            "multigrid/32",
            align_ir::programs::multigrid_vcycle(32, 4, 4),
        ),
    ];
    let cfg = DynamicConfig::default();
    let mut group = BenchGroup::new("layout_dp");
    for (name, program) in &workloads {
        let problem = layout_dp_problem(program, 8, &cfg);
        group.bench(format!("{name}/dominance/8p"), || {
            problem
                .solve(cfg.switch_margin, DpPruning::Dominance { trigger: 64 })
                .expect("dominance DP solve failed")
        });
    }
    group.finish();
}
