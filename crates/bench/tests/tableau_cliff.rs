//! Regression lock for the singular-basis recovery in the revised simplex.
//!
//! On these generated programs one offset LP used to fail in phase 2: a
//! Forrest–Tomlin update was rejected, the refactorised basis was singular,
//! and the whole LP was re-solved on the dense tableau for 20–40 s. The
//! revised simplex now rolls the pivot back and carries on, so the plan
//! comes from the revised solver alone — and it is the plan the tableau
//! path produced.

use bench::{random_loop_program, RandomProgramConfig};
use phases::{align_then_distribute_dynamic, simulate_dynamic, DynamicConfig};

fn plan(statements: usize, trips: i64, seed: u64) -> (f64, u64, u64) {
    let program = random_loop_program(RandomProgramConfig {
        statements,
        trips,
        seed,
        ..RandomProgramConfig::default()
    });
    trace::reset();
    let result = align_then_distribute_dynamic(&program, 8, &DynamicConfig::default());
    let fallbacks = trace::counter("lp.tableau_fallbacks");
    let rollbacks = trace::counter("lp.pivot_rollbacks");
    let replay = simulate_dynamic(&result, result.config.sim).total_elements();
    assert_eq!(
        result.dynamic.planned_cost.to_bits(),
        replay.to_bits(),
        "({statements},{trips},{seed}): planned {} vs replayed {replay}",
        result.dynamic.planned_cost
    );
    (result.dynamic.planned_cost, fallbacks, rollbacks)
}

#[test]
fn singular_bases_roll_back_instead_of_falling_back_to_the_tableau() {
    for (statements, trips, seed, cost) in [(3, 8, 1, 344.0), (2, 20, 2, 1530.0)] {
        let (planned, fallbacks, rollbacks) = plan(statements, trips, seed);
        assert_eq!(
            fallbacks, 0,
            "({statements},{trips},{seed}): tableau fallback ran"
        );
        assert!(
            rollbacks >= 1,
            "({statements},{trips},{seed}): no pivot was rolled back"
        );
        assert_eq!(planned, cost, "({statements},{trips},{seed})");
    }
}
