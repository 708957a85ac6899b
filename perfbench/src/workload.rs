//! The benchmark's workloads and their request lists.
//!
//! Every workload plays a fixed set of programs in rounds: each round is the
//! whole set in an order the seed shuffles, and a run stops only at a round
//! boundary. A request list is therefore a pure function of
//! `(workload, seed)`.
//!
//! The sets are fixed, not drawn per seed, because the planner's LP layer
//! has a heavy tail: a few percent of instances run into the dense tableau
//! fallback or a near-degenerate solve and take seconds instead of
//! milliseconds, and which instances do so depends on their exact sizes. A
//! per-seed draw puts a random number of them into each run, which moved
//! throughput by a quarter and the failure share by half between seeds.
//! Why each workload exists is written up in `perfbench/README.md`.

use align_ir::{programs, Program};
use bench::{random_loop_program, RandomProgramConfig, Rng};
use std::time::Duration;

/// Processor count of every request. A P = 8/64/128 sweep moved no layer
/// (candidates 138 → 156, DP states unchanged), so one machine size is
/// enough.
pub const NPROCS: usize = 8;

/// Length of a request list. A run cycles the list if it gets through it,
/// which no workload does in a 60 s run.
pub const LIST_LEN: usize = 4096;

/// One workload: a request set plus its per-request deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seven `phase_workloads()` families, each at five sizes from
    /// 0.75× to 1.25× canonical. Request = plan + replay check.
    Suite,
    /// Generated single-loop programs of three statements over 6–16 trips,
    /// three generator seeds each: single-atom and LP-dominated. Request =
    /// plan + replay check.
    GeneratedLp,
    /// The multi-phase families at 2–4× canonical extents. Request = plan +
    /// replay check + exact dynamic and static replays + `explain`.
    VerifyExact,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Suite,
        Workload::GeneratedLp,
        Workload::VerifyExact,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::GeneratedLp => "generated_lp",
            Workload::VerifyExact => "verify_exact",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The per-request deadline. For `generated_lp` it sits between the two
    /// regimes: the set's plans complete within half a second, except the
    /// one that reaches the dense tableau fallback and runs for 20 s, so the
    /// same request times out in every round.
    pub fn deadline(self) -> Duration {
        match self {
            Workload::Suite => Duration::from_secs(5),
            Workload::GeneratedLp => Duration::from_secs(4),
            Workload::VerifyExact => Duration::from_secs(10),
        }
    }

    /// Whether a request runs the exact replays and `explain` after planning.
    pub fn verifies_exactly(self) -> bool {
        self == Workload::VerifyExact
    }

    /// The untimed warm-up requests a fresh worker runs: one per program
    /// family of the workload, at its canonical size.
    pub fn warmup(self) -> Vec<Request> {
        let kinds = match self {
            Workload::Suite => SUITE.iter().map(|f| f.scaled(1.0, 1.0)).collect(),
            Workload::VerifyExact => EXACT.iter().map(|f| f.scaled(1.0, 1.0)).collect(),
            Workload::GeneratedLp => vec![random(3, 6, 1)],
        };
        requests(kinds, usize::MAX)
    }

    /// The programs of one round, in canonical order.
    pub fn round(self) -> Vec<Kind> {
        match self {
            Workload::Suite => SUITE
                .iter()
                .flat_map(|f| SUITE_SCALES.iter().map(move |&s| f.scaled(s, s)))
                .collect(),
            Workload::VerifyExact => EXACT
                .iter()
                .flat_map(|f| EXACT_SCALES.iter().map(move |&s| f.scaled(s, 1.0)))
                .collect(),
            Workload::GeneratedLp => (6..=16)
                .flat_map(|trips| (1..=3).map(move |seed| random(3, trips, seed)))
                .collect(),
        }
    }

    /// Whether a run that has attempted `attempted` requests stands at a
    /// round boundary.
    pub fn at_round_boundary(self, attempted: usize) -> bool {
        attempted.is_multiple_of(self.round().len())
    }

    /// The request list for `seed`, [`LIST_LEN`] requests long.
    pub fn request_list(self, seed: u64) -> Vec<Request> {
        let mut rng = Rng::new(seed ^ (self as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut kinds = Vec::with_capacity(LIST_LEN);
        let round = self.round();
        while kinds.len() < LIST_LEN {
            kinds.extend(shuffled(round.clone(), &mut rng));
        }
        kinds.truncate(LIST_LEN);
        requests(kinds, 0)
    }
}

/// Size multipliers of `suite`, applied to every extent and trip count.
const SUITE_SCALES: [f64; 5] = [0.75, 0.875, 1.0, 1.125, 1.25];

/// Extent multipliers of `verify_exact`: 2× to 4× canonical in even steps;
/// trip counts stay canonical.
const EXACT_SCALES: [f64; 6] = [2.0, 2.4, 2.8, 3.2, 3.6, 4.0];

fn random(statements: usize, trips: i64, seed: u64) -> Kind {
    Kind::Random {
        statements,
        trips,
        seed,
    }
}

/// Number `kinds` from `first` on (warm-up requests all get `usize::MAX`).
fn requests(kinds: Vec<Kind>, first: usize) -> Vec<Request> {
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Request {
            index: first.saturating_add(i),
            kind,
        })
        .collect()
}

/// Fisher–Yates shuffle.
fn shuffled<T>(mut v: Vec<T>, rng: &mut Rng) -> Vec<T> {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range_usize(0, i + 1));
    }
    v
}

/// One request: which program to plan, and its position in the list
/// (`usize::MAX` for warm-up requests).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub index: usize,
    pub kind: Kind,
}

/// A program family with its size parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    FftLike {
        n: i64,
        trips: i64,
    },
    FftLikeNested {
        n: i64,
        trips: i64,
    },
    MultiArray {
        n: i64,
        trips: i64,
    },
    Conditional {
        n: i64,
        trips: i64,
        prob_then: f64,
    },
    Multigrid {
        n: i64,
        fine: i64,
        coarse: i64,
    },
    ReductionTree {
        n: i64,
        trips: i64,
    },
    LookupTable {
        tsize: i64,
        n: i64,
        trips: i64,
    },
    Random {
        statements: usize,
        trips: i64,
        seed: u64,
    },
}

impl Kind {
    pub fn program(&self) -> Program {
        match *self {
            Kind::FftLike { n, trips } => programs::fft_like(n, trips),
            Kind::FftLikeNested { n, trips } => programs::fft_like_nested(n, trips),
            Kind::MultiArray { n, trips } => programs::multi_array_pipeline(n, trips),
            Kind::Conditional {
                n,
                trips,
                prob_then,
            } => programs::conditional_pipeline(n, trips, prob_then),
            Kind::Multigrid { n, fine, coarse } => programs::multigrid_vcycle(n, fine, coarse),
            Kind::ReductionTree { n, trips } => programs::reduction_tree(n, trips),
            Kind::LookupTable { tsize, n, trips } => programs::lookup_table(tsize, n, trips),
            Kind::Random {
                statements,
                trips,
                seed,
            } => random_loop_program(RandomProgramConfig {
                statements,
                trips,
                seed,
                ..RandomProgramConfig::default()
            }),
        }
    }

    /// The generator seed of a `random_loop_program` request, so failures
    /// name the program that failed.
    pub fn generator_seed(&self) -> Option<u64> {
        match self {
            Kind::Random { seed, .. } => Some(*seed),
            _ => None,
        }
    }
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Kind::FftLike { n, trips } => write!(f, "fft_like({n},{trips})"),
            Kind::FftLikeNested { n, trips } => write!(f, "fft_like_nested({n},{trips})"),
            Kind::MultiArray { n, trips } => write!(f, "multi_array_pipeline({n},{trips})"),
            Kind::Conditional {
                n,
                trips,
                prob_then,
            } => {
                write!(f, "conditional_pipeline({n},{trips},{prob_then})")
            }
            Kind::Multigrid { n, fine, coarse } => {
                write!(f, "multigrid_vcycle({n},{fine},{coarse})")
            }
            Kind::ReductionTree { n, trips } => write!(f, "reduction_tree({n},{trips})"),
            Kind::LookupTable { tsize, n, trips } => write!(f, "lookup_table({tsize},{n},{trips})"),
            Kind::Random {
                statements,
                trips,
                seed,
            } => write!(
                f,
                "random_loop_program(statements={statements},trips={trips},seed={seed})"
            ),
        }
    }
}

/// A `programs::phase_workloads()` family.
#[derive(Debug, Clone, Copy)]
enum Family {
    FftLike,
    FftLikeNested,
    MultiArray,
    Conditional,
    Multigrid,
    ReductionTree,
    LookupTable,
}

/// The `programs::phase_workloads()` families, in that order.
const SUITE: [Family; 7] = [
    Family::FftLike,
    Family::FftLikeNested,
    Family::MultiArray,
    Family::Conditional,
    Family::Multigrid,
    Family::ReductionTree,
    Family::LookupTable,
];

/// The families whose plans have more than one phase.
const EXACT: [Family; 5] = [
    Family::FftLike,
    Family::FftLikeNested,
    Family::MultiArray,
    Family::Multigrid,
    Family::ReductionTree,
];

impl Family {
    /// The family with its extents scaled by `extents` and its trip counts
    /// by `trips` from the sizes `programs::phase_workloads()` uses
    /// (rounded; extents even where the family needs them even). Control
    /// weights stay canonical.
    fn scaled(self, extents: f64, trips: f64) -> Kind {
        let n = |v: i64| ((v as f64 * extents).round() as i64).max(1);
        let even = |v: i64| 2 * ((v as f64 * extents / 2.0).round() as i64).max(4);
        let t = |v: i64| ((v as f64 * trips).round() as i64).max(1);
        match self {
            Family::FftLike => Kind::FftLike {
                n: n(32),
                trips: t(40),
            },
            Family::FftLikeNested => Kind::FftLikeNested {
                n: n(32),
                trips: t(40),
            },
            Family::MultiArray => Kind::MultiArray {
                n: n(32),
                trips: t(8),
            },
            Family::Conditional => Kind::Conditional {
                n: n(32),
                trips: t(8),
                prob_then: 0.7,
            },
            Family::Multigrid => Kind::Multigrid {
                n: even(32),
                fine: t(4),
                coarse: t(4),
            },
            Family::ReductionTree => Kind::ReductionTree {
                n: even(24),
                trips: t(24),
            },
            Family::LookupTable => Kind::LookupTable {
                tsize: n(256),
                n: n(64),
                trips: t(10),
            },
        }
    }
}
