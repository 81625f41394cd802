//! The recordings the workloads debug, generated from the seed.

use std::sync::Arc;

use maple::{expose_iroot, ExposeOptions};
use minivm::{LiveEnv, Program, RoundRobin};
use pinplay::{record_region, record_whole_program, Pinball, RegionSpec};

use crate::rng::Rng;

/// Program families of the fresh-recording workloads: the eight PARSEC
/// analogs (shared-memory interleavings), the sparse needle chain (LP's
/// worst case) and the save/restore churn (deep §5.2 bypass chains).
pub const FAMILIES: [&str; 10] = [
    "blackscholes",
    "bodytrack",
    "swaptions",
    "fluidanimate",
    "x264",
    "canneal",
    "streamcluster",
    "dedup",
    "needle",
    "churn",
];

/// Smallest and largest recording of the fresh-recording workloads,
/// in retired instructions (all threads).
pub const SIZE_RANGE: (u64, u64) = (40_000, 170_000);

/// One recording to make.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Index into [`FAMILIES`].
    pub family: usize,
    /// Target size in retired instructions (all threads).
    pub instructions: u64,
    /// Recording name suffix, unique within a run: the name is part of
    /// the pinball digest, so a family recorded again in a later round
    /// is still a new upload and not a cache hit.
    pub serial: u64,
}

/// A recording ready to upload.
pub struct Recorded {
    /// The program it replays.
    pub program: Arc<Program>,
    /// The recorded region.
    pub pinball: Pinball,
}

/// Size tenth of the range each family is recorded at: a fixed spread,
/// so every round of the mix costs about the same and runs of different
/// seeds measure the same mix.
const STRATUM: [usize; 10] = [0, 3, 6, 9, 2, 5, 8, 1, 4, 7];

/// Draws recording specs in rounds: each round records every family
/// once, in seeded order, at the middle of the family's tenth of the size
/// range. Sizes, schedules and program inputs stay fixed: where a region
/// ends and what the `rand` syscalls return decide whether a failure
/// slice has one record or a hundred thousand, and a run holds only one
/// round. The seed draws the order, the criteria and the seek targets.
pub struct Planner {
    rng: Rng,
    range: (u64, u64),
    round: Vec<Spec>,
    serial: u64,
}

impl Planner {
    /// A planner over `range` (instructions).
    pub fn new(rng: Rng, range: (u64, u64)) -> Planner {
        Planner {
            rng,
            range,
            round: Vec::new(),
            serial: 0,
        }
    }

    /// A planner that draws the same specs as this one from here on,
    /// under names of their own, so their digests are new to the server.
    pub fn renamed(&self) -> Planner {
        const RENAMED: u64 = 1 << 32;
        Planner {
            rng: self.rng.clone(),
            range: self.range,
            round: self
                .round
                .iter()
                .map(|s| Spec {
                    serial: s.serial + RENAMED,
                    ..*s
                })
                .collect(),
            serial: self.serial + RENAMED,
        }
    }

    /// The next spec.
    pub fn next_spec(&mut self) -> Spec {
        if self.round.is_empty() {
            let n = FAMILIES.len();
            let mut families: Vec<usize> = (0..n).collect();
            self.rng.shuffle(&mut families);
            let (lo, hi) = self.range;
            for family in families {
                let at = (STRATUM[family] as f64 + 0.5) / n as f64;
                self.serial += 1;
                self.round.push(Spec {
                    family,
                    instructions: lo + ((hi - lo) as f64 * at) as u64,
                    serial: self.serial,
                });
            }
        }
        self.round.pop().expect("round refilled above")
    }
}

/// Records `spec`.
///
/// # Panics
///
/// Panics when the capture fails, which the generated sizes never cause.
pub fn record(spec: &Spec) -> Recorded {
    let name = FAMILIES[spec.family];
    let label = format!("{name}-{}", spec.serial);
    // The scheduling quanta of the paper-table experiments.
    let mut sched = RoundRobin::new(if spec.family >= 8 { 13 } else { 17 });
    let mut env = LiveEnv::new(bench::exp::ENV_SEED);
    match name {
        "needle" | "churn" => {
            // 24 (needle) or 28 (churn) instructions per iteration over
            // four threads.
            let (program, per_iter) = if name == "needle" {
                (bench::exp::four_thread_needle(spec.instructions / 24), 24)
            } else {
                (bench::exp::four_thread_churn(spec.instructions / 28), 28)
            };
            let rec = record_whole_program(
                &program,
                &mut sched,
                &mut env,
                spec.instructions / per_iter * 60 + 100_000,
                &label,
            )
            .expect("whole-program capture succeeds");
            Recorded {
                program,
                pinball: rec.pinball,
            }
        }
        _ => {
            let parsec = workloads::all_parsec()
                .into_iter()
                .find(|p| p.name == name)
                .expect("family is a PARSEC analog");
            // Four threads retire about four main-thread instructions
            // each; skip a quarter region to start mid-run.
            let length = spec.instructions / 4;
            let skip = length / 4;
            let program = (parsec.build)(workloads::units_for_main_instructions(
                skip + length * 2 + 1_000,
            ));
            let rec = record_region(
                &program,
                &mut sched,
                &mut env,
                RegionSpec::skip_length(skip, length),
                (skip + length) * 12 + 1_000_000,
                &label,
            )
            .expect("region capture succeeds");
            Recorded {
                program,
                pinball: rec.pinball,
            }
        }
    }
}

/// The interactive-debugging corpus: the three Table-1 bug cases
/// recorded whole-program under Maple exposure, plus the Fig. 5 race and
/// the Fig. 8 save/restore example.
///
/// # Panics
///
/// Panics when a bug fails to reproduce, which would be a defect.
pub fn bug_corpus() -> Vec<(&'static str, Recorded)> {
    let mut out = Vec::new();
    for case in [
        workloads::pbzip2_like(),
        workloads::aget_like(),
        workloads::mozilla_like(),
    ] {
        let exposure = case.expose().expect("bug case exposes");
        out.push((
            case.name,
            Recorded {
                program: case.program,
                pinball: exposure.recording.pinball,
            },
        ));
    }
    let fig5 = workloads::fig5_race();
    let iroot = workloads::fig5_exposing_iroot(&fig5);
    let exposure = expose_iroot(&fig5, iroot, ExposeOptions::default()).expect("fig5 race exposes");
    out.push((
        "fig5",
        Recorded {
            program: fig5,
            pinball: exposure.recording.pinball,
        },
    ));
    let fig8 = workloads::fig8_save_restore();
    let rec = record_whole_program(
        &fig8,
        &mut RoundRobin::new(8),
        &mut LiveEnv::with_inputs(0, [1]),
        100_000,
        "fig8",
    )
    .expect("fig8 capture succeeds");
    out.push((
        "fig8",
        Recorded {
            program: fig8,
            pinball: rec.pinball,
        },
    ));
    out
}

/// `k` seek targets in `1..=n`: the centres of `k` equal strata. Where a
/// seek stops decides what it costs (the distance replayed) and how big
/// the slice at the stop is, which swings from one record to a hundred
/// thousand between neighbouring instructions; fixed stops give every run
/// the same seeks.
pub fn stops(n: u64, k: u64) -> Vec<u64> {
    let w = n / k;
    (0..k).map(|i| 1 + i * w + w / 2).collect()
}
