//! Differential test for the production trace layout.
//!
//! A default [`SliceSession`] keeps the replay's retire order; a
//! `cluster: true` session reorders the same records into per-thread
//! clusters for LP locality (paper §3). Both are valid global orders, so
//! every slice must come out the same. On the benchmark families (the
//! eight PARSEC analogs, the four-thread needle and churn) at small sizes
//! and on the bug corpus, this checks, for the failure criterion and the
//! last-read criteria of the paper's §7 recipe, that the two layouts give
//! identical slice records, data edges and control edges — through the
//! dependence index and through the LP traversal — and that a default
//! trace's ids are `0..n` ascending.

use std::sync::Arc;

use bench::exp::{
    four_thread_churn, four_thread_needle, last_read_criteria, record_bug_region,
    record_parsec_region, ENV_SEED,
};
use minivm::{LiveEnv, Program, RoundRobin};
use pinplay::{record_whole_program, Pinball};
use slicer::{
    compute_slice_indexed, compute_slice_lp, Criterion, DepIndex, RecordId, Slice, SliceOptions,
    SliceSession, SlicerOptions,
};

/// Main-thread instructions per PARSEC region.
const PARSEC_REGION: u64 = 1_500;

/// Loop iterations of the needle and churn programs.
const ITERS: u64 = 150;

fn recordings() -> Vec<(String, Arc<Program>, Pinball)> {
    let mut out = Vec::new();
    for p in workloads::all_parsec() {
        let rr = record_parsec_region(&p, 500, PARSEC_REGION);
        out.push((p.name.to_string(), rr.program, rr.recording.pinball));
    }
    for (name, program) in [
        ("needle", four_thread_needle(ITERS)),
        ("churn", four_thread_churn(ITERS)),
    ] {
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(13),
            &mut LiveEnv::new(ENV_SEED),
            ITERS * 50 + 100_000,
            name,
        )
        .expect("whole-program capture succeeds");
        out.push((name.to_string(), program, rec.pinball));
    }
    for case in workloads::all_bugs() {
        let rr = record_bug_region(&case, case.buggy_region());
        out.push((case.name.to_string(), rr.program, rr.recording.pinball));
    }
    out
}

fn assert_same(name: &str, how: &str, criterion: Criterion, a: &Slice, b: &Slice) {
    assert_eq!(a.records, b.records, "{name} {how} {criterion:?}: records");
    assert_eq!(
        a.data_edges, b.data_edges,
        "{name} {how} {criterion:?}: data edges"
    );
    assert_eq!(
        a.control_edges, b.control_edges,
        "{name} {how} {criterion:?}: control edges"
    );
}

#[test]
fn retire_order_slices_match_clustered() {
    for (name, program, pinball) in recordings() {
        let retired =
            SliceSession::collect(Arc::clone(&program), &pinball, SlicerOptions::default());
        let clustered = SliceSession::collect(
            Arc::clone(&program),
            &pinball,
            SlicerOptions {
                cluster: true,
                ..SlicerOptions::default()
            },
        );

        let n = retired.trace().records().len();
        assert!(n > 0, "{name}: empty trace");
        let ids: Vec<RecordId> = retired.trace().records().iter().map(|r| r.id).collect();
        assert!(
            ids.iter().copied().eq(0..n as RecordId),
            "{name}: default trace ids must be 0..n ascending"
        );
        assert_eq!(retired.metrics().merge.wall, std::time::Duration::ZERO);

        let failure = retired.failure_record().expect("non-empty").id;
        assert_eq!(
            failure,
            n as RecordId - 1,
            "{name}: failure is the last retired"
        );
        assert_eq!(
            clustered.failure_record().map(|r| r.id),
            Some(failure),
            "{name}: same failure record in both layouts"
        );

        let mut criteria = vec![Criterion::Record { id: failure }];
        criteria.extend(last_read_criteria(&retired, 8));
        assert_eq!(
            last_read_criteria(&clustered, 8),
            criteria[1..],
            "{name}: same last reads"
        );

        let opts = SliceOptions::new();
        let retired_index = DepIndex::build(retired.trace(), retired.pairs(), &opts);
        let clustered_index = DepIndex::build(clustered.trace(), clustered.pairs(), &opts);
        for &criterion in &criteria {
            let a = compute_slice_indexed(&retired_index, criterion);
            let b = compute_slice_indexed(&clustered_index, criterion);
            assert_same(&name, "index", criterion, &a, &b);

            let lp_retired =
                compute_slice_lp(retired.trace(), criterion, retired.pairs(), opts.clone());
            let lp_clustered = compute_slice_lp(
                clustered.trace(),
                criterion,
                clustered.pairs(),
                opts.clone(),
            );
            assert_same(&name, "lp", criterion, &lp_retired, &lp_clustered);
            assert_same(&name, "index vs lp", criterion, &a, &lp_retired);
        }
    }
}
