//! Acceptance test for the sparse traversal: on a four-thread trace with
//! at least 100k records, the sparse index-guided traversal must be at
//! least 2x faster than the serial LP scan while producing an identical
//! slice (and an identical on-disk slice file). The trace is clustered,
//! the layout the LP scan is designed for, and its block summaries are
//! built before either traversal is timed.

use std::time::{Duration, Instant};

use bench::exp::needle_session;
use slicer::{compute_slice_lp, compute_slice_sparse, SliceFile, SliceOptions, SlicerOptions};

const ITERS: u64 = 4_700;

fn best_of<R>(n: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    let mut best: Option<(R, Duration)> = None;
    for _ in 0..n {
        let started = Instant::now();
        let r = f();
        let t = started.elapsed();
        if best.as_ref().is_none_or(|(_, b)| t < *b) {
            best = Some((r, t));
        }
    }
    best.expect("n > 0")
}

#[test]
fn sparse_traversal_is_at_least_twice_as_fast_on_a_4_thread_100k_trace() {
    let (session, criterion) = needle_session(
        ITERS,
        SlicerOptions {
            cluster: true,
            ..SlicerOptions::default()
        },
    );
    session.trace().blocks();
    let records = session.trace().records();
    assert!(
        records.len() >= 100_000,
        "need >= 100k records, got {}",
        records.len()
    );
    let threads: std::collections::HashSet<_> = records.iter().map(|r| r.tid).collect();
    assert_eq!(threads.len(), 4, "need a 4-thread trace");

    let (lp, lp_time) = best_of(3, || {
        compute_slice_lp(
            session.trace(),
            criterion,
            session.pairs(),
            SliceOptions::default(),
        )
    });
    let (sparse, sparse_time) = best_of(3, || {
        compute_slice_sparse(
            session.trace(),
            criterion,
            session.pairs(),
            SliceOptions::default(),
        )
    });

    assert_eq!(lp.records, sparse.records);
    assert_eq!(lp.data_edges, sparse.data_edges);
    assert_eq!(lp.control_edges, sparse.control_edges);

    let file_of = |slice: &slicer::Slice| {
        let (exclusions, _) = session.exclusion_regions(slice);
        SliceFile::build("needle", slice, session.trace(), exclusions).to_bytes()
    };
    assert_eq!(file_of(&lp), file_of(&sparse), "slice files byte-identical");

    assert!(
        lp_time >= sparse_time * 2,
        "sparse must be >= 2x faster: lp {lp_time:?} vs sparse {sparse_time:?}"
    );
}
