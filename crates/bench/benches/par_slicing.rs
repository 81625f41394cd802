//! Trace layout and traversal comparison on a four-thread trace with
//! >= 100k records:
//!
//! * `collection`: the production collect, which keeps the replay's
//!   retire order, vs a clustered collect that adds the §3 topological
//!   merge;
//! * `traversal`: the LP block-skipping scan vs the sparse index-guided
//!   scan that never touches irrelevant blocks, both over the clustered
//!   trace LP is designed for.
//!
//! Both variants are identical in output (enforced by
//! `crates/slicer/tests/retire_order_equiv.rs` and `tests/par_speedup.rs`);
//! this bench only measures wall time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slicer::{compute_slice_lp, compute_slice_sparse, SliceOptions, SlicerOptions};

use bench::exp::needle_session;

const ITERS: u64 = 4_700; // 4 threads x ~6 records/iter => >= 100k records

fn clustered() -> SlicerOptions {
    SlicerOptions {
        cluster: true,
        ..SlicerOptions::default()
    }
}

fn bench_par_slicing(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_slicing");
    group.sample_size(10);

    for (label, opts) in [
        ("retire", SlicerOptions::default()),
        ("clustered", clustered()),
    ] {
        group.bench_function(BenchmarkId::new("collection", label), |b| {
            b.iter(|| needle_session(ITERS, opts).0)
        });
    }

    let (session, criterion) = needle_session(ITERS, clustered());
    assert!(
        session.trace().records().len() >= 100_000,
        "bench trace must hold >= 100k records, got {}",
        session.trace().records().len()
    );
    session.trace().blocks();
    for (label, f) in [
        ("lp", compute_slice_lp as fn(_, _, _, _) -> _),
        ("sparse", compute_slice_sparse as fn(_, _, _, _) -> _),
    ] {
        group.bench_function(BenchmarkId::new("traversal", label), |b| {
            b.iter(|| {
                f(
                    session.trace(),
                    criterion,
                    session.pairs(),
                    SliceOptions::default(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_par_slicing);
criterion_main!(benches);
