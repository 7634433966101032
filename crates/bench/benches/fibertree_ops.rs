//! Substrate microbenchmarks: the fibertree operations every simulation
//! is built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use teaal_bench::leaf_sum;
use teaal_fibertree::iterate::intersect2_stream;
use teaal_fibertree::partition::SplitKind;
use teaal_fibertree::{CompressedTensor, FiberView, IntersectPolicy};
use teaal_workloads::genmat;

fn bench_transforms(c: &mut Criterion) {
    let t = genmat::uniform("A", &["M", "K"], 1000, 1000, 20_000, 1);
    let mut g = c.benchmark_group("fibertree_transforms");
    g.bench_function("swizzle_2rank", |b| {
        b.iter(|| std::hint::black_box(&t).swizzle(&["K", "M"]).unwrap())
    });
    g.bench_function("flatten", |b| {
        b.iter(|| std::hint::black_box(&t).flatten_rank("M", "MK").unwrap())
    });
    g.bench_function("partition_shape", |b| {
        b.iter(|| {
            std::hint::black_box(&t)
                .partition_rank("K", SplitKind::UniformShape(64), "K1", "K0")
                .unwrap()
        })
    });
    g.bench_function("partition_occupancy", |b| {
        b.iter(|| {
            std::hint::black_box(&t)
                .partition_rank("K", SplitKind::UniformOccupancy(16), "K1", "K0")
                .unwrap()
        })
    });
    g.finish();
}

/// The first row fiber of a one-row compressed matrix.
fn row(t: &CompressedTensor) -> FiberView<'_> {
    t.root_fiber_view()
        .unwrap()
        .payload_at(0)
        .as_fiber()
        .unwrap()
}

fn bench_intersection(c: &mut Criterion) {
    let a = genmat::uniform_compressed("A", &["M", "K"], 1, 100_000, 5_000, 2);
    let b = genmat::uniform_compressed("B", &["M", "K"], 1, 100_000, 5_000, 3);
    let (fa, fb) = (row(&a), row(&b));
    let mut g = c.benchmark_group("fibertree_intersection");
    for (name, policy) in [
        ("two_finger", IntersectPolicy::TwoFinger),
        (
            "leader_follower",
            IntersectPolicy::LeaderFollower { leader: 0 },
        ),
        ("skip_ahead", IntersectPolicy::SkipAhead),
    ] {
        g.bench_with_input(BenchmarkId::new("policy", name), &policy, |bch, p| {
            bch.iter(|| intersect2_stream(fa, fb, *p).count())
        });
    }
    g.finish();
}

/// Cursors over compressed (CSF) arrays: a full leaf stream and
/// two-finger co-iteration of two long rows.
fn bench_cursors(c: &mut Criterion) {
    let m = genmat::uniform_compressed("A", &["M", "K"], 1000, 1000, 50_000, 1);
    let a = genmat::uniform_compressed("A", &["M", "K"], 1, 500_000, 40_000, 2);
    let b = genmat::uniform_compressed("B", &["M", "K"], 1, 500_000, 40_000, 3);
    let mut g = c.benchmark_group("fibertree_cursors");
    g.bench_function("leaf_stream", |bch| {
        bch.iter(|| leaf_sum(std::hint::black_box(&m).root_fiber_view().unwrap()))
    });
    let (fa, fb) = (row(&a), row(&b));
    g.bench_function("intersect2_two_finger", |bch| {
        bch.iter(|| {
            intersect2_stream(fa, fb, IntersectPolicy::TwoFinger)
                .map(|(_, i, j)| i + j)
                .sum::<usize>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_transforms, bench_intersection, bench_cursors);
criterion_main!(benches);
