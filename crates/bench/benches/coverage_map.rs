//! Micro-benchmark: coverage-map update cost (the per-execution overhead
//! the feedback loop adds to the baseline fuzzer).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use peachstar_coverage::{cov_edge, CoverageMap, EdgeId, TraceContext};

/// `cov_edge!` hits per `coverage_map/edge_hit` sample.
const EDGE_HITS: usize = 1024;

fn trace_with_edges(edges: usize) -> peachstar_coverage::TraceMap {
    let mut ctx = TraceContext::new();
    for i in 0..edges {
        ctx.edge(EdgeId::new((i as u32).wrapping_mul(2_654_435_761)));
    }
    ctx.into_trace()
}

fn bench_coverage(c: &mut Criterion) {
    let mut group = c.benchmark_group("coverage_map");
    group.sample_size(50);

    for edges in [16usize, 128, 1024] {
        let trace = trace_with_edges(edges);
        group.bench_function(format!("merge_{edges}_edges"), |b| {
            b.iter_batched(
                CoverageMap::new,
                |mut map| map.merge(&trace).new_edges,
                BatchSize::SmallInput,
            );
        });
        group.bench_function(format!("path_id_{edges}_edges"), |b| {
            b.iter(|| trace.path_id());
        });
    }

    // `cov_edge!` hits, as every target branch records them. The site ids
    // are compile-time constants, so this prices only the map update. One
    // hit is below the harness's per-sample timer resolution, so a sample
    // is EDGE_HITS hits over four sites: divide the median by EDGE_HITS.
    group.bench_function("edge_hit", |b| {
        let mut ctx = TraceContext::new();
        b.iter(|| {
            ctx.reset();
            for _ in 0..EDGE_HITS / 4 {
                cov_edge!(ctx);
                cov_edge!(ctx);
                cov_edge!(ctx);
                cov_edge!(ctx);
            }
            ctx.trace().edges_hit()
        });
    });

    // Repeated merging of an already-known trace: the steady-state cost.
    let trace = trace_with_edges(128);
    group.bench_function("merge_known_trace", |b| {
        let mut map = CoverageMap::new();
        map.merge(&trace);
        b.iter(|| map.merge(&trace).is_interesting());
    });
    group.finish();
}

criterion_group!(benches, bench_coverage);
criterion_main!(benches);
