//! Micro-benchmark: raw packet-processing throughput of each instrumented
//! ICS target (the executions-per-second ceiling of a campaign).

use criterion::{criterion_group, criterion_main, Criterion};

use peachstar_coverage::TraceContext;
use peachstar_datamodel::emit::emit_default;
use peachstar_protocols::{DecodeSink, TargetId, WindowResults};

/// Per-packet decode: every default packet of the target through
/// `process`, on one trace context reset between packets the way the
/// campaign executor reuses its own. The median prices decode and edge
/// recording alone, not the allocation of a 64 KiB trace map.
fn bench_targets(c: &mut Criterion) {
    let mut group = c.benchmark_group("targets");
    group.sample_size(30);
    for target_id in TargetId::ALL {
        let mut target = target_id.create();
        let packets: Vec<Vec<u8>> = target
            .data_models()
            .models()
            .iter()
            .map(|model| emit_default(model).expect("default packet emits"))
            .collect();
        group.bench_function(format!("decode_{}", target_id.project_name()), |b| {
            let mut ctx = TraceContext::new();
            b.iter(|| {
                let mut edges = 0usize;
                for packet in &packets {
                    ctx.reset();
                    let _ = target.process(packet, &mut ctx);
                    edges += ctx.trace().edges_hit();
                }
                edges
            });
        });
    }
    group.finish();
}

/// Whole-window dispatch: the same default packets cycled into a 64-packet
/// window and handed to `process_batch` — the exact call shape of the
/// batched campaign fast path, including each protocol's prescan override.
/// The `_summary` variants arm [`DecodeSink::Summary`], so their delta
/// against the plain entries is the pure cost of response assembly and
/// error-string formatting that summary-only campaigns skip.
fn bench_process_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("targets");
    group.sample_size(30);
    for target_id in TargetId::ALL {
        let mut target = target_id.create();
        let packets: Vec<Vec<u8>> = target
            .data_models()
            .models()
            .iter()
            .cycle()
            .take(64)
            .map(|model| emit_default(model).expect("default packet emits"))
            .collect();
        let refs: Vec<&[u8]> = packets.iter().map(Vec::as_slice).collect();
        for (suffix, sink) in [("", DecodeSink::Full), ("_summary", DecodeSink::Summary)] {
            group.bench_function(
                format!("process_batch_{}{suffix}", target_id.project_name()),
                |b| {
                    let mut ctx = TraceContext::new();
                    let mut results = WindowResults::new();
                    b.iter(|| {
                        target.process_batch(&refs, &mut ctx, &mut results, sink);
                        results.drain().count()
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_targets, bench_process_batch);
criterion_main!(benches);
