//! Micro-benchmark: packet generation throughput, random (Peach) vs
//! semantic-aware (Peach\*), including the `leaves_only` and `repair`
//! ablations called out in DESIGN.md. `random_peach` instantiates the Modbus
//! models, which have relations only; `random_opendnp3` the DNP3 models,
//! whose CRC-16 fixups on the link header and the user-data block price
//! File Fixup.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use peachstar::strategy::{
    GenerationStrategy, RandomGenerationStrategy, SemanticAwareConfig, SemanticAwareStrategy,
};
use peachstar::Seed;
use peachstar_datamodel::emit::emit_default;
use peachstar_protocols::TargetId;

fn primed_semantic(config: SemanticAwareConfig) -> SemanticAwareStrategy {
    let models = TargetId::Modbus.create().data_models();
    let mut strategy = SemanticAwareStrategy::new(config);
    for model in models.models() {
        let packet = emit_default(model).expect("default packet emits");
        strategy.observe(&Seed::new(packet, model.name(), false), true, &models);
    }
    strategy
}

fn bench_generation(c: &mut Criterion) {
    let models = TargetId::Modbus.create().data_models();
    let dnp3_models = TargetId::Dnp3.create().data_models();
    let mut group = c.benchmark_group("generation");
    group.sample_size(30);

    for (name, models) in [("random_peach", &models), ("random_opendnp3", &dnp3_models)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || (RandomGenerationStrategy::new(), SmallRng::seed_from_u64(1)),
                |(mut strategy, mut rng)| {
                    let mut bytes = 0usize;
                    for _ in 0..100 {
                        bytes += strategy.next_packet(models, &mut rng).len();
                    }
                    // Returning the strategy keeps its teardown (scratch
                    // buffers) out of the timed region.
                    (bytes, strategy)
                },
                BatchSize::SmallInput,
            );
        });
    }

    let configs = [
        ("semantic_peachstar", SemanticAwareConfig::default()),
        (
            "semantic_leaves_only",
            SemanticAwareConfig {
                leaves_only: true,
                ..SemanticAwareConfig::default()
            },
        ),
        (
            "semantic_no_repair",
            SemanticAwareConfig {
                repair: false,
                ..SemanticAwareConfig::default()
            },
        ),
        (
            "semantic_donor_cap_1",
            SemanticAwareConfig {
                max_donors_per_field: 1,
                ..SemanticAwareConfig::default()
            },
        ),
    ];
    for (name, config) in configs {
        group.bench_function(name, |b| {
            b.iter_batched(
                || (primed_semantic(config), SmallRng::seed_from_u64(1)),
                |(mut strategy, mut rng)| {
                    let mut bytes = 0usize;
                    for _ in 0..100 {
                        bytes += strategy.next_packet(&models, &mut rng).len();
                    }
                    // Returning the strategy keeps the teardown of its
                    // corpus and remaining queue out of the timed region —
                    // dropping a primed strategy costs several times the
                    // 100 queue pops being measured and made these medians
                    // bimodal.
                    (bytes, strategy)
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generation);
criterion_main!(benches);
