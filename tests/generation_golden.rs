//! Golden packet streams: pins the exact bytes both generation strategies
//! produce for every target's model set at a fixed seed.
//!
//! Each case hashes the first 10 000 packets (bytes, model name, semantic
//! flag) with FNV-1a. The constants were captured before generation and
//! File Fixup were fused into one pass over the model's leaves, so any change
//! to the RNG draw order, leaf normalisation, relation/fixup repair or the
//! checksum kernels shows up here as a hash mismatch. On the Peach\* side every
//! packet is reported valuable until one cracks into puzzles, so the
//! cracked-donor queue of Algorithm 3 is part of the pinned stream.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use peachstar::strategy::StrategyKind;
use peachstar_protocols::TargetId;

const SEED: u64 = 0x5eed_0014;
const PACKETS: usize = 10_000;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Hash of the first [`PACKETS`] packets, plus how many were semantic.
fn stream_hash(target: TargetId, kind: StrategyKind) -> (u64, usize) {
    let models = target.create().data_models();
    let mut strategy = kind.create();
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut semantic = 0;
    for _ in 0..PACKETS {
        let packet = strategy.next_packet(&models, &mut rng);
        fnv1a(&mut hash, &(packet.bytes.len() as u64).to_le_bytes());
        fnv1a(&mut hash, &packet.bytes);
        fnv1a(&mut hash, packet.model.as_bytes());
        fnv1a(&mut hash, &[u8::from(packet.semantic)]);
        semantic += usize::from(packet.semantic);
        if strategy.corpus_size() == 0 {
            strategy.observe(&packet, true, &models);
        }
    }
    (hash, semantic)
}

/// `(target, Peach hash, Peach* hash)` at [`SEED`].
const GOLDEN: [(TargetId, u64, u64); 6] = [
    (TargetId::Modbus, 0x40e6_67bb_4128_b912, 0xf7b2_3d43_089c_b5a8),
    (TargetId::Iec104, 0x94ac_c701_2dc1_9472, 0xf97c_a003_e119_afb7),
    (TargetId::Iec61850, 0x666b_989f_b745_fb18, 0x48cb_f260_b9cf_de0f),
    (TargetId::Lib60870, 0x9eb7_3e52_3f0b_5510, 0xbfdf_1fe1_52d7_cb01),
    (TargetId::Iccp, 0x972a_0084_ae7b_c004, 0x4dd0_ff9c_6d73_7ed9),
    (TargetId::Dnp3, 0x2b2d_c043_153e_887c, 0xf803_6625_6ab9_b533),
];

#[test]
fn packet_streams_match_the_golden_hashes() {
    for (target, peach, peachstar) in GOLDEN {
        let (random, semantic) = stream_hash(target, StrategyKind::Peach);
        assert_eq!(semantic, 0, "{target:?}: Peach never builds semantic packets");
        let (donated, semantic) = stream_hash(target, StrategyKind::PeachStar);
        assert!(semantic > 0, "{target:?}: the valuable packet queued no donor packets");
        assert_eq!(random, peach, "{target:?}: Peach stream changed");
        assert_eq!(donated, peachstar, "{target:?}: Peach* stream changed");
    }
}
