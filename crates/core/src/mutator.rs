//! Per-data-type chunk generators (the `GENERATE` step of Algorithm 1).
//!
//! Peach produces chunk content through type-specific *Mutators*: random
//! generation, mutation of the default value and mutation of existing
//! chunks. This module implements the equivalent generators used by both the
//! baseline and the semantic-aware strategy (the latter falls back to them
//! when the puzzle corpus has no donor for a rule).

use rand::rngs::SmallRng;
use rand::Rng;

use peachstar_datamodel::{Chunk, ChunkKind, LengthSpec, NumberSpec, NumberWidth};

/// Boundary values a numeric mutator likes to probe.
fn boundary_values(width: NumberWidth) -> [u64; 6] {
    let max = width.max_value();
    [0, 1, max, max - 1, max / 2, max / 2 + 1]
}

/// Generates content for one leaf chunk according to its specification.
///
/// The distribution mirrors Peach's mutator mix: mostly legal-looking
/// values (defaults, allowed sets, in-range-looking numbers) with a tail of
/// boundary and fully random values, so that the validity checks of the
/// target are exercised but not always passed.
///
/// # Panics
///
/// Panics if `chunk` is not a leaf (number, bytes or string).
#[must_use]
pub fn generate_leaf(chunk: &Chunk, rng: &mut SmallRng) -> Vec<u8> {
    let mut out = Vec::new();
    generate_leaf_into(chunk, rng, &mut out);
    out
}

/// [`generate_leaf`] appended to a caller-provided buffer.
///
/// Consumes the RNG exactly as [`generate_leaf`] does (campaigns are seeded,
/// so the two must be drop-in interchangeable without moving the stream),
/// but writes into a reusable buffer so the generation hot path allocates
/// nothing per leaf.
///
/// # Panics
///
/// Panics if `chunk` is not a leaf (number, bytes or string).
pub fn generate_leaf_into(chunk: &Chunk, rng: &mut SmallRng, out: &mut Vec<u8>) {
    match &chunk.kind {
        ChunkKind::Number(spec) => generate_number_into(spec, rng, out),
        ChunkKind::Bytes(spec) => generate_bytes_into(&spec.length, &spec.default, rng, out),
        ChunkKind::Str(spec) => generate_string_into(&spec.length, &spec.default, rng, out),
        ChunkKind::Block(_) | ChunkKind::Choice(_) => {
            panic!("generate_leaf called on structural chunk `{}`", chunk.name)
        }
    }
}

/// Appends an encoded value for a numeric chunk to `out`.
pub fn generate_number_into(spec: &NumberSpec, rng: &mut SmallRng, out: &mut Vec<u8>) {
    let value = pick_number_value(spec, rng);
    spec.encode_into(value, out);
}

/// Picks a raw numeric value for a numeric chunk (before encoding).
#[must_use]
pub fn pick_number_value(spec: &NumberSpec, rng: &mut SmallRng) -> u64 {
    let roll: f64 = rng.gen();
    if let Some(allowed) = &spec.allowed {
        // Constrained fields (function codes, type ids): mostly legal values,
        // occasionally something illegal to poke the validation code.
        if roll < 0.85 {
            return allowed[rng.gen_range(0..allowed.len())];
        }
        return rng.gen_range(0..=spec.width.max_value());
    }
    if roll < 0.10 {
        spec.default
    } else if roll < 0.15 {
        // Small values: in-range addresses/counts for most targets.
        rng.gen_range(0..=0xff.min(spec.width.max_value()))
    } else if roll < 0.45 {
        let boundaries = boundary_values(spec.width);
        boundaries[rng.gen_range(0..boundaries.len())]
    } else if roll < 0.55 {
        // Default perturbed by a small delta.
        let delta = rng.gen_range(0..=16u64);
        if rng.gen_bool(0.5) {
            spec.default.saturating_add(delta) & spec.width.max_value()
        } else {
            spec.default.saturating_sub(delta)
        }
    } else {
        // The bulk of Peach's numeric mutations are unconstrained random
        // values — which is exactly why the paper calls the baseline's
        // generation "random and pointless" for digging into deep paths.
        rng.gen_range(0..=spec.width.max_value())
    }
}

/// Appends content for a raw-bytes chunk to `out`.
pub fn generate_bytes_into(
    length: &LengthSpec,
    default: &[u8],
    rng: &mut SmallRng,
    out: &mut Vec<u8>,
) {
    let target_len = match length {
        LengthSpec::Fixed(len) => *len,
        LengthSpec::FromField(_) | LengthSpec::Remainder => {
            let roll: f64 = rng.gen();
            if roll < 0.5 && !default.is_empty() {
                default.len()
            } else if roll < 0.9 {
                rng.gen_range(0..=32)
            } else {
                rng.gen_range(32..=256)
            }
        }
    };
    let roll: f64 = rng.gen();
    let start = out.len();
    if roll < 0.45 && !default.is_empty() {
        // Default content repeated or cut to the target length.
        extend_cycled(out, default, target_len);
    } else if roll < 0.7 {
        // A repeated single byte.
        let byte: u8 = rng.gen();
        out.resize(start + target_len, byte);
    } else {
        out.extend((0..target_len).map(|_| rng.gen::<u8>()));
    }
}

/// Appends content for a string chunk to `out`.
pub fn generate_string_into(
    length: &LengthSpec,
    default: &str,
    rng: &mut SmallRng,
    out: &mut Vec<u8>,
) {
    let target_len = match length {
        LengthSpec::Fixed(len) => *len,
        LengthSpec::FromField(_) | LengthSpec::Remainder => {
            if rng.gen_bool(0.6) && !default.is_empty() {
                default.len()
            } else {
                rng.gen_range(0..=40)
            }
        }
    };
    if rng.gen_bool(0.55) && !default.is_empty() {
        extend_cycled(out, default.as_bytes(), target_len);
    } else {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/$._-";
        out.extend((0..target_len).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())]));
    }
}

/// Appends `pattern` repeated, and cut, to exactly `len` bytes, one slice
/// copy per repetition. `pattern` must not be empty.
fn extend_cycled(out: &mut Vec<u8>, pattern: &[u8], len: usize) {
    out.reserve(len);
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(pattern.len());
        out.extend_from_slice(&pattern[..take]);
        remaining -= take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachstar_datamodel::{BytesSpec, StrSpec};
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn number_generation_respects_width() {
        let mut rng = rng();
        let chunk = Chunk::number("n", NumberSpec::u16_be());
        for _ in 0..200 {
            let bytes = generate_leaf(&chunk, &mut rng);
            assert_eq!(bytes.len(), 2);
        }
    }

    #[test]
    fn constrained_numbers_mostly_pick_legal_values() {
        let mut rng = rng();
        let spec = NumberSpec::u8().allowed_values(vec![3, 6, 16]);
        let mut legal = 0usize;
        let total = 1000usize;
        for _ in 0..total {
            let value = pick_number_value(&spec, &mut rng);
            if [3u64, 6, 16].contains(&value) {
                legal += 1;
            }
        }
        assert!(legal > total / 2, "{legal} of {total} legal");
        assert!(legal < total, "some illegal values must appear too");
    }

    #[test]
    fn fixed_bytes_have_exact_length() {
        let mut rng = rng();
        let chunk = Chunk::bytes("b", BytesSpec::fixed(7));
        for _ in 0..100 {
            assert_eq!(generate_leaf(&chunk, &mut rng).len(), 7);
        }
    }

    #[test]
    fn variable_bytes_vary_in_length() {
        let mut rng = rng();
        let chunk = Chunk::bytes("b", BytesSpec::remainder().default_content(vec![1, 2, 3]));
        let lengths: std::collections::HashSet<usize> = (0..200)
            .map(|_| generate_leaf(&chunk, &mut rng).len())
            .collect();
        assert!(lengths.len() > 3, "lengths should vary: {lengths:?}");
    }

    #[test]
    fn fixed_strings_have_exact_length() {
        let mut rng = rng();
        let chunk = Chunk::str("s", StrSpec::fixed(11).default_content("GGIO1$AnIn1"));
        for _ in 0..100 {
            assert_eq!(generate_leaf(&chunk, &mut rng).len(), 11);
        }
    }

    #[test]
    fn leaf_dispatch_covers_all_leaf_kinds() {
        let mut rng = rng();
        let number = Chunk::number("n", NumberSpec::u32_be());
        let bytes = Chunk::bytes("b", BytesSpec::fixed(3));
        let string = Chunk::str("s", StrSpec::fixed(4));
        assert_eq!(generate_leaf(&number, &mut rng).len(), 4);
        assert_eq!(generate_leaf(&bytes, &mut rng).len(), 3);
        assert_eq!(generate_leaf(&string, &mut rng).len(), 4);
    }

    #[test]
    #[should_panic(expected = "structural chunk")]
    fn leaf_dispatch_panics_on_blocks() {
        let mut rng = rng();
        let block = Chunk::block("blk", vec![Chunk::number("x", NumberSpec::u8())]);
        let _ = generate_leaf(&block, &mut rng);
    }

    #[test]
    fn into_variants_match_the_allocating_variants_draw_for_draw() {
        // The buffer-reusing hot path must consume the RNG exactly as the
        // allocating functions do: a seeded campaign's packet stream may not
        // move when a strategy switches to the `_into` variants.
        let chunks = [
            Chunk::number("n", NumberSpec::u32_be()),
            Chunk::bytes("fixed", BytesSpec::fixed(5).default_content(vec![1, 2])),
            Chunk::bytes("rem", BytesSpec::remainder().default_content(vec![7, 8, 9])),
            Chunk::bytes("rem_empty", BytesSpec::remainder()),
            Chunk::str("s", StrSpec::fixed(6).default_content("abc")),
            Chunk::str("s_var", StrSpec::remainder()),
        ];
        for chunk in &chunks {
            let mut rng_a = SmallRng::seed_from_u64(99);
            let mut rng_b = SmallRng::seed_from_u64(99);
            let mut reused = Vec::new();
            for round in 0..200 {
                let allocated = generate_leaf(chunk, &mut rng_a);
                reused.clear();
                generate_leaf_into(chunk, &mut rng_b, &mut reused);
                assert_eq!(allocated, reused, "chunk `{}` round {round}", chunk.name);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let chunk = Chunk::number("n", NumberSpec::u32_be().default_value(9));
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..50)
                .map(|_| generate_leaf(&chunk, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
