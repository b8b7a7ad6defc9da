//! AFL-style edge coverage substrate for the `peachstar` ICS protocol fuzzer.
//!
//! The DAC 2020 Peach\* paper augments a generation-based protocol fuzzer with a
//! coverage feedback loop: lightweight instrumentation is inserted at branch
//! points of the protocol program and records *edge* transitions in a shared
//! bitmap using the classic hash
//!
//! ```text
//! cur_location = <COMPILE_TIME_RANDOM>;
//! shared_mem[cur_location ^ prev_location]++;
//! prev_location = cur_location >> 1;
//! ```
//!
//! In the original system the instrumentation is injected by a `clang` wrapper
//! (an LLVM pass). This crate provides the equivalent in-process substrate for
//! Rust protocol targets: a [`TraceContext`] that targets thread through their
//! parsing code and tick with [`TraceContext::edge`] (or the [`cov_edge!`]
//! macro), a per-execution [`TraceMap`], and a persistent [`CoverageMap`] that
//! accumulates global coverage and answers the question the fuzzer cares
//! about: *did this packet exercise behaviour we have never seen before?*
//!
//! # Example
//!
//! ```
//! use peachstar_coverage::{CoverageMap, TraceContext};
//!
//! // The "target" — a toy parser with two branches.
//! fn parse(input: &[u8], ctx: &mut TraceContext) -> bool {
//!     ctx.edge(0x1001);
//!     if input.first() == Some(&0x2a) {
//!         ctx.edge(0x2002);
//!         true
//!     } else {
//!         ctx.edge(0x3003);
//!         false
//!     }
//! }
//!
//! let mut global = CoverageMap::new();
//!
//! let mut ctx = TraceContext::new();
//! parse(&[0x00], &mut ctx);
//! let first = global.merge(ctx.trace());
//! assert!(first.is_interesting(), "first trace always finds new edges");
//!
//! let mut ctx = TraceContext::new();
//! parse(&[0x00], &mut ctx);
//! let repeat = global.merge(ctx.trace());
//! assert!(!repeat.is_interesting(), "identical trace adds nothing");
//!
//! let mut ctx = TraceContext::new();
//! parse(&[0x2a], &mut ctx);
//! let other = global.merge(ctx.trace());
//! assert!(other.is_interesting(), "the other branch is a new edge");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod map;
mod stats;
mod trace;

pub use map::{CoverageMap, MergeOutcome, MAP_SIZE};
pub use stats::{bucket_for, CoverageStats, HitBucket};
pub use trace::{EdgeId, PathId, SparseTrace, TraceContext, TraceMap};

/// Records an edge on a [`TraceContext`] with a site identifier derived from
/// the source location.
///
/// This macro is the stand-in for the compile-time-random block identifiers
/// that the paper's LLVM pass would insert: the identifier is a hash of the
/// file, line and column of the macro invocation, so every textual call site
/// gets a distinct, stable [`EdgeId`]. Like AFL's `cur_location`, the id is a
/// compile-time constant: the expansion binds [`site_id`] in a `const` item,
/// so an edge hit costs only the map update.
///
/// ```
/// use peachstar_coverage::{cov_edge, TraceContext};
///
/// fn decode(b: u8, ctx: &mut TraceContext) -> u8 {
///     cov_edge!(ctx);
///     if b & 0x80 != 0 {
///         cov_edge!(ctx);
///         b & 0x7f
///     } else {
///         cov_edge!(ctx);
///         b
///     }
/// }
///
/// let mut ctx = TraceContext::new();
/// assert_eq!(decode(0x81, &mut ctx), 1);
/// assert_eq!(ctx.trace().edges_hit(), 2);
/// ```
#[macro_export]
macro_rules! cov_edge {
    ($ctx:expr) => {{
        const SITE: $crate::EdgeId = $crate::site_id(file!(), line!(), column!());
        $ctx.edge(SITE)
    }};
    // Value-discriminated form: stands in for data-dependent dispatch in the
    // original targets (per-zone callbacks, per-type jump tables), where
    // different values of a field reach different basic blocks. The
    // discriminator is folded into the site id so each class is its own edge;
    // only that fold happens at run time.
    ($ctx:expr, $discriminator:expr) => {{
        const SITE: u32 = $crate::site_id(file!(), line!(), column!()).raw();
        $ctx.edge($crate::EdgeId::new(
            SITE ^ (($discriminator as u32) & 0x3f).rotate_left(10),
        ))
    }};
}

/// Derives a stable pseudo-random site identifier from a source location.
///
/// The hash is FNV-1a over the file name's bytes followed by the
/// little-endian line and column: stable across runs and builds, and well
/// distributed over the 16-bit block-id space used by the trace map. It is a
/// `const fn`, so [`cov_edge!`] evaluates it at compile time and the loop
/// never runs on the fuzzing path. Targets which generate their own
/// instrumentation points (e.g. table-driven parsers) can call it on strings
/// of their choosing; bind the result in a `const` to keep it off the hot
/// path too.
///
/// ```
/// use peachstar_coverage::{site_id, EdgeId};
///
/// const DISPATCH: EdgeId = site_id("modbus.rs", 10, 5);
/// assert_eq!(DISPATCH, site_id("modbus.rs", 10, 5));
/// assert_ne!(DISPATCH, site_id("modbus.rs", 11, 5));
/// ```
#[must_use]
pub const fn site_id(file: &str, line: u32, column: u32) -> EdgeId {
    let mut hash = fnv1a(0xcbf2_9ce4_8422_2325, file.as_bytes());
    hash = fnv1a(hash, &line.to_le_bytes());
    hash = fnv1a(hash, &column.to_le_bytes());
    EdgeId::new((hash ^ (hash >> 32)) as u32)
}

/// One FNV-1a pass over `bytes`, continuing from `hash`.
const fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut index = 0;
    while index < bytes.len() {
        hash ^= bytes[index] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        index += 1;
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_id_is_stable() {
        assert_eq!(site_id("a.rs", 1, 1), site_id("a.rs", 1, 1));
    }

    #[test]
    fn site_id_varies_by_location() {
        let ids = [
            site_id("a.rs", 1, 1),
            site_id("a.rs", 2, 1),
            site_id("a.rs", 1, 2),
            site_id("b.rs", 1, 1),
        ];
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert_ne!(ids[i], ids[j], "ids {i} and {j} collide");
            }
        }
    }

    #[test]
    fn site_id_matches_golden_values() {
        // A change here renumbers every edge and so moves every pinned
        // campaign result.
        let golden = [
            (("a.rs", 1, 1), 0xf524_2b09),
            (("crates/protocols/src/modbus.rs", 120, 9), 0x4a56_e911),
            (("crates/coverage/src/lib.rs", 1, 1), 0xd70b_b6be),
            (("", 0, 0), 0x80dd_c1f7),
            (("modbus.rs", 10, 5), 0x6c6e_8f0c),
        ];
        for ((file, line, column), raw) in golden {
            assert_eq!(site_id(file, line, column).raw(), raw, "{file}:{line}:{column}");
        }
    }

    /// Expands `cov_edge!` and the runtime `site_id` at one call site:
    /// `line!()`/`column!()` resolve to this macro's invocation in both.
    macro_rules! edge_and_runtime_id {
        ($ctx:expr) => {
            (cov_edge!($ctx), site_id(file!(), line!(), column!()))
        };
        ($ctx:expr, $discriminator:expr) => {
            (cov_edge!($ctx, $discriminator), site_id(file!(), line!(), column!()))
        };
    }

    fn hits(ctx: &TraceContext) -> Vec<(usize, u8)> {
        ctx.trace().iter_hits().collect()
    }

    #[test]
    fn macro_records_the_runtime_site_id() {
        let mut ctx = TraceContext::new();
        let mut expected = TraceContext::new();
        let ((), first) = edge_and_runtime_id!(ctx);
        expected.edge(first);
        let ((), second) = edge_and_runtime_id!(ctx);
        expected.edge(second);
        assert_ne!(first, second, "distinct lines are distinct sites");
        assert_eq!(hits(&ctx), hits(&expected));

        for discriminator in [0u8, 1, 0x3f, 0x40, 0xff] {
            let mut ctx = TraceContext::new();
            let ((), site) = edge_and_runtime_id!(ctx, discriminator);
            let mut expected = TraceContext::new();
            expected.edge(EdgeId::new(
                site.raw() ^ ((u32::from(discriminator)) & 0x3f).rotate_left(10),
            ));
            assert_eq!(hits(&ctx), hits(&expected), "discriminator {discriminator}");
        }
    }

    #[test]
    fn macro_usable_in_function_scope() {
        let mut ctx = TraceContext::new();
        cov_edge!(ctx);
        cov_edge!(ctx);
        assert_eq!(ctx.trace().edges_hit(), 2);
    }
}
