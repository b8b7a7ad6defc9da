//! Seeds (generated packets) and the pool of valuable seeds.

use std::fmt;

use peachstar_coverage::PathId;

/// A generated packet together with its provenance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Seed {
    /// The packet bytes fed to the target.
    pub bytes: Vec<u8>,
    /// Name of the data model the packet was generated from.
    pub model: String,
    /// Whether the packet was produced by the semantic-aware strategy (as
    /// opposed to plain model instantiation).
    pub semantic: bool,
}

impl Seed {
    /// Creates a seed.
    #[must_use]
    pub fn new(bytes: Vec<u8>, model: impl Into<String>, semantic: bool) -> Self {
        Self {
            bytes,
            model: model.into(),
            semantic,
        }
    }

    /// Packet length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` for empty packets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl fmt::Display for Seed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed<{}> ({} bytes, {})",
            self.model,
            self.bytes.len(),
            if self.semantic { "semantic" } else { "model" }
        )
    }
}

/// A valuable seed retained by the feedback loop: the packet plus the path it
/// uncovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValuableSeed {
    /// The retained seed.
    pub seed: Seed,
    /// The execution path the seed uncovered.
    pub path: PathId,
    /// Number of previously-unseen edges the seed contributed.
    pub new_edges: usize,
}

/// The pool of valuable seeds accumulated during a campaign.
///
/// The baseline Peach discards these (the paper's motivation); Peach\* keeps
/// them so the File Cracker can turn them into puzzles, and so that the
/// campaign report can say how many valuable seeds appeared and when.
#[derive(Debug, Clone, Default)]
pub struct SeedPool {
    seeds: Vec<ValuableSeed>,
    total_bytes: usize,
}

impl SeedPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a valuable seed.
    pub fn push(&mut self, seed: Seed, path: PathId, new_edges: usize) {
        self.total_bytes += seed.bytes.len();
        self.seeds.push(ValuableSeed {
            seed,
            path,
            new_edges,
        });
    }

    /// Number of valuable seeds retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// `true` when no valuable seed has been retained yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Total bytes across all retained seeds.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// The retained seeds in insertion order.
    #[must_use]
    pub fn seeds(&self) -> &[ValuableSeed] {
        &self.seeds
    }

    /// Iterates over the retained seeds.
    pub fn iter(&self) -> impl Iterator<Item = &ValuableSeed> {
        self.seeds.iter()
    }
}

impl Extend<ValuableSeed> for SeedPool {
    fn extend<T: IntoIterator<Item = ValuableSeed>>(&mut self, iter: T) {
        for valuable in iter {
            self.total_bytes += valuable.seed.bytes.len();
            self.seeds.push(valuable);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_accumulates_seeds_and_bytes() {
        let mut pool = SeedPool::new();
        assert!(pool.is_empty());
        pool.push(Seed::new(vec![1, 2, 3], "read", false), PathId::new(1), 3);
        pool.push(Seed::new(vec![4, 5], "write", true), PathId::new(2), 1);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.total_bytes(), 5);
        assert_eq!(pool.seeds()[1].seed.model, "write");
        assert!(pool.iter().any(|v| v.seed.semantic));
    }

    #[test]
    fn seed_display_mentions_model_and_origin() {
        let seed = Seed::new(vec![0; 10], "single_command", true);
        let text = seed.to_string();
        assert!(text.contains("single_command"));
        assert!(text.contains("semantic"));
        assert_eq!(seed.len(), 10);
        assert!(!seed.is_empty());
    }

    #[test]
    fn extend_adds_seeds() {
        let mut pool = SeedPool::new();
        pool.extend(vec![ValuableSeed {
            seed: Seed::new(vec![9], "m", false),
            path: PathId::new(3),
            new_edges: 1,
        }]);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.total_bytes(), 1);
    }
}
