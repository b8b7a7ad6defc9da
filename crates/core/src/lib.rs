//! `peachstar` — coverage guided packet crack and generation for ICS
//! protocol fuzzing.
//!
//! This crate is a from-scratch Rust reproduction of the system presented in
//! the DAC 2020 paper *"ICS Protocol Fuzzing: Coverage Guided Packet Crack
//! and Generation"*. It contains two fuzzers sharing one engine:
//!
//! * **Peach** (the baseline): a classic generation-based protocol fuzzer
//!   that instantiates packets from per-packet-type data models using
//!   per-type mutators (Algorithm 1 of the paper) — see
//!   [`strategy::RandomGenerationStrategy`];
//! * **Peach\*** (the contribution): the same engine augmented with a
//!   coverage feedback loop, a *File Cracker* that splits valuable seeds
//!   into rule-tagged *puzzles* (Algorithm 2), a *semantic-aware generation*
//!   strategy that assembles new packets from donated puzzles (Algorithm 3),
//!   and a *File Fixup* pass that re-establishes sizes and checksums — see
//!   [`strategy::SemanticAwareStrategy`].
//!
//! The [`campaign`] module runs either fuzzer against one of the
//! instrumented ICS protocol targets from [`peachstar_protocols`], recording
//! the path-coverage growth curves and unique bugs that the paper's Figure 4
//! and Table I report.
//!
//! # Quickstart
//!
//! ```
//! use peachstar::campaign::{Campaign, CampaignConfig};
//! use peachstar::strategy::StrategyKind;
//! use peachstar_protocols::TargetId;
//!
//! let config = CampaignConfig::new(StrategyKind::PeachStar)
//!     .executions(2_000)
//!     .rng_seed(7);
//! let report = Campaign::new(TargetId::Modbus.create(), config).run();
//! assert!(report.final_paths() > 0);
//! ```
//!
//! # Topologies and resumable runs
//!
//! [`Campaign`] is the only campaign type. [`CampaignConfig::topology`]
//! picks its driver — [`Topology::Sequential`] (the default) or
//! [`Topology::Sharded`] workers behind a merge barrier — and
//! [`CampaignConfig::transport`] picks the wire, so a campaign over live TCP
//! connections is a sharded topology over
//! [`TransportMode::FramedTcp`](campaign::TransportMode::FramedTcp).
//! [`Campaign::run_with`] adds checkpoints, stops at one of the
//! [`boundaries`](Campaign::boundaries), resumes a snapshot or supervises a
//! service ([`RunOptions`]), for either topology:
//!
//! ```
//! use peachstar::campaign::{Campaign, CampaignConfig, RunOptions, Topology, TransportMode};
//! use peachstar::strategy::StrategyKind;
//! use peachstar_protocols::TargetId;
//!
//! let config = CampaignConfig::new(StrategyKind::PeachStar)
//!     .executions(2_000)
//!     .reset_interval(250)
//!     .transport(TransportMode::FramedTcp)
//!     .topology(Topology::Sharded { workers: 2, sync_windows: 2 });
//! let campaign = Campaign::new(TargetId::Modbus.create(), config);
//! let boundaries = campaign.boundaries();
//! let (_, snapshot) = campaign.run_with(RunOptions {
//!     stop_after: Some(boundaries[1]),
//!     ..RunOptions::default()
//! })?;
//! // In-process and on one worker, the snapshot resumes bit-exactly.
//! let in_process = config
//!     .transport(TransportMode::InProcess)
//!     .topology(Topology::Sharded { workers: 1, sync_windows: 2 });
//! let (resumed, _) = Campaign::new(TargetId::Modbus.create(), in_process).run_with(RunOptions {
//!     resume: snapshot.as_ref(),
//!     ..RunOptions::default()
//! })?;
//! let uninterrupted = Campaign::new(TargetId::Modbus.create(), in_process).run();
//! assert_eq!(resumed.series.points(), uninterrupted.series.points());
//! # Ok::<(), peachstar::SnapshotError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod corpus;
pub mod cracker;
pub mod engine;
pub mod error;
pub mod mutator;
pub mod seed;
pub mod service;
pub mod snapshot;
pub mod stats;
pub mod strategy;

pub use artifact::{CrashArtifact, ReplayError};
pub use campaign::{Campaign, CampaignConfig, CampaignReport, RunOptions, Topology};
pub use engine::Engine;
pub use corpus::PuzzleCorpus;
pub use cracker::FileCracker;
pub use error::FuzzError;
pub use seed::{Seed, SeedPool};
pub use service::{ControlServer, ServiceHooks, ServiceStatus};
pub use snapshot::{CampaignSnapshot, CheckpointConfig, SnapshotError, SnapshotMeta};
pub use stats::{CoverageSeries, SeriesPoint};
pub use strategy::{
    GeneratedPacket, GenerationStrategy, RandomGenerationStrategy, SemanticAwareConfig,
    SemanticAwareStrategy, StrategyKind,
};
