//! Stateful session fuzzing: the workload-level guarantees.
//!
//! 1. **Coverage gain** — a session campaign (guaranteed handshake →
//!    mutated ASDUs → teardown per session) accumulates strictly more
//!    coverage edges than the equivalent single-packet campaign at the same
//!    execution budget and the same reset cadence. The single-packet arm
//!    resets every `session_len` executions too, so the *only* difference
//!    is the session structure: the classic campaign must stumble into the
//!    handshake by chance before any deep packet counts, the session
//!    campaign opens every session deterministically.
//! 2. **Session integrity** — a session never straddles a target reset or
//!    a sharded merge barrier: the target resets exactly at session starts
//!    and every session replays handshake-first, in both the sequential and
//!    the sharded engine.

use std::sync::{Arc, Mutex};

use peachstar::campaign::{Campaign, CampaignConfig, CampaignReport, SessionConfig, Topology};
use peachstar::strategy::StrategyKind;
use peachstar_coverage::TraceContext;
use peachstar_datamodel::DataModelSet;
use peachstar_protocols::{iec104::Iec104Server, Outcome, SessionTemplate, Target, TargetId};

fn final_edges(report: &CampaignReport) -> usize {
    report.series.points().last().map_or(0, |point| point.edges)
}

/// ISSUE acceptance criterion: `--target iec104 --sessions` beats the
/// equivalent single-packet campaign on accumulated edges, at the same
/// budget, for both strategies and several seeds.
#[test]
fn session_campaign_accumulates_strictly_more_edges_than_single_packet() {
    const EXECUTIONS: u64 = 5_000;
    const PAYLOAD: u64 = 8;
    let session_len = PAYLOAD + 2; // handshake + payload + teardown
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        for seed in [1u64, 5, 9] {
            let session_report = Campaign::new(
                TargetId::Iec104.create(),
                CampaignConfig::new(strategy)
                    .executions(EXECUTIONS)
                    .rng_seed(seed)
                    .sample_interval(500)
                    .sessions(SessionConfig::new(PAYLOAD)),
            )
            .run();
            let single_packet_report = Campaign::new(
                TargetId::Iec104.create(),
                CampaignConfig::new(strategy)
                    .executions(EXECUTIONS)
                    .rng_seed(seed)
                    .sample_interval(500)
                    .reset_interval(session_len),
            )
            .run();
            let (session_edges, single_edges) = (
                final_edges(&session_report),
                final_edges(&single_packet_report),
            );
            assert!(
                session_edges > single_edges,
                "{strategy} seed {seed}: session campaign must accumulate strictly more \
                 edges ({session_edges}) than the single-packet campaign ({single_edges})"
            );
        }
    }
}

/// Event log shared by a probe target and all its `clone_fresh` copies.
type EventLog = Arc<Mutex<Vec<Event>>>;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    Reset,
    Packet(Vec<u8>),
}

/// Wraps the IEC 104 server and records every reset and processed packet,
/// so tests can check *where* resets fall in the execution stream.
struct ProbeTarget {
    inner: Iec104Server,
    log: EventLog,
}

impl ProbeTarget {
    fn new() -> (Self, EventLog) {
        let log: EventLog = Arc::default();
        (
            Self {
                inner: Iec104Server::new(),
                log: Arc::clone(&log),
            },
            log,
        )
    }
}

impl Target for ProbeTarget {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn data_models(&self) -> DataModelSet {
        self.inner.data_models()
    }

    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
        self.log
            .lock()
            .unwrap()
            .push(Event::Packet(packet.to_vec()));
        self.inner.process(packet, ctx)
    }

    fn reset(&mut self) {
        self.log.lock().unwrap().push(Event::Reset);
        self.inner.reset();
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        Box::new(Self {
            inner: Iec104Server::new(),
            log: Arc::clone(&self.log),
        })
    }

    fn session_template(&self) -> Option<SessionTemplate> {
        self.inner.session_template()
    }
}

const STARTDT: [u8; 6] = [0x68, 0x04, 0x07, 0x00, 0x00, 0x00];
const STOPDT: [u8; 6] = [0x68, 0x04, 0x13, 0x00, 0x00, 0x00];

/// Asserts the session invariant on a recorded event stream: resets happen
/// exactly at session boundaries (never inside a session), every session
/// opens with STARTDT and closes with STOPDT.
fn assert_sessions_intact(events: &[Event], session_len: usize, executions: usize) {
    let mut position_in_session = 0usize;
    let mut packets_seen = 0usize;
    for event in events {
        match event {
            Event::Reset => {
                assert_eq!(
                    position_in_session, 0,
                    "reset fired {position_in_session} packets into a session \
                     (after {packets_seen} total packets)"
                );
            }
            Event::Packet(bytes) => {
                if position_in_session == 0 {
                    assert_eq!(
                        bytes[..],
                        STARTDT[..],
                        "session must open with STARTDT (packet {packets_seen})"
                    );
                } else if position_in_session == session_len - 1 {
                    assert_eq!(
                        bytes[..],
                        STOPDT[..],
                        "session must close with STOPDT (packet {packets_seen})"
                    );
                }
                packets_seen += 1;
                position_in_session = (position_in_session + 1) % session_len;
            }
        }
    }
    assert_eq!(packets_seen, executions, "whole budget executed");
}

/// Regression: in the sequential engine, the per-session reset policy never
/// fires inside a session, and every session replays handshake → payload →
/// teardown in order.
#[test]
fn sequential_session_never_straddles_a_reset() {
    const PAYLOAD: u64 = 4;
    const EXECUTIONS: u64 = 600; // a whole number of 6-packet sessions
    let (target, log) = ProbeTarget::new();
    let report = Campaign::new(
        Box::new(target),
        CampaignConfig::new(StrategyKind::Peach)
            .executions(EXECUTIONS)
            .rng_seed(11)
            .sample_interval(100)
            .sessions(SessionConfig::new(PAYLOAD)),
    )
    .run();
    assert_eq!(report.executions, EXECUTIONS);
    let events = log.lock().unwrap().clone();
    assert_sessions_intact(&events, (PAYLOAD + 2) as usize, EXECUTIONS as usize);
}

/// Regression: in the sharded engine every window is one whole session, so
/// neither the per-window worker reset nor the merge barrier (windows are
/// merged round-by-round) can fall inside a session. Run with one worker so
/// the shared log records the window stream in order.
#[test]
fn sharded_session_never_straddles_a_reset_or_merge_barrier() {
    const PAYLOAD: u64 = 4;
    const EXECUTIONS: u64 = 600;
    let (target, log) = ProbeTarget::new();
    let report = Campaign::new(
        Box::new(target),
        CampaignConfig::new(StrategyKind::PeachStar)
            .executions(EXECUTIONS)
            .rng_seed(11)
            .sample_interval(100)
            .sessions(SessionConfig::new(PAYLOAD))
            // A tiny barrier distance: a merge barrier every 2 sessions.
            .topology(Topology::Sharded {
                workers: 1,
                sync_windows: 2,
            }),
    )
    .run();
    assert_eq!(report.executions, EXECUTIONS);
    let events = log.lock().unwrap().clone();
    // The sharded worker resets at the start of every window; with
    // session-shaped windows that is exactly one reset per session.
    let resets = events.iter().filter(|e| matches!(e, Event::Reset)).count();
    assert_eq!(
        resets as u64,
        EXECUTIONS / (PAYLOAD + 2),
        "one worker reset per session window"
    );
    assert_sessions_intact(&events, (PAYLOAD + 2) as usize, EXECUTIONS as usize);
}
