//! [`ChaosTarget`]: a deterministic failure-injection wrapper around any
//! [`Target`].
//!
//! The fault-tolerance layer (panic containment, hang watchdog, supervised
//! shard workers) needs a target that *actually* panics and hangs — the six
//! built-in targets only ever return the polite [`Outcome::Fault`] of their
//! planted bugs. `ChaosTarget` wraps an inner target and injects real
//! `panic!`s, real blocking sleeps and garbage response bytes, selected
//! **by packet content**, not by execution count:
//!
//! ```text
//! h = FNV-1a(seed ‖ packet bytes)
//! h % panic_every == 0  → panic!("chaos: injected panic #<h % sites>")
//! h % hang_every  == 0  → sleep(hang) before processing
//! h % garbage_every == 0 → XOR a keystream derived from h over the response
//! ```
//!
//! Content-keyed selection is what makes the chaos stream deterministic in
//! every execution topology: the same packet misbehaves identically whether
//! it is executed sequentially, inside a batched window, on any of N shard
//! workers, or alone from a replayed crash artifact — so campaigns under
//! chaos stay worker-count-invariant and their artifacts reproduce.
//!
//! ```
//! use peachstar_protocols::chaos::{ChaosConfig, ChaosTarget};
//! use peachstar_protocols::{Target, TargetId};
//!
//! let config = ChaosConfig::new(7).panic_every(101);
//! let chaotic = ChaosTarget::new(TargetId::Modbus.create_send(), config);
//! assert_eq!(chaotic.name(), "libmodbus");
//! ```

use std::thread;
use std::time::Duration;

use peachstar_coverage::TraceContext;
use peachstar_datamodel::DataModelSet;

use crate::{Outcome, SessionTemplate, Target};

/// Failure-injection policy of a [`ChaosTarget`].
///
/// All selection is content-keyed (see the module docs); a period of `0`
/// disables that failure class. The defaults inject a panic roughly every
/// ~100th distinct packet and garbage on every ~50th, with hangs disabled
/// (enable them explicitly where a watchdog is armed — an unsupervised
/// campaign would simply stall for [`hang`](ChaosConfig::hang) per
/// selected packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed mixed into the content hash, so two chaos campaigns over the
    /// same packets can misbehave on different packets.
    pub seed: u64,
    /// Inject a panic when `h % panic_every == 0` (0 disables).
    pub panic_every: u64,
    /// Inject a blocking sleep when `h % hang_every == 0` (0 disables).
    pub hang_every: u64,
    /// How long an injected hang blocks.
    pub hang: Duration,
    /// Corrupt the response bytes when `h % garbage_every == 0` (0 disables).
    pub garbage_every: u64,
    /// Number of distinct panic sites to synthesise (dedup fodder).
    pub sites: u32,
}

impl ChaosConfig {
    /// Default policy for `seed`: panics every ~101st distinct packet,
    /// garbage every ~53rd, hangs disabled, 3 distinct panic sites.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self {
            seed,
            panic_every: 101,
            hang_every: 0,
            hang: Duration::from_millis(100),
            garbage_every: 53,
            sites: 3,
        }
    }

    /// Sets the panic injection period (0 disables).
    #[must_use]
    pub const fn panic_every(mut self, every: u64) -> Self {
        self.panic_every = every;
        self
    }

    /// Sets the hang injection period (0 disables).
    #[must_use]
    pub const fn hang_every(mut self, every: u64) -> Self {
        self.hang_every = every;
        self
    }

    /// Sets how long an injected hang blocks.
    #[must_use]
    pub const fn hang_ms(mut self, millis: u64) -> Self {
        self.hang = Duration::from_millis(millis);
        self
    }

    /// Sets the garbage-response injection period (0 disables).
    #[must_use]
    pub const fn garbage_every(mut self, every: u64) -> Self {
        self.garbage_every = every;
        self
    }

    /// Sets the number of distinct synthetic panic sites.
    #[must_use]
    pub const fn sites(mut self, sites: u32) -> Self {
        self.sites = sites;
        self
    }
}

/// What a [`ChaosTarget`] will do to one packet, decided purely from the
/// packet bytes and the chaos seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosDecision {
    /// Process the packet untouched.
    Pass,
    /// `panic!` with the numbered synthetic site before processing.
    Panic(u32),
    /// Block for [`ChaosConfig::hang`] before processing.
    Hang,
    /// Process, then XOR a keystream over the response bytes.
    Garbage,
}

/// A [`Target`] wrapper that deterministically injects panics, hangs and
/// garbage responses around an inner target. See the module docs for the
/// selection scheme and the determinism argument.
pub struct ChaosTarget {
    inner: Box<dyn Target + Send>,
    config: ChaosConfig,
}

impl ChaosTarget {
    /// Wraps `inner` with the injection policy `config`.
    #[must_use]
    pub fn new(inner: Box<dyn Target + Send>, config: ChaosConfig) -> Self {
        Self { inner, config }
    }

    /// The injection policy.
    #[must_use]
    pub fn config(&self) -> ChaosConfig {
        self.config
    }

    /// The decision this wrapper will take for `packet` — pure, so tests
    /// and replay tooling can predict injected failures without executing.
    #[must_use]
    pub fn decision(&self, packet: &[u8]) -> ChaosDecision {
        decision_for(&self.config, packet)
    }
}

fn content_hash(seed: u64, packet: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in seed.to_le_bytes().iter().chain(packet) {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn decision_for(config: &ChaosConfig, packet: &[u8]) -> ChaosDecision {
    let h = content_hash(config.seed, packet);
    if config.panic_every > 0 && h.is_multiple_of(config.panic_every) {
        ChaosDecision::Panic(h as u32 % config.sites.max(1))
    } else if config.hang_every > 0 && h.is_multiple_of(config.hang_every) {
        ChaosDecision::Hang
    } else if config.garbage_every > 0 && h.is_multiple_of(config.garbage_every) {
        ChaosDecision::Garbage
    } else {
        ChaosDecision::Pass
    }
}

impl Target for ChaosTarget {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn data_models(&self) -> DataModelSet {
        self.inner.data_models()
    }

    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
        match self.decision(packet) {
            ChaosDecision::Panic(site) => {
                panic!("chaos: injected panic #{site}");
            }
            ChaosDecision::Hang => {
                thread::sleep(self.config.hang);
                self.inner.process(packet, ctx)
            }
            ChaosDecision::Garbage => {
                let mut outcome = self.inner.process(packet, ctx);
                if let Outcome::Response(bytes) = &mut outcome {
                    let mut state = content_hash(self.config.seed, packet) | 1;
                    for byte in bytes.iter_mut() {
                        state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13);
                        *byte ^= (state >> 56) as u8;
                    }
                }
                outcome
            }
            ChaosDecision::Pass => self.inner.process(packet, ctx),
        }
    }

    // `process_batch` is the trait's default loop over `process` above, so
    // every packet of a window passes the injection point and a window
    // misbehaves on exactly the packets a sequential run would. Delegating
    // to the inner target's `process_batch` would bypass it.

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        Box::new(ChaosTarget {
            inner: self.inner.clone_fresh(),
            config: self.config,
        })
    }

    fn session_template(&self) -> Option<SessionTemplate> {
        self.inner.session_template()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TargetId;

    #[test]
    fn decisions_are_content_keyed_and_deterministic() {
        let config = ChaosConfig::new(7).panic_every(3).garbage_every(2);
        let target = ChaosTarget::new(TargetId::Modbus.create_send(), config);
        let clone = target.clone_fresh();
        // Same bytes → same decision, across instances and clone_fresh.
        let packets: Vec<Vec<u8>> = (0u8..32).map(|i| vec![i, i ^ 0x5A, 0x68]).collect();
        let mut injected = 0;
        for packet in &packets {
            let first = target.decision(packet);
            assert_eq!(first, target.decision(packet));
            assert_eq!(first, decision_for(&config, packet));
            if first != ChaosDecision::Pass {
                injected += 1;
            }
        }
        assert!(injected > 0, "periods of 2 and 3 must select something");
        drop(clone);
        // A different seed re-keys the selection.
        let other = ChaosConfig::new(8).panic_every(3).garbage_every(2);
        assert!(
            packets
                .iter()
                .any(|p| decision_for(&config, p) != decision_for(&other, p)),
            "seed must influence the decisions"
        );
    }

    #[test]
    fn injected_panic_carries_the_numbered_site() {
        let config = ChaosConfig::new(0).panic_every(1).sites(4);
        let mut target = ChaosTarget::new(TargetId::Modbus.create_send(), config);
        let mut ctx = TraceContext::new();
        let packet = [0x01, 0x02, 0x03];
        let ChaosDecision::Panic(site) = target.decision(&packet) else {
            panic!("panic_every=1 must select every packet");
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            target.process(&packet, &mut ctx)
        }));
        let payload = caught.expect_err("must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic! with format args carries a String");
        assert_eq!(message, format!("chaos: injected panic #{site}"));
    }

    #[test]
    fn pass_and_garbage_preserve_inner_semantics() {
        // With panics and hangs disabled, the wrapper's outcomes differ from
        // the inner target's only in garbage-scrambled response payloads:
        // same variant, same trace, and the scrambling itself is
        // deterministic.
        use peachstar_datamodel::emit::emit_default;
        let config = ChaosConfig::new(3).panic_every(0).hang_every(0).garbage_every(2);
        let mut plain = TargetId::Modbus.create_send();
        let mut chaotic = ChaosTarget::new(TargetId::Modbus.create_send(), config);
        let packets: Vec<Vec<u8>> = plain
            .data_models()
            .models()
            .iter()
            .map(|model| emit_default(model).expect("default emission"))
            .collect();
        let mut scrambled = 0;
        for packet in &packets {
            let mut ctx_a = TraceContext::new();
            let mut ctx_b = TraceContext::new();
            let expected = plain.process(packet, &mut ctx_a);
            let actual = chaotic.process(packet, &mut ctx_b);
            assert_eq!(ctx_a.trace().path_id(), ctx_b.trace().path_id());
            match (&expected, &actual) {
                (Outcome::Response(a), Outcome::Response(b)) => {
                    assert_eq!(a.len(), b.len(), "garbage keeps the length");
                    if a != b {
                        scrambled += 1;
                        assert_eq!(chaotic.decision(packet), ChaosDecision::Garbage);
                    }
                }
                _ => assert_eq!(expected, actual),
            }
            // Determinism: a second chaotic instance produces identical bytes.
            let mut again = ChaosTarget::new(TargetId::Modbus.create_send(), config);
            let mut ctx_c = TraceContext::new();
            assert_eq!(actual, again.process(packet, &mut ctx_c));
        }
        assert!(scrambled > 0, "garbage_every=2 must scramble something");
    }

    #[test]
    fn hang_injection_blocks_for_the_configured_duration() {
        let config = ChaosConfig::new(0)
            .panic_every(0)
            .garbage_every(0)
            .hang_every(1)
            .hang_ms(30);
        let mut target = ChaosTarget::new(TargetId::Modbus.create_send(), config);
        let mut ctx = TraceContext::new();
        let started = std::time::Instant::now();
        let _ = target.process(&[0x00], &mut ctx);
        assert!(started.elapsed() >= Duration::from_millis(30));
    }
}
