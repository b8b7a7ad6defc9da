//! The transport seam between [`TargetExecutor`](super::TargetExecutor) and
//! [`Target`]: *how* the executor's packets reach the target's decoder.
//!
//! Two transports exist:
//!
//! * [`TransportMode::InProcess`] — today's direct call, the default,
//!   bit-for-bit unchanged: the executor owns the target and invokes
//!   [`Target::process`] directly. `deploy` is the identity.
//! * [`TransportMode::FramedTcp`] — the target runs behind a real TCP
//!   listener (the [`peachstar_protocols::server`] socket-server mode, one
//!   fresh target instance per connection) and the executor holds a
//!   [`FramedTcpTarget`]: a `Target` implementation whose `process` /
//!   `process_batch` / `reset` are length-framed request/response exchanges
//!   over a loopback socket — TPKT/COTP-framed (RFC 1006) for the ISO-stack
//!   targets (iec61850, iccp), raw `u32`-length-framed for the rest
//!   ([`WireFraming::for_target`]).
//!
//! The seam is deliberately *below* the executor: every reset-policy
//! decision, panic rebuild, watchdog deadline and window walk runs
//! client-side exactly as in-process, and the wire relays `(outcome, sparse
//! trace)` pairs verbatim (fault sites re-interned on receipt, so dedup is
//! pointer-compatible). That is what makes a loopback-TCP campaign
//! bit-identical to an in-process one — `tests/transport_equivalence.rs`
//! holds the proof across all six targets and both strategies.
//!
//! # Connection recovery
//!
//! A lost connection is *recovered*, not reported: every exchange failure
//! classifies the OS error ([`error_class`]), reconnects under the
//! deterministic bounded-exponential [`ReconnectPolicy`], and replays the
//! packet journal — every packet sent since the last `Reset` — on the fresh
//! connection so the brand-new server-side target instance deterministically
//! re-derives the lost one's state. Only then is the failed request retried.
//! Because the executor's reset cadence clears the journal at every window
//! boundary, a mid-window reconnect reproduces exactly the state a healthy
//! connection would hold, and the campaign report is bit-identical to an
//! undisturbed run (`tests/service_robustness.rs` pins this under the
//! deterministic server-side chaos injector, which drops connections before
//! processing the dropped frame).
//!
//! Windows and replays larger than
//! [`MAX_MESSAGE`](peachstar_protocols::wire::MAX_MESSAGE) cross the wire as
//! consecutive batches ([`request_runs`]), so no reset cadence can produce a
//! message the peer rejects.
//!
//! Only when the retry budget is exhausted does the target panic — with a
//! stable, attempt-count-free message that carries the error class
//! ("connection-refused" dedups apart from "connection-reset"), so the
//! executor's containment records one bug per failure class and the
//! [sharded driver](super::shard) can recognise the prefix
//! (`is_connection_loss`) and degrade the dead connection instead of
//! failing the campaign.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use peachstar_coverage::TraceContext;
use peachstar_datamodel::DataModelSet;
use peachstar_protocols::server::{serve_with_chaos, ServerHandle, WireChaos};
use peachstar_protocols::wire::{
    request_runs, MessageStream, Request, Response, WireError, WireFraming,
};
use peachstar_protocols::{DecodeSink, Outcome, Target, WindowResults};

/// Which transport carries packets from the executor to the target.
///
/// Operational knob, not campaign semantics: reports are bit-identical
/// across transports, so the field is deliberately excluded from the
/// snapshot fingerprint (like `--exec-timeout-ms`) — a checkpoint recorded
/// under TCP resumes in-process and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// Direct in-process calls (the default).
    #[default]
    InProcess,
    /// Length-framed request/response over a loopback TCP socket, against a
    /// spawned socket server.
    FramedTcp,
}

impl TransportMode {
    /// The `--transport` flag spelling of this mode.
    #[must_use]
    pub fn as_flag(self) -> &'static str {
        match self {
            TransportMode::InProcess => "inprocess",
            TransportMode::FramedTcp => "tcp",
        }
    }
}

/// A live socket server backing a framed-TCP campaign. Dropping it shuts
/// the listener down; the campaign drops its client connections first (they
/// die with the engine), so the per-connection handler threads have already
/// drained by then.
pub type TransportGuard = ServerHandle;

/// The deterministic reconnect schedule of a [`FramedTcpTarget`]: how many
/// times a lost connection is re-dialled, and the bounded exponential
/// backoff between attempts (`base_delay_ms << attempt`, capped at
/// `max_delay_ms`).
///
/// Operational knob, not campaign semantics: a recovered connection replays
/// its journal and produces the exact records a healthy one would, so the
/// policy is deliberately excluded from the snapshot fingerprint (like
/// `--exec-timeout-ms` and the transport itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Reconnect attempts per incident before the connection is declared
    /// lost (0 = fail on the first socket error, the pre-recovery
    /// behaviour).
    pub retries: u32,
    /// Backoff before the first reconnect attempt, in milliseconds.
    pub base_delay_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub max_delay_ms: u64,
}

impl ReconnectPolicy {
    /// The default schedule: 4 attempts at 10 → 20 → 40 → 80 ms.
    pub const DEFAULT: Self = Self {
        retries: 4,
        base_delay_ms: 10,
        max_delay_ms: 250,
    };

    /// No recovery: the first socket error exhausts the budget immediately.
    #[must_use]
    pub const fn none() -> Self {
        Self {
            retries: 0,
            base_delay_ms: 0,
            max_delay_ms: 0,
        }
    }

    /// A schedule with `retries` attempts and no backoff — deterministic
    /// tests and drills that should not sleep.
    #[must_use]
    pub const fn immediate(retries: u32) -> Self {
        Self {
            retries,
            base_delay_ms: 0,
            max_delay_ms: 0,
        }
    }

    /// Sets the number of reconnect attempts per incident.
    #[must_use]
    pub const fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// The backoff before attempt `attempt` (0-based): bounded exponential.
    #[must_use]
    pub fn delay_before(&self, attempt: u32) -> Duration {
        let shift = attempt.min(20);
        let millis = self
            .base_delay_ms
            .saturating_mul(1u64 << shift)
            .min(self.max_delay_ms);
        Duration::from_millis(millis)
    }
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// The dedup class of a transport-level socket error: coarse enough to be
/// stable across runs, fine enough that a refused connection (server gone)
/// files apart from a reset one (server dropped us mid-stream).
#[must_use]
pub fn error_class(kind: io::ErrorKind) -> &'static str {
    match kind {
        io::ErrorKind::ConnectionRefused => "connection-refused",
        io::ErrorKind::ConnectionReset => "connection-reset",
        io::ErrorKind::ConnectionAborted => "connection-aborted",
        io::ErrorKind::BrokenPipe => "broken-pipe",
        io::ErrorKind::UnexpectedEof => "eof",
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => "timed-out",
        _ => "io-error",
    }
}

/// The stable prefix of every budget-exhaustion panic message — the marker
/// the sharded engine uses to tell a dead connection from a target bug.
pub(crate) const CONNECTION_LOSS_PREFIX: &str = "framed-tcp transport: connection lost";

/// Whether a contained panic message reports an exhausted reconnect budget
/// (as opposed to a genuine target fault relayed over a healthy wire).
#[must_use]
pub(crate) fn is_connection_loss(message: &str) -> bool {
    message.starts_with(CONNECTION_LOSS_PREFIX)
}

/// The budget-exhaustion panic message for one error class. Deliberately
/// free of addresses and attempt counts: the message text *is* the interned
/// dedup site, so it must be identical across runs, ports and retry
/// schedules.
fn connection_loss_message(class: &'static str) -> String {
    format!("{CONNECTION_LOSS_PREFIX} ({class}): reconnect budget exhausted")
}

/// Wraps `target` in the requested transport.
///
/// For [`TransportMode::InProcess`] this is the identity. For
/// [`TransportMode::FramedTcp`] it spawns a socket server on an ephemeral
/// loopback port serving fresh clones of `target` (one per connection) and
/// returns a connected [`FramedTcpTarget`] plus the server guard, which the
/// caller must keep alive for the campaign's duration.
///
/// # Panics
///
/// Panics when the loopback listener cannot be bound or the first
/// connection cannot be established — a campaign without a reachable target
/// cannot run.
pub fn deploy(
    target: Box<dyn Target>,
    mode: TransportMode,
    policy: ReconnectPolicy,
    chaos: WireChaos,
) -> (Box<dyn Target>, Option<TransportGuard>) {
    match mode {
        TransportMode::InProcess => (target, None),
        TransportMode::FramedTcp => {
            let (client, guard) = deploy_tcp(target.as_ref(), policy, chaos);
            (Box::new(client), Some(guard))
        }
    }
}

fn deploy_tcp(
    target: &dyn Target,
    policy: ReconnectPolicy,
    chaos: WireChaos,
) -> (FramedTcpTarget, TransportGuard) {
    let listener = TcpListener::bind("127.0.0.1:0")
        .expect("framed-tcp transport: binding a loopback listener");
    let guard = serve_with_chaos(listener, target.clone_fresh(), chaos)
        .expect("framed-tcp transport: spawning the socket server");
    let client = FramedTcpTarget::connect_with(target.clone_fresh(), guard.addr(), policy);
    (client, guard)
}

/// A [`Target`] whose calls cross a real TCP connection to a socket server
/// (see the module docs). One instance owns one connection;
/// [`Target::clone_fresh`] opens a new connection to the same server, which
/// on the server side means a brand-new target instance — exactly the
/// semantics `clone_fresh` promises in-process.
pub struct FramedTcpTarget {
    /// Never executed: answers `name`/`data_models`/`session_template`
    /// locally (they are static per target) and seeds reconnect clones.
    blueprint: Box<dyn Target + Send>,
    addr: SocketAddr,
    policy: ReconnectPolicy,
    stream: TcpStream,
    messages: MessageStream,
    payload: Vec<u8>,
    /// Every packet sent since the last successful `Reset`, in order —
    /// replayed onto a fresh connection so the replacement server-side
    /// target re-derives the lost one's state. Cleared on reset; with
    /// periodic resets disabled it grows for the whole campaign, which is
    /// why the replay goes out in [`request_runs`].
    journal: Vec<Vec<u8>>,
}

impl std::fmt::Debug for FramedTcpTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramedTcpTarget")
            .field("target", &self.blueprint.name())
            .field("addr", &self.addr)
            .field("policy", &self.policy)
            .finish()
    }
}

impl FramedTcpTarget {
    /// Connects to the socket server at `addr` serving `blueprint`'s
    /// target, under the default reconnect policy.
    ///
    /// # Panics
    ///
    /// Panics when the connection cannot be established within the policy's
    /// retry budget (a stable, errno-classed message — see the module
    /// docs).
    #[must_use]
    pub fn connect(blueprint: Box<dyn Target + Send>, addr: SocketAddr) -> Self {
        Self::connect_with(blueprint, addr, ReconnectPolicy::default())
    }

    /// [`connect`](Self::connect) with an explicit reconnect policy. The
    /// initial dial runs under the same backoff schedule as mid-campaign
    /// recovery, so a server that is still coming up does not kill the
    /// deploy.
    #[must_use]
    pub fn connect_with(
        blueprint: Box<dyn Target + Send>,
        addr: SocketAddr,
        policy: ReconnectPolicy,
    ) -> Self {
        let stream = match open_stream(addr, policy) {
            Ok(stream) => stream,
            Err(class) => panic!("{}", connection_loss_message(class)),
        };
        let framing = WireFraming::for_target(blueprint.name());
        Self {
            blueprint,
            addr,
            policy,
            stream,
            messages: MessageStream::new(framing),
            payload: Vec::new(),
            journal: Vec::new(),
        }
    }

    /// One send/recv/decode round on the current connection. A socket or
    /// framing-stream error comes back as its dedup class for the recovery
    /// loop; a *decodable but malformed* response still panics — that is a
    /// protocol bug, not a flapping wire.
    ///
    /// A [`Request::Batch`] must fit in one message (callers split windows
    /// with [`request_runs`]); its records may come back over several
    /// [`Response::Batch`] messages, which are joined here.
    fn try_exchange(&mut self, request: &Request) -> Result<Response, &'static str> {
        request.encode_into(&mut self.payload);
        if let Err(error) = self.messages.send(&mut self.stream, &self.payload) {
            // An oversized message is refused the same way on every
            // connection: not a flapping wire, so never retried.
            if error.get_ref().is_some_and(|inner| inner.is::<WireError>()) {
                panic!("framed-tcp transport: {error}");
            }
            return Err(error_class(error.kind()));
        }
        let mut response = self.try_recv()?;
        if let (Request::Batch { packets, .. }, Response::Batch(records)) = (request, &mut response) {
            while records.len() < packets.len() {
                match self.try_recv()? {
                    Response::Batch(more) => records.extend(more),
                    other => panic!("framed-tcp transport: unexpected reply {other:?}"),
                }
            }
        }
        Ok(response)
    }

    /// Receives and decodes one response message.
    fn try_recv(&mut self) -> Result<Response, &'static str> {
        let reply = match self.messages.recv(&mut self.stream) {
            Ok(Some(reply)) => reply,
            // A clean server-side close mid-campaign is still a lost
            // connection; class it with the EOF family.
            Ok(None) => return Err("eof"),
            Err(error) => return Err(error_class(error.kind())),
        };
        match Response::decode(&reply) {
            Ok(response) => Ok(response),
            Err(error) => panic!("framed-tcp transport: {error}"),
        }
    }

    /// Opens a replacement connection and replays the journal so the fresh
    /// server-side target re-derives the lost connection's state. The
    /// replayed window uses the summary sink — decode output is discarded,
    /// only the state transitions matter, and the summary path is pinned
    /// bit-identical to the full one.
    fn reopen_and_replay(&mut self) -> Result<(), &'static str> {
        let stream = TcpStream::connect(self.addr).map_err(|e| error_class(e.kind()))?;
        stream.set_nodelay(true).map_err(|e| error_class(e.kind()))?;
        self.stream = stream;
        self.messages = MessageStream::new(WireFraming::for_target(self.blueprint.name()));
        if self.journal.is_empty() {
            return Ok(());
        }
        // The journal outgrows one message when resets are rare; replay it
        // in order, one run per message.
        let journal = std::mem::take(&mut self.journal);
        let replayed = request_runs(&journal).try_for_each(|run| {
            let replay = Request::Batch {
                sink: DecodeSink::Summary,
                packets: run.to_vec(),
            };
            match self.try_exchange(&replay)? {
                Response::Batch(_) => Ok(()),
                other => panic!("framed-tcp transport: unexpected reply {other:?}"),
            }
        });
        self.journal = journal;
        replayed
    }

    /// One request/response exchange with recovery: a lost connection is
    /// re-dialled under the backoff schedule, the journal replayed, and the
    /// request retried. Only an exhausted retry budget panics — with the
    /// stable errno-classed message the containment layer records and the
    /// sharded engine recognises ([`is_connection_loss`]).
    fn exchange(&mut self, request: &Request) -> Response {
        let mut class = match self.try_exchange(request) {
            Ok(response) => {
                self.journal_success(request);
                return response;
            }
            Err(class) => class,
        };
        let mut attempt = 0u32;
        loop {
            if attempt >= self.policy.retries {
                panic!("{}", connection_loss_message(class));
            }
            std::thread::sleep(self.policy.delay_before(attempt));
            attempt += 1;
            let retried = self
                .reopen_and_replay()
                .and_then(|()| self.try_exchange(request));
            match retried {
                Ok(response) => {
                    self.journal_success(request);
                    return response;
                }
                Err(next) => class = next,
            }
        }
    }

    /// Journal bookkeeping after a request was answered: processed packets
    /// append (they advanced the server-side state), a reset clears (the
    /// server-side target is back at its origin).
    fn journal_success(&mut self, request: &Request) {
        match request {
            Request::Process(packet) => self.journal.push(packet.clone()),
            Request::Batch { packets, .. } => self.journal.extend(packets.iter().cloned()),
            Request::Reset => self.journal.clear(),
        }
    }
}

/// Dials `addr` under `policy`: the initial attempt plus `policy.retries`
/// backed-off re-dials, returning the last error class when all fail.
fn open_stream(addr: SocketAddr, policy: ReconnectPolicy) -> Result<TcpStream, &'static str> {
    let mut attempt = 0u32;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).map_err(|e| error_class(e.kind()))?;
                return Ok(stream);
            }
            Err(error) => {
                let class = error_class(error.kind());
                if attempt >= policy.retries {
                    return Err(class);
                }
                std::thread::sleep(policy.delay_before(attempt));
                attempt += 1;
            }
        }
    }
}

impl Target for FramedTcpTarget {
    fn name(&self) -> &'static str {
        self.blueprint.name()
    }

    fn data_models(&self) -> DataModelSet {
        self.blueprint.data_models()
    }

    fn session_template(&self) -> Option<peachstar_protocols::SessionTemplate> {
        self.blueprint.session_template()
    }

    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
        match self.exchange(&Request::Process(packet.to_vec())) {
            Response::Process(outcome, trace) => {
                // Rematerialise the server-side trace so the executor reads
                // it from `ctx` exactly as it would after a direct call.
                ctx.load_sparse(&trace);
                outcome
            }
            other => panic!("framed-tcp transport: unexpected reply {other:?}"),
        }
    }

    fn process_batch(
        &mut self,
        packets: &[&[u8]],
        ctx: &mut TraceContext,
        out: &mut WindowResults,
        sink: DecodeSink,
    ) {
        out.begin();
        // A window larger than one message goes out as consecutive batches;
        // the server runs them in order, so the records are the same.
        for run in request_runs(packets) {
            let request = Request::Batch {
                sink,
                packets: run.iter().map(|p| p.to_vec()).collect(),
            };
            match self.exchange(&request) {
                Response::Batch(records) => {
                    assert_eq!(
                        records.len(),
                        run.len(),
                        "framed-tcp transport: window record count mismatch"
                    );
                    for (summary, trace) in &records {
                        out.record_sparse(*summary, trace);
                    }
                    // The in-process default leaves the last execution's
                    // trace in `ctx`; mirror that.
                    if let Some((_, last)) = records.last() {
                        ctx.load_sparse(last);
                    }
                }
                other => panic!("framed-tcp transport: unexpected reply {other:?}"),
            }
        }
    }

    fn reset(&mut self) {
        match self.exchange(&Request::Reset) {
            Response::ResetDone => {}
            other => panic!("framed-tcp transport: unexpected reply {other:?}"),
        }
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        Box::new(FramedTcpTarget::connect_with(
            self.blueprint.clone_fresh(),
            self.addr,
            self.policy,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachstar_protocols::{OutcomeSummary, TargetId};

    #[test]
    fn framed_tcp_target_matches_the_in_process_target() {
        for id in [TargetId::Modbus, TargetId::Iec61850] {
            let (mut tcp, _guard) = deploy_tcp(id.create().as_ref(), ReconnectPolicy::default(), WireChaos::default());
            let mut reference = id.create();
            let mut tcp_ctx = TraceContext::new();
            let mut ref_ctx = TraceContext::new();
            for packet in [&[0x01u8, 0x02][..], &[0x03, 0x00, 0x00, 0x10], &[]] {
                tcp_ctx.reset();
                ref_ctx.reset();
                let over_wire = tcp.process(packet, &mut tcp_ctx);
                let direct = reference.process(packet, &mut ref_ctx);
                assert_eq!(over_wire, direct, "{id:?}");
                assert_eq!(
                    tcp_ctx.trace().to_sparse(),
                    ref_ctx.trace().to_sparse(),
                    "{id:?}"
                );
            }
            tcp.reset();
            reference.reset();
        }
    }

    #[test]
    fn framed_tcp_windows_match_the_default_batch_impl() {
        let (mut tcp, _guard) =
            deploy_tcp(TargetId::Lib60870.create().as_ref(), ReconnectPolicy::default(), WireChaos::default());
        let mut reference = TargetId::Lib60870.create();
        let window: Vec<&[u8]> = vec![&[0x68, 0x04, 0x07, 0x00, 0x00, 0x00], &[0xFF], &[]];
        let mut tcp_ctx = TraceContext::new();
        let mut ref_ctx = TraceContext::new();
        let mut over_wire = WindowResults::new();
        let mut direct = WindowResults::new();
        tcp.process_batch(&window, &mut tcp_ctx, &mut over_wire, DecodeSink::Full);
        reference.process_batch(&window, &mut ref_ctx, &mut direct, DecodeSink::Full);
        assert_eq!(over_wire.len(), direct.len());
        let collect = |results: &WindowResults| -> Vec<(OutcomeSummary, peachstar_coverage::SparseTrace)> {
            results.iter().map(|(s, t)| (*s, t.clone())).collect()
        };
        assert_eq!(collect(&over_wire), collect(&direct));
    }

    #[test]
    fn clone_fresh_reconnects_to_the_same_server() {
        let (tcp, _guard) = deploy_tcp(TargetId::Iec104.create().as_ref(), ReconnectPolicy::default(), WireChaos::default());
        let mut clone = tcp.clone_fresh();
        assert_eq!(clone.name(), "IEC104");
        let mut ctx = TraceContext::new();
        ctx.reset();
        // A fresh connection serves from a fresh server-side instance.
        let outcome = clone.process(&[0x68, 0x04, 0x43, 0x00, 0x00, 0x00], &mut ctx);
        assert!(!outcome.is_fault());
    }

    #[test]
    fn backoff_schedule_is_bounded_exponential() {
        let policy = ReconnectPolicy::DEFAULT;
        assert_eq!(policy.delay_before(0), Duration::from_millis(10));
        assert_eq!(policy.delay_before(1), Duration::from_millis(20));
        assert_eq!(policy.delay_before(2), Duration::from_millis(40));
        assert_eq!(policy.delay_before(10), Duration::from_millis(250), "capped");
        assert_eq!(
            ReconnectPolicy::immediate(3).delay_before(2),
            Duration::ZERO,
            "immediate schedules never sleep"
        );
        assert_eq!(ReconnectPolicy::none().retries, 0);
        assert_eq!(ReconnectPolicy::default(), ReconnectPolicy::DEFAULT);
    }

    #[test]
    fn error_classes_keep_refused_and_reset_dedup_sites_apart() {
        use peachstar_protocols::intern_site;
        assert_eq!(error_class(io::ErrorKind::ConnectionRefused), "connection-refused");
        assert_eq!(error_class(io::ErrorKind::ConnectionReset), "connection-reset");
        assert_eq!(error_class(io::ErrorKind::BrokenPipe), "broken-pipe");
        assert_eq!(error_class(io::ErrorKind::UnexpectedEof), "eof");
        assert_eq!(error_class(io::ErrorKind::Other), "io-error");
        // The exhaustion messages — the interned dedup sites — differ per
        // class and never mention ports or attempt counts, so the same
        // failure class dedups into one bug across runs while refused and
        // reset file separately.
        let refused = connection_loss_message("connection-refused");
        let reset = connection_loss_message("connection-reset");
        assert_ne!(refused, reset);
        assert!(intern_site(&refused) != intern_site(&reset));
        assert_eq!(intern_site(&refused), intern_site(&connection_loss_message("connection-refused")));
        for message in [&refused, &reset] {
            assert!(is_connection_loss(message), "{message}");
            assert!(!message.contains("attempt"), "{message}");
            assert!(!message.contains(':') || !message.contains("127."), "{message}");
        }
        assert!(!is_connection_loss("chaos: injected panic #7"));
    }

    #[test]
    fn a_dead_server_exhausts_the_budget_with_a_classed_panic() {
        // Bind then drop a listener: the port is closed, so every dial is
        // refused and the zero-backoff policy exhausts instantly.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr")
        };
        let result = peachstar_protocols::containment::contained(|| {
            FramedTcpTarget::connect_with(
                TargetId::Modbus.create_send(),
                addr,
                ReconnectPolicy::immediate(1),
            )
        });
        let message = result.expect_err("connect must fail against a closed port");
        assert_eq!(message, connection_loss_message("connection-refused"));
    }

    #[test]
    fn windows_and_replays_larger_than_max_message_cross_the_wire() {
        use crate::engine::executor::{ResetPolicy, TargetExecutor};
        use crate::engine::Executor;
        use peachstar_protocols::wire::MAX_MESSAGE;

        // With periodic resets disabled nothing clears the journal. A window
        // of 24 one-MiB packets exceeds MAX_MESSAGE, and frame 3 — the first
        // request after the window's two batches — is dropped before it is
        // processed, so the recovery replays a journal that exceeds it too.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _server = serve_with_chaos(
            listener,
            TargetId::Iec104.create_send(),
            WireChaos::drop_every(3).limit(1),
        )
        .expect("serve");
        let tcp = FramedTcpTarget::connect_with(
            TargetId::Iec104.create_send(),
            addr,
            ReconnectPolicy::immediate(5),
        );
        let mut over_wire = TargetExecutor::with_policy(Box::new(tcp), ResetPolicy::Interval(0));
        let mut direct = TargetExecutor::with_policy(TargetId::Iec104.create(), ResetPolicy::Interval(0));

        let startdt = [0x68u8, 0x04, 0x07, 0x00, 0x00, 0x00];
        let testfr = [0x68u8, 0x04, 0x43, 0x00, 0x00, 0x00];
        let mut window = vec![startdt.to_vec()];
        window.extend((0..24u8).map(|fill| {
            let mut packet = vec![fill; 1 << 20];
            packet[..6].copy_from_slice(&testfr);
            packet
        }));
        assert!(window.iter().map(Vec::len).sum::<usize>() > MAX_MESSAGE);
        let window: Vec<&[u8]> = window.iter().map(Vec::as_slice).collect();
        let collect = |results: &WindowResults| -> Vec<(OutcomeSummary, peachstar_coverage::SparseTrace)> {
            results.iter().map(|(s, t)| (*s, t.clone())).collect()
        };
        let mut tcp_window = WindowResults::new();
        let mut ref_window = WindowResults::new();
        over_wire.execute_window(1, &window, &mut tcp_window);
        direct.execute_window(1, &window, &mut ref_window);
        assert_eq!(collect(&tcp_window), collect(&ref_window));

        let next = window.len() as u64 + 1;
        for (offset, packet) in [&testfr[..], &startdt[..], &[0xFFu8][..]].into_iter().enumerate() {
            let execution = next + offset as u64;
            let (tcp_outcome, tcp_trace) = over_wire.execute(execution, packet);
            let tcp_trace = tcp_trace.to_sparse();
            let (ref_outcome, ref_trace) = direct.execute(execution, packet);
            assert_eq!(tcp_outcome, ref_outcome, "replay restores the session state");
            assert_eq!(tcp_trace, ref_trace.to_sparse());
        }
    }

    /// Records every map slot on every packet: 3 bytes per edge on the
    /// wire, so a window of 90 replies in more than one message.
    struct WideTarget;

    impl Target for WideTarget {
        fn name(&self) -> &'static str {
            "wide"
        }

        fn data_models(&self) -> DataModelSet {
            DataModelSet::default()
        }

        fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
            let count = packet.first().copied().unwrap_or(1).max(1);
            ctx.load_sparse(&peachstar_coverage::SparseTrace::from_hits(
                (0..=u16::MAX).map(|slot| (slot, count)),
            ));
            Outcome::Response(packet.to_vec())
        }

        fn reset(&mut self) {}

        fn clone_fresh(&self) -> Box<dyn Target + Send> {
            Box::new(WideTarget)
        }
    }

    #[test]
    fn replies_larger_than_max_message_are_joined() {
        let (mut tcp, _guard) = deploy_tcp(&WideTarget, ReconnectPolicy::default(), WireChaos::default());
        let packets: Vec<[u8; 1]> = (0..90u8).map(|i| [i]).collect();
        let window: Vec<&[u8]> = packets.iter().map(|p| &p[..]).collect();
        let mut tcp_ctx = TraceContext::new();
        let mut ref_ctx = TraceContext::new();
        let mut over_wire = WindowResults::new();
        let mut direct = WindowResults::new();
        tcp.process_batch(&window, &mut tcp_ctx, &mut over_wire, DecodeSink::Summary);
        WideTarget.process_batch(&window, &mut ref_ctx, &mut direct, DecodeSink::Summary);
        let collect = |results: &WindowResults| -> Vec<(OutcomeSummary, peachstar_coverage::SparseTrace)> {
            results.iter().map(|(s, t)| (*s, t.clone())).collect()
        };
        assert_eq!(collect(&over_wire), collect(&direct));
        assert_eq!(tcp_ctx.trace().to_sparse(), ref_ctx.trace().to_sparse());
        // The connection stays in step: the next exchange gets its own reply.
        tcp.reset();
        tcp_ctx.reset();
        ref_ctx.reset();
        assert_eq!(tcp.process(&[7], &mut tcp_ctx), WideTarget.process(&[7], &mut ref_ctx));
    }

    #[test]
    fn a_flapping_server_is_survived_by_journal_replay() {
        // Open a session-stateful connection against a server that drops
        // the connection on the third frame (before processing it), then
        // keep processing: the recovery layer reconnects, replays the
        // journal (which re-opens the session on the fresh server-side
        // instance) and retries the dropped request, so the outcomes match
        // an undisturbed reference run bit for bit.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _server = serve_with_chaos(
            listener,
            TargetId::Iec104.create_send(),
            WireChaos::drop_every(3).limit(1),
        )
        .expect("serve");

        let startdt = [0x68u8, 0x04, 0x07, 0x00, 0x00, 0x00];
        let testfr = [0x68u8, 0x04, 0x43, 0x00, 0x00, 0x00];
        let mut reference = TargetId::Iec104.create();
        let mut tcp = FramedTcpTarget::connect_with(
            TargetId::Iec104.create_send(),
            addr,
            ReconnectPolicy::immediate(5),
        );
        let mut ref_ctx = TraceContext::new();
        let mut tcp_ctx = TraceContext::new();
        // Frames 1–2 are served; frame 3 hits the injector: the connection
        // dies before the request is processed, recovery replays the two
        // journaled session packets and retries the third.
        for packet in [&startdt[..], &testfr[..], &testfr[..], &startdt[..], &[0xFFu8][..]] {
            ref_ctx.reset();
            tcp_ctx.reset();
            let over_wire = tcp.process(packet, &mut tcp_ctx);
            let direct = reference.process(packet, &mut ref_ctx);
            assert_eq!(over_wire, direct, "journal replay restores session state");
            assert_eq!(tcp_ctx.trace().to_sparse(), ref_ctx.trace().to_sparse());
        }
    }
}
