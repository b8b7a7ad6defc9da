//! The framed-TCP wire format: how a transport request/response crosses a
//! real socket.
//!
//! Two layers live here, both speaking plain `std` byte buffers so they are
//! testable without sockets:
//!
//! 1. **Framing** ([`WireFraming`]): how a message's bytes are delimited on
//!    the stream. The non-ISO targets (modbus, iec104, dnp3, lib60870) use
//!    [`WireFraming::Raw`] — a big-endian `u32` length prefix. The ISO-stack
//!    targets (iec61850, iccp) use [`WireFraming::Tpkt`] — RFC 1006
//!    TPKT packets carrying COTP DT TPDUs, the same ISO-on-TCP framing the
//!    real MMS/TASE.2 servers speak: `03 00 LL LL` (TPKT version, reserved,
//!    big-endian total length) followed by `02 F0 EOT` (COTP length
//!    indicator, DT code, end-of-TSDU flag). Messages larger than one TPKT
//!    packet (65 535 bytes total) are segmented into a chain of DT TPDUs
//!    whose last — and only the last — sets the EOT bit `0x80`. Every frame
//!    this framer emits satisfies the
//!    [`FrameSpec::TpktCotp`](crate::prescan::FrameSpec) prescan oracle
//!    (`crates/protocols/tests/wire_framing.rs` proves the agreement by
//!    property test).
//! 2. **Messages** ([`Request`], [`Response`]): the transport protocol
//!    itself — process one packet, process a batch, reset — with outcomes,
//!    fault records and sparse coverage traces serialised symmetrically on
//!    both sides. Fault sites cross the wire as strings and are re-interned
//!    on decode ([`crate::intern_site`]), so a fault that travelled through
//!    a socket deduplicates against the same fault recorded in process.
//!
//! [`FrameReassembler`] is the streaming decoder: bytes arrive in arbitrary
//! splits (TCP guarantees nothing about read boundaries) and messages pop
//! out whole once their final byte lands. It buffers at most one message of
//! [`MAX_MESSAGE`] bytes: a longer raw length prefix or TPKT chain is a
//! framing error, so a desynchronised or hostile peer cannot make either
//! endpoint grow its buffers without bound.

use std::io::{self, Read, Write};

use peachstar_coverage::SparseTrace;

use crate::{intern_site, DecodeSink, Fault, FaultKind, Outcome, OutcomeSummary};

/// TPKT version byte (RFC 1006).
const TPKT_VERSION: u8 = 0x03;
/// COTP length indicator of a DT TPDU: two header bytes follow (code, EOT).
const COTP_DT_LI: u8 = 0x02;
/// COTP TPDU code of a DT (data) TPDU with credit 0.
const COTP_DT_CODE: u8 = 0xF0;
/// End-of-TSDU flag: set on the last DT TPDU of a message.
const COTP_EOT: u8 = 0x80;
/// Bytes of TPKT + COTP DT header per frame.
const TPKT_HEADER: usize = 7;
/// Maximum user-data bytes in one TPKT frame (total length is a `u16`).
const TPKT_MAX_USER: usize = u16::MAX as usize - TPKT_HEADER;

/// Largest message payload either endpoint sends or accepts, in bytes.
///
/// Legitimate traffic fits by construction. The messages that grow with the
/// reset window are a window's [`Request::Batch`] and the client's journal
/// replay, which holds every packet since the last reset — the whole
/// campaign when periodic resets are disabled. Both are split by
/// [`request_runs`] into consecutive batches that each fit; the server runs
/// them in order, so the records are unchanged. A [`Response::Batch`]
/// carries a summary and 3 bytes per trace edge for every record, and the
/// server splits it the same way with [`response_runs`]; the client reads
/// records until it holds one per packet. Only a single packet or record
/// larger than the cap cannot be split, and [`MessageStream::send`] refuses
/// it with a [`WireError`]. On the receiving side, [`FrameReassembler`]
/// rejects a raw length prefix above the cap as soon as the header arrives,
/// and a TPKT chain as soon as its DT TPDUs would exceed it.
pub const MAX_MESSAGE: usize = 16 << 20;

/// How messages are delimited on the TCP stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFraming {
    /// Big-endian `u32` length prefix, one frame per message.
    Raw,
    /// RFC 1006 TPKT packets carrying COTP DT TPDUs; one message is a chain
    /// of DT TPDUs ending with the EOT bit.
    Tpkt,
}

impl WireFraming {
    /// The framing a target speaks on the wire, by target name: the
    /// ISO-stack targets (libiec61850's MMS, libiec_iccp_mod's TASE.2) ride
    /// on ISO-on-TCP (TPKT/COTP); everything else is raw-framed.
    #[must_use]
    pub fn for_target(name: &str) -> Self {
        match name {
            "libiec61850" | "libiec_iccp_mod" => WireFraming::Tpkt,
            _ => WireFraming::Raw,
        }
    }

    /// Appends the framed encoding of one whole message to `out`.
    pub fn frame_into(self, payload: &[u8], out: &mut Vec<u8>) {
        match self {
            WireFraming::Raw => {
                let len = u32::try_from(payload.len())
                    .expect("a wire message never exceeds 4 GiB");
                out.extend_from_slice(&len.to_be_bytes());
                out.extend_from_slice(payload);
            }
            WireFraming::Tpkt => {
                // Chunk into maximal DT TPDUs; only the last carries EOT. An
                // empty message is one empty DT with EOT set.
                let mut chunks = payload.chunks(TPKT_MAX_USER);
                let mut remaining = chunks.len().max(1);
                loop {
                    let chunk: &[u8] = chunks.next().unwrap_or(&[]);
                    remaining = remaining.saturating_sub(1);
                    let total = (TPKT_HEADER + chunk.len()) as u16;
                    out.push(TPKT_VERSION);
                    out.push(0x00);
                    out.extend_from_slice(&total.to_be_bytes());
                    out.push(COTP_DT_LI);
                    out.push(COTP_DT_CODE);
                    out.push(if remaining == 0 { COTP_EOT } else { 0x00 });
                    out.extend_from_slice(chunk);
                    if remaining == 0 {
                        break;
                    }
                }
            }
        }
    }

    /// The framed encoding of one whole message.
    #[must_use]
    pub fn frame(self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + TPKT_HEADER);
        self.frame_into(payload, &mut out);
        out
    }
}

/// A framing violation on the stream. Both endpoints are ours, so this only
/// fires on a desynchronised or corrupted connection; the reader treats it
/// as fatal for the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError(&'static str);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire framing error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(error: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, error)
    }
}

/// Streaming frame decoder: feed bytes in arbitrary splits with
/// [`push`](FrameReassembler::push), pop whole messages with
/// [`next_message`](FrameReassembler::next_message).
#[derive(Debug)]
pub struct FrameReassembler {
    framing: WireFraming,
    /// Unconsumed stream bytes; `consumed` marks the parse position so
    /// [`next_message`](FrameReassembler::next_message) never shifts the
    /// buffer per frame. [`push`](FrameReassembler::push) compacts the
    /// buffer once per read so it holds only the unparsed tail, which is
    /// what keeps it bounded.
    buffer: Vec<u8>,
    consumed: usize,
    /// User data of the in-flight TPKT message (DT TPDUs seen so far).
    partial: Vec<u8>,
}

impl FrameReassembler {
    /// Creates a reassembler for the given framing.
    #[must_use]
    pub fn new(framing: WireFraming) -> Self {
        Self {
            framing,
            buffer: Vec::new(),
            consumed: 0,
            partial: Vec::new(),
        }
    }

    /// Appends raw stream bytes.
    ///
    /// Consumed bytes are dropped first, so the buffer holds only the
    /// unparsed tail: at most one frame in flight plus the new bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.consumed > 0 {
            self.buffer.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buffer.extend_from_slice(bytes);
    }

    /// `true` when unconsumed bytes or a partial message are pending — a
    /// clean connection shutdown must not leave any.
    #[must_use]
    pub fn is_mid_message(&self) -> bool {
        self.consumed < self.buffer.len() || !self.partial.is_empty()
    }

    /// Pops the next complete message, if one is fully buffered.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the buffered bytes violate the framing
    /// (bad TPKT version, non-DT TPDU, impossible length, a message longer
    /// than [`MAX_MESSAGE`]).
    pub fn next_message(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        loop {
            let pending = &self.buffer[self.consumed..];
            match self.framing {
                WireFraming::Raw => {
                    let Some(header) = pending.get(..4) else {
                        return Ok(None);
                    };
                    let len = u32::from_be_bytes(header.try_into().expect("4 bytes")) as usize;
                    if len > MAX_MESSAGE {
                        return Err(WireError("raw frame length exceeds MAX_MESSAGE"));
                    }
                    let Some(payload) = pending.get(4..4 + len) else {
                        return Ok(None);
                    };
                    let message = payload.to_vec();
                    self.consumed += 4 + len;
                    return Ok(Some(message));
                }
                WireFraming::Tpkt => {
                    let Some(header) = pending.get(..4) else {
                        return Ok(None);
                    };
                    if header[0] != TPKT_VERSION || header[1] != 0x00 {
                        return Err(WireError("bad TPKT header"));
                    }
                    let total = u16::from_be_bytes([header[2], header[3]]) as usize;
                    if total < TPKT_HEADER {
                        return Err(WireError("TPKT length below the COTP DT header"));
                    }
                    let Some(frame) = pending.get(..total) else {
                        return Ok(None);
                    };
                    if frame[4] != COTP_DT_LI || frame[5] != COTP_DT_CODE {
                        return Err(WireError("expected a COTP DT TPDU"));
                    }
                    let eot = frame[6];
                    if eot != COTP_EOT && eot != 0x00 {
                        return Err(WireError("bad COTP end-of-TSDU flag"));
                    }
                    let user = &frame[TPKT_HEADER..];
                    if self.partial.len() + user.len() > MAX_MESSAGE {
                        return Err(WireError("TPKT message exceeds MAX_MESSAGE"));
                    }
                    self.partial.extend_from_slice(user);
                    self.consumed += total;
                    if eot == COTP_EOT {
                        return Ok(Some(std::mem::take(&mut self.partial)));
                    }
                    // Continuation TPDU: keep consuming buffered frames.
                }
            }
        }
    }
}

/// A message-oriented view of a byte stream: framed sends, reassembled
/// receives. Generic over `Read`/`Write` so the codec is testable on
/// in-memory buffers; in production both are the two halves of a
/// `TcpStream`.
#[derive(Debug)]
pub struct MessageStream {
    framing: WireFraming,
    reassembler: FrameReassembler,
    scratch: Vec<u8>,
}

impl MessageStream {
    /// Creates a message stream speaking the given framing.
    #[must_use]
    pub fn new(framing: WireFraming) -> Self {
        Self {
            framing,
            reassembler: FrameReassembler::new(framing),
            scratch: Vec::new(),
        }
    }

    /// Frames and writes one whole message.
    ///
    /// # Errors
    ///
    /// Refuses a payload longer than [`MAX_MESSAGE`] with a [`WireError`]
    /// ([`io::ErrorKind::InvalidData`]) before writing anything — the peer
    /// would reject it. Otherwise propagates the underlying write error.
    pub fn send(&mut self, writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_MESSAGE {
            return Err(WireError("message exceeds MAX_MESSAGE").into());
        }
        self.scratch.clear();
        self.framing.frame_into(payload, &mut self.scratch);
        writer.write_all(&self.scratch)
    }

    /// Reads until one whole message is reassembled. Returns `Ok(None)` on a
    /// clean end-of-stream at a message boundary.
    ///
    /// # Errors
    ///
    /// Propagates read errors; end-of-stream mid-message and framing
    /// violations surface as [`io::ErrorKind::InvalidData`] /
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn recv(&mut self, reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(message) = self.reassembler.next_message()? {
                return Ok(Some(message));
            }
            let read = reader.read(&mut chunk)?;
            if read == 0 {
                if self.reassembler.is_mid_message() {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-message",
                    ));
                }
                return Ok(None);
            }
            self.reassembler.push(&chunk[..read]);
        }
    }
}

// === Message payload codec =================================================

/// Bytes of a [`Request::Batch`] message before its packets: tag, sink, count.
const BATCH_REQUEST_HEADER: usize = 6;
/// Bytes of a [`Response::Batch`] message before its records: tag, count.
const BATCH_RESPONSE_HEADER: usize = 5;

/// Splits a window's packets into consecutive runs whose [`Request::Batch`]
/// encoding fits in [`MAX_MESSAGE`]. An empty window is one empty run.
pub fn request_runs<P: AsRef<[u8]>>(packets: &[P]) -> impl Iterator<Item = &[P]> {
    runs(packets, BATCH_REQUEST_HEADER, |packet| 4 + packet.as_ref().len())
}

/// Splits a window's records into consecutive runs whose [`Response::Batch`]
/// encoding fits in [`MAX_MESSAGE`]. An empty window is one empty run.
pub fn response_runs(
    records: &[(OutcomeSummary, SparseTrace)],
) -> impl Iterator<Item = &[(OutcomeSummary, SparseTrace)]> {
    runs(records, BATCH_RESPONSE_HEADER, |(summary, trace)| {
        let summary = match summary {
            OutcomeSummary::Response | OutcomeSummary::ProtocolError => 1,
            OutcomeSummary::Fault(fault) => 2 + 4 + fault.site.len(),
        };
        summary + 4 + 3 * trace.edges_hit()
    })
}

/// Greedy split of `items` into runs of at most [`MAX_MESSAGE`] bytes, given
/// a per-message `header` and each item's encoded `size`. An item too large
/// on its own gets a run of its own, which [`MessageStream::send`] refuses.
fn runs<T>(items: &[T], header: usize, size: impl Fn(&T) -> usize) -> impl Iterator<Item = &[T]> {
    let mut rest = Some(items);
    std::iter::from_fn(move || {
        let items = rest?;
        let mut bytes = header;
        let mut take = 0;
        for item in items {
            bytes += size(item);
            if take > 0 && bytes > MAX_MESSAGE {
                break;
            }
            take += 1;
        }
        let (run, tail) = items.split_at(take);
        rest = (!tail.is_empty()).then_some(tail);
        Some(run)
    })
}

const REQ_PROCESS: u8 = 0x01;
const REQ_BATCH: u8 = 0x02;
const REQ_RESET: u8 = 0x03;
const RESP_PROCESS: u8 = 0x81;
const RESP_BATCH: u8 = 0x82;
const RESP_RESET: u8 = 0x83;

/// One transport request, client → server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Process one packet ([`Target::process`](crate::Target::process)).
    Process(Vec<u8>),
    /// Process one reset-aligned window of packets under the given decode
    /// sink ([`Target::process_batch`](crate::Target::process_batch)).
    Batch {
        /// Output fidelity the server decodes under.
        sink: DecodeSink,
        /// The window's packets, in execution order.
        packets: Vec<Vec<u8>>,
    },
    /// Reset the connection's target to the just-started state
    /// ([`Target::reset`](crate::Target::reset)).
    Reset,
}

/// One transport response, server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Outcome and coverage trace of one processed packet.
    Process(Outcome, SparseTrace),
    /// Per-packet summaries and traces of one processed window.
    Batch(Vec<(OutcomeSummary, SparseTrace)>),
    /// Acknowledges a [`Request::Reset`].
    ResetDone,
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    let len = u32::try_from(bytes.len()).expect("wire payloads fit in u32");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_trace(out: &mut Vec<u8>, trace: &SparseTrace) {
    let hits = u32::try_from(trace.edges_hit()).expect("trace fits in u32");
    out.extend_from_slice(&hits.to_le_bytes());
    for (slot, count) in trace.iter_hits() {
        out.extend_from_slice(&(slot as u16).to_le_bytes());
        out.push(count);
    }
}

fn put_outcome(out: &mut Vec<u8>, outcome: &Outcome) {
    match outcome {
        Outcome::Response(bytes) => {
            out.push(0);
            put_bytes(out, bytes);
        }
        Outcome::ProtocolError(reason) => {
            out.push(1);
            put_bytes(out, reason.as_bytes());
        }
        Outcome::Fault(fault) => {
            out.push(2);
            put_fault(out, *fault);
        }
    }
}

fn put_fault(out: &mut Vec<u8>, fault: Fault) {
    out.push(match fault.kind {
        FaultKind::Segv => 0,
        FaultKind::HeapUseAfterFree => 1,
        FaultKind::HeapBufferOverflow => 2,
        FaultKind::Hang => 3,
        FaultKind::Panic => 4,
    });
    put_bytes(out, fault.site.as_bytes());
}

fn put_summary(out: &mut Vec<u8>, summary: OutcomeSummary) {
    match summary {
        OutcomeSummary::Response => out.push(0),
        OutcomeSummary::ProtocolError => out.push(1),
        OutcomeSummary::Fault(fault) => {
            out.push(2);
            put_fault(out, fault);
        }
    }
}

/// A cursor over a received message payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let byte = *self
            .bytes
            .get(self.at)
            .ok_or(WireError("truncated message"))?;
        self.at += 1;
        Ok(byte)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let raw = self
            .bytes
            .get(self.at..self.at + 4)
            .ok_or(WireError("truncated message"))?;
        self.at += 4;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let raw = self
            .bytes
            .get(self.at..self.at + len)
            .ok_or(WireError("truncated message"))?;
        self.at += len;
        Ok(raw)
    }

    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError("non-UTF-8 string"))
    }

    fn trace(&mut self) -> Result<SparseTrace, WireError> {
        let hits = self.u32()? as usize;
        let raw = self.take(hits * 3)?;
        Ok(SparseTrace::from_hits(raw.chunks_exact(3).map(|hit| {
            (u16::from_le_bytes([hit[0], hit[1]]), hit[2])
        })))
    }

    fn fault(&mut self) -> Result<Fault, WireError> {
        let kind = match self.u8()? {
            0 => FaultKind::Segv,
            1 => FaultKind::HeapUseAfterFree,
            2 => FaultKind::HeapBufferOverflow,
            3 => FaultKind::Hang,
            4 => FaultKind::Panic,
            _ => return Err(WireError("unknown fault kind")),
        };
        // Re-interning restores pointer-stable dedup across the wire.
        Ok(Fault::new(kind, intern_site(self.string()?)))
    }

    fn outcome(&mut self) -> Result<Outcome, WireError> {
        match self.u8()? {
            0 => Ok(Outcome::Response(self.bytes()?.to_vec())),
            1 => Ok(Outcome::ProtocolError(self.string()?.to_owned())),
            2 => Ok(Outcome::Fault(self.fault()?)),
            _ => Err(WireError("unknown outcome variant")),
        }
    }

    fn summary(&mut self) -> Result<OutcomeSummary, WireError> {
        match self.u8()? {
            0 => Ok(OutcomeSummary::Response),
            1 => Ok(OutcomeSummary::ProtocolError),
            2 => Ok(OutcomeSummary::Fault(self.fault()?)),
            _ => Err(WireError("unknown summary variant")),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError("trailing bytes after message"))
        }
    }
}

impl Request {
    /// Serialises the request into a message payload.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Request::Process(packet) => {
                out.push(REQ_PROCESS);
                put_bytes(out, packet);
            }
            Request::Batch { sink, packets } => {
                out.push(REQ_BATCH);
                out.push(match sink {
                    DecodeSink::Full => 0,
                    DecodeSink::Summary => 1,
                });
                let count = u32::try_from(packets.len()).expect("window fits in u32");
                out.extend_from_slice(&count.to_le_bytes());
                for packet in packets {
                    put_bytes(out, packet);
                }
            }
            Request::Reset => out.push(REQ_RESET),
        }
    }

    /// Deserialises a request from a message payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed payloads.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut reader = Reader::new(payload);
        let request = match reader.u8()? {
            REQ_PROCESS => Request::Process(reader.bytes()?.to_vec()),
            REQ_BATCH => {
                let sink = match reader.u8()? {
                    0 => DecodeSink::Full,
                    1 => DecodeSink::Summary,
                    _ => return Err(WireError("unknown decode sink")),
                };
                let count = reader.u32()? as usize;
                let mut packets = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    packets.push(reader.bytes()?.to_vec());
                }
                Request::Batch { sink, packets }
            }
            REQ_RESET => Request::Reset,
            _ => return Err(WireError("unknown request tag")),
        };
        reader.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Serialises the response into a message payload.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Response::Process(outcome, trace) => {
                out.push(RESP_PROCESS);
                put_outcome(out, outcome);
                put_trace(out, trace);
            }
            Response::Batch(records) => Self::encode_batch_into(records, out),
            Response::ResetDone => out.push(RESP_RESET),
        }
    }

    /// Serialises a [`Response::Batch`] of `records` without owning them —
    /// the server encodes each of a window's [`response_runs`] in place.
    pub fn encode_batch_into(records: &[(OutcomeSummary, SparseTrace)], out: &mut Vec<u8>) {
        out.clear();
        out.push(RESP_BATCH);
        let count = u32::try_from(records.len()).expect("window fits in u32");
        out.extend_from_slice(&count.to_le_bytes());
        for (summary, trace) in records {
            put_summary(out, *summary);
            put_trace(out, trace);
        }
    }

    /// Deserialises a response from a message payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed payloads.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut reader = Reader::new(payload);
        let response = match reader.u8()? {
            RESP_PROCESS => {
                let outcome = reader.outcome()?;
                let trace = reader.trace()?;
                Response::Process(outcome, trace)
            }
            RESP_BATCH => {
                let count = reader.u32()? as usize;
                let mut records = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let summary = reader.summary()?;
                    let trace = reader.trace()?;
                    records.push((summary, trace));
                }
                Response::Batch(records)
            }
            RESP_RESET => Response::ResetDone,
            _ => return Err(WireError("unknown response tag")),
        };
        reader.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(framing: WireFraming, payload: &[u8]) {
        let framed = framing.frame(payload);
        let mut reassembler = FrameReassembler::new(framing);
        reassembler.push(&framed);
        let message = reassembler
            .next_message()
            .expect("valid framing")
            .expect("complete message");
        assert_eq!(message, payload);
        assert!(!reassembler.is_mid_message());
    }

    #[test]
    fn raw_and_tpkt_round_trip_basic_payloads() {
        for framing in [WireFraming::Raw, WireFraming::Tpkt] {
            round_trip(framing, b"");
            round_trip(framing, b"x");
            round_trip(framing, &[0xA5; 1_000]);
        }
    }

    #[test]
    fn tpkt_segments_large_messages_and_reassembles_them() {
        let big = vec![0x42u8; TPKT_MAX_USER * 2 + 17];
        let framed = WireFraming::Tpkt.frame(&big);
        // Three DT TPDUs: two full continuations plus the EOT tail.
        assert_eq!(framed.len(), big.len() + 3 * TPKT_HEADER);
        let mut reassembler = FrameReassembler::new(WireFraming::Tpkt);
        reassembler.push(&framed);
        assert_eq!(reassembler.next_message().unwrap().as_deref(), Some(&big[..]));
    }

    #[test]
    fn tpkt_frames_satisfy_the_prescan_oracle() {
        use crate::prescan::FrameSpec;
        for payload in [&b""[..], b"abc", &[0u8; 512]] {
            let framed = WireFraming::Tpkt.frame(payload);
            assert!(
                FrameSpec::TpktCotp.check(&framed),
                "single-frame TPKT messages are oracle-valid"
            );
        }
    }

    #[test]
    fn reassembler_rejects_desynchronised_streams() {
        let mut reassembler = FrameReassembler::new(WireFraming::Tpkt);
        reassembler.push(&[0x04, 0x00, 0x00, 0x07, 0x02, 0xF0, 0x80]);
        assert!(reassembler.next_message().is_err(), "bad TPKT version");
        let mut reassembler = FrameReassembler::new(WireFraming::Tpkt);
        reassembler.push(&[0x03, 0x00, 0x00, 0x07, 0x02, 0xE0, 0x80]);
        assert!(reassembler.next_message().is_err(), "not a DT TPDU");
    }

    /// Serves `header` once, then `body` forever, counting the bytes read.
    struct EndlessStream {
        header: Vec<u8>,
        body: Vec<u8>,
        at: usize,
        served: usize,
    }

    impl Read for EndlessStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let source = if self.served < self.header.len() {
                &self.header[self.served..]
            } else {
                &self.body[self.at..]
            };
            let read = source.len().min(buf.len());
            buf[..read].copy_from_slice(&source[..read]);
            if self.served >= self.header.len() {
                self.at = (self.at + read) % self.body.len();
            }
            self.served += read;
            Ok(read)
        }
    }

    fn recv_endless(framing: WireFraming, header: Vec<u8>, body: Vec<u8>) -> (io::Error, usize) {
        let mut stream = EndlessStream {
            header,
            body,
            at: 0,
            served: 0,
        };
        let error = MessageStream::new(framing)
            .recv(&mut stream)
            .expect_err("an oversized message is a framing error");
        (error, stream.served)
    }

    #[test]
    fn raw_length_above_the_cap_fails_on_the_header() {
        let mut reassembler = FrameReassembler::new(WireFraming::Raw);
        reassembler.push(&u32::MAX.to_be_bytes());
        assert_eq!(
            reassembler.next_message(),
            Err(WireError("raw frame length exceeds MAX_MESSAGE"))
        );

        let (error, served) =
            recv_endless(WireFraming::Raw, u32::MAX.to_be_bytes().to_vec(), vec![0; 1024]);
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(served <= 16 * 1024, "read {served} bytes before failing");
    }

    #[test]
    fn endless_tpkt_continuation_fails_after_the_cap() {
        // A maximal DT TPDU without EOT, repeated forever.
        let mut continuation = WireFraming::Tpkt.frame(&vec![0x5A; TPKT_MAX_USER + 1]);
        continuation.truncate(TPKT_HEADER + TPKT_MAX_USER);
        assert_eq!(continuation[6], 0x00, "no EOT on the first segment");
        let (error, served) = recv_endless(WireFraming::Tpkt, Vec::new(), continuation);
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(
            served <= MAX_MESSAGE + 2 * (TPKT_HEADER + TPKT_MAX_USER) + 16 * 1024,
            "read {served} bytes before failing"
        );
        assert!(served >= MAX_MESSAGE, "legitimate sizes are accepted");
    }

    #[test]
    fn send_refuses_a_payload_above_the_cap() {
        for framing in [WireFraming::Raw, WireFraming::Tpkt] {
            let mut written = Vec::new();
            let error = MessageStream::new(framing)
                .send(&mut written, &vec![0; MAX_MESSAGE + 1])
                .expect_err("an oversized payload is refused");
            assert_eq!(error.kind(), io::ErrorKind::InvalidData);
            assert!(error.get_ref().is_some_and(|inner| inner.is::<WireError>()));
            assert!(written.is_empty(), "nothing reaches the stream");
        }
        let mut written = Vec::new();
        MessageStream::new(WireFraming::Raw)
            .send(&mut written, &vec![0; MAX_MESSAGE])
            .expect("a payload of exactly MAX_MESSAGE is sent");
        assert_eq!(written.len(), MAX_MESSAGE + 4);
    }

    #[test]
    fn runs_are_greedy_and_fit_the_cap() {
        let third = MAX_MESSAGE / 3;
        let sizes = [third, third, third, 1, MAX_MESSAGE + 1, 1, 1];
        let split: Vec<&[usize]> = runs(&sizes, 8, |&size| size).collect();
        // 8 + 3·third overflows by 7 bytes; the oversized item runs alone.
        assert_eq!(
            split,
            [&sizes[0..2], &sizes[2..4], &sizes[4..5], &sizes[5..7]],
        );
        let empty: Vec<&[usize]> = runs(&[], 8, |&size| size).collect();
        assert_eq!(empty, [&[] as &[usize]], "an empty window is one empty run");
    }

    #[test]
    fn request_and_response_runs_encode_under_the_cap() {
        let packets = vec![vec![0x5A_u8; 6 << 20]; 3];
        let mut payload = Vec::new();
        let mut joined = Vec::new();
        for run in request_runs(&packets) {
            Request::Batch { sink: DecodeSink::Summary, packets: run.to_vec() }.encode_into(&mut payload);
            assert!(payload.len() <= MAX_MESSAGE, "{} bytes", payload.len());
            let Request::Batch { packets: decoded, .. } = Request::decode(&payload).unwrap() else {
                panic!("batch request");
            };
            joined.extend(decoded);
        }
        assert_eq!(joined, packets);

        // Every record hits all MAP_SIZE slots: 3 bytes per edge, so a
        // window of 90 needs two messages.
        let wide = SparseTrace::from_hits((0..=u16::MAX).map(|slot| (slot, 1)));
        let fault = OutcomeSummary::Fault(Fault::new(FaultKind::Segv, "wire.rs:1"));
        let records: Vec<_> = (0..90)
            .map(|i| (if i % 7 == 0 { fault } else { OutcomeSummary::Response }, wide.clone()))
            .collect();
        let mut joined = Vec::new();
        let mut messages = 0;
        for run in response_runs(&records) {
            Response::encode_batch_into(run, &mut payload);
            assert!(payload.len() <= MAX_MESSAGE, "{} bytes", payload.len());
            let Response::Batch(decoded) = Response::decode(&payload).unwrap() else {
                panic!("batch response");
            };
            joined.extend(decoded);
            messages += 1;
        }
        assert_eq!(messages, 2);
        assert_eq!(joined, records);
    }

    #[test]
    fn framing_assignment_matches_the_iso_stack_split() {
        assert_eq!(WireFraming::for_target("libiec61850"), WireFraming::Tpkt);
        assert_eq!(WireFraming::for_target("libiec_iccp_mod"), WireFraming::Tpkt);
        for raw in ["libmodbus", "IEC104", "lib60870", "opendnp3"] {
            assert_eq!(WireFraming::for_target(raw), WireFraming::Raw, "{raw}");
        }
    }

    #[test]
    fn request_codec_round_trips() {
        let requests = [
            Request::Process(vec![1, 2, 3]),
            Request::Process(Vec::new()),
            Request::Batch {
                sink: DecodeSink::Summary,
                packets: vec![vec![0xFF; 9], Vec::new(), vec![7]],
            },
            Request::Reset,
        ];
        let mut buffer = Vec::new();
        for request in requests {
            request.encode_into(&mut buffer);
            assert_eq!(Request::decode(&buffer), Ok(request));
        }
    }

    #[test]
    fn response_codec_round_trips_and_reinterns_fault_sites() {
        let fault = Fault::new(FaultKind::HeapUseAfterFree, intern_site("mms.c:parse"));
        let trace = SparseTrace::from_hits([(3, 1), (9, 200), (65_000, 2)]);
        let responses = [
            Response::Process(Outcome::Response(vec![5, 6]), trace.clone()),
            Response::Process(Outcome::ProtocolError("bad frame".into()), SparseTrace::new()),
            Response::Process(Outcome::Fault(fault), trace.clone()),
            Response::Batch(vec![
                (OutcomeSummary::Response, trace.clone()),
                (OutcomeSummary::Fault(fault), SparseTrace::new()),
            ]),
            Response::ResetDone,
        ];
        let mut buffer = Vec::new();
        for response in responses {
            response.encode_into(&mut buffer);
            let decoded = Response::decode(&buffer).expect("valid payload");
            assert_eq!(decoded, response);
            // Decoded fault sites are pointer-identical to the interned
            // originals, so wire faults dedup against in-process ones.
            if let Response::Process(Outcome::Fault(decoded_fault), _) = &decoded {
                assert!(std::ptr::eq(decoded_fault.site, fault.site));
            }
        }
    }

    #[test]
    fn message_stream_round_trips_over_a_buffer() {
        let mut wire = Vec::new();
        let mut sender = MessageStream::new(WireFraming::Tpkt);
        sender.send(&mut wire, b"first").unwrap();
        sender.send(&mut wire, b"second message").unwrap();
        let mut receiver = MessageStream::new(WireFraming::Tpkt);
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(receiver.recv(&mut cursor).unwrap().as_deref(), Some(&b"first"[..]));
        assert_eq!(
            receiver.recv(&mut cursor).unwrap().as_deref(),
            Some(&b"second message"[..])
        );
        assert_eq!(receiver.recv(&mut cursor).unwrap(), None, "clean EOF");
    }
}
