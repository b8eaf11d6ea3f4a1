//! The per-connection state machine for the event-loop server.
//!
//! One `Conn` per accepted socket, owned entirely by the server's loop
//! thread — no per-connection threads, no per-job waiter threads, no
//! write mutex. Bytes arriving on readiness events accumulate in a
//! [`wire::FrameBuffer`]; complete frames dispatch through the
//! handshake/serving states; every response is framed onto the end of
//! one per-connection byte buffer, the outbox, which the loop flushes
//! non-blockingly once per tick: every byte owed goes to one `write`, so
//! a connection owed k answers in a tick costs one syscall, not k.
//! Job completions re-enter the loop through the completion queue: a
//! [`runtime::JobHandle::on_finish`] watcher pushes the outcome and wakes
//! the loop, which encodes the `JobResult` like any other response.
//!
//! Backpressure is a state, not a blocked thread: when the runtime queue
//! is full the submit *parks*, the connection is muted (stops reading),
//! and the loop retries the parked submit each tick until it lands —
//! pipelined requests behind it simply wait in the buffer.

use crate::poll::{Poll, Token};
use crate::server::{Completion, LoopShared, ServerShared};
use accel::kernel::Kernel;
use runtime::{JobHandle, JobOptions, SubmitError};
use std::collections::HashMap;
use std::io::{self, ErrorKind, Write};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use wire::{
    decode_request, encode_response, negotiate, write_frame, ErrorCode, Fill, FrameBuffer, Request,
    Response, WireOutcome, PROTOCOL_VERSION,
};

/// Where a connection is in its protocol lifecycle.
enum ConnState {
    /// Waiting for the opening `Hello`.
    Handshake,
    /// Version checked; serving pipelined requests.
    Serving,
}

/// A submit the runtime had no queue room for. The connection is muted
/// while one of these exists; the loop retries it every tick.
struct Parked {
    request_id: u64,
    kernel: Kernel,
    options: JobOptions,
}

/// Outbox capacity a flushed connection keeps between ticks: many ticks'
/// answers on a busy connection, while one large result (frames run to
/// [`wire::MAX_FRAME_LEN`]) is not held for the connection's lifetime.
const OUTBOX_KEPT: usize = 64 << 10;

/// One client connection's full state, owned by the loop thread.
pub(crate) struct Conn {
    token: Token,
    peer: SocketAddr,
    state: ConnState,
    buffer: FrameBuffer,
    /// Framed responses in the order they were queued, and how many of
    /// their bytes the peer has already taken.
    outbox: Vec<u8>,
    out_off: usize,
    /// Jobs in flight on this connection, keyed by client request id.
    pending: HashMap<u64, JobHandle>,
    parked: Option<Parked>,
    /// The peer half-closed (or errored) its write side; we stop reading
    /// but still flush pending results before closing.
    pub(crate) read_closed: bool,
    /// A protocol violation was answered; close once the outbox drains.
    pub(crate) close_after_flush: bool,
}

impl Conn {
    pub(crate) fn new(token: Token, peer: SocketAddr) -> Self {
        Conn {
            token,
            peer,
            state: ConnState::Handshake,
            buffer: FrameBuffer::new(),
            outbox: Vec::new(),
            out_off: 0,
            pending: HashMap::new(),
            parked: None,
            read_closed: false,
            close_after_flush: false,
        }
    }

    /// Whether the connection still owes the peer work: jobs in flight
    /// or a parked submit. (The outbox is tracked separately by flush.)
    pub(crate) fn has_work(&self) -> bool {
        !self.pending.is_empty() || self.parked.is_some()
    }

    /// Whether a submit is waiting for queue room.
    pub(crate) fn is_parked(&self) -> bool {
        self.parked.is_some()
    }

    /// Notes that the read side is done and stops readiness scans for
    /// this connection (level-triggered readiness would spin otherwise).
    pub(crate) fn mark_read_closed(&mut self, poll: &mut Poll) {
        self.read_closed = true;
        poll.mute(self.token);
    }

    /// Drains the socket into the frame buffer and dispatches every
    /// complete frame, stopping at `WouldBlock`, a parked submit, EOF, or
    /// a protocol violation.
    pub(crate) fn on_readable(
        &mut self,
        poll: &mut Poll,
        shared: &Arc<ServerShared>,
        loop_shared: &Arc<LoopShared>,
        draining: bool,
    ) {
        if self.read_closed || self.close_after_flush {
            return;
        }
        loop {
            if self.parked.is_some() {
                poll.mute(self.token);
                return;
            }
            match self.buffer.next_frame() {
                Ok(Some(payload)) => {
                    self.handle_payload(&payload, shared, loop_shared, draining);
                    if self.close_after_flush {
                        poll.mute(self.token);
                        return;
                    }
                }
                Ok(None) => {
                    let fill = match poll.stream(self.token) {
                        Some(mut stream) => self.buffer.fill_from(&mut stream),
                        None => return,
                    };
                    match fill {
                        Ok(Fill::Bytes(_)) => {}
                        Ok(Fill::WouldBlock) => return,
                        // I/O errors on read close the connection the same
                        // way a clean EOF does: no error frame, flush what
                        // is owed, tear down.
                        Ok(Fill::Eof) | Err(_) => {
                            self.mark_read_closed(poll);
                            return;
                        }
                    }
                }
                Err(e) => {
                    // Framing violation (bad magic, hostile length):
                    // answer with a connection-level error, then close
                    // once it flushes. Never panics on bad input — the
                    // buffer bounds every length before allocating.
                    self.queue(&Response::Error {
                        request_id: 0,
                        code: ErrorCode::Malformed,
                        message: format!("unreadable frame from {}: {e}", self.peer),
                    });
                    self.close_after_flush = true;
                    poll.mute(self.token);
                    return;
                }
            }
        }
    }

    /// Decodes and dispatches one frame.
    fn handle_payload(
        &mut self,
        payload: &[u8],
        shared: &Arc<ServerShared>,
        loop_shared: &Arc<LoopShared>,
        draining: bool,
    ) {
        let request = match decode_request(payload) {
            Ok(request) => request,
            Err(e) => {
                self.queue(&Response::Error {
                    request_id: 0,
                    code: ErrorCode::Malformed,
                    message: format!("undecodable request: {e}"),
                });
                self.close_after_flush = true;
                return;
            }
        };
        match self.state {
            ConnState::Handshake => self.handshake(&request),
            ConnState::Serving => self.serve_request(request, shared, loop_shared, draining),
        }
    }

    /// Handles the opening `Hello`, answering `HelloAck` or a
    /// connection-level error.
    fn handshake(&mut self, request: &Request) {
        match request {
            Request::Hello {
                min_version,
                max_version,
            } => match negotiate(*min_version, *max_version) {
                Some(version) => {
                    self.state = ConnState::Serving;
                    self.queue(&Response::HelloAck { version });
                }
                None => {
                    self.queue(&Response::Error {
                        request_id: 0,
                        code: ErrorCode::UnsupportedVersion,
                        message: format!(
                            "server speaks only version {PROTOCOL_VERSION}, \
                             client offered {min_version}..={max_version}"
                        ),
                    });
                    self.close_after_flush = true;
                }
            },
            _ => {
                self.queue(&Response::Error {
                    request_id: 0,
                    code: ErrorCode::Malformed,
                    message: "expected Hello as the first request".into(),
                });
                self.close_after_flush = true;
            }
        }
    }

    /// Dispatches one post-handshake request.
    fn serve_request(
        &mut self,
        request: Request,
        shared: &Arc<ServerShared>,
        loop_shared: &Arc<LoopShared>,
        draining: bool,
    ) {
        match request {
            Request::Hello { .. } => {
                self.queue(&Response::Error {
                    request_id: 0,
                    code: ErrorCode::Malformed,
                    message: "duplicate Hello".into(),
                });
                self.close_after_flush = true;
            }
            Request::Ping { token } => self.queue(&Response::Pong { token }),
            Request::Submit {
                request_id,
                timeout_ms,
                seed,
                policy,
                kernel,
            } => {
                let options = JobOptions {
                    timeout: timeout_ms.map(Duration::from_millis),
                    seed,
                    policy,
                };
                self.submit(request_id, kernel, options, shared, loop_shared, draining);
            }
            Request::Cancel { request_id } => {
                // A request id that already completed (or never existed)
                // reports `cancelled: false` — cancellation raced
                // completion and lost.
                let cancelled = self.pending.get(&request_id).is_some_and(JobHandle::cancel);
                self.queue(&Response::CancelResult {
                    request_id,
                    cancelled,
                });
            }
            Request::GetStats { request_id } => {
                let stats = shared.runtime.stats();
                self.queue(&Response::Stats { request_id, stats });
            }
        }
    }

    /// Validates and attempts a submission. New submits are refused while
    /// draining; a full queue parks the submit instead of failing it.
    fn submit(
        &mut self,
        request_id: u64,
        kernel: Kernel,
        options: JobOptions,
        shared: &Arc<ServerShared>,
        loop_shared: &Arc<LoopShared>,
        draining: bool,
    ) {
        if self.pending.contains_key(&request_id) {
            self.queue(&Response::Error {
                request_id,
                code: ErrorCode::Malformed,
                message: format!("request id {request_id} is already in flight"),
            });
            return;
        }
        if draining {
            self.queue(&Response::Error {
                request_id,
                code: ErrorCode::ShuttingDown,
                message: "server is shutting down".into(),
            });
            return;
        }
        self.try_submit(request_id, kernel, options, shared, loop_shared);
    }

    /// One submission attempt. Returns `false` when the submit parked
    /// (queue full); `true` when it was accepted or answered with an
    /// error frame.
    fn try_submit(
        &mut self,
        request_id: u64,
        kernel: Kernel,
        options: JobOptions,
        shared: &Arc<ServerShared>,
        loop_shared: &Arc<LoopShared>,
    ) -> bool {
        // The runtime consumes the kernel; keep a copy in case the queue
        // is full and the submit has to park for a retry.
        let retry = kernel.clone();
        match shared.runtime.try_submit_with(kernel, options) {
            Ok(handle) => {
                arm_watcher(loop_shared, self.token.0, request_id, &handle);
                self.pending.insert(request_id, handle);
                true
            }
            Err(SubmitError::QueueFull) => {
                // Backpressure: park the submit and stop reading this
                // connection. The loop retries each tick; pipelined
                // requests behind it wait in the frame buffer.
                self.parked = Some(Parked {
                    request_id,
                    kernel: retry,
                    options,
                });
                false
            }
            Err(e) => {
                let (code, message) = submit_error_frame(&e);
                self.queue(&Response::Error {
                    request_id,
                    code,
                    message,
                });
                true
            }
        }
    }

    /// Retries a parked submit; on success, unmutes the connection and
    /// immediately processes any frames that buffered while parked.
    pub(crate) fn retry_parked(
        &mut self,
        poll: &mut Poll,
        shared: &Arc<ServerShared>,
        loop_shared: &Arc<LoopShared>,
        draining: bool,
    ) {
        let Some(parked) = self.parked.take() else {
            return;
        };
        let Parked {
            request_id,
            kernel,
            options,
        } = parked;
        if self.try_submit(request_id, kernel, options, shared, loop_shared) {
            if !self.read_closed && !self.close_after_flush {
                poll.unmute(self.token);
            }
            // Frames that arrived while parked are already buffered and
            // raise no new readiness event; drain them now.
            self.on_readable(poll, shared, loop_shared, draining);
        }
    }

    /// Accepts a finished job's outcome from the completion queue and
    /// answers its submit.
    pub(crate) fn on_completion(&mut self, completion: Completion) {
        self.pending.remove(&completion.request_id);
        self.queue(&Response::JobResult {
            request_id: completion.request_id,
            outcome: completion.outcome,
        });
    }

    /// Frames a response onto the end of the outbox. A response that
    /// cannot be encoded cannot reach the peer: the connection closes once
    /// everything else flushes (parity with a failed write).
    fn queue(&mut self, response: &Response) {
        let owed = self.outbox.len();
        let framed = encode_response(response)
            .ok()
            .and_then(|payload| write_frame(&mut self.outbox, &payload).ok());
        if framed.is_none() {
            self.outbox.truncate(owed);
            self.close_after_flush = true;
        }
    }

    /// Writes as much of the outbox as the socket accepts right now.
    /// `Ok(true)` means fully flushed; `Ok(false)` means the peer's
    /// buffer is full, and the connection keeps write interest until a
    /// later flush empties the outbox — only the peer draining can make
    /// room, so the loop must hear about it; `Err` means the peer is gone.
    pub(crate) fn flush(&mut self, poll: &mut Poll) -> io::Result<bool> {
        let flushed = match poll.stream(self.token) {
            Some(mut stream) => self.write_outbox(&mut stream)?,
            None => self.out_off == self.outbox.len(),
        };
        poll.set_write_interest(self.token, !flushed);
        Ok(flushed)
    }

    /// Hands every owed byte to one `write`, and the rest again after a
    /// short write, resuming at the offset the peer has taken. A flushed
    /// outbox is emptied in place, so it keeps up to [`OUTBOX_KEPT`] bytes
    /// of capacity and gives back the rest; one the peer stopped taking
    /// drops its written head once that is at least half of it, so a peer
    /// that never catches up holds only what it is owed (amortized: each
    /// byte moves at most once per halving).
    fn write_outbox(&mut self, out: &mut impl Write) -> io::Result<bool> {
        while let Some(owed) = self
            .outbox
            .get(self.out_off..)
            .filter(|owed| !owed.is_empty())
        {
            match out.write(owed) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => self.out_off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if self.out_off >= self.outbox.len() / 2 {
                        self.outbox.drain(..self.out_off);
                        self.out_off = 0;
                    }
                    return Ok(false);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.outbox.clear();
        self.outbox.shrink_to(OUTBOX_KEPT);
        self.out_off = 0;
        Ok(true)
    }
}

/// Registers a completion watcher on a freshly submitted job: when the
/// job settles — on a runtime worker, or right here on the loop thread
/// for a cache hit or a winning cancel — the outcome goes onto the
/// completion queue and the loop is woken to answer it.
fn arm_watcher(loop_shared: &Arc<LoopShared>, conn_id: u64, request_id: u64, handle: &JobHandle) {
    let shared = Arc::clone(loop_shared);
    handle.on_finish(move |outcome| {
        shared.complete(Completion {
            conn_id,
            request_id,
            outcome: WireOutcome::from(outcome),
        });
    });
}

/// Serializes one response into a frame of its own, for a peer that has
/// no connection to queue it on (the listener's busy farewell). `None`
/// means the response cannot be represented (for example a result larger
/// than the frame bound).
pub(crate) fn encode_frame(response: &Response) -> Option<Vec<u8>> {
    let payload = encode_response(response).ok()?;
    let mut framed = Vec::with_capacity(payload.len() + 8);
    write_frame(&mut framed, &payload).ok()?;
    Some(framed)
}

/// Maps a submission failure to its wire error frame.
fn submit_error_frame(e: &SubmitError) -> (ErrorCode, String) {
    let code = match e {
        SubmitError::Invalid(_) => ErrorCode::InvalidKernel,
        SubmitError::QueueFull => ErrorCode::QueueFull,
        SubmitError::ShutDown => ErrorCode::ShuttingDown,
    };
    (code, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::family::FamilyResult;
    use accel::kernel::{CostReport, InvalidKernel, KernelResult};

    #[test]
    fn submit_errors_map_to_codes() {
        let (code, msg) = submit_error_frame(&SubmitError::QueueFull);
        assert_eq!(code, ErrorCode::QueueFull);
        assert!(msg.contains("full"));
        let (code, _) = submit_error_frame(&SubmitError::ShutDown);
        assert_eq!(code, ErrorCode::ShuttingDown);
        let (code, msg) =
            submit_error_frame(&SubmitError::Invalid(InvalidKernel::FactorTooSmall {
                n: 2,
            }));
        assert_eq!(code, ErrorCode::InvalidKernel);
        assert!(msg.contains("invalid kernel"));
    }

    fn conn() -> Conn {
        Conn::new(Token(1), SocketAddr::from(([127, 0, 0, 1], 1)))
    }

    fn completed(result: KernelResult) -> WireOutcome {
        WireOutcome::Completed {
            backend: "cpu".into(),
            result,
            cost: CostReport {
                device_seconds: 2.5e-7,
                operations: 9,
            },
            wall_nanos: 1_234,
        }
    }

    #[test]
    fn completion_queues_the_same_bytes_as_any_other_response() {
        // One native-framed result and one family-framed result.
        let outcomes = [
            completed(KernelResult::Factors(5, 7)),
            completed(KernelResult::Family(FamilyResult::Coloring {
                colors: vec![0, 1, 0],
                conflicts: 0,
            })),
        ];
        let mut conn = conn();
        let mut expected = Vec::new();
        for (request_id, outcome) in (40u64..).zip(outcomes) {
            let payload = encode_response(&Response::JobResult {
                request_id,
                outcome: outcome.clone(),
            })
            .unwrap();
            write_frame(&mut expected, &payload).unwrap();
            conn.on_completion(Completion {
                conn_id: 1,
                request_id,
                outcome,
            });
        }
        assert_eq!(conn.outbox, expected);
        assert!(!conn.close_after_flush);
    }

    /// A peer that takes at most `per_call` bytes per `write`, and refuses
    /// every other call as a full socket buffer would.
    struct Peer {
        taken: Vec<u8>,
        per_call: usize,
        calls: usize,
        refuse_next: bool,
    }

    impl Peer {
        fn new(per_call: usize) -> Self {
            Peer {
                taken: Vec::new(),
                per_call,
                calls: 0,
                refuse_next: false,
            }
        }
    }

    impl Write for Peer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if std::mem::take(&mut self.refuse_next) {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.refuse_next = true;
            let n = buf.len().min(self.per_call);
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn pongs(tokens: std::ops::Range<u64>) -> (Conn, Vec<u8>) {
        let mut conn = conn();
        let mut expected = Vec::new();
        for token in tokens {
            conn.queue(&Response::Pong { token });
            expected.extend(encode_frame(&Response::Pong { token }).unwrap());
        }
        (conn, expected)
    }

    #[test]
    fn every_owed_response_goes_to_one_write() {
        let (mut conn, expected) = pongs(0..4);
        let mut peer = Peer::new(usize::MAX);
        assert!(conn.write_outbox(&mut peer).unwrap());
        assert_eq!(peer.calls, 1);
        assert_eq!(peer.taken, expected);
        assert!(conn.outbox.is_empty());
        assert_eq!(conn.out_off, 0);
    }

    #[test]
    fn short_writes_resume_where_the_peer_stopped() {
        let frame_len = encode_frame(&Response::Pong { token: 0 }).unwrap().len();
        for per_call in [1, 7, frame_len] {
            let (mut conn, mut expected) = pongs(0..3);
            let mut peer = Peer::new(per_call);
            // Answers queued while earlier ones are still owed go out
            // behind them.
            let mut next = 3..6;
            while !conn.write_outbox(&mut peer).unwrap() {
                if let Some(token) = next.next() {
                    conn.queue(&Response::Pong { token });
                    expected.extend(encode_frame(&Response::Pong { token }).unwrap());
                }
                assert_eq!(
                    conn.outbox.len() - conn.out_off,
                    expected.len() - peer.taken.len()
                );
            }
            for token in next {
                conn.queue(&Response::Pong { token });
                expected.extend(encode_frame(&Response::Pong { token }).unwrap());
            }
            while !conn.write_outbox(&mut peer).unwrap() {}
            assert_eq!(peer.taken, expected, "{per_call} bytes per write");
            assert!(conn.outbox.is_empty());
        }
    }

    #[test]
    fn a_flushed_outbox_gives_back_a_large_answers_capacity() {
        let mut conn = conn();
        conn.on_completion(Completion {
            conn_id: 1,
            request_id: 42,
            // The longest assignment the wire carries: a 1 MiB frame.
            outcome: completed(KernelResult::SatSolution(Some(vec![
                true;
                wire::MAX_SEQUENCE_LEN
                    as usize
            ]))),
        });
        assert!(!conn.close_after_flush);
        assert!(conn.outbox.len() > wire::MAX_SEQUENCE_LEN as usize);
        let mut peer = Peer::new(usize::MAX);
        assert!(conn.write_outbox(&mut peer).unwrap());
        assert!(conn.outbox.is_empty());
        assert!(conn.outbox.capacity() <= OUTBOX_KEPT);
        // A small answer's capacity stays for the next tick.
        let (mut conn, _) = pongs(0..4);
        let kept = conn.outbox.capacity();
        assert!(conn.write_outbox(&mut Peer::new(usize::MAX)).unwrap());
        assert_eq!(conn.outbox.capacity(), kept);
    }

    #[test]
    fn a_peer_that_takes_nothing_closes_the_connection() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (mut conn, _) = pongs(0..1);
        let error = conn.write_outbox(&mut Full).unwrap_err();
        assert_eq!(error.kind(), ErrorKind::WriteZero);
    }

    #[test]
    fn unencodable_completion_closes_after_flushing_what_is_owed() {
        let mut conn = conn();
        conn.queue(&Response::Pong { token: 3 });
        let owed = conn.outbox.clone();
        conn.on_completion(Completion {
            conn_id: 1,
            request_id: 41,
            outcome: WireOutcome::Failed("x".repeat(wire::MAX_STRING_LEN as usize + 1)),
        });
        assert!(conn.close_after_flush);
        assert_eq!(conn.outbox, owed);
    }

    #[test]
    fn encode_frame_produces_a_parseable_frame() {
        let framed = encode_frame(&Response::Pong { token: 9 }).unwrap();
        let mut cursor = std::io::Cursor::new(framed);
        let payload = wire::read_frame(&mut cursor).unwrap();
        let response = wire::decode_response(&payload).unwrap();
        assert_eq!(response, Response::Pong { token: 9 });
    }
}
