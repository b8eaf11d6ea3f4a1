//! The per-connection state machine for the event-loop server.
//!
//! One `Conn` per accepted socket, owned entirely by the server's loop
//! thread — no per-connection threads, no per-job waiter threads, no
//! write mutex. Bytes arriving on readiness events accumulate in a
//! [`wire::FrameBuffer`]; complete frames dispatch through the
//! handshake/serving states; every response is encoded into a
//! per-connection outbox the loop flushes non-blockingly.
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
use std::collections::{HashMap, VecDeque};
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

/// One client connection's full state, owned by the loop thread.
pub(crate) struct Conn {
    token: Token,
    peer: SocketAddr,
    state: ConnState,
    buffer: FrameBuffer,
    /// Encoded frames awaiting flush, plus the byte offset already
    /// written of the front frame.
    outbox: VecDeque<Vec<u8>>,
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
            outbox: VecDeque::new(),
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

    /// Encodes a response onto the outbox. A response that cannot be
    /// encoded cannot reach the peer: the connection closes once
    /// everything else flushes (parity with a failed write).
    fn queue(&mut self, response: &Response) {
        match encode_frame(response) {
            Some(frame) => self.outbox.push_back(frame),
            None => self.close_after_flush = true,
        }
    }

    /// Writes as much of the outbox as the socket accepts right now.
    /// `Ok(true)` means fully flushed; `Ok(false)` means the peer's
    /// buffer is full, and the connection keeps write interest until a
    /// later flush empties the outbox — only the peer draining can make
    /// room, so the loop must hear about it; `Err` means the peer is gone.
    pub(crate) fn flush(&mut self, poll: &mut Poll) -> io::Result<bool> {
        let flushed = self.write_outbox(poll)?;
        poll.set_write_interest(self.token, !flushed);
        Ok(flushed)
    }

    fn write_outbox(&mut self, poll: &Poll) -> io::Result<bool> {
        let Some(mut stream) = poll.stream(self.token) else {
            return Ok(self.outbox.is_empty());
        };
        while let Some(front) = self.outbox.front() {
            let rest = front.get(self.out_off..).unwrap_or_default();
            if rest.is_empty() {
                self.outbox.pop_front();
                self.out_off = 0;
                continue;
            }
            match stream.write(rest) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => self.out_off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
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

/// Serializes one response into a ready-to-write frame. `None` means the
/// response cannot be represented (for example a result larger than the
/// frame bound).
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
        for (request_id, outcome) in (40u64..).zip(outcomes) {
            let payload = encode_response(&Response::JobResult {
                request_id,
                outcome: outcome.clone(),
            })
            .unwrap();
            let mut expected = Vec::new();
            write_frame(&mut expected, &payload).unwrap();
            conn.on_completion(Completion {
                conn_id: 1,
                request_id,
                outcome,
            });
            assert_eq!(conn.outbox.back(), Some(&expected));
        }
        assert_eq!(conn.outbox.len(), 2);
        assert!(!conn.close_after_flush);
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
