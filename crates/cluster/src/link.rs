//! One client connection to a server: the type both `server::Client` and
//! the [`crate::Router`]'s shard links are.

use crate::poll::{wait_readable, wait_writable};
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use wire::{
    decode_response, encode_request, write_frame, Fill, FrameBuffer, HandshakeError, Request,
    Response, WireError,
};

/// How long a connect plus handshake may take before the peer counts as
/// unreachable.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a send may wait for socket buffer room before the link is
/// declared wedged.
pub(crate) const SEND_TIMEOUT: Duration = Duration::from_secs(5);

/// A non-blocking connection to one server: the handshake runs under
/// [`CONNECT_TIMEOUT`], each send is one whole-frame write, and replies
/// reassemble in a [`FrameBuffer`].
#[derive(Debug)]
pub struct Link {
    stream: TcpStream,
    buffer: FrameBuffer,
}

impl Link {
    /// Connects and performs the version handshake, each bounded by
    /// [`CONNECT_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// [`HandshakeError::Wire`] when the peer is unreachable or silent,
    /// [`HandshakeError::Refused`] with whatever the peer answered
    /// instead of a `HelloAck`.
    pub fn connect(addr: SocketAddr) -> Result<Self, HandshakeError> {
        let mut stream =
            TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).map_err(WireError::Io)?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(CONNECT_TIMEOUT))
            .map_err(WireError::Io)?;
        wire::handshake(&mut stream)?;
        stream.set_read_timeout(None).map_err(WireError::Io)?;
        stream.set_nonblocking(true).map_err(WireError::Io)?;
        Ok(Link {
            stream,
            buffer: FrameBuffer::new(),
        })
    }

    /// The local end's address.
    ///
    /// # Errors
    ///
    /// The socket's address could not be read.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.stream.local_addr()
    }

    /// Encodes and sends one request in one write; a full socket buffer
    /// waits for room, up to a stall deadline of a few seconds.
    ///
    /// # Errors
    ///
    /// A codec failure, a transport failure, or a stalled send: the link
    /// is unusable after any of them.
    pub fn send(&mut self, request: &Request) -> Result<(), WireError> {
        let payload = encode_request(request)?;
        let mut framed = Vec::with_capacity(payload.len() + 8);
        write_frame(&mut framed, &payload)?;
        // lint:allow(wall-clock, reason = "send-stall deadline; never feeds a result")
        let start = Instant::now();
        let mut rest = framed.as_slice();
        while !rest.is_empty() {
            match (&self.stream).write(rest) {
                Ok(n) if n > 0 => rest = rest.get(n..).unwrap_or_default(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() != ErrorKind::WouldBlock => return Err(WireError::Io(e)),
                // A full buffer (or a zero-byte write): wait for room.
                _ => {
                    let left = SEND_TIMEOUT.saturating_sub(start.elapsed());
                    if left.is_zero() || !wait_writable(&self.stream, Some(left))? {
                        return Err(WireError::Io(io::Error::new(
                            ErrorKind::TimedOut,
                            "link send stalled",
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Pulls one complete response if the link has one buffered or
    /// immediately readable. `Ok(None)` means "nothing yet".
    ///
    /// # Errors
    ///
    /// The peer closed the connection, the socket failed, or the bytes
    /// are not a response: the link is dead or corrupt.
    pub fn try_recv(&mut self) -> Result<Option<Response>, WireError> {
        loop {
            if let Some(payload) = self.buffer.next_frame()? {
                return Ok(Some(decode_response(&payload)?));
            }
            match self.buffer.fill_from(&mut &self.stream)? {
                Fill::Bytes(_) => {}
                Fill::WouldBlock => return Ok(None),
                Fill::Eof => {
                    return Err(WireError::Io(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "peer closed the connection",
                    )))
                }
            }
        }
    }

    /// [`Link::try_recv`], first waiting up to `timeout` (`None`: as long
    /// as it takes) for the socket to become readable when nothing is
    /// ready. `Ok(None)` after the wait means the timeout passed, or only
    /// part of a frame arrived.
    ///
    /// # Errors
    ///
    /// As [`Link::try_recv`].
    pub fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Response>, WireError> {
        if let Some(response) = self.try_recv()? {
            return Ok(Some(response));
        }
        if !wait_readable(&self.stream, timeout)? {
            return Ok(None);
        }
        self.try_recv()
    }
}
