//! A miniature readiness-driven event loop over non-blocking TCP.
//!
//! `std` exposes no `epoll`/`kqueue` wrapper, so readiness comes from
//! `poll(2)` itself through a one-function shim in the private `sys`
//! module (std already links the C library, so no crate is needed). Each
//! [`Poll::poll`] hands the kernel one `pollfd` per listener, per stream
//! with read or write interest, and one for the read end of a Unix socket
//! pair, then blocks until something is ready or the timeout passes. A
//! cross-thread [`Waker`] (job completions, shutdown) writes a byte into
//! that pair, so it interrupts the wait exactly as a peer's bytes do: the
//! loop reacts to either within one system call and makes no wakeups at
//! all while idle.
//!
//! # Semantics
//!
//! * **Level-triggered.** A stream with buffered bytes reports
//!   [`Event::Readable`] on every poll until drained; owners read until
//!   `WouldBlock`.
//! * **EOF is readable.** A half-closed peer reports `Readable`; the
//!   owner's next read observes the end-of-stream and must deregister or
//!   mute, otherwise the poll keeps reporting readiness (that is what
//!   level-triggered means).
//! * **Write interest is opt-in.** Non-blocking writes fail fast with
//!   `WouldBlock`; an owner left with unwritten bytes calls
//!   [`Poll::set_write_interest`], gets [`Event::Writable`] once the peer
//!   drains, and clears the interest when its outbox is empty.

use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An opaque registration handle, unique per [`Poll`] for its lifetime.
/// Tokens are never reused, so a stale token in a late completion can
/// never alias a newer connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub u64);

/// One readiness event out of [`Poll::poll`].
#[derive(Debug)]
pub enum Event {
    /// A listener accepted a connection. The stream is already
    /// non-blocking; the owner decides whether to register it.
    Accepted {
        /// The listener's token.
        listener: Token,
        /// The accepted stream.
        stream: TcpStream,
        /// The peer's address.
        peer: SocketAddr,
    },
    /// A registered stream has bytes to read (or a pending EOF).
    Readable(Token),
    /// A stream with write interest can take bytes again (or its write
    /// side failed, which the owner's next write reports).
    Writable(Token),
    /// A registered stream reported a socket error with nothing left to
    /// read; the owner should deregister it.
    Closed(Token),
}

/// The sending end of the wake pair, plus whether a wake byte is already
/// on its way to the loop.
#[derive(Debug)]
struct WakeSignal {
    tx: UnixStream,
    pending: AtomicBool,
}

/// A cheap, cloneable handle that interrupts [`Poll::poll`] from another
/// thread — the stand-in for mio's `Waker`.
#[derive(Debug, Clone)]
pub struct Waker {
    signal: Arc<WakeSignal>,
}

impl Waker {
    /// Wakes the owning [`Poll`] if it is blocked, or makes its next poll
    /// return immediately. Only the first call since the loop last drained
    /// the pair writes a byte, so a burst of wakes costs one write.
    pub fn wake(&self) {
        if !self.signal.pending.swap(true, Ordering::AcqRel) {
            // `WouldBlock` means the pair already holds unread bytes, so
            // the loop wakes regardless.
            let _ = (&self.signal.tx).write(&[1]);
        }
    }
}

#[derive(Debug)]
struct StreamEntry {
    stream: TcpStream,
    /// Muted streams stay registered (writable via [`Poll::stream`]) but
    /// are not polled for reading — how an owner stops consuming a
    /// connection (backpressure, half-close) without a hot loop of
    /// redundant `Readable` events.
    muted: bool,
    /// Poll for writability too (see [`Poll::set_write_interest`]).
    write_interest: bool,
}

/// What one `pollfd` entry stands for.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Waker,
    Listener(u64),
    Stream(u64),
}

/// The event loop core: registered listeners and streams, and the wake
/// pair. Owned by exactly one loop thread; only [`Waker`] handles cross
/// threads.
#[derive(Debug)]
pub struct Poll {
    listeners: BTreeMap<u64, TcpListener>,
    streams: BTreeMap<u64, StreamEntry>,
    signal: Arc<WakeSignal>,
    wake_rx: UnixStream,
    /// The `pollfd` array and what each entry stands for, rebuilt in place
    /// by every [`Poll::poll`] so a steady-state poll allocates nothing.
    fds: Vec<sys::PollFd>,
    slots: Vec<Slot>,
    next_token: u64,
}

impl Poll {
    /// An empty poll with no registrations.
    ///
    /// # Errors
    ///
    /// Creating the wake socket pair failed (out of file descriptors).
    pub fn new() -> io::Result<Self> {
        let (tx, wake_rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Poll {
            listeners: BTreeMap::new(),
            streams: BTreeMap::new(),
            signal: Arc::new(WakeSignal {
                tx,
                pending: AtomicBool::new(false),
            }),
            wake_rx,
            fds: Vec::new(),
            slots: Vec::new(),
            next_token: 0,
        })
    }

    /// A handle other threads can use to interrupt [`Poll::poll`].
    #[must_use]
    pub fn waker(&self) -> Waker {
        Waker {
            signal: Arc::clone(&self.signal),
        }
    }

    /// Registers a listener, switching it to non-blocking mode.
    pub fn register_listener(&mut self, listener: TcpListener) -> io::Result<Token> {
        listener.set_nonblocking(true)?;
        let token = self.alloc();
        self.listeners.insert(token.0, listener);
        Ok(token)
    }

    /// Registers a stream, switching it to non-blocking mode.
    pub fn register_stream(&mut self, stream: TcpStream) -> io::Result<Token> {
        stream.set_nonblocking(true)?;
        let token = self.alloc();
        self.streams.insert(
            token.0,
            StreamEntry {
                stream,
                muted: false,
                write_interest: false,
            },
        );
        Ok(token)
    }

    /// Removes a stream registration, returning the stream so the owner
    /// can flush, shut down, or drop it.
    pub fn deregister(&mut self, token: Token) -> Option<TcpStream> {
        self.streams.remove(&token.0).map(|entry| entry.stream)
    }

    /// Stops polling `token` for readability without deregistering it.
    /// The stream stays writable via [`Poll::stream`]; use for
    /// backpressure (stop consuming a connection that is ahead of the
    /// runtime) and for half-closed peers awaiting a final flush, where
    /// level-triggered readiness would otherwise spin the loop.
    pub fn mute(&mut self, token: Token) {
        if let Some(entry) = self.streams.get_mut(&token.0) {
            entry.muted = true;
        }
    }

    /// Resumes readability polling for a muted stream.
    pub fn unmute(&mut self, token: Token) {
        if let Some(entry) = self.streams.get_mut(&token.0) {
            entry.muted = false;
        }
    }

    /// Asks for [`Event::Writable`] on `token` (`true`) or stops asking.
    /// Set it after a short write and clear it once everything is written:
    /// writability is level-triggered too, so interest left on a writable
    /// stream makes every poll return at once.
    pub fn set_write_interest(&mut self, token: Token, interested: bool) {
        if let Some(entry) = self.streams.get_mut(&token.0) {
            entry.write_interest = interested;
        }
    }

    /// Removes a listener registration.
    pub fn deregister_listener(&mut self, token: Token) -> Option<TcpListener> {
        self.listeners.remove(&token.0)
    }

    /// Shared access to a registered stream (for reads and writes; the
    /// socket is non-blocking, so `&TcpStream`'s `Read`/`Write` impls
    /// never block).
    #[must_use]
    pub fn stream(&self, token: Token) -> Option<&TcpStream> {
        self.streams.get(&token.0).map(|entry| &entry.stream)
    }

    /// Blocks until a registration is ready, a [`Waker`] fires, or
    /// `timeout` passes (`None` waits as long as it takes).
    ///
    /// Appends events to `events` and returns how many were added. A wake
    /// returns with possibly zero events, so the caller can service
    /// cross-thread work like completion queues; a signal interrupting the
    /// wait does the same.
    pub fn poll(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let before = events.len();
        self.fds.clear();
        self.slots.clear();
        self.fds
            .push(sys::PollFd::new(self.wake_rx.as_raw_fd(), sys::POLLIN));
        self.slots.push(Slot::Waker);
        for (&tok, listener) in &self.listeners {
            self.fds
                .push(sys::PollFd::new(listener.as_raw_fd(), sys::POLLIN));
            self.slots.push(Slot::Listener(tok));
        }
        for (&tok, entry) in &self.streams {
            let mut interest = 0;
            if !entry.muted {
                interest |= sys::POLLIN;
            }
            if entry.write_interest {
                interest |= sys::POLLOUT;
            }
            if interest != 0 {
                self.fds
                    .push(sys::PollFd::new(entry.stream.as_raw_fd(), interest));
                self.slots.push(Slot::Stream(tok));
            }
        }
        if sys::poll_fds(&mut self.fds, timeout)? == 0 {
            return Ok(0);
        }
        for (fd, &slot) in self.fds.iter().zip(&self.slots) {
            let ready = fd.revents;
            if ready == 0 {
                continue;
            }
            match slot {
                Slot::Waker => drain_wakes(&self.wake_rx, &self.signal),
                Slot::Listener(tok) => {
                    if let Some(listener) = self.listeners.get(&tok) {
                        accept_backlog(Token(tok), listener, events)?;
                    }
                }
                Slot::Stream(tok) => {
                    let Some(entry) = self.streams.get(&tok) else {
                        continue;
                    };
                    let failed = ready & (sys::POLLERR | sys::POLLNVAL) != 0;
                    if !entry.muted {
                        // Bytes, EOF and a reset all read as `Readable`:
                        // the owner's read returns whichever it is.
                        if ready & (sys::POLLIN | sys::POLLHUP) != 0 {
                            events.push(Event::Readable(Token(tok)));
                        } else if failed {
                            events.push(Event::Closed(Token(tok)));
                        }
                    }
                    if entry.write_interest
                        && (failed || ready & (sys::POLLOUT | sys::POLLHUP) != 0)
                    {
                        events.push(Event::Writable(Token(tok)));
                    }
                }
            }
        }
        Ok(events.len() - before)
    }

    fn alloc(&mut self) -> Token {
        let token = Token(self.next_token);
        self.next_token += 1;
        token
    }
}

/// Empties the wake pair and re-arms [`Waker::wake`]. Runs inside
/// [`Poll::poll`], before the owner drains its completion queue: a wake
/// suppressed because one was already pending belongs to a completion
/// pushed before the flag is cleared here, so that drain sees it. The
/// flag itself publishes no data: producers push under the queue's own
/// lock before their `AcqRel` swap, and the owner drains under that lock
/// after this `Release` store, so a swap that reads the cleared flag
/// writes a fresh byte.
fn drain_wakes(mut rx: &UnixStream, signal: &WakeSignal) {
    let mut sink = [0u8; 64];
    while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
    signal.pending.store(false, Ordering::Release);
}

/// Drains a listener's accept backlog: each poll reports every connection
/// already queued.
fn accept_backlog(
    listener_token: Token,
    listener: &TcpListener,
    events: &mut Vec<Event>,
) -> io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                stream.set_nonblocking(true)?;
                events.push(Event::Accepted {
                    listener: listener_token,
                    stream,
                    peer,
                });
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // `WouldBlock` ends the backlog; other failures are one
            // connection's (a peer reset mid-handshake), not the
            // listener's.
            Err(_) => return Ok(()),
        }
    }
}

/// Blocks until a read on `stream` would not block (bytes, EOF, or a
/// pending error the read reports), or `timeout` passes (`None` waits as
/// long as it takes). Returns `Ok(true)` when readable, `Ok(false)` on
/// timeout.
///
/// The client-side counterpart to [`Poll`]: a [`crate::Link`] is a plain
/// non-blocking socket without a loop thread, and its waits for replies
/// go through here.
pub fn wait_readable(stream: &TcpStream, timeout: Option<Duration>) -> io::Result<bool> {
    wait_for(stream, sys::POLLIN, timeout)
}

/// [`wait_readable`] for the write side: blocks until a write on `stream`
/// would not block, or `timeout` passes.
pub fn wait_writable(stream: &TcpStream, timeout: Option<Duration>) -> io::Result<bool> {
    wait_for(stream, sys::POLLOUT, timeout)
}

fn wait_for(
    stream: &TcpStream,
    interest: sys::Events,
    timeout: Option<Duration>,
) -> io::Result<bool> {
    let mut fds = [sys::PollFd::new(stream.as_raw_fd(), interest)];
    Ok(sys::poll_fds(&mut fds, timeout)? > 0)
}

/// The `poll(2)` shim, home of the workspace's one `unsafe` block outside
/// test code: std links the C library on every Unix target already, so
/// declaring the one function is cheaper than any crate.
mod sys {
    use std::io::{self, ErrorKind};
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    /// The `events` / `revents` bit set of a `pollfd`.
    pub(super) type Events = c_short;

    pub(super) const POLLIN: Events = 0x001;
    pub(super) const POLLOUT: Events = 0x004;
    pub(super) const POLLERR: Events = 0x008;
    pub(super) const POLLHUP: Events = 0x010;
    pub(super) const POLLNVAL: Events = 0x020;

    /// C's `struct pollfd`, field for field.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub(super) struct PollFd {
        fd: c_int,
        events: Events,
        pub(super) revents: Events,
    }

    impl PollFd {
        pub(super) fn new(fd: c_int, events: Events) -> Self {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until an entry of `fds` is ready or `timeout` passes (`None`
    /// waits indefinitely), fills in every `revents`, and returns how many
    /// entries are ready. A signal interrupting the wait reads as a
    /// timeout; callers re-poll.
    pub(super) fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = match timeout {
            None => -1,
            // Rounded up: a sub-millisecond wait must not become a spin.
            Some(t) => c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX),
        };
        let nfds = Nfds::try_from(fds.len())
            .map_err(|_| io::Error::new(ErrorKind::InvalidInput, "too many descriptors to poll"))?;
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` `pollfd`s and `nfds` is its length, so the kernel
        // reads and writes only inside it, and keeps no pointer past the
        // call. Every `fd` belongs to a socket the caller holds open.
        let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
        match usize::try_from(ready) {
            Ok(n) => Ok(n),
            Err(_) => {
                let e = io::Error::last_os_error();
                if e.kind() == ErrorKind::Interrupted {
                    Ok(0)
                } else {
                    Err(e)
                }
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests drive the loop from blocking peers and time it against the wall clock"
)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    const LONG: Option<Duration> = Some(Duration::from_secs(2));
    const SHORT: Option<Duration> = Some(Duration::from_millis(20));

    #[test]
    fn accept_surfaces_as_an_event() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poll = Poll::new().unwrap();
        let ltok = poll.register_listener(listener).unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        let n = poll.poll(&mut events, LONG).unwrap();
        assert!(n >= 1);
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Accepted { listener, .. } if *listener == ltok)));
    }

    #[test]
    fn readable_is_level_triggered_until_drained() {
        let (mut writer, reader) = pair();
        let mut poll = Poll::new().unwrap();
        let tok = poll.register_stream(reader).unwrap();
        writer.write_all(b"hi").unwrap();
        writer.flush().unwrap();

        for _ in 0..2 {
            let mut events = Vec::new();
            poll.poll(&mut events, LONG).unwrap();
            assert!(events
                .iter()
                .any(|e| matches!(e, Event::Readable(t) if *t == tok)));
        }

        // Drain, then expect a quiet poll (timeout, zero events).
        let mut stream = poll.stream(tok).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(stream.read(&mut buf).unwrap(), 2);
        let mut events = Vec::new();
        let n = poll.poll(&mut events, SHORT).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn eof_reports_readable() {
        let (writer, reader) = pair();
        let mut poll = Poll::new().unwrap();
        let tok = poll.register_stream(reader).unwrap();
        drop(writer);
        let mut events = Vec::new();
        poll.poll(&mut events, LONG).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Readable(t) | Event::Closed(t) if *t == tok)));
        let mut stream = poll.stream(tok).unwrap();
        let mut buf = [0u8; 4];
        // The read observes the EOF (or the reset, on some platforms).
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => {}
            other => panic!("expected EOF, got {other:?}"),
        }
    }

    #[test]
    fn a_muted_streams_eof_is_not_reported() {
        let (writer, reader) = pair();
        let mut poll = Poll::new().unwrap();
        let tok = poll.register_stream(reader).unwrap();
        poll.mute(tok);
        drop(writer);
        let mut events = Vec::new();
        assert_eq!(poll.poll(&mut events, SHORT).unwrap(), 0, "{events:?}");
    }

    #[test]
    fn waker_interrupts_a_long_wait() {
        let mut poll = Poll::new().unwrap();
        let waker = poll.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let start = Instant::now();
        let mut events = Vec::new();
        poll.poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    #[test]
    fn wake_before_poll_is_not_lost() {
        let mut poll = Poll::new().unwrap();
        poll.waker().wake();
        let start = Instant::now();
        let mut events = Vec::new();
        poll.poll(&mut events, None).unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        // Drained: the next poll waits out its timeout.
        assert_eq!(poll.poll(&mut events, SHORT).unwrap(), 0);
    }

    /// Polls once with a long timeout; `true` if something cut it short.
    fn woken(poll: &mut Poll) -> bool {
        let start = Instant::now();
        let mut events = Vec::new();
        poll.poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");
        start.elapsed() < Duration::from_secs(5)
    }

    #[test]
    fn a_storm_of_wakes_never_blocks_and_is_seen() {
        let mut poll = Poll::new().unwrap();
        let storm = |waker: Waker| {
            std::thread::spawn(move || {
                for _ in 0..10_000 {
                    waker.wake();
                }
            })
        };
        // Nobody drains the pair during this storm: only the first wake
        // writes, so the others cannot fill its buffer and block.
        storm(poll.waker()).join().unwrap();
        assert!(woken(&mut poll));
        // A storm racing a polling loop: every wake after the loop's last
        // drain still reaches it.
        let racing = storm(poll.waker());
        let mut events = Vec::new();
        while !racing.is_finished() {
            poll.poll(&mut events, SHORT).unwrap();
        }
        racing.join().unwrap();
        poll.poll(&mut events, Some(Duration::ZERO)).unwrap();
        poll.waker().wake();
        assert!(woken(&mut poll));
    }

    #[test]
    fn write_interest_reports_when_the_peer_drains() {
        let (mut peer, ours) = pair();
        let mut poll = Poll::new().unwrap();
        let tok = poll.register_stream(ours).unwrap();
        poll.mute(tok);
        // Fill both socket buffers: the peer is not reading.
        let chunk = [7u8; 64 * 1024];
        let mut written = 0usize;
        loop {
            match poll.stream(tok).unwrap().write(&chunk) {
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("{e}"),
            }
        }
        poll.set_write_interest(tok, true);
        let mut events = Vec::new();
        assert_eq!(poll.poll(&mut events, SHORT).unwrap(), 0, "{events:?}");

        let reader = std::thread::spawn(move || {
            let mut buf = vec![0u8; written];
            peer.read_exact(&mut buf).unwrap();
            peer
        });
        let start = Instant::now();
        poll.poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Writable(t) if *t == tok)));
        let _peer = reader.join().unwrap();

        // Cleared interest on an idle stream: quiet again.
        poll.set_write_interest(tok, false);
        events.clear();
        assert_eq!(poll.poll(&mut events, SHORT).unwrap(), 0, "{events:?}");
    }

    #[test]
    fn tokens_are_never_reused() {
        let (_w1, r1) = pair();
        let (_w2, r2) = pair();
        let mut poll = Poll::new().unwrap();
        let t1 = poll.register_stream(r1).unwrap();
        poll.deregister(t1).unwrap();
        let t2 = poll.register_stream(r2).unwrap();
        assert_ne!(t1, t2);
    }

    #[test]
    fn muted_streams_are_skipped_until_unmuted() {
        let (mut writer, reader) = pair();
        let mut poll = Poll::new().unwrap();
        let tok = poll.register_stream(reader).unwrap();
        writer.write_all(b"hi").unwrap();
        writer.flush().unwrap();
        poll.mute(tok);
        let mut events = Vec::new();
        let n = poll.poll(&mut events, SHORT).unwrap();
        assert_eq!(n, 0, "muted stream still reported readiness");
        // The stream stays registered and usable while muted.
        assert!(poll.stream(tok).is_some());
        poll.unmute(tok);
        poll.poll(&mut events, LONG).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Readable(t) if *t == tok)));
    }

    #[test]
    fn wait_readable_sees_bytes_and_times_out_without() {
        let (mut writer, reader) = pair();
        reader.set_nonblocking(true).unwrap();
        assert!(!wait_readable(&reader, Some(Duration::from_millis(10))).unwrap());
        writer.write_all(b"x").unwrap();
        writer.flush().unwrap();
        assert!(wait_readable(&reader, LONG).unwrap());
    }

    #[test]
    fn wait_writable_sees_room() {
        let (writer, _reader) = pair();
        assert!(wait_writable(&writer, LONG).unwrap());
    }
}
