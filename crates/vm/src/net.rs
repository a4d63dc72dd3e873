//! Nonblocking TCP for the guest: a slab of sockets keyed by fixnum
//! tokens.
//!
//! The VM itself never blocks on a socket. Every operation that would
//! block returns a would-block sentinel (`#f` at the builtin layer); the
//! retry loop lives in Scheme (`io.scm` in `oneshot-threads`), where
//! `%engine-block` takes the running slice's one-shot subcontinuation
//! (`%take-subcont` up to the engine prompt) and yields the worker until
//! the reactor reports readiness. Keeping the table inside the VM means sockets are owned by
//! the worker that runs the guest, and a worker reset (VM rebuild) closes
//! every socket of the jobs it killed.
//!
//! Tokens are dense indices with a free list, so `%tcp-*` builtins are
//! O(1) and a stale token is caught (slot `None` or reused slot — the
//! guest protocol never retains tokens past `%tcp-close`).

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;

use crate::error::VmError;

/// One open socket.
#[derive(Debug)]
pub(crate) enum Sock {
    /// A listening socket.
    Listener(TcpListener),
    /// A connected (or accepted, or adopted) stream.
    Stream(TcpStream),
}

/// Outcome of a nonblocking read.
#[derive(Debug)]
pub(crate) enum ReadOutcome<'a> {
    /// Bytes arrived (borrowed from the table's read buffer).
    Data(&'a [u8]),
    /// The peer closed its write side.
    Eof,
    /// Nothing available yet — suspend and retry.
    WouldBlock,
}

/// The per-VM socket table.
#[derive(Debug)]
pub(crate) struct NetTable {
    slots: Vec<Option<Sock>>,
    /// Who opened each slot's socket: the owner set when it was inserted.
    owners: Vec<Option<i64>>,
    /// The owner new sockets are attributed to (see [`Vm::set_socket_owner`]
    /// (crate::Vm::set_socket_owner)).
    owner: Option<i64>,
    free: Vec<usize>,
    live: usize,
    /// Open-socket ceiling; exceeding it raises a catchable `io-error`
    /// condition instead of hitting the process fd limit.
    cap: usize,
    /// Raw fds the guest closed since the last drain. The worker feeds
    /// these to its reactor so waiters on a closed socket are woken with
    /// an error retry instead of wedging — edge-triggered `epoll` drops
    /// interest in a closed fd silently, so the close itself must tell
    /// the reactor.
    closed_log: Vec<i32>,
    /// Raw fds an injected spurious would-block reported not ready while
    /// they were. Edge-triggered `epoll` will not report that readiness
    /// again, so the worker hands it back to its reactor.
    owed_log: Vec<i32>,
    /// Read buffer shared by every `read`, grown to the largest request
    /// seen: a would-block probe allocates and zeroes nothing.
    rbuf: Vec<u8>,
    /// Encoded bytes of the `write` in progress, reused likewise.
    wbuf: Vec<u8>,
}

fn io_err(who: &str, e: std::io::Error) -> VmError {
    VmError::Condition { kind: "io-error", message: format!("{who}: {e}") }
}

fn bad_token(who: &str, token: i64) -> VmError {
    VmError::Condition { kind: "io-error", message: format!("{who}: bad socket token {token}") }
}

impl NetTable {
    pub(crate) fn new(cap: usize) -> Self {
        NetTable {
            slots: Vec::new(),
            owners: Vec::new(),
            owner: None,
            free: Vec::new(),
            live: 0,
            cap,
            closed_log: Vec::new(),
            owed_log: Vec::new(),
            rbuf: Vec::new(),
            wbuf: Vec::new(),
        }
    }

    /// Number of open sockets.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    fn insert(&mut self, who: &str, sock: Sock) -> Result<i64, VmError> {
        if self.live >= self.cap {
            return Err(VmError::Condition {
                kind: "io-error",
                message: format!("{who}: too many open sockets (limit {})", self.cap),
            });
        }
        self.live += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(sock);
                self.owners[i] = self.owner;
                i
            }
            None => {
                self.slots.push(Some(sock));
                self.owners.push(self.owner);
                self.slots.len() - 1
            }
        };
        Ok(idx as i64)
    }

    pub(crate) fn set_owner(&mut self, owner: Option<i64>) {
        self.owner = owner;
    }

    /// Closes every open socket `owner` opened.
    pub(crate) fn close_owned_by(&mut self, owner: i64) {
        for i in 0..self.slots.len() {
            if self.owners[i] == Some(owner) {
                self.close(i as i64);
            }
        }
    }

    /// The socket behind `token`. Takes the slot vector, not the table,
    /// so callers can hold a buffer of the table at the same time.
    fn sock<'a>(
        slots: &'a mut [Option<Sock>],
        who: &str,
        token: i64,
    ) -> Result<&'a mut Sock, VmError> {
        usize::try_from(token)
            .ok()
            .and_then(|i| slots.get_mut(i))
            .and_then(|s| s.as_mut())
            .ok_or_else(|| bad_token(who, token))
    }

    /// The stream behind `token`.
    fn stream<'a>(
        slots: &'a mut [Option<Sock>],
        who: &str,
        token: i64,
    ) -> Result<&'a mut TcpStream, VmError> {
        match Self::sock(slots, who, token)? {
            Sock::Stream(s) => Ok(s),
            Sock::Listener(_) => Err(bad_token(&format!("{who}: not a stream"), token)),
        }
    }

    /// The raw file descriptor behind `token`, for reactor registration.
    pub(crate) fn fd(&self, token: i64) -> Option<i64> {
        let slot = usize::try_from(token).ok().and_then(|i| self.slots.get(i))?;
        match slot.as_ref()? {
            Sock::Listener(l) => Some(i64::from(l.as_raw_fd())),
            Sock::Stream(s) => Some(i64::from(s.as_raw_fd())),
        }
    }

    /// Binds a nonblocking listener on 127.0.0.1. `port` 0 asks the OS to
    /// pick one (read it back with [`NetTable::local_port`]).
    pub(crate) fn listen(&mut self, port: u16) -> Result<i64, VmError> {
        self.listen_on("127.0.0.1", port)
    }

    /// Binds a nonblocking listener on `host`:`port` — real `AF_INET`
    /// (any local address), not just loopback.
    pub(crate) fn listen_on(&mut self, host: &str, port: u16) -> Result<i64, VmError> {
        let l = TcpListener::bind((host, port)).map_err(|e| io_err("tcp-listen", e))?;
        l.set_nonblocking(true).map_err(|e| io_err("tcp-listen", e))?;
        self.insert("tcp-listen", Sock::Listener(l))
    }

    /// The local port a listener is bound to.
    pub(crate) fn local_port(&mut self, token: i64) -> Result<i64, VmError> {
        match Self::sock(&mut self.slots, "tcp-local-port", token)? {
            Sock::Listener(l) => {
                let addr = l.local_addr().map_err(|e| io_err("tcp-local-port", e))?;
                Ok(i64::from(addr.port()))
            }
            Sock::Stream(s) => {
                let addr = s.local_addr().map_err(|e| io_err("tcp-local-port", e))?;
                Ok(i64::from(addr.port()))
            }
        }
    }

    /// Accepts one pending connection; `Ok(None)` means would-block.
    pub(crate) fn accept(&mut self, token: i64) -> Result<Option<i64>, VmError> {
        let sock = Self::sock(&mut self.slots, "tcp-accept", token)?;
        let Sock::Listener(l) = sock else {
            return Err(bad_token("tcp-accept: not a listener", token));
        };
        match l.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(true).map_err(|e| io_err("tcp-accept", e))?;
                s.set_nodelay(true).map_err(|e| io_err("tcp-accept", e))?;
                self.insert("tcp-accept", Sock::Stream(s)).map(Some)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(io_err("tcp-accept", e)),
        }
    }

    /// Connects to 127.0.0.1:`port`. The connect itself is blocking (a
    /// loopback connect completes immediately once accepted by the
    /// backlog); the stream is then switched to nonblocking for all
    /// subsequent I/O.
    pub(crate) fn connect(&mut self, port: u16) -> Result<i64, VmError> {
        self.connect_to("127.0.0.1", port)
    }

    /// Connects to `host`:`port` — real `AF_INET`, same blocking-connect /
    /// nonblocking-I/O contract as [`NetTable::connect`].
    pub(crate) fn connect_to(&mut self, host: &str, port: u16) -> Result<i64, VmError> {
        let s = TcpStream::connect((host, port)).map_err(|e| io_err("tcp-connect", e))?;
        s.set_nonblocking(true).map_err(|e| io_err("tcp-connect", e))?;
        s.set_nodelay(true).map_err(|e| io_err("tcp-connect", e))?;
        self.insert("tcp-connect", Sock::Stream(s))
    }

    /// Adopts a stream the embedder accepted (shared listener): it enters
    /// the table like any connected socket. The stream must already be
    /// nonblocking.
    pub(crate) fn adopt(&mut self, s: TcpStream) -> Result<i64, VmError> {
        self.insert("conn-adopt", Sock::Stream(s))
    }

    /// Moves the fds closed since the last call into `out`.
    pub(crate) fn drain_closed(&mut self, out: &mut Vec<i32>) {
        out.append(&mut self.closed_log);
    }

    /// Logs `token`'s fd as still ready after an injected would-block.
    pub(crate) fn owe(&mut self, token: i64) {
        if let Some(fd) = self.fd(token) {
            self.owed_log.push(fd as i32);
        }
    }

    /// Moves the fds logged by [`NetTable::owe`] since the last call into
    /// `out`.
    pub(crate) fn drain_owed(&mut self, out: &mut Vec<i32>) {
        out.append(&mut self.owed_log);
    }

    /// Reads at most `max` bytes into the table's read buffer.
    pub(crate) fn read(&mut self, token: i64, max: usize) -> Result<ReadOutcome<'_>, VmError> {
        let s = Self::stream(&mut self.slots, "tcp-read", token)?;
        let max = max.clamp(1, 1 << 20);
        if self.rbuf.len() < max {
            self.rbuf.resize(max, 0);
        }
        match s.read(&mut self.rbuf[..max]) {
            Ok(0) => Ok(ReadOutcome::Eof),
            Ok(n) => Ok(ReadOutcome::Data(&self.rbuf[..n])),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(ReadOutcome::WouldBlock),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(ReadOutcome::WouldBlock),
            Err(e) => Err(io_err("tcp-read", e)),
        }
    }

    /// Encodes `chars` as latin-1 into the table's write buffer, for
    /// [`NetTable::write_encoded`]. Returns the byte count, or `None` if
    /// a char does not fit in one byte.
    pub(crate) fn encode_latin1(&mut self, chars: &[char]) -> Option<usize> {
        self.wbuf.clear();
        for &c in chars {
            self.wbuf.push(u8::try_from(u32::from(c)).ok()?);
        }
        Some(self.wbuf.len())
    }

    /// Writes the first `len` bytes of the write buffer; `Ok(None)` means
    /// would-block (nothing written).
    pub(crate) fn write_encoded(
        &mut self,
        token: i64,
        len: usize,
    ) -> Result<Option<usize>, VmError> {
        let s = Self::stream(&mut self.slots, "tcp-write", token)?;
        match s.write(&self.wbuf[..len]) {
            Ok(n) => Ok(Some(n)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(io_err("tcp-write", e)),
        }
    }

    /// Closes `token`. Closing an already-closed token is a no-op (`false`).
    pub(crate) fn close(&mut self, token: i64) -> bool {
        let Some(slot) = usize::try_from(token).ok().and_then(|i| self.slots.get_mut(i)) else {
            return false;
        };
        if let Some(sock) = slot.take() {
            let fd = match &sock {
                Sock::Listener(l) => l.as_raw_fd(),
                Sock::Stream(s) => s.as_raw_fd(),
            };
            self.closed_log.push(fd);
            self.live -= 1;
            self.free.push(token as usize);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_connect_echo_roundtrip_via_table() {
        let mut t = NetTable::new(16);
        let l = t.listen(0).unwrap();
        let port = t.local_port(l).unwrap();
        let c = t.connect(u16::try_from(port).unwrap()).unwrap();
        // Accept may need a beat for the connect to land in the backlog.
        let a = loop {
            if let Some(a) = t.accept(l).unwrap() {
                break a;
            }
            std::thread::yield_now();
        };
        assert_eq!(t.encode_latin1(&['p', 'i', 'n', 'g']), Some(4));
        assert_eq!(t.encode_latin1(&['\u{100}']), None, "not latin-1");
        assert_eq!(t.encode_latin1(&['p', 'i', 'n', 'g']), Some(4));
        assert_eq!(t.write_encoded(c, 4).unwrap(), Some(4));
        let data = loop {
            match t.read(a, 64).unwrap() {
                ReadOutcome::Data(d) => break d.to_vec(),
                ReadOutcome::WouldBlock => std::thread::yield_now(),
                ReadOutcome::Eof => panic!("eof before data"),
            }
        };
        assert_eq!(data, b"ping");
        assert_eq!(t.live(), 3);
        assert!(t.close(c));
        assert!(!t.close(c));
        // Peer closed: the accepted side reads EOF once drained.
        let eof = loop {
            match t.read(a, 64).unwrap() {
                ReadOutcome::Eof => break true,
                ReadOutcome::WouldBlock => std::thread::yield_now(),
                ReadOutcome::Data(_) => {}
            }
        };
        assert!(eof);
        t.close(a);
        t.close(l);
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn socket_cap_is_a_catchable_condition() {
        let mut t = NetTable::new(1);
        let _l = t.listen(0).unwrap();
        let e = t.listen(0).unwrap_err();
        assert_eq!(e.condition_kind(), Some("io-error"));
    }

    #[test]
    fn adopted_stream_closes_are_logged() {
        let mut t = NetTable::new(16);
        let l = t.listen_on("127.0.0.1", 0).unwrap();
        let port = t.local_port(l).unwrap();
        let c = t.connect_to("127.0.0.1", u16::try_from(port).unwrap()).unwrap();
        let accepted = loop {
            if let Some(tok) = t.accept(l).unwrap() {
                break tok;
            }
            std::thread::yield_now();
        };
        // Re-adopt the accepted stream through the embedder path.
        let Some(Sock::Stream(s)) =
            t.slots.get_mut(usize::try_from(accepted).unwrap()).and_then(Option::take)
        else {
            panic!("accepted slot vanished")
        };
        t.live -= 1;
        t.free.push(usize::try_from(accepted).unwrap());
        let adopted = t.adopt(s).unwrap();
        let fd = i32::try_from(t.fd(adopted).unwrap()).unwrap();
        assert!(t.close(adopted));
        let mut closed = Vec::new();
        t.drain_closed(&mut closed);
        assert!(closed.contains(&fd), "close logged the adopted fd");
        t.drain_closed(&mut closed);
        t.close(c);
        t.close(l);
        let n = closed.len();
        t.drain_closed(&mut closed);
        assert_eq!(closed.len(), n + 2, "every close logs exactly one fd");
    }

    #[test]
    fn stale_tokens_are_io_errors() {
        let mut t = NetTable::new(4);
        let e = t.read(7, 10).unwrap_err();
        assert_eq!(e.condition_kind(), Some("io-error"));
    }
}
