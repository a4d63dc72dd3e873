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
//! The table is a [`Slab`] and a token is a socket's slab key as a
//! fixnum — the slot index in the low bits, the slot's generation above —
//! so `%tcp-*` builtins are O(1) and a token names one socket: closing a
//! socket retires its key, so a token kept past its close — by the guest,
//! or by the embedder scrapping a connection handler's socket — is
//! refused as `bad socket token` instead of naming the slot's next socket.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;

use oneshot_core::{Key, Slab};

use crate::error::{ConditionKind, VmError};

/// One open socket.
#[derive(Debug)]
pub(crate) enum Sock {
    /// A listening socket.
    Listener(TcpListener),
    /// A connected (or accepted, or adopted) stream.
    Stream(TcpStream),
}

/// One open socket and who opened it.
#[derive(Debug)]
struct Open {
    sock: Sock,
    /// The owner set when the socket was inserted.
    owner: Option<Key>,
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
    /// The open sockets.
    socks: Slab<Open>,
    /// Bits of a token that hold the slot index: enough for `cap` slots.
    /// The generation takes the bits above, up to [`TOKEN_BITS`].
    shift: u32,
    /// The owner new sockets are attributed to (see [`Vm::set_socket_owner`]
    /// (crate::Vm::set_socket_owner)).
    owner: Option<Key>,
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

/// Every token is below `2^TOKEN_BITS`: a positive fixnum.
const TOKEN_BITS: u32 = 49;

fn io_error(message: String) -> VmError {
    VmError::Condition { kind: ConditionKind::IoError, message }
}

fn io_err(who: &str, e: std::io::Error) -> VmError {
    io_error(format!("{who}: {e}"))
}

fn bad_token(who: &str, token: i64) -> VmError {
    io_error(format!("{who}: bad socket token {token}"))
}

impl NetTable {
    pub(crate) fn new(cap: usize) -> Self {
        NetTable {
            socks: Slab::new(),
            shift: (usize::BITS - cap.saturating_sub(1).leading_zeros()).min(TOKEN_BITS - 1),
            owner: None,
            cap,
            closed_log: Vec::new(),
            owed_log: Vec::new(),
            rbuf: Vec::new(),
            wbuf: Vec::new(),
        }
    }

    /// Number of open sockets.
    pub(crate) fn live(&self) -> usize {
        self.socks.len()
    }

    fn insert(&mut self, who: &str, sock: Sock) -> Result<i64, VmError> {
        if self.socks.len() >= self.cap {
            return Err(io_error(format!("{who}: too many open sockets (limit {})", self.cap)));
        }
        // At most `cap` sockets are ever open and freed slots are reused
        // first, so every index fits in `shift` bits.
        let key = self.socks.insert(Open { sock, owner: self.owner });
        Ok(self.token(key))
    }

    /// The token of the socket `key` names: the generation, cut to the
    /// bits above the index that [`TOKEN_BITS`] leaves, over the index.
    fn token(&self, key: Key) -> i64 {
        let gen = i64::from(key.generation()) & ((1 << (TOKEN_BITS - self.shift)) - 1);
        gen << self.shift | i64::from(key.index())
    }

    /// The key of the open socket `token` names, if the token was issued
    /// for it and not for an earlier socket in its slot.
    fn index(&self, token: i64) -> Option<Key> {
        let key = self.socks.key_at(u32::try_from(token & ((1 << self.shift) - 1)).ok()?)?;
        (self.token(key) == token).then_some(key)
    }

    pub(crate) fn set_owner(&mut self, owner: Option<Key>) {
        self.owner = owner;
    }

    /// Closes every open socket `owner` opened.
    pub(crate) fn close_owned_by(&mut self, owner: Key) {
        for i in 0..self.socks.slot_count() {
            if let Some(key) = self.socks.key_at(i).filter(|&k| self.socks[k].owner == Some(owner))
            {
                self.close_key(key);
            }
        }
    }

    /// The socket `at` names (from [`NetTable::index`] of `token`). Takes
    /// the slab, not the table, so callers can hold a buffer of the table
    /// at the same time.
    fn sock<'a>(
        at: Option<Key>,
        socks: &'a mut Slab<Open>,
        who: &str,
        token: i64,
    ) -> Result<&'a mut Sock, VmError> {
        at.and_then(|k| socks.get_mut(k)).map(|o| &mut o.sock).ok_or_else(|| bad_token(who, token))
    }

    /// The stream `at` names, as for [`NetTable::sock`].
    fn stream<'a>(
        at: Option<Key>,
        socks: &'a mut Slab<Open>,
        who: &str,
        token: i64,
    ) -> Result<&'a mut TcpStream, VmError> {
        match Self::sock(at, socks, who, token)? {
            Sock::Stream(s) => Ok(s),
            Sock::Listener(_) => Err(bad_token(&format!("{who}: not a stream"), token)),
        }
    }

    /// The raw file descriptor behind `token`, for reactor registration.
    pub(crate) fn fd(&self, token: i64) -> Option<i64> {
        match &self.socks[self.index(token)?].sock {
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
        match Self::sock(self.index(token), &mut self.socks, "tcp-local-port", token)? {
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
        let sock = Self::sock(self.index(token), &mut self.socks, "tcp-accept", token)?;
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
        let s = Self::stream(self.index(token), &mut self.socks, "tcp-read", token)?;
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
        let s = Self::stream(self.index(token), &mut self.socks, "tcp-write", token)?;
        match s.write(&self.wbuf[..len]) {
            Ok(n) => Ok(Some(n)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(io_err("tcp-write", e)),
        }
    }

    /// Closes `token`. Closing an already-closed token is a no-op (`false`).
    pub(crate) fn close(&mut self, token: i64) -> bool {
        self.index(token).is_some_and(|k| self.close_key(k))
    }

    /// Closes the socket `key` names, if it is open, and retires its token.
    fn close_key(&mut self, key: Key) -> bool {
        let Some(Open { sock, .. }) = self.socks.remove(key) else {
            return false;
        };
        let fd = match &sock {
            Sock::Listener(l) => l.as_raw_fd(),
            Sock::Stream(s) => s.as_raw_fd(),
        };
        self.closed_log.push(fd);
        true
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
        let key = t.index(accepted).expect("the accepted token is live");
        let Some(Open { sock: Sock::Stream(s), .. }) = t.socks.remove(key) else {
            panic!("accepted slot vanished")
        };
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

    #[test]
    fn a_closed_token_never_names_its_slots_next_socket() {
        let mut t = NetTable::new(4);
        let l = t.listen(0).unwrap();
        let port = u16::try_from(t.local_port(l).unwrap()).unwrap();
        let old = t.connect(port).unwrap();
        assert!(t.close(old));
        let new = t.connect(port).unwrap();
        assert_ne!(new, old, "the reused slot issues a fresh token");
        assert!(t.fd(old).is_none());
        let e = t.read(old, 10).unwrap_err();
        assert!(e.to_string().contains("bad socket token"), "{e}");
        assert!(!t.close(old));
        assert!(t.fd(new).is_some(), "the old token's close left the new socket open");
        assert_eq!(t.live(), 2);
    }
}
