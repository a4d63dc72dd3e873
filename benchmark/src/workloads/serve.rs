//! `serve-echo` and `serve-churn`: one `Pool::serve` echo server, loaded
//! two ways by one `std::net` client thread. (A Rust client, not guest
//! clients: a guest load generator would share the single worker's CPU
//! with the server it is measuring.)
//!
//! `serve-echo` keeps a resident set of connections open — each one a
//! handler parked in `tcp-read`, a sealed one-shot continuation — and
//! sends round trips over them, so the reactor re-arms and wakes warm fds.
//! `serve-churn` has no resident set: every operation is connect, one
//! round trip, close, so accept routing, handler spawn and interest
//! add/delete do the work instead. The same layers, used the other way;
//! a gain for one that taxes the other shows.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::{
    Block, LayerCounters, Scale, Teardown, Workload, ECHO_WINDOW, PAYLOAD_BYTES, POOL_FUEL_SLICE,
};
use crate::api::{Audit, JobPool, Listener};
use crate::rng::Rng;
use crate::trace::{At, Tracer};

const HANDLER: &str = include_str!("../../scheme/echo-handler.scm");

/// Connections opened back to back before waiting for the acceptor to
/// catch up. Unpaced, a thousand sequential connects overrun the listen
/// backlog and stall in SYN retransmits for seconds, which would make
/// `setup_s` meaningless.
const RAMP_BURST: usize = 64;
/// Handler jobs resident beyond the resident connections (churn's
/// short-lived handlers, the audit job).
const RESIDENT_SLACK: usize = 64;
const PATIENCE: Duration = Duration::from_secs(20);
/// Loopback addresses the client spreads its connections over.
const LOOPBACK_ADDRESSES: u64 = 250;

/// The echo server and the handler outcomes it has reported.
pub struct Server {
    pool: JobPool,
    listener: Listener,
    served: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    first_failure: Arc<Mutex<Option<String>>>,
    after_setup: Audit,
}

fn wait_until(what: &str, mut ready: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    while !ready() {
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

impl Server {
    fn start(resident: usize) -> Result<Server, String> {
        let pool = JobPool::start(POOL_FUEL_SLICE, resident + RESIDENT_SLACK)?;
        let after_setup = pool.audit()?;
        let served = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicU64::new(0));
        let first_failure = Arc::new(Mutex::new(None));
        let want = crate::expected::answer("(echo-handler)")?;
        let (s, f, first) = (Arc::clone(&served), Arc::clone(&failed), Arc::clone(&first_failure));
        let listener = pool.serve(HANDLER, move |result| match result {
            Ok(got) if got == want => {
                s.fetch_add(1, Ordering::Relaxed);
            }
            other => {
                f.fetch_add(1, Ordering::Relaxed);
                let mut slot = first.lock().expect("complaint slot");
                slot.get_or_insert_with(|| format!("handler ended with {other:?}"));
            }
        })?;
        Ok(Server { pool, listener, served, failed, first_failure, after_setup })
    }

    /// Connection `id` goes to loopback address `id mod 250`. One address
    /// would do, were it not for the kernel: a closed connection's local
    /// port stays in TIME_WAIT, unusable towards the same address and port
    /// for a second, and there are only some 28 000 of them — so past about
    /// 20 000 connections a second to one address, `connect` spends
    /// milliseconds hunting for a free port. That is the client's kernel,
    /// not the server under test.
    fn connect(&self, t: &mut Tracer, id: u64) -> std::io::Result<TcpStream> {
        let to = Ipv4Addr::new(127, 0, 0, 1 + (id % LOOPBACK_ADDRESSES) as u8);
        let span = t.enter(At::ClientConnect, id);
        let stream = TcpStream::connect((to, self.listener.port()));
        t.exit(span);
        let stream = stream?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn handlers_ended(&self) -> u64 {
        self.served.load(Ordering::Relaxed) + self.failed.load(Ordering::Relaxed)
    }

    /// Every accepted connection's handler has seen its peer close and
    /// returned.
    fn wait_drained(&self) -> Result<(), String> {
        wait_until("handlers to drain", || self.handlers_ended() >= self.listener.accepted())
    }

    /// Handler failures since the last call count against the block that
    /// caused them.
    fn charge_handler_failures(&self, block: &mut Block, seen: &mut u64) {
        let failed = self.failed.load(Ordering::Relaxed);
        if failed > *seen {
            let what = self.first_failure.lock().expect("complaint slot").clone();
            for _ in *seen..failed {
                block.complain(what.clone().unwrap_or_default());
            }
            *seen = failed;
        }
    }

    fn counters(&self) -> Result<LayerCounters, String> {
        Ok(LayerCounters { vm: self.pool.vm_counters()?, pool: Some(self.pool.snapshot()) })
    }

    fn stop(self, t: &mut Tracer) -> Result<Teardown, String> {
        self.wait_drained()?;
        let audit = self.pool.audit()?;
        let shutdown_s = self.pool.shutdown(t)?;
        Ok(Teardown {
            leaked_sockets: audit.open_sockets,
            leaked_segments: (audit.live_segments - self.after_setup.live_segments).max(0),
            shutdown_s,
        })
    }
}

fn write_payload(
    t: &mut Tracer,
    s: &mut TcpStream,
    payload: &[u8],
    id: u64,
) -> std::io::Result<()> {
    let span = t.enter(At::ClientWrite, id);
    let r = s.write_all(payload);
    t.exit(span);
    r
}

/// Reads exactly `want.len()` bytes and compares them byte for byte.
fn read_echo(t: &mut Tracer, s: &mut TcpStream, want: &[u8], id: u64) -> Result<(), String> {
    let mut got = [0u8; 4096];
    let got = &mut got[..want.len()];
    let span = t.enter(At::ClientRead, id);
    let r = s.read_exact(got);
    t.exit(span);
    r.map_err(|e| format!("read: {e}"))?;
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "echo differs: sent {:?}, got {:?}",
            String::from_utf8_lossy(want),
            String::from_utf8_lossy(got)
        ))
    }
}

// ----------------------------------------------------------------------
// serve-echo
// ----------------------------------------------------------------------

pub struct ServeEcho {
    server: Server,
    conns: Vec<TcpStream>,
    handler_failures_seen: u64,
}

struct InFlight {
    conn: usize,
    request: u64,
    sent: Instant,
}

impl ServeEcho {
    /// A server with `resident` connections open and every handler parked
    /// in `tcp-read`.
    pub fn with_resident(t: &mut Tracer, resident: usize) -> Result<ServeEcho, String> {
        let server = Server::start(resident)?;
        let mut conns = Vec::with_capacity(resident);
        while conns.len() < resident {
            for _ in 0..RAMP_BURST.min(resident - conns.len()) {
                let id = conns.len() as u64;
                conns.push(server.connect(t, id).map_err(|e| format!("ramp connect: {e}"))?);
            }
            let opened = conns.len() as u64;
            wait_until("the acceptor to catch up", || server.listener.accepted() >= opened)?;
        }
        // Parked state is the thing under test: do not start measuring
        // until all of it exists.
        wait_until("every handler to park", || {
            server.pool.snapshot().blocked_highwater() >= resident as u64
        })?;
        Ok(ServeEcho { server, conns, handler_failures_seen: 0 })
    }

    /// `ops` echo round trips of `payload_bytes` (at most 4096), `window`
    /// in flight, each on a connection drawn from the resident set.
    /// Replies are read oldest first.
    pub fn round_trips(
        &mut self,
        t: &mut Tracer,
        rng: &mut Rng,
        ops: u64,
        window: usize,
        payload_bytes: usize,
        block: &mut Block,
    ) {
        let window = window.min(self.conns.len());
        let mut busy = vec![false; self.conns.len()];
        // Request `r` keeps its payload in slot `r % window` until its
        // reply is checked; replies are taken in order, so a slot is free
        // again before the window wraps onto it.
        let mut payloads = vec![0u8; window * payload_bytes];
        let slot = |request: u64| {
            let at = (request as usize % window) * payload_bytes;
            at..at + payload_bytes
        };
        let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(window);
        let mut issued = 0;
        while issued < ops || !in_flight.is_empty() {
            while issued < ops && in_flight.len() < window {
                let conn = loop {
                    let c = rng.below(self.conns.len());
                    if !busy[c] {
                        break c;
                    }
                };
                let request = issued;
                issued += 1;
                block.attempted += 1;
                let payload = &mut payloads[slot(request)];
                rng.fill_printable(payload);
                let sent = Instant::now();
                match write_payload(t, &mut self.conns[conn], payload, request) {
                    Ok(()) => {
                        busy[conn] = true;
                        in_flight.push_back(InFlight { conn, request, sent });
                    }
                    Err(e) => block.complain(format!("write: {e}")),
                }
            }
            let Some(oldest) = in_flight.pop_front() else { continue };
            let want = &payloads[slot(oldest.request)];
            let echoed = read_echo(t, &mut self.conns[oldest.conn], want, oldest.request);
            busy[oldest.conn] = false;
            match echoed {
                Ok(()) => block.latencies_us.push(oldest.sent.elapsed().as_secs_f64() * 1e6),
                Err(e) => block.complain(e),
            }
        }
    }
}

impl Workload for ServeEcho {
    fn setup(t: &mut Tracer, scale: &Scale) -> Result<Self, String> {
        ServeEcho::with_resident(t, scale.resident)
    }

    fn block(&mut self, t: &mut Tracer, rng: &mut Rng, scale: &Scale) -> Result<Block, String> {
        let mut block = Block::default();
        let t0 = Instant::now();
        self.round_trips(
            t,
            rng,
            u64::from(scale.echoes_per_block),
            ECHO_WINDOW,
            PAYLOAD_BYTES,
            &mut block,
        );
        block.seconds = t0.elapsed().as_secs_f64();
        self.server.charge_handler_failures(&mut block, &mut self.handler_failures_seen);
        Ok(block)
    }

    fn counters(&mut self) -> Result<LayerCounters, String> {
        self.server.counters()
    }

    fn teardown(self, t: &mut Tracer) -> Result<Teardown, String> {
        drop(self.conns);
        self.server.stop(t)
    }
}

// ----------------------------------------------------------------------
// serve-churn
// ----------------------------------------------------------------------

pub struct ServeChurn {
    server: Server,
    handler_failures_seen: u64,
}

impl ServeChurn {
    pub fn start() -> Result<ServeChurn, String> {
        Ok(ServeChurn { server: Server::start(0)?, handler_failures_seen: 0 })
    }

    /// `conns` times: connect, one round trip, close. A connect or read
    /// error (`EADDRNOTAVAIL` when ephemeral ports run out, a reset) is an
    /// attempted and failed operation, not a reason to stop.
    pub fn connections(&mut self, t: &mut Tracer, rng: &mut Rng, conns: u64, block: &mut Block) {
        let mut payload = [0u8; PAYLOAD_BYTES];
        for id in 0..conns {
            rng.fill_printable(&mut payload);
            block.attempted += 1;
            let sent = Instant::now();
            let outcome = self
                .server
                .connect(t, id)
                .and_then(|mut s| write_payload(t, &mut s, &payload, id).map(|()| s))
                .map_err(|e| format!("connect/write: {e}"))
                .and_then(|mut s| read_echo(t, &mut s, &payload, id));
            match outcome {
                Ok(()) => block.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6),
                Err(e) => block.complain(e),
            }
        }
    }
}

impl Workload for ServeChurn {
    fn setup(_t: &mut Tracer, _scale: &Scale) -> Result<Self, String> {
        ServeChurn::start()
    }

    fn block(&mut self, t: &mut Tracer, rng: &mut Rng, scale: &Scale) -> Result<Block, String> {
        let mut block = Block::default();
        let t0 = Instant::now();
        self.connections(t, rng, u64::from(scale.conns_per_block), &mut block);
        // The last handlers are still seeing their peers close; their work
        // belongs to this block.
        self.server.wait_drained()?;
        block.seconds = t0.elapsed().as_secs_f64();
        self.server.charge_handler_failures(&mut block, &mut self.handler_failures_seen);
        Ok(block)
    }

    fn counters(&mut self) -> Result<LayerCounters, String> {
        self.server.counters()
    }

    fn teardown(self, t: &mut Tracer) -> Result<Teardown, String> {
        self.server.stop(t)
    }
}
