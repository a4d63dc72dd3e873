//! Spans around every call the benchmark makes into a layer.
//!
//! All spans are recorded on the load-generating thread, so they nest
//! like a call stack: siblings never overlap, and a span's self time is
//! its duration minus its direct children. That is what lets the per-name
//! self times of a workload add up to its wall time. Work that overlaps in
//! the program (64 jobs in flight, 16 requests on the wire) shows up as the
//! thread's `exec.wait` / `client.read` time; the `id` field says which
//! job, request or program a span served, so one request's `client.write`
//! and `client.read` can be joined.
//!
//! Spans inside the program (per-slice, per-wake) are a later issue; these
//! are recorded from the benchmark's own files only.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Where a span was recorded: the layer and the call. The discriminant
/// indexes [`SPAN_NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum At {
    Workload,
    VmBoot,
    SexpRead,
    CompilerCompile,
    VmLoad,
    VmRun,
    ThreadsRun,
    ThreadsStep,
    ExecSubmit,
    ExecWait,
    ClientConnect,
    ClientWrite,
    ClientRead,
    ExecShutdown,
    /// Not a layer: the blocks a traced pass runs with recording paused,
    /// to price the tracing itself. Excluded from every share.
    Untraced,
}

/// Every span name, in the order the ledger reports self-time shares.
pub const SPAN_NAMES: [&str; 15] = [
    "workload",
    "vm.boot",
    "sexp.read",
    "compiler.compile",
    "vm.load",
    "vm.run",
    "threads.run",
    "threads.step",
    "exec.submit",
    "exec.wait",
    "client.connect",
    "client.write",
    "client.read",
    "exec.shutdown",
    "untraced",
];

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u8,
    parent: u32,
    id: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
#[must_use]
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Preallocated; recording a span never allocates in the measured path
    /// unless a workload outgrows its estimate.
    spans: Vec<Span>,
    open: u32,
    enabled: bool,
    paused: bool,
}

impl Tracer {
    /// A tracer that records nothing: `enter`/`exit` are one branch each.
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: NO_PARENT,
            enabled: false,
            paused: false,
        }
    }

    pub fn on(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: NO_PARENT,
            enabled: true,
            paused: false,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, at: At, id: u64) -> Open {
        if !self.enabled || self.paused {
            return Open(NO_PARENT);
        }
        let name = at as u8;
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent: self.open, id, start_ns, end_ns: start_ns });
        self.open = index;
        Open(index)
    }

    /// Closes a span whose subject was only known once it ended (which
    /// job a blocking receive returned).
    pub fn exit_as(&mut self, open: Open, id: u64) {
        if self.enabled && !self.paused {
            self.spans[open.0 as usize].id = id;
        }
        self.exit(open);
    }

    pub fn exit(&mut self, open: Open) {
        if !self.enabled || self.paused {
            return;
        }
        debug_assert_eq!(open.0, self.open, "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        self.open = span.parent;
    }

    /// Stops recording until [`Tracer::resume`]: everything in between
    /// costs what it costs with tracing off, and is accounted to one
    /// `untraced` span.
    pub fn pause(&mut self) -> Open {
        let open = self.enter(At::Untraced, 0);
        self.paused = true;
        open
    }

    pub fn resume(&mut self, open: Open) {
        self.paused = false;
        self.exit(open);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time in seconds per span name, in [`SPAN_NAMES`] order.
    pub fn self_seconds(&self) -> [f64; SPAN_NAMES.len()] {
        let mut self_ns: Vec<i128> =
            self.spans.iter().map(|s| i128::from(s.end_ns - s.start_ns)).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                self_ns[s.parent as usize] -= i128::from(s.end_ns - s.start_ns);
            }
        }
        let mut by_name = [0.0; SPAN_NAMES.len()];
        for (s, ns) in self.spans.iter().zip(self_ns) {
            by_name[s.name as usize] += ns as f64 / 1e9;
        }
        by_name
    }

    /// Duration of the root spans, in seconds.
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// One JSON object per line: index, name, start/end in ns since the
    /// tracer's epoch, parent index (or null), and the shared id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"i\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"id\": {}}}",
                SPAN_NAMES[s.name as usize], s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::on(8);
        let root = t.enter(At::Workload, 0);
        let a = t.enter(At::VmRun, 1);
        let b = t.enter(At::VmLoad, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(b);
        t.exit(a);
        let c = t.enter(At::VmRun, 2);
        t.exit(c);
        t.exit(root);
        let total: f64 = t.self_seconds().iter().sum();
        assert!((total - t.root_seconds()).abs() < 1e-9);
        assert!(t.self_seconds()[At::VmLoad as usize] >= 0.002, "vm.load holds the sleep");
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn a_pause_is_one_span_and_hides_what_happens_inside() {
        let mut t = Tracer::on(8);
        let root = t.enter(At::Workload, 0);
        let pause = t.pause();
        let hidden = t.enter(At::VmRun, 1);
        t.exit(hidden);
        t.resume(pause);
        let seen = t.enter(At::VmRun, 2);
        t.exit(seen);
        t.exit(root);
        assert_eq!(t.len(), 3, "root, untraced, and the span after the pause");
        let total: f64 = t.self_seconds().iter().sum();
        assert!((total - t.root_seconds()).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.enter(At::VmRun, 1);
        t.exit(s);
        assert_eq!(t.len(), 0);
    }
}
