//! The two places work waits for a worker: the bounded shared injector,
//! where every unstarted unpinned job waits until some worker admits it,
//! and each worker's inbox, where work bound to that worker waits.
//!
//! Neither queue wakes anyone: a producer pushes, then rings the wake pipe
//! of each worker that may take the work (the worker loop explains why no
//! push can then go unseen).

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};

use crate::job::Job;
use crate::pool::HandlerTemplate;

/// The bounded multi-producer multi-consumer injector queue: submitters
/// push at the back, workers pop at the front. `Mutex<VecDeque>` plus one
/// condvar for blocking admission — deliberately boring; the interesting
/// scheduling happens in the workers.
#[derive(Debug)]
pub(crate) struct Injector {
    state: Mutex<InjectorState>,
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct InjectorState {
    queue: VecDeque<Job>,
    closed: bool,
}

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushRefused {
    /// The queue is at capacity (nonblocking admission only).
    Full,
    /// The queue was closed by shutdown.
    Closed,
}

impl Injector {
    pub(crate) fn new(capacity: usize) -> Self {
        Injector {
            state: Mutex::new(InjectorState { queue: VecDeque::new(), closed: false }),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocking push: waits while the queue is full. Returns the queue
    /// depth after the push (for high-water tracking).
    pub(crate) fn push(&self, job: Job) -> Result<usize, PushRefused> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return Err(PushRefused::Closed);
            }
            if st.queue.len() < self.capacity {
                st.queue.push_back(job);
                return Ok(st.queue.len());
            }
            st = self.not_full.wait(st).unwrap();
        }
    }

    /// Non-blocking push: refuses instead of waiting when full.
    pub(crate) fn try_push(&self, job: Job) -> Result<usize, PushRefused> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(PushRefused::Closed);
        }
        if st.queue.len() >= self.capacity {
            return Err(PushRefused::Full);
        }
        st.queue.push_back(job);
        Ok(st.queue.len())
    }

    /// Non-blocking pop.
    pub(crate) fn try_pop(&self) -> Option<Job> {
        let mut st = self.state.lock().unwrap();
        let job = st.queue.pop_front();
        if job.is_some() {
            self.not_full.notify_one();
        }
        job
    }

    /// Closes the queue: future pushes are refused; the backlog stays
    /// poppable.
    pub(crate) fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        drop(st);
        self.not_full.notify_all();
    }

    pub(crate) fn depth(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }

    /// Whether [`Injector::close`] has been called. Best-effort: used to
    /// refuse pinned submissions (which bypass the queue) after shutdown.
    pub(crate) fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }
}

/// One entry of an [`Inbox`].
pub(crate) enum Entry {
    /// A pinned submit, or one of the worker's own transient retries.
    Job(Job),
    /// A connection the shared-listener acceptor routed here, with the
    /// handler template to stamp its job from.
    Conn(TcpStream, Arc<HandlerTemplate>),
}

/// One worker's FIFO of work bound to it: pinned submits, its retries,
/// and accepted connections. Any thread pushes; only the owning worker
/// pops, ahead of the injector, while it has room for residents.
#[derive(Default)]
pub(crate) struct Inbox {
    q: Mutex<VecDeque<Entry>>,
}

impl Inbox {
    /// Appends an entry; returns the inbox depth after the push.
    pub(crate) fn push(&self, entry: Entry) -> usize {
        let mut q = self.q.lock().expect("inbox poisoned");
        q.push_back(entry);
        q.len()
    }

    /// Takes the oldest entry.
    pub(crate) fn pop(&self) -> Option<Entry> {
        self.q.lock().expect("inbox poisoned").pop_front()
    }

    pub(crate) fn depth(&self) -> usize {
        self.q.lock().expect("inbox poisoned").len()
    }
}

impl std::fmt::Debug for Inbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inbox").field("depth", &self.depth()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobSpec, OutcomeSlot};
    use std::time::Instant;

    fn job(id: u64) -> Job {
        let spec = JobSpec::new(format!("j{id}"), "#t");
        Job {
            id: JobId(id),
            name: spec.name,
            prog: Arc::new(
                oneshot_vm::Vm::compile_str(
                    &spec.source,
                    oneshot_vm::Pipeline::Direct,
                    Default::default(),
                )
                .unwrap(),
            ),
            fuel_budget: spec.fuel,
            deadline: None,
            io_timeout: None,
            conn_token: None,
            submitted: Instant::now(),
            slot: Arc::new(OutcomeSlot::default()),
            on_complete: None,
            attempts: 0,
        }
    }

    #[test]
    fn bounded_injector_refuses_when_full_and_closed() {
        let q = Injector::new(2);
        assert!(q.try_push(job(0)).is_ok());
        assert!(q.try_push(job(1)).is_ok());
        assert_eq!(q.try_push(job(2)).unwrap_err(), PushRefused::Full);
        assert_eq!(q.depth(), 2);
        q.close();
        assert_eq!(q.try_push(job(3)).unwrap_err(), PushRefused::Closed);
        // The backlog is still drainable after close.
        assert!(q.try_pop().is_some());
        assert!(q.try_pop().is_some());
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn inbox_is_fifo_across_jobs_and_connections() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let tmpl = HandlerTemplate::new(&JobSpec::new("h", "#t"), None).unwrap();
        let inbox = Inbox::default();
        assert_eq!(inbox.push(Entry::Job(job(0))), 1);
        assert_eq!(inbox.push(Entry::Conn(stream, Arc::new(tmpl))), 2);
        assert_eq!(inbox.push(Entry::Job(job(1))), 3);
        assert_eq!(inbox.depth(), 3);
        assert!(matches!(inbox.pop(), Some(Entry::Job(j)) if j.id == JobId(0)));
        assert!(matches!(inbox.pop(), Some(Entry::Conn(..))));
        assert!(matches!(inbox.pop(), Some(Entry::Job(j)) if j.id == JobId(1)));
        assert!(inbox.pop().is_none());
        assert_eq!(inbox.depth(), 0);
    }
}
