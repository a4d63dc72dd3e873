//! Garbage collection: coordinated marking across the heap and the
//! segmented control stack.
//!
//! Continuation heap objects reference stack records whose sealed slots
//! hold heap values; the current stack's live slots hold heap values; and
//! the current link chain may contain continuations with no heap object at
//! all (implicit overflow continuations). Marking therefore alternates
//! between the heap's gray worklist and a continuation worklist until both
//! drain.
//!
//! The mark phase is allocation-free in steady state: the heap scans
//! children in place ([`oneshot_runtime::Heap::mark_children`]), stack
//! slices are walked by reference (heap and stack are disjoint fields of
//! [`Vm`], so no values are copied out), and the continuation worklist
//! buffer is owned by the VM and reused across collections.

use oneshot_runtime::Value;

use crate::slot::Slot;
use crate::vm::Vm;

impl Vm {
    /// Runs a full collection. `live_above_fp` is the number of live slots
    /// at and above the frame pointer (1 + argument count at the Entry
    /// safe point).
    pub(crate) fn collect(&mut self, live_above_fp: usize) {
        let started = std::time::Instant::now();
        self.heap.begin_gc();
        self.stack.begin_gc();
        // Reuse the continuation worklist across collections (no steady-
        // state allocation).
        let mut konts = std::mem::take(&mut self.gc_kont_work);
        konts.clear();

        // Roots: registers, globals, winders, timer handler, pending
        // multiple values, constant pools.
        self.heap.mark_value(self.acc);
        self.heap.mark_value(self.closure);
        self.heap.mark_value(self.winders);
        self.heap.mark_value(self.handlers);
        self.heap.mark_value(self.timer_handler);
        if let Some(vals) = &self.mv {
            for &v in vals {
                self.heap.mark_value(v);
            }
        }
        for &v in &self.globals {
            self.heap.mark_value(v);
        }
        for code in &self.codes {
            for &v in &code.consts {
                self.heap.mark_value(v);
            }
        }
        // The live portion of the running stack.
        let lo = self.stack.base();
        let hi = (self.stack.fp() + live_above_fp).min(self.stack.end());
        self.mark_slot_range(lo, hi);
        // The current continuation chain (implicit continuations included).
        let mut cursor = self.stack.current_link();
        while let Some(k) = cursor {
            konts.push(k);
            cursor = self.stack.kont_link(k);
        }

        // Alternate the two worklists to a fixed point: heap marking
        // discovers continuation records (via `pop_kont`), and marking a
        // record's sealed slots discovers heap values.
        loop {
            let mut progressed = false;
            while let Some(r) = self.heap.pop_gray() {
                progressed = true;
                self.heap.mark_children(r);
            }
            while let Some(k) = self.heap.pop_kont() {
                konts.push(k);
            }
            while let Some(k) = konts.pop() {
                progressed = true;
                if !self.stack.kont_alive(k) {
                    // Already swept in a previous cycle's terms — cannot
                    // happen mid-mark; defensive.
                    continue;
                }
                if self.stack.mark_kont(k) {
                    if let Some(l) = self.stack.kont_link(k) {
                        konts.push(l);
                    }
                    // The saved return address lives in the continuation
                    // object itself (not in the sealed slice) and carries
                    // the caller's closure.
                    if let Some(v) = slot_heap_value(self.stack.kont(k).ret()) {
                        self.heap.mark_value(v);
                    }
                    // A prompt record's tag slot is also object-resident
                    // (it holds the embedder's tag pair).
                    if let Some(v) = self.stack.kont(k).prompt().and_then(slot_heap_value) {
                        self.heap.mark_value(v);
                    }
                    for s in self.stack.kont_slice(k) {
                        if let Some(v) = slot_heap_value(s) {
                            self.heap.mark_value(v);
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        self.gc_kont_work = konts;

        self.heap.sweep();
        self.stack.sweep(false);

        let pause = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.gc_pause_ns += pause;
        self.gc_max_pause_ns = self.gc_max_pause_ns.max(pause);
    }

    fn mark_slot_range(&mut self, lo: usize, hi: usize) {
        for i in lo..hi {
            if let Some(v) = slot_heap_value(self.stack.get(i)) {
                self.heap.mark_value(v);
            }
        }
    }

    /// Appends `display`/`write` output to the capture buffer
    /// ([`Vm::take_output`]).
    pub(crate) fn emit_output(&mut self, s: &str) {
        self.out.push_str(s);
    }
}

/// The heap value a slot keeps alive, if any (frame values and the saved
/// closures inside return addresses).
fn slot_heap_value(s: &Slot) -> Option<Value> {
    match s {
        Slot::Val(v) => Some(*v),
        Slot::Ret { closure, .. } => Some(*closure),
        _ => None,
    }
}
