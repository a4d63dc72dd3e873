//! Measurement helpers: wall time plus VM counter deltas for a program
//! region.

use std::time::{Duration, Instant};

use oneshot_vm::{Vm, VmError, VmStats};

/// One measured run.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Wall-clock time.
    pub wall: Duration,
    /// Counter deltas over the run.
    pub delta: VmStats,
}

impl Measurement {
    /// Milliseconds as a float (the unit Figure 5 reports).
    pub fn ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3
    }

    /// Total allocation in words: heap words plus stack-segment slots —
    /// the measure behind the paper's "allocates 23% less memory".
    pub fn words_allocated(&self) -> u64 {
        self.delta.heap.words_allocated + self.delta.stack.segment_slots_allocated
    }
}

/// Evaluates `src`, measuring wall time and counter deltas.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn run_measured(vm: &mut Vm, src: &str) -> Result<Measurement, VmError> {
    let before = vm.stats();
    let start = Instant::now();
    vm.eval_str(src)?;
    let wall = start.elapsed();
    Ok(Measurement { wall, delta: vm.stats().delta_since(&before) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_captures_deltas() {
        let mut vm = Vm::new();
        let m =
            run_measured(&mut vm, "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 1000)").unwrap();
        assert!(m.delta.calls >= 1000);
        assert!(m.wall.as_nanos() > 0);
    }
}
