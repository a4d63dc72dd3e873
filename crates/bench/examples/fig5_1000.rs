//! The 1000-thread Figure 5 panel (reduced workload), plus a fourth
//! column: call/1cc under the §3.4 seal-with-pad policy, which packs many
//! suspended threads per segment and recovers the locality that the
//! fresh-segment policy loses at this scale.

use std::time::Instant;

use oneshot_bench::experiments::figure5_point;
use oneshot_core::{Config, OneShotPolicy};
use oneshot_threads::{Strategy, ThreadSystem};
use oneshot_vm::Vm;

fn sealed_point(threads: usize, freq: u64, fib_n: u32) -> f64 {
    let cfg = Config { oneshot_policy: OneShotPolicy::SealWithPad(96), ..Config::default() };
    let mut ts = ThreadSystem::with_vm(Strategy::Call1Cc, Vm::builder().stack(cfg).build());
    ts.eval("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))").unwrap();
    for _ in 0..threads {
        ts.spawn(&format!("(lambda () (fib {fib_n}))")).unwrap();
    }
    let start = Instant::now();
    ts.run(freq).unwrap();
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    println!("-- 1000 threads (fib 12 per thread) --");
    println!(
        "{:>12} {:>8} {:>8} {:>9} {:>14}",
        "calls/switch", "cps", "call/cc", "call/1cc", "call/1cc+seal"
    );
    for freq in [1u64, 2, 4, 8, 16, 32, 64, 128] {
        let mut row = Vec::new();
        for s in Strategy::ALL {
            row.push(figure5_point(s, 1000, freq, 12).ms);
        }
        let sealed = sealed_point(1000, freq, 12);
        println!("{:>12} {:>8.1} {:>8.1} {:>9.1} {:>14.1}", freq, row[0], row[1], row[2], sealed);
    }
}
