//! Watching Algorithm 2 work: ownership dynamics and majority entries.
//!
//! Runs a contended Algorithm 2 instance and prints, per participant, how
//! many compare&swap attempts, reads and writes each critical-section
//! entry cost — illustrating the paper's complexity claim that the RMW
//! algorithm needs only a *majority* of the registers (unlike Algorithm 1,
//! which needs them all).
//!
//! Run: `cargo run -p amx-examples --bin rmw_majority`

use std::sync::atomic::{AtomicBool, Ordering};

use amx_core::metrics::EntryCosts;
use amx_core::spec::MutexSpec;
use amx_core::threaded::RmwAnonLock;
use amx_core::AmxLock;
use amx_registers::Adversary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 4usize;
    let spec = MutexSpec::smallest_rmw(n)?;
    let m = spec.m();
    println!("Algorithm 2: n = {n} processes, m = {m} anonymous RMW registers");
    println!(
        "majority threshold: a process enters after owning > m/2 = {} registers\n",
        m / 2
    );

    let lock = RmwAnonLock::new(spec);
    let participants = lock.participants(&Adversary::Random(99))?;
    let counters: Vec<_> = participants.iter().map(|p| p.counters().clone()).collect();

    // One observer peeks at the memory while the lock is held (from the
    // holder's own thread) to report ownership at entry.
    let printed = AtomicBool::new(false);
    let iters = 1_000u64;

    std::thread::scope(|s| {
        for (t, mut p) in participants.into_iter().enumerate() {
            let (lock, printed) = (&lock, &printed);
            s.spawn(move || {
                let me = p.pid();
                for _ in 0..iters {
                    let _guard = p.lock();
                    if !printed.swap(true, Ordering::Relaxed) {
                        let view = lock.memory().observe_all();
                        let mine = view.iter().filter(|s| s.is_owned_by(me)).count();
                        let others = view.iter().filter(|s| !s.is_bottom()).count() - mine;
                        println!(
                            "first entry snapshot (thread {t}): holder owns {mine}/{m} \
                             registers, {others} still held by competitors"
                        );
                        assert!(2 * mine > m, "entry requires a majority");
                    }
                }
            });
        }
    });

    println!("\nper-participant cost of {iters} entries:");
    for (t, c) in counters.iter().enumerate() {
        let costs = EntryCosts::summarize(c, iters);
        println!(
            "  thread {t}: {:.1} cas, {:.1} reads, {:.1} writes per entry",
            costs.cas_per_entry, costs.reads_per_entry, costs.writes_per_entry
        );
    }

    println!("\nNote the absence of snapshots entirely — Algorithm 2 decides from an");
    println!("asynchronous read loop, one of the two key contrasts with Algorithm 1.");
    Ok(())
}
