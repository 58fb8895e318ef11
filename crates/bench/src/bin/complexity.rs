//! Regenerates the paper's complexity contrast (§I-C and §VII):
//! Algorithm 1 admits a process to the critical section only when it has
//! read its identity from **all m** anonymous registers, Algorithm 2 when
//! it owns a **majority** — and the per-entry operation counts differ
//! accordingly.
//!
//! Run: `cargo run --release -p amx-bench --bin complexity`

use amx_core::metrics::EntryCosts;
use amx_core::{AmxLock, MutexSpec, RmwAnonLock, RwAnonLock};
use amx_registers::Adversary;

fn main() {
    println!("Complexity contrast — registers to win and work per CS entry\n");

    // Part 1: registers that must hold the winner's identity at entry.
    println!("Registers owned at the moment of entry (by algorithm definition, verified live):");
    println!("  n  m   Alg 1 (RW)    Alg 2 (RMW, majority)");
    for n in [2usize, 3, 4, 5] {
        let spec_rw = MutexSpec::smallest_rw(n).expect("small n");
        let spec_rmw = MutexSpec::smallest_rmw(n).expect("small n");
        let m = spec_rw.m();
        // Verify live: take the lock solo and count owned registers.
        let lock1 = RwAnonLock::new(spec_rw);
        let mut p1 = lock1
            .participants(&Adversary::Random(1))
            .expect("adv")
            .remove(0);
        let owned_rw = {
            let _g = p1.lock();
            lock1
                .memory()
                .observe_all()
                .iter()
                .filter(|s| !s.is_bottom())
                .count()
        };
        let lock2 = RmwAnonLock::new(spec_rmw);
        let mut p2 = lock2
            .participants(&Adversary::Random(1))
            .expect("adv")
            .remove(0);
        let owned_rmw = {
            let _g = p2.lock();
            lock2
                .memory()
                .observe_all()
                .iter()
                .filter(|s| !s.is_bottom())
                .count()
        };
        assert_eq!(owned_rw, m, "Algorithm 1 enters owning all m");
        assert!(2 * owned_rmw > m, "Algorithm 2 enters owning a majority");
        println!(
            "  {n}  {m}   all {owned_rw} of {m}    {owned_rmw} of {m} (> m/2 = {})",
            m / 2
        );
    }

    // Part 2: measured per-entry operation counts under contention.
    println!("\nMeasured shared-memory operations per CS entry (contended, random adversary):");
    println!("  n  m   algorithm   reads/entry  writes/entry  cas/entry  snapshots/entry");
    for n in [2usize, 3, 4] {
        let iters = 500u64;

        let spec = MutexSpec::smallest_rw(n).expect("small n");
        let lock = RwAnonLock::new(spec);
        let participants = lock.participants(&Adversary::Random(9)).expect("adv");
        let counters: Vec<_> = participants.iter().map(|p| p.counters().clone()).collect();
        let out = amx_bench::run_participants(participants, iters);
        assert_eq!(out.violations, 0);
        let agg = aggregate(&counters);
        let costs = EntryCosts::summarize(&agg, out.total_entries);
        println!(
            "  {n}  {}   Alg 1 RW    {:>10.1}  {:>11.1}  {:>9.1}  {:>14.2}",
            spec.m(),
            costs.reads_per_entry,
            costs.writes_per_entry,
            costs.cas_per_entry,
            costs.snapshots_per_entry
        );

        let spec = MutexSpec::smallest_rmw(n).expect("small n");
        let lock = RmwAnonLock::new(spec);
        let participants = lock.participants(&Adversary::Random(9)).expect("adv");
        let counters: Vec<_> = participants.iter().map(|p| p.counters().clone()).collect();
        let out = amx_bench::run_participants(participants, iters);
        assert_eq!(out.violations, 0);
        let agg = aggregate(&counters);
        let costs = EntryCosts::summarize(&agg, out.total_entries);
        println!(
            "  {n}  {}   Alg 2 RMW   {:>10.1}  {:>11.1}  {:>9.1}  {:>14.2}",
            spec.m(),
            costs.reads_per_entry,
            costs.writes_per_entry,
            costs.cas_per_entry,
            costs.snapshots_per_entry
        );
    }

    println!("\nShape check (as the paper predicts): Algorithm 1 pays for snapshots —");
    println!("its reads/entry dominate and grow with contention — while Algorithm 2");
    println!("replaces snapshots with one CAS sweep and a plain read loop, entering");
    println!("after winning only a majority.");
}

fn aggregate(counters: &[amx_registers::OpCounters]) -> amx_registers::OpCounters {
    let agg = amx_registers::OpCounters::new();
    for c in counters {
        agg.merge(c);
    }
    agg
}
