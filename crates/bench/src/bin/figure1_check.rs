//! Regenerates the behaviour of **Figure 1 (Algorithm 1)**: exhaustive
//! model checking on small configurations plus threaded stress runs on
//! real atomics, across adversaries and free-slot policies.
//!
//! Run: `cargo run --release -p amx-bench --bin figure1_check`

use amx_bench::{stress_rw, yn};
use amx_core::{Alg1Automaton, FreeSlotPolicy, MutexSpec};
use amx_ids::PidPool;
use amx_registers::Adversary;
use amx_sim::mc::{ModelChecker, Symmetry, Verdict};
use amx_sim::MemoryModel;

/// Model-checks with process-symmetry reduction; returns the verdict,
/// the canonical states stored, and the exact concrete state count.
fn model_check(
    n: usize,
    m: usize,
    adversary: &Adversary,
    policy: FreeSlotPolicy,
) -> (Verdict, usize, usize) {
    let spec = MutexSpec::rw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    let automata: Vec<Alg1Automaton> = (0..n)
        .map(|_| Alg1Automaton::new(spec, pool.mint()).with_policy(policy))
        .collect();
    let report = ModelChecker::with_automata(automata, MemoryModel::Rw, m, adversary)
        .expect("valid adversary")
        .symmetry(Symmetry::Wreath)
        .max_states(4_000_000)
        .run()
        .expect("state space within bounds");
    (
        report.verdict,
        report.canonical_states,
        report.full_states_estimate,
    )
}

fn main() {
    println!("Figure 1 / Algorithm 1 — RW memory-anonymous deadlock-free mutex\n");

    println!("Exhaustive model checking (every interleaving, closed-loop workload,");
    println!("process-symmetry reduction on — `full` is the exact concrete count):");
    println!(
        "  n  m   adversary        policy          canonical     full    mutual-excl  deadlock-free"
    );
    let cases: Vec<(usize, usize, Adversary, &str)> = vec![
        (2, 3, Adversary::Identity, "identity"),
        (2, 3, Adversary::table1(), "table-1"),
        (2, 3, Adversary::Random(7), "random(7)"),
        (2, 5, Adversary::Identity, "identity"),
        (3, 5, Adversary::Identity, "identity"),
    ];
    for (n, m, adv, adv_name) in cases {
        for policy in [FreeSlotPolicy::FirstFree, FreeSlotPolicy::LastFree] {
            let (verdict, canonical, full) = model_check(n, m, &adv, policy);
            let (me, df) = match verdict {
                Verdict::Ok => (true, true),
                Verdict::MutualExclusionViolation { .. } => (false, true),
                Verdict::FairLivelock { .. } => (true, false),
                // No monitors are registered in this harness.
                Verdict::PropertyViolation { property, .. } => {
                    unreachable!("unexpected property violation: {property}")
                }
                // No checkpoint halting is configured in this harness.
                Verdict::Interrupted { .. } => unreachable!("unexpected interruption"),
            };
            println!(
                "  {n}  {m}   {adv_name:<15}  {policy:<14?}  {canonical:>9}  {full:>7}   {}          {}",
                yn(me),
                yn(df)
            );
        }
    }

    println!("\nThreaded stress on real atomic registers (overlap detector in CS):");
    println!("  n  m   adversary   entries   violations   throughput");
    for (n, iters) in [(2usize, 2_000u64), (3, 1_000), (4, 500)] {
        let spec = MutexSpec::smallest_rw(n).expect("small n");
        for seed in [1u64, 2] {
            let out = stress_rw(spec, &Adversary::Random(seed), iters);
            println!(
                "  {}  {}   random({seed})   {:>6}    {:>6}       {:>10.0} entries/s",
                spec.n(),
                spec.m(),
                out.total_entries,
                out.violations,
                out.throughput()
            );
            assert_eq!(out.violations, 0, "mutual exclusion violated!");
        }
    }

    println!("\nAll Figure 1 checks passed: Algorithm 1 is deadlock-free and mutually");
    println!("exclusive on every tested valid (n, m) configuration.");
}
