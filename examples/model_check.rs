//! Run the bundled model checker on a configuration of your choosing.
//!
//! Usage: `cargo run -p amx-examples --bin model_check [-- n m {rw|rmw}]`
//! Defaults to `2 3 rw`.  Prints the state-space statistics and the
//! verdict; invalid configurations (m ∉ M(n)) produce a fair-livelock
//! witness, valid ones verify both correctness properties exhaustively.

use amx_core::{Alg1Automaton, Alg2Automaton, MutexSpec};
use amx_ids::PidPool;
use amx_numth::{is_valid_m, is_valid_m_rw};
use amx_registers::Adversary;
use amx_sim::mc::{ModelChecker, Verdict};
use amx_sim::MemoryModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().map_or(Ok(2), |s| s.parse())?;
    let m: usize = args.get(1).map_or(Ok(3), |s| s.parse())?;
    let rmw = args.get(2).map(String::as_str) == Some("rmw");

    let (alg, predicate) = if rmw {
        ("Algorithm 2 (RMW)", is_valid_m(m as u64, n as u64))
    } else {
        ("Algorithm 1 (RW)", is_valid_m_rw(m as u64, n as u64))
    };
    println!("model-checking {alg} with n = {n}, m = {m}");
    println!(
        "paper predicate says this configuration is {}\n",
        if predicate {
            "VALID (must verify)"
        } else {
            "INVALID (must fail)"
        }
    );

    let mut pool = PidPool::sequential();
    let report = if rmw {
        let spec = MutexSpec::rmw_unchecked(n, m);
        let automata: Vec<Alg2Automaton> = (0..n)
            .map(|_| Alg2Automaton::new(spec, pool.mint()))
            .collect();
        ModelChecker::with_automata(automata, MemoryModel::Rmw, m, &Adversary::Identity)?
            .max_states(8_000_000)
            .run()?
    } else {
        let spec = MutexSpec::rw_unchecked(n, m);
        let automata: Vec<Alg1Automaton> = (0..n)
            .map(|_| Alg1Automaton::new(spec, pool.mint()))
            .collect();
        ModelChecker::with_automata(automata, MemoryModel::Rw, m, &Adversary::Identity)?
            .max_states(8_000_000)
            .run()?
    };

    println!(
        "explored {} states, {} transitions,",
        report.canonical_states, report.transitions
    );
    println!(
        "{} of which were critical-section acquisitions\n",
        report.acquisitions
    );
    match report.verdict {
        Verdict::Ok => {
            println!("verdict: OK — mutual exclusion and deadlock-freedom hold on the");
            println!("entire reachable state space.");
        }
        Verdict::MutualExclusionViolation { schedule, procs } => {
            println!(
                "verdict: MUTUAL EXCLUSION VIOLATED — processes {} and {} are in the",
                procs.0, procs.1
            );
            println!("critical section together after the schedule {schedule:?}");
        }
        Verdict::FairLivelock {
            pending,
            scc_states,
            witness_schedule,
        } => {
            println!("verdict: FAIR LIVELOCK — processes {pending:?} can spin forever inside a");
            println!("{scc_states}-state component with no lock/unlock ever completing.");
            println!("witness: schedule {witness_schedule:?} reaches the livelock component");
        }
        Verdict::PropertyViolation { property, schedule } => {
            println!("verdict: PROPERTY VIOLATED — monitor \"{property}\" hit a reachable");
            println!("state after the schedule {schedule:?}");
        }
        Verdict::Interrupted { level, checkpoints } => {
            println!("verdict: INTERRUPTED — halted at level {level} after {checkpoints}");
            println!("checkpoint(s); rerun with resume(true) to continue.");
        }
    }
    Ok(())
}
