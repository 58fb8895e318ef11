//! Model-checker throughput: how fast the exhaustive explorer covers the
//! algorithms' state spaces (useful for sizing new configurations), and
//! what the process-symmetry reduction buys on symmetric adversaries.

use amx_baselines::automaton::TasAutomaton;
use amx_core::{Alg1Automaton, Alg2Automaton, MutexSpec};
use amx_ids::PidPool;
use amx_registers::Adversary;
use amx_sim::intern::{hash_bytes, hash_bytes_bytewise};
use amx_sim::mc::{ModelChecker, Symmetry, Verdict};
use amx_sim::MemoryModel;
use criterion::{criterion_group, criterion_main, Criterion};

/// Seen-set hashing: the 8-bytes-at-a-time FNV variant vs the original
/// byte-at-a-time FNV-1a, over a state-sized key (the engine hashes one
/// canonical encoding per explored transition, so this delta multiplies
/// across the whole run).
fn bench_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_hash");
    // A realistic Alg 2 deep-point encoding size (~53 bytes).
    let key: Vec<u8> = (0..53u8).map(|i| i.wrapping_mul(37)).collect();
    group.bench_function("fnv_8bytes_53b", |b| {
        b.iter(|| hash_bytes(std::hint::black_box(&key)))
    });
    group.bench_function("fnv_bytewise_53b", |b| {
        b.iter(|| hash_bytes_bytewise(std::hint::black_box(&key)))
    });
    group.finish();
}

fn bench_mc(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_checker");
    group.sample_size(10);

    group.bench_function("alg1_n2_m3", |b| {
        b.iter(|| {
            let spec = MutexSpec::rw_unchecked(2, 3);
            let mut pool = PidPool::sequential();
            let automata: Vec<Alg1Automaton> = (0..2)
                .map(|_| Alg1Automaton::new(spec, pool.mint()))
                .collect();
            let report =
                ModelChecker::with_automata(automata, MemoryModel::Rw, 3, &Adversary::Identity)
                    .unwrap()
                    .run()
                    .unwrap();
            assert_eq!(report.verdict, Verdict::Ok);
            report.canonical_states
        })
    });

    group.bench_function("alg2_n2_m3", |b| {
        b.iter(|| {
            let spec = MutexSpec::rmw_unchecked(2, 3);
            let mut pool = PidPool::sequential();
            let automata: Vec<Alg2Automaton> = (0..2)
                .map(|_| Alg2Automaton::new(spec, pool.mint()))
                .collect();
            let report =
                ModelChecker::with_automata(automata, MemoryModel::Rmw, 3, &Adversary::Identity)
                    .unwrap()
                    .run()
                    .unwrap();
            assert_eq!(report.verdict, Verdict::Ok);
            report.canonical_states
        })
    });

    group.bench_function("alg2_n2_m4_livelock", |b| {
        b.iter(|| {
            let spec = MutexSpec::rmw_unchecked(2, 4);
            let mut pool = PidPool::sequential();
            let automata: Vec<Alg2Automaton> = (0..2)
                .map(|_| Alg2Automaton::new(spec, pool.mint()))
                .collect();
            let report =
                ModelChecker::with_automata(automata, MemoryModel::Rmw, 4, &Adversary::Identity)
                    .unwrap()
                    .run()
                    .unwrap();
            assert!(matches!(report.verdict, Verdict::FairLivelock { .. }));
            report.canonical_states
        })
    });

    // The same configuration with symmetry reduction: identical verdict
    // from roughly half the stored states (S₂ orbits).
    group.bench_function("alg1_n2_m3_symmetry", |b| {
        b.iter(|| {
            let spec = MutexSpec::rw_unchecked(2, 3);
            let mut pool = PidPool::sequential();
            let automata: Vec<Alg1Automaton> = (0..2)
                .map(|_| Alg1Automaton::new(spec, pool.mint()))
                .collect();
            let report =
                ModelChecker::with_automata(automata, MemoryModel::Rw, 3, &Adversary::Identity)
                    .unwrap()
                    .symmetry(Symmetry::Wreath)
                    .run()
                    .unwrap();
            assert_eq!(report.verdict, Verdict::Ok);
            assert!(report.canonical_states < report.full_states_estimate);
            report.canonical_states
        })
    });

    // Heavier symmetric configuration, one worker vs four (the thread
    // cap is clamped to the machine's parallelism, so on a single-core
    // host both rows run one worker).
    for threads in [1usize, 4] {
        group.bench_function(format!("alg1_n3_m5_symmetry_t{threads}"), |b| {
            b.iter(|| {
                let spec = MutexSpec::rw_unchecked(3, 5);
                let mut pool = PidPool::sequential();
                let automata: Vec<Alg1Automaton> = (0..3)
                    .map(|_| Alg1Automaton::new(spec, pool.mint()))
                    .collect();
                let report =
                    ModelChecker::with_automata(automata, MemoryModel::Rw, 5, &Adversary::Identity)
                        .unwrap()
                        .symmetry(Symmetry::Wreath)
                        .threads(threads)
                        .max_states(4_000_000)
                        .run()
                        .unwrap();
                assert_eq!(report.verdict, Verdict::Ok);
                report.canonical_states
            })
        });
    }

    group.finish();
}

/// Per-state overhead of the wreath canonicalization, measured on a
/// rotation orbit — an adversary family where no two processes share a
/// permutation, so every symmetry is a joint process × register one and
/// every successor ranks the group's extra images by their slot sections
/// (integer keys, no bytes written) and encodes only the images tied on
/// the least slot section, each up to its first component above the
/// least image so far.  `off` is the baseline cost of exploring the same
/// space without reduction; `wreath` adds the `Z_3` canonicalization per
/// transition and is repaid in stored states (≈ 3× fewer), arena bytes
/// and SCC size.  CI only compiles this bench (`cargo bench --workspace
/// --no-run`); run it with `cargo bench -p amx-bench --bench mc_cost`.
fn bench_canonicalize(c: &mut Criterion) {
    let mut group = c.benchmark_group("canonicalize");
    group.sample_size(10);
    for (name, symmetry) in [("off", Symmetry::Off), ("wreath", Symmetry::Wreath)] {
        group.bench_function(format!("alg1_n3_m3_rotations_{name}"), |b| {
            b.iter(|| {
                let spec = MutexSpec::rw_unchecked(3, 3);
                let mut pool = PidPool::sequential();
                let automata: Vec<Alg1Automaton> = (0..3)
                    .map(|_| Alg1Automaton::new(spec, pool.mint()))
                    .collect();
                let report = ModelChecker::with_automata(
                    automata,
                    MemoryModel::Rw,
                    3,
                    &Adversary::Rotations { stride: 1 },
                )
                .unwrap()
                .symmetry(symmetry)
                .run()
                .unwrap();
                // 3 | m = 3: outside M(3), both engines must report the
                // livelock; only the stored-state counts differ.
                assert!(matches!(report.verdict, Verdict::FairLivelock { .. }));
                report.canonical_states
            })
        });
    }
    group.finish();
}

/// A check's fixed cost: one whole `run()` of the smallest smoke-grid
/// configuration, test-and-set for two processes on one register (4
/// canonical states under the wreath reduction, one worker), where
/// per-run set-up rather than per-state work decides the time.  The
/// mc-grid workload's median check is a few hundred microseconds, so a
/// fixed cost of tens of microseconds moves it.
fn bench_fixed_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("fixed_cost");
    group.bench_function("tas_n2_m1_wreath_run", |b| {
        b.iter(|| {
            let mut pool = PidPool::sequential();
            let automata: Vec<TasAutomaton> =
                (0..2).map(|_| TasAutomaton::new(pool.mint())).collect();
            let report =
                ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
                    .unwrap()
                    .symmetry(Symmetry::Wreath)
                    .run()
                    .unwrap();
            assert_eq!(report.canonical_states, 4);
            report.canonical_states
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hash,
    bench_mc,
    bench_canonicalize,
    bench_fixed_cost
);
criterion_main!(benches);
