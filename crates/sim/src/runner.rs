//! Closed-loop executions with invariant monitoring.
//!
//! A [`Runner`] drives `n` automata over one [`SimMemory`] under a chosen
//! [`Scheduler`], with each process looping `remainder → lock() → critical
//! section → unlock()`.  It checks mutual exclusion at every acquisition
//! and reports per-process progress, making it the workhorse for
//! randomized correctness tests and the deterministic experiments.

use amx_registers::adversary::AdversaryError;

use crate::automaton::{closed_loop_step, Automaton, Outcome, Phase};
use crate::mem::SimMemory;
use crate::schedule::Scheduler;

/// Shape of the per-process closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Lock/unlock cycles each process performs; `None` runs until the
    /// step budget is exhausted.
    pub iterations: Option<u64>,
    /// Scheduled turns spent idle inside the critical section.
    pub cs_dwell: u32,
    /// Scheduled turns spent idle in the remainder section per cycle.
    pub remainder_dwell: u32,
}

impl Workload {
    /// `iterations` cycles with zero dwell.
    #[must_use]
    pub fn cycles(iterations: u64) -> Self {
        Workload {
            iterations: Some(iterations),
            cs_dwell: 0,
            remainder_dwell: 0,
        }
    }

    /// Unbounded cycles with zero dwell.
    #[must_use]
    pub fn unbounded() -> Self {
        Workload {
            iterations: None,
            cs_dwell: 0,
            remainder_dwell: 0,
        }
    }
}

impl Default for Workload {
    fn default() -> Self {
        Workload::cycles(1)
    }
}

/// One recorded scheduling decision (kept when tracing is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which process stepped.
    pub proc_index: usize,
    /// Its phase before the step.
    pub phase_before: Phase,
    /// The outcome of the step (`None` for a dwell turn).
    pub outcome: Option<Outcome>,
}

/// Why a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// Every process finished its bounded workload.
    Completed,
    /// The step budget ran out first.
    StepBudgetExhausted,
    /// Two processes were inside the critical section simultaneously.
    MutualExclusionViolation {
        /// The processes that overlapped.
        procs: (usize, usize),
    },
    /// No process was runnable but the workload was unfinished.
    Stuck,
}

/// Results of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Why the run ended.
    pub stop: Stop,
    /// Total scheduled steps taken.
    pub steps: u64,
    /// Critical-section entries per process.
    pub cs_entries: Vec<u64>,
    /// Scheduled steps per process.
    pub steps_per_proc: Vec<u64>,
    /// The recorded schedule, if tracing was enabled.
    pub trace: Option<Vec<TraceEvent>>,
}

impl RunReport {
    /// Total critical-section entries across all processes.
    #[must_use]
    pub fn total_entries(&self) -> u64 {
        self.cs_entries.iter().sum()
    }

    /// `true` when the run completed without violations.
    #[must_use]
    pub fn is_clean_completion(&self) -> bool {
        self.stop == Stop::Completed
    }
}

/// Drives `n` automata over a simulated anonymous memory.
///
/// # Example
///
/// ```
/// use amx_registers::Adversary;
/// use amx_sim::{MemoryModel, Runner, Scheduler, SimMemory, Workload};
/// use amx_sim::toys::CasLock;
/// use amx_ids::PidPool;
///
/// let ids = PidPool::sequential().mint_many(3);
/// let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
/// let mem = SimMemory::new(MemoryModel::Rmw, 1, &Adversary::Identity, 3).unwrap();
/// let report = Runner::new(automata, mem)
///     .scheduler(Scheduler::random(7))
///     .workload(Workload::cycles(5))
///     .run();
/// assert!(report.is_clean_completion());
/// assert_eq!(report.total_entries(), 15);
/// ```
#[derive(Debug)]
pub struct Runner<A: Automaton> {
    automata: Vec<A>,
    mem: SimMemory,
    scheduler: Scheduler,
    workload: Workload,
    max_steps: u64,
    trace: bool,
    crashes: Vec<(usize, u64)>,
    avoid_completions: Option<u64>,
}

impl<A: Automaton> Runner<A> {
    /// Creates a runner for `automata` (one per process) over `mem`.
    ///
    /// # Panics
    ///
    /// Panics if the number of automata differs from `mem`'s process
    /// count, or is zero.
    #[must_use]
    pub fn new(automata: Vec<A>, mem: SimMemory) -> Self {
        assert!(!automata.is_empty(), "need at least one process");
        assert_eq!(automata.len(), mem.n(), "one automaton per memory view");
        Runner {
            automata,
            mem,
            scheduler: Scheduler::round_robin(),
            workload: Workload::default(),
            max_steps: 1_000_000,
            trace: false,
            crashes: Vec::new(),
            avoid_completions: None,
        }
    }

    /// Convenience constructor: builds the memory from an adversary.
    ///
    /// # Errors
    ///
    /// Propagates adversary materialization failures.
    pub fn with_adversary(
        automata: Vec<A>,
        model: crate::mem::MemoryModel,
        m: usize,
        adversary: &amx_registers::Adversary,
    ) -> Result<Self, AdversaryError> {
        let n = automata.len();
        Ok(Self::new(automata, SimMemory::new(model, m, adversary, n)?))
    }

    /// Sets the scheduler (default: round-robin).
    #[must_use]
    pub fn scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the workload (default: one cycle per process).
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the step budget (default: 1,000,000).
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Enables schedule tracing in the report.
    #[must_use]
    pub fn record_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Switches to an adversarial *completion-avoiding* schedule: at each
    /// step the driver looks one step ahead and prefers a process whose
    /// next step does **not** complete a lock or unlock — while remaining
    /// fair by force-scheduling any process that has waited more than
    /// `fairness_window` global steps.  Deadlock-freedom promises that
    /// even this adversary cannot prevent completions forever on a valid
    /// configuration; tests assert exactly that.
    ///
    /// When enabled, the configured [`Scheduler`] is ignored.
    #[must_use]
    pub fn avoid_completions(mut self, fairness_window: u64) -> Self {
        self.avoid_completions = Some(fairness_window.max(1));
        self
    }

    /// Injects a crash: process `proc_index` permanently stops taking
    /// steps after it has executed `after_steps` of its own steps.
    ///
    /// The paper's model has **no** process crashes (§VII points out that
    /// mutex is unsolvable under a crash adversary, anonymous or not);
    /// this hook exists to *demonstrate* that remark — a crashed lock
    /// holder blocks everyone forever.
    #[must_use]
    pub fn crash(mut self, proc_index: usize, after_steps: u64) -> Self {
        self.crashes.push((proc_index, after_steps));
        self
    }

    /// Runs to completion, budget exhaustion, or an invariant violation.
    #[must_use]
    pub fn run(mut self) -> RunReport {
        let n = self.automata.len();
        let mut states: Vec<A::State> = self.automata.iter().map(Automaton::init_state).collect();
        let mut phases = vec![Phase::Remainder; n];
        let mut cs_entries = vec![0u64; n];
        let mut steps_per_proc = vec![0u64; n];
        let mut dwell_left = vec![0u32; n];
        let mut trace: Option<Vec<TraceEvent>> = self.trace.then(Vec::new);
        let mut steps = 0u64;

        let done = |phase: Phase, entries: u64, workload: &Workload| {
            phase == Phase::Remainder && workload.iterations.is_some_and(|k| entries >= k)
        };

        let crashed = |i: usize, own_steps: u64, crashes: &[(usize, u64)]| {
            crashes
                .iter()
                .any(|&(p, after)| p == i && own_steps >= after)
        };
        let mut waited = vec![0u64; n];

        loop {
            let runnable: Vec<bool> = (0..n)
                .map(|i| {
                    !done(phases[i], cs_entries[i], &self.workload)
                        && !crashed(i, steps_per_proc[i], &self.crashes)
                })
                .collect();
            let picked = match self.avoid_completions {
                None => self.scheduler.next(&runnable),
                Some(window) => self.pick_avoiding(&runnable, &phases, &states, &waited, window),
            };
            let Some(i) = picked else {
                let all_done = (0..n).all(|i| done(phases[i], cs_entries[i], &self.workload));
                return self.report(
                    if all_done {
                        Stop::Completed
                    } else {
                        Stop::Stuck
                    },
                    steps,
                    cs_entries,
                    steps_per_proc,
                    trace,
                );
            };
            if steps >= self.max_steps {
                return self.report(
                    Stop::StepBudgetExhausted,
                    steps,
                    cs_entries,
                    steps_per_proc,
                    trace,
                );
            }
            steps += 1;
            steps_per_proc[i] += 1;
            for (j, w) in waited.iter_mut().enumerate() {
                if runnable[j] {
                    *w += 1;
                }
            }
            waited[i] = 0;
            let phase_before = phases[i];

            // Dwell turns consume a scheduling slot without touching memory.
            if dwell_left[i] > 0 && matches!(phases[i], Phase::Cs | Phase::Remainder) {
                dwell_left[i] -= 1;
                if let Some(t) = trace.as_mut() {
                    t.push(TraceEvent {
                        proc_index: i,
                        phase_before,
                        outcome: None,
                    });
                }
                continue;
            }

            let outcome = closed_loop_step(
                &self.automata[i],
                &mut phases[i],
                &mut states[i],
                &mut self.mem.view(i),
            );
            match outcome {
                Outcome::Progress => {}
                Outcome::Acquired => {
                    if let Some(j) = (0..n).find(|&j| j != i && phases[j] == Phase::Cs) {
                        if let Some(t) = trace.as_mut() {
                            t.push(TraceEvent {
                                proc_index: i,
                                phase_before,
                                outcome: Some(outcome),
                            });
                        }
                        return self.report(
                            Stop::MutualExclusionViolation { procs: (j, i) },
                            steps,
                            cs_entries,
                            steps_per_proc,
                            trace,
                        );
                    }
                    dwell_left[i] = self.workload.cs_dwell;
                }
                Outcome::Released => {
                    cs_entries[i] += 1;
                    dwell_left[i] = self.workload.remainder_dwell;
                }
            }
            if let Some(t) = trace.as_mut() {
                t.push(TraceEvent {
                    proc_index: i,
                    phase_before,
                    outcome: Some(outcome),
                });
            }
        }
    }

    /// One-step lookahead choice that defers completing steps when a
    /// non-completing alternative exists, subject to the fairness window.
    fn pick_avoiding(
        &self,
        runnable: &[bool],
        phases: &[Phase],
        states: &[A::State],
        waited: &[u64],
        window: u64,
    ) -> Option<usize> {
        let candidates: Vec<usize> = (0..runnable.len()).filter(|&i| runnable[i]).collect();
        if candidates.is_empty() {
            return None;
        }
        // Fairness first: anyone overdue must run.
        if let Some(&overdue) = candidates
            .iter()
            .filter(|&&i| waited[i] >= window)
            .max_by_key(|&&i| waited[i])
        {
            return Some(overdue);
        }
        // Otherwise prefer (most-waited first, to keep spreading steps)
        // a process whose next step would NOT complete.
        let mut by_wait = candidates.clone();
        by_wait.sort_by_key(|&i| std::cmp::Reverse(waited[i]));
        for &i in &by_wait {
            let mut st = states[i].clone();
            let mut mem = self.mem.clone();
            let mut phase = phases[i];
            let outcome =
                closed_loop_step(&self.automata[i], &mut phase, &mut st, &mut mem.view(i));
            if outcome == Outcome::Progress {
                return Some(i);
            }
        }
        // Every runnable process is about to complete: concede.
        by_wait.first().copied()
    }

    fn report(
        &self,
        stop: Stop,
        steps: u64,
        cs_entries: Vec<u64>,
        steps_per_proc: Vec<u64>,
        trace: Option<Vec<TraceEvent>>,
    ) -> RunReport {
        RunReport {
            stop,
            steps,
            cs_entries,
            steps_per_proc,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemoryModel;
    use crate::toys::{CasLock, NaiveFlagLock};
    use amx_ids::PidPool;
    use amx_registers::Adversary;

    fn cas_runner(n: usize, workload: Workload) -> Runner<CasLock> {
        let ids = PidPool::sequential().mint_many(n);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        Runner::with_adversary(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
            .unwrap()
            .workload(workload)
    }

    #[test]
    fn single_process_completes() {
        let report = cas_runner(1, Workload::cycles(10)).run();
        assert!(report.is_clean_completion());
        assert_eq!(report.cs_entries, vec![10]);
    }

    #[test]
    fn multi_process_round_robin_completes() {
        let report = cas_runner(4, Workload::cycles(25)).run();
        assert!(report.is_clean_completion());
        assert_eq!(report.total_entries(), 100);
    }

    #[test]
    fn multi_process_random_completes() {
        for seed in 0..5 {
            let report = cas_runner(3, Workload::cycles(10))
                .scheduler(Scheduler::random(seed))
                .run();
            assert!(
                report.is_clean_completion(),
                "seed {seed}: {:?}",
                report.stop
            );
            assert_eq!(report.cs_entries, vec![10, 10, 10]);
        }
    }

    #[test]
    fn dwell_turns_are_counted_but_harmless() {
        let report = cas_runner(
            2,
            Workload {
                iterations: Some(5),
                cs_dwell: 3,
                remainder_dwell: 2,
            },
        )
        .run();
        assert!(report.is_clean_completion());
        assert_eq!(report.total_entries(), 10);
        assert!(report.steps > 10);
    }

    #[test]
    fn unbounded_workload_exhausts_budget() {
        let report = cas_runner(2, Workload::unbounded()).max_steps(500).run();
        assert_eq!(report.stop, Stop::StepBudgetExhausted);
        assert!(
            report.total_entries() > 0,
            "unbounded loop should keep acquiring"
        );
    }

    #[test]
    fn broken_lock_is_caught() {
        let ids = PidPool::sequential().mint_many(2);
        let automata: Vec<NaiveFlagLock> = ids.into_iter().map(NaiveFlagLock::new).collect();
        let runner = Runner::with_adversary(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
            .unwrap()
            .workload(Workload {
                iterations: Some(50),
                cs_dwell: 2,
                remainder_dwell: 0,
            })
            .scheduler(Scheduler::random(1));
        let report = runner.run();
        assert!(
            matches!(report.stop, Stop::MutualExclusionViolation { .. }),
            "expected violation, got {:?}",
            report.stop
        );
    }

    #[test]
    fn trace_records_steps() {
        let report = cas_runner(2, Workload::cycles(2)).record_trace().run();
        let trace = report.trace.expect("tracing enabled");
        assert_eq!(trace.len() as u64, report.steps);
        assert!(trace.iter().any(|e| e.outcome == Some(Outcome::Acquired)));
        assert!(trace.iter().any(|e| e.outcome == Some(Outcome::Released)));
    }

    #[test]
    fn steps_per_proc_sum_to_steps() {
        let report = cas_runner(3, Workload::cycles(7))
            .scheduler(Scheduler::weighted(vec![1, 2, 3], 5))
            .run();
        assert_eq!(report.steps_per_proc.iter().sum::<u64>(), report.steps);
    }
}
