//! Per-case run supervision: budgets, a typed outcome taxonomy, and
//! bounded retry with quarantine.
//!
//! Campaigns replay one guest program hundreds of times with injected
//! faults; a single pathological replay must degrade to a logged skip, not
//! take the whole campaign down. The supervisor enforces three budgets on
//! every case:
//!
//! * **instruction fuel** — the replay retires at most this many
//!   instructions;
//! * **memory-page cap** — the guest may not map more than this many
//!   4 KiB pages (a fault that turns a loop counter into a giant store
//!   stride would otherwise eat host memory);
//! * **wall clock** — a hard real-time bound, checked periodically.
//!
//! and classifies every termination into the [`RunOutcome`] taxonomy.
//! [`supervise`] then retries the retryable outcomes (wedges that may be
//! an artifact of scheduling rather than the injected fault) a bounded
//! number of times with doubling backoff; a case that stays wedged is
//! quarantined by the caller.

use std::time::{Duration, Instant};

use riscv_isa::csr::cause;
use riscv_sim::{Cpu, CpuError, Event};

/// How often (in retired instructions) the wall-clock budget is polled.
const WALL_CLOCK_POLL: u64 = 4096;

/// Resource budgets for one supervised case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseBudget {
    /// Maximum instructions the case may retire.
    pub instruction_fuel: u64,
    /// Maximum mapped 4 KiB guest pages, if capped.
    pub memory_pages: Option<usize>,
    /// Maximum host wall-clock time, if capped (polled every 4,096
    /// instructions).
    pub wall_clock: Option<Duration>,
}

impl Default for CaseBudget {
    fn default() -> Self {
        CaseBudget {
            instruction_fuel: 2_000_000,
            memory_pages: Some(4096), // 16 MiB of guest memory
            wall_clock: None,
        }
    }
}

/// Why a case counts as wedged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WedgeReason {
    /// The core's RoCC busy-watchdog aborted a hung accelerator handshake
    /// and no trap vector was armed ([`CpuError::RoccTimeout`]).
    WatchdogAbort,
    /// Fuel ran out while the trap log shows the guest spinning on
    /// watchdog traps — it is retrying a permanently wedged accelerator.
    Livelock,
    /// The wall-clock budget expired.
    WallClock,
}

impl WedgeReason {
    /// Space-free stable token (journal format).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            WedgeReason::WatchdogAbort => "watchdog",
            WedgeReason::Livelock => "livelock",
            WedgeReason::WallClock => "wall-clock",
        }
    }
}

/// Every way a supervised case can end. Exactly one variant per run — the
/// taxonomy is total, so campaign code never needs a catch-all panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The guest exited.
    Completed {
        /// Its exit code.
        exit_code: i64,
    },
    /// The instruction fuel ran out with no sign of an accelerator wedge.
    FuelExhausted {
        /// The fuel that was granted.
        fuel: u64,
    },
    /// The guest mapped more pages than the budget allows.
    MemCapExceeded {
        /// Pages mapped when the cap tripped.
        pages: usize,
        /// The cap.
        cap: usize,
    },
    /// The guest died on an architectural fault it did not handle.
    Trapped {
        /// The fault.
        error: CpuError,
    },
    /// The case is wedged (see [`WedgeReason`]).
    Wedged {
        /// Why.
        reason: WedgeReason,
    },
}

impl RunOutcome {
    /// True for outcomes worth retrying: wedges that might be transient
    /// interactions rather than deterministic consequences of the case.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RunOutcome::Wedged {
                reason: WedgeReason::Livelock | WedgeReason::WallClock
            }
        )
    }

    /// Space-free stable token for journal records.
    #[must_use]
    pub fn token(&self) -> String {
        match self {
            RunOutcome::Completed { exit_code } => format!("completed:{exit_code}"),
            RunOutcome::FuelExhausted { fuel } => format!("fuel-exhausted:{fuel}"),
            RunOutcome::MemCapExceeded { pages, cap } => format!("mem-cap:{pages}/{cap}"),
            RunOutcome::Trapped { error } => format!("fault:{}", error_token(error)),
            RunOutcome::Wedged { reason } => format!("wedged:{}", reason.token()),
        }
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Completed { exit_code } => write!(f, "completed with exit code {exit_code}"),
            RunOutcome::FuelExhausted { fuel } => {
                write!(f, "exhausted its fuel of {fuel} instructions")
            }
            RunOutcome::MemCapExceeded { pages, cap } => {
                write!(f, "mapped {pages} pages, over the cap of {cap}")
            }
            RunOutcome::Trapped { error } => write!(f, "died on an unhandled fault: {error}"),
            RunOutcome::Wedged { reason } => match reason {
                WedgeReason::WatchdogAbort => write!(f, "wedged (watchdog abort, no trap vector)"),
                WedgeReason::Livelock => write!(f, "wedged (livelocked on a hung accelerator)"),
                WedgeReason::WallClock => write!(f, "wedged (wall-clock budget expired)"),
            },
        }
    }
}

/// Compact space-free rendering of a [`CpuError`] for outcome tokens.
#[must_use]
fn error_token(error: &CpuError) -> String {
    match *error {
        CpuError::UnmappedAddress(a) => format!("unmapped@{a:#x}"),
        CpuError::FetchFault(a) => format!("fetch@{a:#x}"),
        CpuError::MisalignedPc(a) => format!("misaligned-pc@{a:#x}"),
        CpuError::Decode(_) => "decode".to_string(),
        CpuError::UnknownSyscall(n) => format!("syscall:{n}"),
        CpuError::Breakpoint(a) => format!("breakpoint@{a:#x}"),
        CpuError::ReadOnlyCsr(c) => format!("readonly-csr:{c:#x}"),
        CpuError::NoCoprocessor { funct7 } => format!("no-coproc:{funct7}"),
        CpuError::UnknownRoccFunction { funct7 } => format!("unknown-rocc:{funct7}"),
        CpuError::RoccProtocol(_) => "rocc-protocol".to_string(),
        CpuError::MissingRoccResponse { funct7 } => format!("missing-rocc-resp:{funct7}"),
        CpuError::RoccTimeout { funct7, .. } => format!("rocc-timeout:{funct7}"),
        CpuError::InstructionLimit(n) => format!("instruction-limit:{n}"),
        _ => "other".to_string(),
    }
}

/// Steps `cpu` under `budget` until it exits, faults, wedges, or runs out
/// of a budget, and classifies the ending. Never panics, never loops
/// forever: every path out is a [`RunOutcome`].
pub fn run_case(cpu: &mut Cpu, budget: &CaseBudget) -> RunOutcome {
    let started = budget.wall_clock.map(|_| Instant::now());
    for executed in 0..budget.instruction_fuel {
        match cpu.step() {
            Ok(Event::Exited { code }) => return RunOutcome::Completed { exit_code: code },
            Ok(_) => {}
            Err(CpuError::RoccTimeout { .. }) => {
                return RunOutcome::Wedged {
                    reason: WedgeReason::WatchdogAbort,
                }
            }
            Err(error) => return RunOutcome::Trapped { error },
        }
        if let Some(cap) = budget.memory_pages {
            let pages = cpu.memory.mapped_pages();
            if pages > cap {
                return RunOutcome::MemCapExceeded { pages, cap };
            }
        }
        if executed % WALL_CLOCK_POLL == WALL_CLOCK_POLL - 1 {
            if let (Some(limit), Some(start)) = (budget.wall_clock, started) {
                if start.elapsed() > limit {
                    return RunOutcome::Wedged {
                        reason: WedgeReason::WallClock,
                    };
                }
            }
        }
    }
    // Fuel is gone. If the trap log shows the watchdog fired, the guest
    // was spinning on a permanently wedged accelerator (each retry gets a
    // benign response from the sticky Error state, so it never converges);
    // that is a wedge, not an honest long computation.
    if cpu.trap_log.iter().any(|t| t.cause == cause::ROCC_TIMEOUT) {
        RunOutcome::Wedged {
            reason: WedgeReason::Livelock,
        }
    } else {
        RunOutcome::FuelExhausted {
            fuel: budget.instruction_fuel,
        }
    }
}

/// Retry policy for [`supervise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first run included). At least 1.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles on each further retry. Zero
    /// disables sleeping (tests).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(10),
        }
    }
}

/// A supervised case's final outcome and how many attempts it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisedRun {
    /// The last attempt's outcome.
    pub outcome: RunOutcome,
    /// Attempts consumed (1 when the first run was conclusive).
    pub attempts: u32,
}

/// Runs `attempt` up to `policy.max_attempts` times, retrying only
/// [retryable](RunOutcome::is_retryable) outcomes with doubling backoff.
/// The closure builds and runs a fresh case per call, so a wedge caused by
/// stale state cannot leak into the retry.
pub fn supervise<F>(policy: &RetryPolicy, mut attempt: F) -> SupervisedRun
where
    F: FnMut() -> RunOutcome,
{
    let max_attempts = policy.max_attempts.max(1);
    let mut backoff = policy.backoff;
    let mut outcome = attempt();
    let mut attempts = 1;
    while outcome.is_retryable() && attempts < max_attempts {
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
            backoff *= 2;
        }
        outcome = attempt();
        attempts += 1;
    }
    SupervisedRun { outcome, attempts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign::framework::load_program;
    use riscv_asm::assemble;

    fn run_source(source: &str, budget: &CaseBudget) -> RunOutcome {
        let program = assemble(source).unwrap();
        let mut cpu = Cpu::new();
        load_program(&mut cpu, &program);
        run_case(&mut cpu, budget)
    }

    #[test]
    fn clean_exit_is_completed() {
        let outcome = run_source(
            "start:\n    li a0, 7\n    li a7, 93\n    ecall\n",
            &CaseBudget::default(),
        );
        assert_eq!(outcome, RunOutcome::Completed { exit_code: 7 });
        assert_eq!(outcome.token(), "completed:7");
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let outcome = run_source(
            "start:\n    j start\n",
            &CaseBudget {
                instruction_fuel: 500,
                ..CaseBudget::default()
            },
        );
        assert_eq!(outcome, RunOutcome::FuelExhausted { fuel: 500 });
        assert!(!outcome.is_retryable());
    }

    #[test]
    fn unhandled_fault_is_trapped() {
        let outcome = run_source(
            "start:\n    li t0, 0x666000\n    ld a0, 0(t0)\n",
            &CaseBudget::default(),
        );
        assert_eq!(
            outcome,
            RunOutcome::Trapped {
                error: CpuError::UnmappedAddress(0x66_6000)
            }
        );
        assert_eq!(outcome.token(), "fault:unmapped@0x666000");
    }

    #[test]
    fn page_cap_stops_a_memory_hog() {
        // Store to a fresh page each iteration, forever.
        let outcome = run_source(
            "
            start:
                li t0, 0x100000
            loop:
                sd zero, 0(t0)
                li t1, 4096
                add t0, t0, t1
                j loop
            ",
            &CaseBudget {
                memory_pages: Some(16),
                ..CaseBudget::default()
            },
        );
        match outcome {
            RunOutcome::MemCapExceeded { pages, cap: 16 } => assert!(pages > 16),
            other => panic!("expected mem-cap outcome, got {other:?}"),
        }
    }

    #[test]
    fn supervise_retries_only_retryable_outcomes() {
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        };
        // A conclusive outcome: one attempt.
        let run = supervise(&policy, || RunOutcome::Completed { exit_code: 0 });
        assert_eq!(run.attempts, 1);
        // A persistent livelock: all attempts burned, still wedged.
        let mut calls = 0;
        let run = supervise(&policy, || {
            calls += 1;
            RunOutcome::Wedged {
                reason: WedgeReason::Livelock,
            }
        });
        assert_eq!((run.attempts, calls), (3, 3));
        assert!(run.outcome.is_retryable());
        // A transient wedge that clears on the second attempt.
        let mut calls = 0;
        let run = supervise(&policy, || {
            calls += 1;
            if calls == 1 {
                RunOutcome::Wedged {
                    reason: WedgeReason::WallClock,
                }
            } else {
                RunOutcome::Completed { exit_code: 0 }
            }
        });
        assert_eq!(run.attempts, 2);
        assert_eq!(run.outcome, RunOutcome::Completed { exit_code: 0 });
    }

    #[test]
    fn outcome_tokens_are_space_free() {
        let outcomes = [
            RunOutcome::Completed { exit_code: -1 },
            RunOutcome::FuelExhausted { fuel: 10 },
            RunOutcome::MemCapExceeded { pages: 20, cap: 16 },
            RunOutcome::Trapped {
                error: CpuError::RoccProtocol("x"),
            },
            RunOutcome::Wedged {
                reason: WedgeReason::WatchdogAbort,
            },
        ];
        for outcome in outcomes {
            assert!(!outcome.token().contains(' '), "{}", outcome.token());
        }
    }
}
