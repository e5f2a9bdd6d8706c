//! Systematic fault-injection campaign over the accelerator's
//! architectural state.
//!
//! A campaign runs one guest program to completion on a healthy
//! accelerator (the *golden* run), then replays it once per planned fault,
//! flipping a single bit of accelerator state — a register-file entry, the
//! carry latch, or the interface FSM — immediately before a sampled
//! command index. Every replay is classified into exactly one of four
//! outcomes:
//!
//! * [`FaultOutcome::Masked`] — the run finished with the golden results
//!   and nothing noticed; the flipped state was dead (e.g. a register-file
//!   bit Method-1 never reads).
//! * [`FaultOutcome::Detected`] — the guest's detection net saw the fault
//!   in-band: a nonzero `STAT` readback, or a fault-tolerant kernel's
//!   degradation counter advancing. Results still match the golden run.
//! * [`FaultOutcome::CaughtByWatchdog`] — the core's busy-watchdog aborted
//!   a wedged handshake: either delivered as an M-mode trap the guest
//!   handled, or surfaced as [`riscv_sim::CpuError::RoccTimeout`] when no
//!   trap vector was armed. Bounded in time either way.
//! * [`FaultOutcome::SilentDataCorruption`] — the run finished cleanly but
//!   the results differ from the golden run: the worst class, the one
//!   fault tolerance exists to eliminate.
//!
//! The plan is drawn deterministically from a [`SplitMix64`] seed, so a
//! campaign is exactly reproducible from `(program, seed, faults)`.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use riscv_asm::Program;
use riscv_isa::csr::cause;
use riscv_sim::{Coprocessor, Cpu, CpuError, Memory, RoccCommand, RoccResponse};
use rocc::{DecimalAccelerator, DecimalFunct};

use crate::fuzz::SplitMix64;
use codesign::framework::load_program;
use crate::journal::{Fingerprint, Journal, JournalError, JournalSpec, Progress};
use crate::supervisor::{run_case, supervise, CaseBudget, RetryPolicy, RunOutcome, WedgeReason};

/// One single-bit (or single-latch) fault in accelerator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Flip one bit of a register-file entry (`regfile[15]` is the
    /// accumulator, so the sweep covers it too).
    RegisterBit {
        /// Register-file index (0..16).
        index: usize,
        /// Bit position (0..128).
        bit: u32,
    },
    /// Flip the latched decimal carry.
    CarryFlip,
    /// Wedge the interface FSM mid-command: the handshake never completes
    /// until the core's busy-watchdog aborts it.
    FsmWedge,
    /// Force the FSM state register into `Error` without a latched cause.
    FsmError,
}

impl FaultTarget {
    /// Space-free stable token (journal format).
    #[must_use]
    pub fn token(self) -> String {
        match self {
            FaultTarget::RegisterBit { index, bit } => format!("reg:{index}:{bit}"),
            FaultTarget::CarryFlip => "carry".to_string(),
            FaultTarget::FsmWedge => "wedge".to_string(),
            FaultTarget::FsmError => "fsmerr".to_string(),
        }
    }

    /// Parses a [`FaultTarget::token`] back.
    #[must_use]
    pub fn from_token(token: &str) -> Option<FaultTarget> {
        match token {
            "carry" => Some(FaultTarget::CarryFlip),
            "wedge" => Some(FaultTarget::FsmWedge),
            "fsmerr" => Some(FaultTarget::FsmError),
            reg => {
                let rest = reg.strip_prefix("reg:")?;
                let (index, bit) = rest.split_once(':')?;
                Some(FaultTarget::RegisterBit {
                    index: index.parse().ok()?,
                    bit: bit.parse().ok()?,
                })
            }
        }
    }
}

impl std::fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultTarget::RegisterBit { index, bit } => write!(f, "regfile[{index}] bit {bit}"),
            FaultTarget::CarryFlip => write!(f, "carry flip"),
            FaultTarget::FsmWedge => write!(f, "FSM wedge"),
            FaultTarget::FsmError => write!(f, "FSM error-state flip"),
        }
    }
}

#[derive(Debug, Default)]
struct ProbeState {
    commands_seen: Cell<u64>,
    fired: Cell<bool>,
    stat_detected: Cell<bool>,
}

/// Shared observation handle for a [`FaultInjectingAccelerator`]: the
/// campaign keeps one end while the core owns the accelerator.
#[derive(Debug, Clone, Default)]
pub struct FaultProbe(Rc<ProbeState>);

impl FaultProbe {
    /// RoCC commands the accelerator has received so far.
    #[must_use]
    pub fn commands_seen(&self) -> u64 {
        self.0.commands_seen.get()
    }

    /// True once the planned fault has been injected.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.0.fired.get()
    }

    /// True if the guest read a nonzero `STAT` word after the injection —
    /// the in-band detection signal.
    #[must_use]
    pub fn stat_detected(&self) -> bool {
        self.0.stat_detected.get()
    }
}

/// A [`DecimalAccelerator`] that injects one planned fault into its own
/// architectural state immediately before the command at `fire_at`, and
/// records (through a [`FaultProbe`]) whether the guest later observed a
/// nonzero `STAT`.
#[derive(Debug)]
pub struct FaultInjectingAccelerator {
    inner: DecimalAccelerator,
    fire_at: Option<u64>,
    fault: Option<FaultTarget>,
    probe: Rc<ProbeState>,
}

impl FaultInjectingAccelerator {
    /// An accelerator that injects `fault` before command `fire_at`
    /// (0-based). Returns the accelerator and its observation probe.
    #[must_use]
    pub fn new(fault: FaultTarget, fire_at: u64) -> (Self, FaultProbe) {
        let probe = Rc::new(ProbeState::default());
        (
            FaultInjectingAccelerator {
                inner: DecimalAccelerator::new(),
                fire_at: Some(fire_at),
                fault: Some(fault),
                probe: Rc::clone(&probe),
            },
            FaultProbe(probe),
        )
    }

    /// A healthy accelerator that only counts commands — the golden run.
    #[must_use]
    pub fn golden() -> (Self, FaultProbe) {
        let probe = Rc::new(ProbeState::default());
        (
            FaultInjectingAccelerator {
                inner: DecimalAccelerator::new(),
                fire_at: None,
                fault: None,
                probe: Rc::clone(&probe),
            },
            FaultProbe(probe),
        )
    }

    fn apply(&mut self, fault: FaultTarget) {
        match fault {
            FaultTarget::RegisterBit { index, bit } => {
                self.inner.inject_register_bit_flip(index, bit);
            }
            FaultTarget::CarryFlip => self.inner.inject_carry_flip(),
            FaultTarget::FsmWedge => self.inner.inject_fsm_wedge(),
            FaultTarget::FsmError => self.inner.inject_fsm_error(),
        }
    }
}

impl Coprocessor for FaultInjectingAccelerator {
    fn execute(&mut self, cmd: &RoccCommand, mem: &mut Memory) -> Result<RoccResponse, CpuError> {
        let index = self.probe.commands_seen.get();
        self.probe.commands_seen.set(index + 1);
        if !self.probe.fired.get() && self.fire_at == Some(index) {
            if let Some(fault) = self.fault {
                self.apply(fault);
            }
            self.probe.fired.set(true);
        }
        let response = self.inner.execute(cmd, mem)?;
        if self.probe.fired.get()
            && cmd.instruction.funct7 == DecimalFunct::Stat.funct7()
            && response.rd_value.is_some_and(|v| v != 0)
        {
            self.probe.stat_detected.set(true);
        }
        Ok(response)
    }

    fn watchdog_abort(&mut self) {
        self.inner.watchdog_abort();
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Classification of one fault replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Golden results, no detection signal: the fault hit dead state.
    Masked,
    /// The guest observed the fault in-band (STAT or its degradation
    /// counter) and the results still match the golden run.
    Detected,
    /// The busy-watchdog bounded a wedged handshake (trap or
    /// `RoccTimeout`).
    CaughtByWatchdog,
    /// Clean completion with wrong results.
    SilentDataCorruption,
}

impl FaultOutcome {
    /// Parses the [`Display`](std::fmt::Display) token back (the journal
    /// stores outcomes in display form).
    #[must_use]
    pub fn from_token(token: &str) -> Option<FaultOutcome> {
        match token {
            "masked" => Some(FaultOutcome::Masked),
            "detected" => Some(FaultOutcome::Detected),
            "caught-by-watchdog" => Some(FaultOutcome::CaughtByWatchdog),
            "silent-data-corruption" => Some(FaultOutcome::SilentDataCorruption),
            _ => None,
        }
    }
}

impl std::fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::Detected => "detected",
            FaultOutcome::CaughtByWatchdog => "caught-by-watchdog",
            FaultOutcome::SilentDataCorruption => "silent-data-corruption",
        })
    }
}

/// One planned fault and what came of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Command index the fault preceded.
    pub at_command: u64,
    /// What was flipped.
    pub target: FaultTarget,
    /// How the replay ended.
    pub outcome: FaultOutcome,
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Plan seed: same seed, same program — same campaign, fault for
    /// fault.
    pub seed: u64,
    /// Number of faults to inject.
    pub faults: usize,
    /// Instruction budget per replay (a replay must never hang the host).
    pub instruction_budget: u64,
    /// Data symbol holding the guest's results, compared word-for-word
    /// against the golden run to tell masked from corrupted.
    pub results_symbol: Option<String>,
    /// Number of 64-bit words under `results_symbol`.
    pub result_words: usize,
    /// Data symbol of a degradation counter (fault-tolerant kernels); an
    /// advance past the golden value counts as in-band detection.
    pub degraded_symbol: Option<String>,
    /// Cap on mapped guest pages per replay (a fault can turn a store
    /// loop into a memory hog).
    pub memory_page_cap: Option<usize>,
    /// Wall-clock budget per replay attempt, if any.
    pub wall_clock: Option<Duration>,
    /// Attempts (first run included) granted to a replay that wedges
    /// before it is quarantined.
    pub max_wedge_attempts: u32,
    /// Backoff before the first wedge retry (doubling); zero disables
    /// sleeping.
    pub retry_backoff: Duration,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 2019,
            faults: 500,
            instruction_budget: 2_000_000,
            results_symbol: Some("results".to_string()),
            result_words: 0,
            degraded_symbol: Some("ft_degraded".to_string()),
            memory_page_cap: Some(4096),
            wall_clock: None,
            max_wedge_attempts: 3,
            retry_backoff: Duration::from_millis(10),
        }
    }
}

/// A planned fault whose replay never produced a classifiable completion:
/// it stayed wedged through every granted attempt, exhausted a budget, or
/// died on an unhandled fault. The campaign logs it and moves on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedCase {
    /// Position in the campaign plan.
    pub index: usize,
    /// Command index the fault preceded.
    pub at_command: u64,
    /// What was flipped.
    pub target: FaultTarget,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// The final attempt's [`RunOutcome`] token.
    pub outcome: String,
}

impl std::fmt::Display for QuarantinedCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault {} before command {} quarantined after {} attempt(s): {}",
            self.target, self.at_command, self.attempts, self.outcome
        )
    }
}

/// The campaign's result: the golden baseline, every classified record,
/// the quarantined cases, and any setup failure (must be empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// RoCC commands the golden run issued (the samplable index space).
    pub total_commands: u64,
    /// The golden run's exit code.
    pub golden_exit: i64,
    /// One record per classified fault, in plan order.
    pub records: Vec<FaultRecord>,
    /// Faults whose replays never completed: wedged past the retry bound,
    /// over a budget, or dead on an unhandled fault. Each is a logged
    /// skip — the campaign still completes and classifies the rest.
    pub quarantined: Vec<QuarantinedCase>,
    /// Campaign-level failures (golden run failed, no commands to inject
    /// into). A sound setup leaves this empty.
    pub errors: Vec<String>,
}

/// Per-class totals of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignTally {
    /// Faults with no architectural effect.
    pub masked: u64,
    /// Faults the guest observed in-band.
    pub detected: u64,
    /// Wedges bounded by the busy-watchdog.
    pub caught_by_watchdog: u64,
    /// Faults that silently corrupted results.
    pub silent_data_corruption: u64,
}

impl CampaignReport {
    /// Per-class totals.
    #[must_use]
    pub fn tally(&self) -> CampaignTally {
        let mut tally = CampaignTally::default();
        for record in &self.records {
            match record.outcome {
                FaultOutcome::Masked => tally.masked += 1,
                FaultOutcome::Detected => tally.detected += 1,
                FaultOutcome::CaughtByWatchdog => tally.caught_by_watchdog += 1,
                FaultOutcome::SilentDataCorruption => tally.silent_data_corruption += 1,
            }
        }
        tally
    }

    /// True when every replay landed in one of the four classes.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

fn read_words(memory: &Memory, program: &Program, symbol: &str, words: usize) -> Option<Vec<u64>> {
    let base = program.symbol(symbol)?;
    (0..words)
        .map(|i| memory.read_u64(base + 8 * i as u64).ok())
        .collect()
}

fn read_counter(memory: &Memory, program: &Program, symbol: &str) -> Option<u64> {
    memory.read_u64(program.symbol(symbol)?).ok()
}

fn sample_target(rng: &mut SplitMix64) -> FaultTarget {
    // Register-file bits dominate the real state space; weight them so.
    match rng.below(8) {
        0..=4 => FaultTarget::RegisterBit {
            index: rng.below(16) as usize,
            bit: rng.below(128) as u32,
        },
        5 => FaultTarget::CarryFlip,
        6 => FaultTarget::FsmWedge,
        _ => FaultTarget::FsmError,
    }
}

/// The golden run's observables, against which every replay is judged.
struct GoldenBaseline {
    exit: i64,
    results: Option<Vec<u64>>,
    degraded: Option<u64>,
}

/// How one supervised replay ended.
enum CaseResult {
    /// The replay completed (or was watchdog-bounded) and was classified.
    Classified(FaultOutcome),
    /// The replay never completed; logged and skipped.
    Quarantined {
        attempts: u32,
        outcome: RunOutcome,
    },
    /// A quarantine decision reconstructed from the journal: only the
    /// stable outcome token survives the round trip.
    QuarantinedReplayed {
        attempts: u32,
        token: String,
    },
}

/// Runs one fault replay under the supervisor and classifies it.
fn replay_case(
    program: &Program,
    config: &CampaignConfig,
    golden: &GoldenBaseline,
    at_command: u64,
    target: FaultTarget,
) -> CaseResult {
    let budget = CaseBudget {
        instruction_fuel: config.instruction_budget,
        memory_pages: config.memory_page_cap,
        wall_clock: config.wall_clock,
    };
    let policy = RetryPolicy {
        max_attempts: config.max_wedge_attempts,
        backoff: config.retry_backoff,
    };
    // Each attempt builds a fresh core and accelerator, so a wedge cannot
    // leak state into its own retry; the last attempt's machine is kept
    // for classification.
    let mut last: Option<(Cpu, FaultProbe)> = None;
    let run = supervise(&policy, || {
        let (accelerator, probe) = FaultInjectingAccelerator::new(target, at_command);
        let mut cpu = Cpu::new();
        cpu.attach_coprocessor(Box::new(accelerator));
        load_program(&mut cpu, program);
        let outcome = run_case(&mut cpu, &budget);
        last = Some((cpu, probe));
        outcome
    });
    let (cpu, probe) = last.expect("supervise runs the attempt at least once");
    match run.outcome {
        RunOutcome::Completed { exit_code } => {
            let watchdog_trapped = cpu.trap_log.iter().any(|t| t.cause == cause::ROCC_TIMEOUT);
            let results = config
                .results_symbol
                .as_deref()
                .and_then(|s| read_words(&cpu.memory, program, s, config.result_words));
            let degraded = config
                .degraded_symbol
                .as_deref()
                .and_then(|s| read_counter(&cpu.memory, program, s));
            let corrupted = exit_code != golden.exit || results != golden.results;
            let in_band = probe.stat_detected()
                || matches!((golden.degraded, degraded), (Some(g), Some(d)) if d > g);
            CaseResult::Classified(if watchdog_trapped {
                FaultOutcome::CaughtByWatchdog
            } else if corrupted {
                FaultOutcome::SilentDataCorruption
            } else if in_band {
                FaultOutcome::Detected
            } else {
                FaultOutcome::Masked
            })
        }
        // Watchdog surfaced as a hard fault: no trap vector was armed.
        // Bounded in time, so it is a classification, not a skip.
        RunOutcome::Wedged {
            reason: WedgeReason::WatchdogAbort,
        } => CaseResult::Classified(FaultOutcome::CaughtByWatchdog),
        outcome => CaseResult::Quarantined {
            attempts: run.attempts,
            outcome,
        },
    }
}

/// Binds a journal to everything that shapes the campaign's case stream:
/// the plan parameters, the classification symbols, the quarantine bounds,
/// and the program itself.
fn campaign_fingerprint(program: &Program, config: &CampaignConfig) -> u64 {
    let mut fp = Fingerprint::new("faults");
    fp.u64(config.seed)
        .u64(config.faults as u64)
        .u64(config.instruction_budget)
        .u64(config.result_words as u64)
        .bytes(config.results_symbol.as_deref().unwrap_or("").as_bytes())
        .bytes(config.degraded_symbol.as_deref().unwrap_or("").as_bytes())
        .u64(config.memory_page_cap.map_or(u64::MAX, |c| c as u64))
        .u64(u64::from(config.max_wedge_attempts))
        .u64(program.entry);
    for segment in program.segments() {
        fp.u64(segment.base).bytes(&segment.data);
    }
    fp.finish()
}

/// One parsed journal line: `(at_command, target token, outcome field)`.
type JournaledCase = (u64, String, String);

fn parse_journaled_cases(lines: &[String]) -> HashMap<usize, JournaledCase> {
    let mut cases = HashMap::new();
    for line in lines {
        let fields: Vec<&str> = line.split(' ').collect();
        if let [index, at_command, target, outcome] = fields[..] {
            if let (Ok(index), Ok(at_command)) = (index.parse(), at_command.parse()) {
                // Later lines win: a re-run after a rejected replay
                // supersedes the stale record.
                cases.insert(index, (at_command, target.to_string(), outcome.to_string()));
            }
        }
    }
    cases
}

/// Reconstructs the in-memory result of a journaled case, if its plan
/// coordinates still match and its outcome field parses.
fn replay_from_journal(
    entry: &JournaledCase,
    at_command: u64,
    target: FaultTarget,
) -> Option<CaseResult> {
    let (journaled_at, journaled_target, outcome) = entry;
    if *journaled_at != at_command || *journaled_target != target.token() {
        return None;
    }
    if let Some(rest) = outcome.strip_prefix("quarantined:") {
        let (attempts, token) = rest.split_once(':')?;
        Some(CaseResult::QuarantinedReplayed {
            attempts: attempts.parse().ok()?,
            token: token.to_string(),
        })
    } else {
        FaultOutcome::from_token(outcome).map(CaseResult::Classified)
    }
}

/// Runs a full campaign over `program` (unjournaled convenience wrapper
/// around [`run_campaign_journaled`]).
///
/// The golden run must complete within the budget; otherwise the report
/// carries a single error and no records. Replays never panic the host:
/// every replay is either classified or quarantined.
#[must_use]
pub fn run_campaign(program: &Program, config: &CampaignConfig) -> CampaignReport {
    run_campaign_journaled(program, config, None, &mut |_| {})
        .expect("a campaign without a journal performs no fallible I/O")
}

/// Runs a campaign with an optional write-ahead journal and progress
/// callback.
///
/// With a [`JournalSpec`], every completed case is appended (and flushed)
/// before the next one starts; with `resume` set, cases already covered by
/// an intact journal prefix are reconstructed from it instead of re-run.
/// The per-fault plan is always re-drawn from the seed — journal entries
/// only short-circuit the expensive replays — so a resumed campaign's
/// report is byte-identical to an uninterrupted one.
///
/// # Errors
///
/// Journal I/O failures and header mismatches ([`JournalError`]). A
/// journal-less run never fails.
pub fn run_campaign_journaled(
    program: &Program,
    config: &CampaignConfig,
    journal: Option<&JournalSpec>,
    progress: &mut dyn FnMut(Progress),
) -> Result<CampaignReport, JournalError> {
    // ---- golden run (always performed: cheap, deterministic, and the
    // baseline every journaled classification was judged against) ----
    let (accelerator, probe) = FaultInjectingAccelerator::golden();
    let mut cpu = Cpu::new();
    cpu.attach_coprocessor(Box::new(accelerator));
    load_program(&mut cpu, program);
    let golden_exit = match cpu.run(config.instruction_budget) {
        Ok(code) => code,
        Err(e) => {
            return Ok(CampaignReport {
                total_commands: probe.commands_seen(),
                golden_exit: -1,
                records: Vec::new(),
                quarantined: Vec::new(),
                errors: vec![format!("golden run failed: {e}")],
            })
        }
    };
    let total_commands = probe.commands_seen();
    let golden = GoldenBaseline {
        exit: golden_exit,
        results: config
            .results_symbol
            .as_deref()
            .and_then(|s| read_words(&cpu.memory, program, s, config.result_words)),
        degraded: config
            .degraded_symbol
            .as_deref()
            .and_then(|s| read_counter(&cpu.memory, program, s)),
    };
    if total_commands == 0 {
        return Ok(CampaignReport {
            total_commands,
            golden_exit,
            records: Vec::new(),
            quarantined: Vec::new(),
            errors: vec!["guest issued no RoCC commands; nothing to inject into".to_string()],
        });
    }

    // ---- journal recovery ----
    let fingerprint = campaign_fingerprint(program, config);
    let mut journaled = HashMap::new();
    let mut journal_file = match journal {
        None => None,
        Some(spec) if spec.resume => {
            let (recovered, file) = Journal::resume(&spec.path, "faults", fingerprint)?;
            journaled = parse_journaled_cases(&recovered.cases);
            Some(file)
        }
        Some(spec) => Some(Journal::create(&spec.path, "faults", fingerprint)?),
    };

    // ---- planned replays ----
    let mut rng = SplitMix64::new(config.seed);
    let mut records = Vec::with_capacity(config.faults);
    let mut quarantined = Vec::new();
    for index in 0..config.faults {
        // The plan is always drawn, journaled case or not, so the rng
        // stream stays aligned with the uninterrupted run.
        let at_command = rng.below(total_commands);
        let target = sample_target(&mut rng);
        let (result, from_journal) = match journaled
            .get(&index)
            .and_then(|entry| replay_from_journal(entry, at_command, target))
        {
            Some(result) => (result, true),
            None => (
                replay_case(program, config, &golden, at_command, target),
                false,
            ),
        };
        let outcome_field = match result {
            CaseResult::Classified(outcome) => {
                records.push(FaultRecord {
                    at_command,
                    target,
                    outcome,
                });
                outcome.to_string()
            }
            CaseResult::Quarantined { attempts, outcome } => {
                let token = outcome.token();
                quarantined.push(QuarantinedCase {
                    index,
                    at_command,
                    target,
                    attempts,
                    outcome: token.clone(),
                });
                format!("quarantined:{attempts}:{token}")
            }
            CaseResult::QuarantinedReplayed { attempts, token } => {
                quarantined.push(QuarantinedCase {
                    index,
                    at_command,
                    target,
                    attempts,
                    outcome: token.clone(),
                });
                format!("quarantined:{attempts}:{token}")
            }
        };
        if let Some(j) = journal_file.as_mut() {
            if !from_journal {
                j.append_case(&[
                    &index.to_string(),
                    &at_command.to_string(),
                    &target.token(),
                    &outcome_field,
                ])?;
            }
        }
        let done = index + 1;
        if let Some(spec) = journal {
            if spec.checkpoint_every > 0 && done.is_multiple_of(spec.checkpoint_every) {
                if let (Some(j), false) = (journal_file.as_mut(), from_journal) {
                    j.checkpoint(done)?;
                }
                progress(Progress {
                    done,
                    total: config.faults,
                    quarantined: quarantined.len(),
                });
            }
        }
    }
    progress(Progress {
        done: config.faults,
        total: config.faults,
        quarantined: quarantined.len(),
    });
    Ok(CampaignReport {
        total_commands,
        golden_exit,
        records,
        quarantined,
        errors: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_asm::assemble;

    fn add_guest() -> Program {
        // Four DEC_ADD/DEC_ADC pairs, results summed into a0.
        assemble(
            "
            start:
                li   s1, 0
                li   s2, 4
            loop:
                li   t0, 0x15
                li   t1, 0x27
                custom0 4, t2, t0, t1, 1, 1, 1
                custom0 9, t3, zero, zero, 1, 1, 1
                add  s1, s1, t2
                add  s1, s1, t3
                addi s2, s2, -1
                bnez s2, loop
                la   t0, results
                sd   s1, 0(t0)
                li   a0, 0
                li   a7, 93
                ecall
                .data
            .align 3
            results:
                .space 8
            ",
        )
        .unwrap()
    }

    #[test]
    fn campaign_is_deterministic_in_the_seed() {
        let program = add_guest();
        let config = CampaignConfig {
            faults: 60,
            result_words: 1,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&program, &config);
        let b = run_campaign(&program, &config);
        assert_eq!(a.records, b.records);
        assert!(a.ok(), "{:?}", a.errors);
        assert_eq!(a.total_commands, 8);
    }

    /// A guest that retries a DEC_ADD until it yields the expected sum,
    /// with a trap handler that restarts the retry loop. Against a healthy
    /// accelerator it exits first try; against a wedged one it livelocks
    /// (the sticky Error state answers every retry with a benign zero), so
    /// the supervisor must quarantine it for the campaign to finish.
    fn retrying_guest() -> Program {
        assemble(
            "
            start:
                la   t0, handler
                csrrw zero, 0x305, t0
            retry:
                li   t0, 0x15
                li   t1, 0x27
                custom0 4, t2, t0, t1, 1, 1, 1
                li   t3, 0x42
                bne  t2, t3, retry
                la   t0, results
                sd   t2, 0(t0)
                li   a0, 0
                li   a7, 93
                ecall
            handler:
                la   t4, retry
                csrrw zero, 0x341, t4
                mret
                .data
            .align 3
            results:
                .space 8
            ",
        )
        .unwrap()
    }

    #[test]
    fn wedged_case_is_quarantined_and_the_campaign_completes() {
        let program = retrying_guest();
        let config = CampaignConfig {
            faults: 40,
            result_words: 1,
            instruction_budget: 20_000,
            max_wedge_attempts: 3,
            retry_backoff: Duration::ZERO,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&program, &config);
        assert!(report.ok(), "{:?}", report.errors);
        // Every planned fault is accounted for: classified or quarantined.
        assert_eq!(report.records.len() + report.quarantined.len(), 40);
        assert!(
            !report.quarantined.is_empty(),
            "FSM wedges against a retrying guest must quarantine"
        );
        // A wedge livelocks the retry loop: the supervisor burns all its
        // attempts before giving up.
        assert!(
            report
                .quarantined
                .iter()
                .any(|q| q.attempts == 3 && q.outcome == "wedged:livelock"),
            "{:?}",
            report.quarantined
        );
        // The quarantine did not eat the ordinary classes.
        assert!(report.tally().masked > 0);
        // Deterministic: an identical run reproduces the report exactly.
        assert_eq!(run_campaign(&program, &config), report);
    }

    #[test]
    fn journaled_campaign_resumes_to_an_identical_report() {
        let program = add_guest();
        let config = CampaignConfig {
            faults: 30,
            result_words: 1,
            ..CampaignConfig::default()
        };
        let mut path = std::env::temp_dir();
        path.push(format!("campaign-unit-{}.journal", std::process::id()));
        let spec = JournalSpec {
            path: path.clone(),
            resume: false,
            checkpoint_every: 7,
        };
        let full = run_campaign_journaled(&program, &config, Some(&spec), &mut |_| {}).unwrap();
        // Truncate the journal to a prefix (simulating a crash), then
        // resume: the report must come out identical.
        let bytes = std::fs::read(&path).unwrap();
        let cut: usize = bytes.len() / 2;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let resume = JournalSpec {
            path: path.clone(),
            resume: true,
            checkpoint_every: 7,
        };
        let mut progress_calls = 0;
        let resumed =
            run_campaign_journaled(&program, &config, Some(&resume), &mut |_| progress_calls += 1)
                .unwrap();
        assert_eq!(resumed, full);
        assert!(progress_calls > 0);
        // A second resume over the now-complete journal is pure replay.
        let replayed =
            run_campaign_journaled(&program, &config, Some(&resume), &mut |_| {}).unwrap();
        assert_eq!(replayed, full);
        // A different seed must refuse the journal.
        let other = CampaignConfig {
            seed: 7,
            ..config.clone()
        };
        assert!(matches!(
            run_campaign_journaled(&program, &other, Some(&resume), &mut |_| {}),
            Err(JournalError::Fingerprint { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unprotected_guest_shows_corruption_and_watchdog_classes() {
        let program = add_guest();
        let report = run_campaign(
            &program,
            &CampaignConfig {
                faults: 120,
                result_words: 1,
                ..CampaignConfig::default()
            },
        );
        assert!(report.ok(), "{:?}", report.errors);
        let tally = report.tally();
        // No trap vector and no STAT reads: wedges die on RoccTimeout and
        // carry flips corrupt silently.
        assert!(tally.caught_by_watchdog > 0, "{tally:?}");
        assert!(tally.silent_data_corruption > 0, "{tally:?}");
        assert!(tally.masked > 0, "{tally:?}");
    }
}
