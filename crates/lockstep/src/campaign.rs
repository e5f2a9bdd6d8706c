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
//!
//! Every replay runs a block at a time ([`Cpu::run`]), bounded by the
//! instruction budget and by guest memory's own bound of
//! [`riscv_sim::Memory::MAX_PAGES`] pages (16 MiB; a fault can turn a
//! store loop into a memory hog). A replay that exhausts either, dies on a
//! fault its guest does not handle, or livelocks on a wedged accelerator
//! is *quarantined*: logged and skipped, so the campaign still classifies
//! the rest. A replay is a fresh core and accelerator running the same
//! program, so it is deterministic; a quarantined case would end the same
//! way again and is never retried.

use std::cell::Cell;
use std::rc::Rc;

use riscv_asm::Program;
use riscv_isa::csr::cause;
use riscv_sim::{Coprocessor, Cpu, CpuError, Memory, RoccCommand, RoccResponse};
use rocc::{DecimalAccelerator, DecimalFunct};

use crate::fuzz::SplitMix64;
use crate::journal::{CaseLog, Fingerprint, JournalError, JournalSpec, Progress};
use codesign::framework::{load_program, read_degradation, read_result_words};

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
    /// Number of 64-bit words under the guest's
    /// [`RESULTS_SYMBOL`](codesign::framework::RESULTS_SYMBOL), compared
    /// word for word against the golden run to tell masked from corrupted.
    pub result_words: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 2019,
            faults: 500,
            instruction_budget: 2_000_000,
            result_words: 0,
        }
    }
}

/// A planned fault whose replay never produced a classifiable completion:
/// it livelocked on a wedged accelerator, exhausted a budget, or died on an
/// unhandled fault. The campaign logs it and moves on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedCase {
    /// Position in the campaign plan.
    pub index: usize,
    /// Command index the fault preceded.
    pub at_command: u64,
    /// What was flipped.
    pub target: FaultTarget,
    /// How the replay ended, as a stable space-free token (for example
    /// `wedged:livelock` or `fuel-exhausted:20000`).
    pub outcome: String,
}

impl std::fmt::Display for QuarantinedCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault {} before command {} quarantined: {}",
            self.target, self.at_command, self.outcome
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
    /// Faults whose replays never completed: livelocked, over a budget, or
    /// dead on an unhandled fault. Each is a logged skip — the campaign
    /// still completes and classifies the rest.
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

/// Every way a replay can end. Exactly one variant per run — the taxonomy
/// is total, so campaign code never needs a catch-all panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunOutcome {
    /// The guest exited with this code.
    Completed { exit_code: i64 },
    /// The instruction fuel ran out with no sign of an accelerator wedge.
    FuelExhausted { fuel: u64 },
    /// The guest died on an architectural fault it did not handle, or its
    /// memory reached its bound ([`CpuError::MemoryLimit`]).
    Trapped { error: CpuError },
    /// Wedged: the core's RoCC busy-watchdog aborted a hung accelerator
    /// handshake and no trap vector was armed ([`CpuError::RoccTimeout`]).
    WatchdogAbort,
    /// Wedged: fuel ran out while the trap log shows the guest spinning on
    /// watchdog traps — it is retrying a permanently wedged accelerator.
    Livelock,
}

impl RunOutcome {
    /// Space-free stable token for journal records.
    fn token(&self) -> String {
        match self {
            RunOutcome::Completed { exit_code } => format!("completed:{exit_code}"),
            RunOutcome::FuelExhausted { fuel } => format!("fuel-exhausted:{fuel}"),
            // The memory bound is the host's limit, not a guest fault.
            RunOutcome::Trapped {
                error: error @ CpuError::MemoryLimit(_),
            } => error_token(error),
            RunOutcome::Trapped { error } => format!("fault:{}", error_token(error)),
            RunOutcome::WatchdogAbort => "wedged:watchdog".to_string(),
            RunOutcome::Livelock => "wedged:livelock".to_string(),
        }
    }
}

/// Compact space-free rendering of a [`CpuError`] for outcome tokens.
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
        CpuError::MemoryLimit(_) => {
            format!("mem-cap:{}/{}", Memory::MAX_PAGES + 1, Memory::MAX_PAGES)
        }
        _ => "other".to_string(),
    }
}

/// Runs `cpu` for at most `fuel` instructions until it exits, faults,
/// wedges, or reaches its memory bound, and classifies the ending. Never
/// panics, never loops forever: every path out is a [`RunOutcome`].
fn run_case(cpu: &mut Cpu, fuel: u64) -> RunOutcome {
    match cpu.run(fuel) {
        Ok(exit_code) => RunOutcome::Completed { exit_code },
        Err(CpuError::RoccTimeout { .. }) => RunOutcome::WatchdogAbort,
        // Fuel is gone. If the trap log shows the watchdog fired, the
        // guest was spinning on a permanently wedged accelerator (each
        // retry gets a benign response from the sticky Error state, so it
        // never converges); that is a wedge, not an honest long
        // computation.
        Err(CpuError::InstructionLimit(_))
            if cpu.trap_log.iter().any(|t| t.cause == cause::ROCC_TIMEOUT) =>
        {
            RunOutcome::Livelock
        }
        Err(CpuError::InstructionLimit(_)) => RunOutcome::FuelExhausted { fuel },
        Err(error) => RunOutcome::Trapped { error },
    }
}

/// The golden run's observables, against which every replay is judged.
struct GoldenBaseline {
    exit: i64,
    results: Option<Vec<u64>>,
    degraded: Option<u64>,
}

/// How one replay ended.
enum CaseResult {
    /// The replay completed (or was watchdog-bounded) and was classified.
    Classified(FaultOutcome),
    /// The replay never completed; logged and skipped. Holds the
    /// [`RunOutcome`] token, the only part that survives the journal.
    Quarantined(String),
}

/// Runs one fault replay on a fresh core and accelerator and classifies it.
fn replay_case(
    program: &Program,
    config: &CampaignConfig,
    golden: &GoldenBaseline,
    at_command: u64,
    target: FaultTarget,
) -> CaseResult {
    let (accelerator, probe) = FaultInjectingAccelerator::new(target, at_command);
    let mut cpu = Cpu::new();
    cpu.attach_coprocessor(Box::new(accelerator));
    load_program(&mut cpu, program);
    match run_case(&mut cpu, config.instruction_budget) {
        RunOutcome::Completed { exit_code } => {
            let watchdog_trapped = cpu.trap_log.iter().any(|t| t.cause == cause::ROCC_TIMEOUT);
            let results = read_result_words(&cpu.memory, program, config.result_words);
            let degraded = read_degradation(&cpu.memory, program);
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
        RunOutcome::WatchdogAbort => CaseResult::Classified(FaultOutcome::CaughtByWatchdog),
        outcome => CaseResult::Quarantined(outcome.token()),
    }
}

/// Binds a journal to everything that shapes the campaign's case stream:
/// the plan parameters, the budget, and the program itself.
fn campaign_fingerprint(program: &Program, config: &CampaignConfig) -> u64 {
    let mut fp = Fingerprint::new("faults");
    fp.u64(config.seed)
        .u64(config.faults as u64)
        .u64(config.instruction_budget)
        .u64(config.result_words as u64)
        .u64(program.entry);
    for segment in program.segments() {
        fp.u64(segment.base).bytes(&segment.data);
    }
    fp.finish()
}

/// Reconstructs the result of a journaled case from its fields
/// (`<at_command> <target> <outcome>`), if its plan coordinates still match
/// and its outcome field parses.
fn replay_from_journal(fields: &str, at_command: u64, target: FaultTarget) -> Option<CaseResult> {
    let [journaled_at, journaled_target, outcome] = fields.split(' ').collect::<Vec<_>>()[..]
    else {
        return None;
    };
    if journaled_at.parse() != Ok(at_command) || journaled_target != target.token() {
        return None;
    }
    match outcome.strip_prefix("quarantined:") {
        Some(token) => Some(CaseResult::Quarantined(token.to_string())),
        None => FaultOutcome::from_token(outcome).map(CaseResult::Classified),
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
        results: read_result_words(&cpu.memory, program, config.result_words),
        degraded: read_degradation(&cpu.memory, program),
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

    // ---- planned replays ----
    let fingerprint = campaign_fingerprint(program, config);
    let mut log = CaseLog::open(journal, "faults", fingerprint, config.faults, progress)?;
    let mut rng = SplitMix64::new(config.seed);
    let mut records = Vec::with_capacity(config.faults);
    let mut quarantined = Vec::new();
    for index in 0..config.faults {
        // The plan is always drawn, journaled case or not, so the rng
        // stream stays aligned with the uninterrupted run.
        let at_command = rng.below(total_commands);
        let target = sample_target(&mut rng);
        let key = index.to_string();
        let journaled = log
            .recovered(&key)
            .and_then(|fields| replay_from_journal(fields, at_command, target));
        let ran = journaled.is_none();
        let outcome_field = match journaled
            .unwrap_or_else(|| replay_case(program, config, &golden, at_command, target))
        {
            CaseResult::Classified(outcome) => {
                records.push(FaultRecord {
                    at_command,
                    target,
                    outcome,
                });
                outcome.to_string()
            }
            CaseResult::Quarantined(token) => {
                let field = format!("quarantined:{token}");
                quarantined.push(QuarantinedCase {
                    index,
                    at_command,
                    target,
                    outcome: token,
                });
                field
            }
        };
        let fields: [&str; 3] = [&at_command.to_string(), &target.token(), &outcome_field];
        log.close_case(&key, ran.then_some(&fields[..]), quarantined.len())?;
    }
    log.finish(quarantined.len());
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

    /// The campaign of `wedged_case_is_quarantined_and_the_campaign_completes`.
    fn retrying_config() -> CampaignConfig {
        CampaignConfig {
            faults: 40,
            result_words: 1,
            instruction_budget: 20_000,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn wedged_case_is_quarantined_and_the_campaign_completes() {
        let program = retrying_guest();
        let config = retrying_config();
        let report = run_campaign(&program, &config);
        assert!(report.ok(), "{:?}", report.errors);
        // Every planned fault is accounted for: classified or quarantined.
        assert_eq!(report.records.len() + report.quarantined.len(), 40);
        // A wedge livelocks the guest's retry loop until the fuel runs out.
        assert!(
            report
                .quarantined
                .iter()
                .any(|q| q.outcome == "wedged:livelock"),
            "FSM wedges against a retrying guest must quarantine: {:?}",
            report.quarantined
        );
        // The quarantine did not eat the ordinary classes.
        assert!(report.tally().masked > 0);
        // Deterministic: an identical run reproduces the report exactly.
        assert_eq!(run_campaign(&program, &config), report);
    }

    #[test]
    fn journaled_campaign_resumes_to_an_identical_report() {
        let add_config = CampaignConfig {
            faults: 30,
            result_words: 1,
            ..CampaignConfig::default()
        };
        // The second input quarantines cases, so its journal carries
        // quarantine lines that the resumed run must read back.
        for (tag, program, config) in [
            ("add", add_guest(), add_config),
            ("retrying", retrying_guest(), retrying_config()),
        ] {
            let mut path = std::env::temp_dir();
            path.push(format!("campaign-unit-{tag}-{}.journal", std::process::id()));
            let spec = JournalSpec {
                path: path.clone(),
                resume: false,
                checkpoint_every: 7,
            };
            let full =
                run_campaign_journaled(&program, &config, Some(&spec), &mut |_| {}).unwrap();
            // Truncate the journal to a prefix (simulating a crash), then
            // resume: the report must come out identical.
            let bytes = std::fs::read(&path).unwrap();
            let cut: usize = bytes.len() / 2;
            std::fs::write(&path, &bytes[..cut]).unwrap();
            if tag == "retrying" {
                assert!(!full.quarantined.is_empty());
                let kept = String::from_utf8_lossy(&bytes[..cut]);
                assert!(kept.contains(" quarantined:"), "{kept}");
            }
            let resume = JournalSpec {
                path: path.clone(),
                resume: true,
                checkpoint_every: 7,
            };
            let mut progress_calls = 0;
            let resumed = run_campaign_journaled(&program, &config, Some(&resume), &mut |_| {
                progress_calls += 1;
            })
            .unwrap();
            assert_eq!(resumed, full, "{tag}");
            assert!(progress_calls > 0);
            // A second resume over the now-complete journal is pure replay.
            let replayed =
                run_campaign_journaled(&program, &config, Some(&resume), &mut |_| {}).unwrap();
            assert_eq!(replayed, full, "{tag}");
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

    fn run_source(source: &str, fuel: u64) -> RunOutcome {
        let program = assemble(source).unwrap();
        let mut cpu = Cpu::new();
        load_program(&mut cpu, &program);
        run_case(&mut cpu, fuel)
    }

    #[test]
    fn clean_exit_is_completed() {
        let outcome = run_source("start:\n    li a0, 7\n    li a7, 93\n    ecall\n", 1_000);
        assert_eq!(outcome, RunOutcome::Completed { exit_code: 7 });
        assert_eq!(outcome.token(), "completed:7");
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let outcome = run_source("start:\n    j start\n", 500);
        assert_eq!(outcome, RunOutcome::FuelExhausted { fuel: 500 });
    }

    #[test]
    fn unhandled_fault_is_trapped() {
        let outcome = run_source("start:\n    li t0, 0x666000\n    ld a0, 0(t0)\n", 1_000);
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
                li t1, 4096
            loop:
                sd zero, 0(t0)
                add t0, t0, t1
                j loop
            ",
            100_000,
        );
        assert!(
            matches!(
                outcome,
                RunOutcome::Trapped {
                    error: CpuError::MemoryLimit(_)
                }
            ),
            "{outcome:?}"
        );
        assert_eq!(outcome.token(), "mem-cap:4097/4096");
    }

    #[test]
    fn a_memory_hog_is_quarantined_without_reaching_its_trap_handler() {
        // A wrong sum sends the guest storing to a fresh page each
        // iteration; its handler would exit with 3.
        let program = assemble(
            "
            start:
                la   t0, handler
                csrrw zero, 0x305, t0
                li   t0, 0x15
                li   t1, 0x27
                custom0 4, t2, t0, t1, 1, 1, 1
                li   t3, 0x42
                bne  t2, t3, hog
                li   a0, 0
                li   a7, 93
                ecall
            hog:
                li   t0, 0x100000
                li   t1, 4096
            loop:
                sd   zero, 0(t0)
                add  t0, t0, t1
                j    loop
            handler:
                li   a0, 3
                li   a7, 93
                ecall
            ",
        )
        .unwrap();
        let golden = GoldenBaseline {
            exit: 0,
            results: None,
            degraded: None,
        };
        let config = CampaignConfig::default();
        // In the Error state the accelerator answers with a benign zero.
        match replay_case(&program, &config, &golden, 0, FaultTarget::FsmError) {
            CaseResult::Quarantined(token) => assert_eq!(token, "mem-cap:4097/4096"),
            CaseResult::Classified(outcome) => panic!("classified as {outcome}"),
        }
        // A wedge traps to the handler, which exits.
        assert!(matches!(
            replay_case(&program, &config, &golden, 0, FaultTarget::FsmWedge),
            CaseResult::Classified(FaultOutcome::CaughtByWatchdog)
        ));
    }

    #[test]
    fn outcome_tokens_are_space_free() {
        let outcomes = [
            RunOutcome::Completed { exit_code: -1 },
            RunOutcome::FuelExhausted { fuel: 10 },
            RunOutcome::Trapped {
                error: CpuError::MemoryLimit(0x1000),
            },
            RunOutcome::Trapped {
                error: CpuError::RoccProtocol("x"),
            },
            RunOutcome::WatchdogAbort,
            RunOutcome::Livelock,
        ];
        for outcome in outcomes {
            assert!(!outcome.token().contains(' '), "{}", outcome.token());
        }
    }
}
