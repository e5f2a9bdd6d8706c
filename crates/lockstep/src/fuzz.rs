//! The differential instruction fuzzer: generates seeded random-but-valid
//! RV64IM programs laced with RoCC command sequences, runs each on every
//! simulator pair in lockstep, and shrinks any failure to a minimal
//! reproducing program by delta debugging.
//!
//! Generated programs terminate by construction: all control transfers are
//! forward, and the epilogue always exits. Every program is a pure function
//! of the fuzzer seed and program index.

use riscv_asm::assemble;

use crate::compare::{Divergence, LockstepOptions, LockstepOutcome};
use crate::guest::{run_program_pair, Pair};
use crate::journal::{CaseLog, Fingerprint, JournalError, JournalSpec, Progress};

/// A tiny deterministic generator (splitmix64) — the fuzzer's only source
/// of randomness, so every program is reproducible from its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A uniformly chosen element of `choices`.
    pub fn pick<'a, T>(&mut self, choices: &'a [T]) -> &'a T {
        &choices[self.below(choices.len() as u64) as usize]
    }
}

/// Registers the generator may freely clobber. `s0` (scratch base), `a7`
/// (syscall number), `sp`/`ra`/`gp`/`tp` are reserved.
const WRITABLE: [&str; 17] = [
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "a0", "a1", "a2", "a3", "a4", "a5", "s1", "s2",
    "s3", "s4",
];

/// Bytes of scratch data memory addressed through `s0`.
const SCRATCH_BYTES: u64 = 256;

/// One generated unit: a labelled block of one or more instructions that
/// the shrinker removes atomically (so multi-instruction RoCC sequences
/// keep their internal invariants).
#[derive(Debug, Clone)]
pub struct Item {
    label: String,
    lines: Vec<String>,
}

impl Item {
    /// An item with the given label and assembly lines — for hand-written
    /// regression items mixed into generated programs. The label must be
    /// unique within the program (generated items use `b{index}`).
    #[must_use]
    pub fn new(label: impl Into<String>, lines: Vec<String>) -> Self {
        Item {
            label: label.into(),
            lines,
        }
    }
}

fn readable(rng: &mut SplitMix64) -> &'static str {
    if rng.below(8) == 0 {
        ["zero", "s0"][rng.below(2) as usize]
    } else {
        WRITABLE[rng.below(WRITABLE.len() as u64) as usize]
    }
}

fn writable(rng: &mut SplitMix64) -> &'static str {
    WRITABLE[rng.below(WRITABLE.len() as u64) as usize]
}

/// A random valid packed-BCD word of 1..=16 significant digits.
fn bcd_literal(rng: &mut SplitMix64) -> u64 {
    let digits = 1 + rng.below(16);
    let mut value = 0u64;
    for _ in 0..digits {
        value = (value << 4) | rng.below(10);
    }
    value
}

fn load_store_item(rng: &mut SplitMix64) -> Vec<String> {
    let (mnemonic, size): (&str, u64) = *rng.pick(&[
        ("lb", 1),
        ("lbu", 1),
        ("lh", 2),
        ("lhu", 2),
        ("lw", 4),
        ("lwu", 4),
        ("ld", 8),
        ("sb", 1),
        ("sh", 2),
        ("sw", 4),
        ("sd", 8),
    ]);
    let offset = rng.below(SCRATCH_BYTES / size) * size;
    let reg = if mnemonic.starts_with('s') {
        readable(rng)
    } else {
        writable(rng)
    };
    vec![format!("{mnemonic} {reg}, {offset}(s0)")]
}

fn rocc_item(rng: &mut SplitMix64) -> Vec<String> {
    let temp_a = writable(rng);
    let temp_b = writable(rng);
    let dest = writable(rng);
    match rng.below(9) {
        // WR: a valid BCD word into a register-file low half (the fuzzer's
        // invariant: the register file only ever holds valid BCD, so the
        // decimal functions below never trip the protocol checks).
        0 => vec![
            format!("li {temp_a}, {:#x}", bcd_literal(rng)),
            format!("custom0 0, zero, {temp_a}, x{}, 0, 1, 0", 1 + rng.below(7)),
        ],
        // RD a register-file half back into the core.
        1 => vec![format!("custom0 1, {dest}, x{}, zero, 1, 0, 0", 1 + rng.below(7))],
        // ACCUM: binary accumulate of any core value.
        2 => vec![format!("custom0 3, {dest}, {}, zero, 1, 1, 0", readable(rng))],
        // DEC_ADD / DEC_ADC over two fresh valid BCD operands.
        3 => {
            let funct = if rng.below(2) == 0 { 4 } else { 9 };
            vec![
                format!("li {temp_a}, {:#x}", bcd_literal(rng)),
                format!("li {temp_b}, {:#x}", bcd_literal(rng)),
                format!("custom0 {funct}, {dest}, {temp_a}, {temp_b}, 1, 1, 1"),
            ]
        }
        // CLR_ALL.
        4 => vec!["custom0 5, zero, zero, zero, 0, 0, 0".to_string()],
        // DEC_CNV of an arbitrary binary value.
        5 => vec![
            format!("li {temp_a}, {:#x}", rng.next_u64()),
            format!("custom0 6, {dest}, {temp_a}, zero, 1, 1, 0"),
        ],
        // DEC_MUL: write both multiplicands, then multiply reg1 × reg2.
        6 => vec![
            format!("li {temp_a}, {:#x}", bcd_literal(rng)),
            "custom0 0, zero, ".to_string() + temp_a + ", x1, 0, 1, 0",
            format!("li {temp_a}, {:#x}", bcd_literal(rng)),
            "custom0 0, zero, ".to_string() + temp_a + ", x2, 0, 1, 0",
            format!("custom0 7, {dest}, x1, x2, 1, 0, 0"),
        ],
        // DEC_ACCUM / DEC_MULD with a digit operand.
        7 => {
            let funct = if rng.below(2) == 0 { 8 } else { 11 };
            vec![
                format!("li {temp_a}, {}", rng.below(10)),
                format!("custom0 {funct}, zero, {temp_a}, zero, 0, 1, 0"),
            ]
        }
        // DEC_ADD_R over register-file entries.
        _ => vec![format!(
            "custom0 10, x{}, x{}, x{}, 0, 0, 0",
            1 + rng.below(7),
            1 + rng.below(7),
            1 + rng.below(7)
        )],
    }
}

fn item_lines(rng: &mut SplitMix64, index: usize, total: usize) -> Vec<String> {
    let forward_label = |rng: &mut SplitMix64| {
        let target = index as u64 + 1 + rng.below(total as u64 - index as u64);
        if target as usize >= total {
            "done".to_string()
        } else {
            format!("b{target}")
        }
    };
    match rng.below(100) {
        0..=19 => {
            let op = rng.pick(&[
                "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and", "mul",
                "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
            ]);
            vec![format!("{op} {}, {}, {}", writable(rng), readable(rng), readable(rng))]
        }
        20..=34 => {
            let op = rng.pick(&["addi", "xori", "ori", "andi", "slti", "sltiu"]);
            let imm = rng.below(4096) as i64 - 2048;
            vec![format!("{op} {}, {}, {imm}", writable(rng), readable(rng))]
        }
        35..=41 => {
            let (op, max_shift) = *rng.pick(&[
                ("slli", 64u64),
                ("srli", 64),
                ("srai", 64),
                ("slliw", 32),
                ("srliw", 32),
                ("sraiw", 32),
            ]);
            vec![format!(
                "{op} {}, {}, {}",
                writable(rng),
                readable(rng),
                rng.below(max_shift)
            )]
        }
        42..=49 => {
            let op = rng.pick(&[
                "addw", "subw", "sllw", "srlw", "sraw", "mulw", "divw", "divuw", "remw", "remuw",
            ]);
            vec![format!("{op} {}, {}, {}", writable(rng), readable(rng), readable(rng))]
        }
        50..=55 => {
            if rng.below(2) == 0 {
                vec![format!("lui {}, {:#x}", writable(rng), rng.below(1 << 20))]
            } else {
                let imm = rng.below(4096) as i64 - 2048;
                vec![format!("addiw {}, {}, {imm}", writable(rng), readable(rng))]
            }
        }
        56..=75 => load_store_item(rng),
        76..=85 => {
            let op = rng.pick(&["beq", "bne", "blt", "bge", "bltu", "bgeu"]);
            let target = forward_label(rng);
            vec![format!("{op} {}, {}, {target}", readable(rng), readable(rng))]
        }
        86..=88 => {
            let target = forward_label(rng);
            if rng.below(2) == 0 {
                vec![format!("j {target}")]
            } else {
                vec![format!("jal {}, {target}", writable(rng))]
            }
        }
        89..=93 => match rng.below(4) {
            0 => vec![format!("rdinstret {}", writable(rng))],
            // rdcycle differs across timing models on purpose — it
            // exercises the comparator's cycle-CSR masking. The register is
            // cleared immediately: the comparator masks the read itself but
            // does not track cycle values through later arithmetic.
            1 => {
                let reg = writable(rng);
                vec![format!("rdcycle {reg}"), format!("li {reg}, 0")]
            }
            _ => {
                let op = rng.pick(&["csrrw", "csrrs", "csrrc"]);
                let csr = 0x800 + rng.below(16);
                vec![format!("{op} {}, {csr:#x}, {}", writable(rng), readable(rng))]
            }
        },
        _ => rocc_item(rng),
    }
}

/// Generates the body items of one random program.
#[must_use]
pub fn generate_items(rng: &mut SplitMix64, count: usize) -> Vec<Item> {
    (0..count)
        .map(|index| Item {
            label: format!("b{index}"),
            lines: item_lines(rng, index, count),
        })
        .collect()
}

/// Renders a complete program around the given body items: register and
/// scratch-memory seeding up front, exit epilogue, seeded data section.
#[must_use]
pub fn render_program(items: &[Item], rng: &mut SplitMix64) -> String {
    let mut source = String::from(".text\nstart:\n    la s0, scratch\n");
    for reg in WRITABLE.iter().take(8) {
        source += &format!("    li {reg}, {:#x}\n", rng.next_u64());
    }
    for item in items {
        source += &format!("{}:\n", item.label);
        for line in &item.lines {
            source += &format!("    {line}\n");
        }
    }
    source += "done:\n    li a0, 0\n    li a7, 93\n    ecall\n";
    source += "\n.data\n.align 3\nscratch:\n";
    for _ in 0..SCRATCH_BYTES / 8 {
        source += &format!("    .dword {:#x}\n", rng.next_u64());
    }
    source
}

/// Body items per generated program (each item is 1–5 instructions).
pub const BODY_ITEMS: usize = 40;

/// Fuzzer configuration. Everything is deterministic in `seed`. Every
/// program has [`BODY_ITEMS`] body items, RoCC command sequences among
/// them, and runs with the decimal accelerator attached.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; program `i` derives its own stream from `(seed, i)`.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub programs: u32,
    /// Per-run lockstep step budget (generated programs retire far fewer —
    /// control flow is forward-only).
    pub max_instructions: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 2019,
            programs: 50,
            max_instructions: 100_000,
        }
    }
}

/// One reproduced, shrunk lockstep failure.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Index of the generating program (with the config's seed, this
    /// reproduces the unshrunk program exactly).
    pub program_index: u32,
    /// The simulator pair that diverged.
    pub pair: Pair,
    /// The original generated source.
    pub source: String,
    /// The minimal program that still reproduces the divergence.
    pub shrunk_source: String,
    /// The divergence on the shrunk program.
    pub divergence: Divergence,
}

/// The fuzzing campaign's outcome.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Programs generated and run.
    pub programs_run: u32,
    /// Lockstep pair runs performed.
    pub pairs_checked: u64,
    /// Instructions retired in lockstep, summed over all agreeing runs.
    pub instructions_checked: u64,
    /// All failures found (each shrunk independently).
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True if no run diverged.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

fn program_rng(seed: u64, index: u32) -> SplitMix64 {
    let mut mixer = SplitMix64::new(seed ^ (u64::from(index).wrapping_mul(0xA076_1D64_78BD_642F)));
    // Burn one output so index 0 does not reduce to the raw seed stream.
    mixer.next_u64();
    mixer
}

/// The source of program `index` under `config` (for reproducing reports).
#[must_use]
pub fn nth_program_source(config: &FuzzConfig, index: u32) -> String {
    let mut rng = program_rng(config.seed, index);
    let items = generate_items(&mut rng, BODY_ITEMS);
    render_program(&items, &mut rng)
}

/// Shrinks `items` to a (locally) minimal subsequence for which
/// `reproduces` still holds, by chunked delta debugging: try removing
/// windows of halving size until no single window can be removed.
#[must_use]
pub fn shrink_items(items: Vec<Item>, reproduces: &dyn Fn(&[Item]) -> bool) -> Vec<Item> {
    let mut current = items;
    let mut chunk = current.len().div_ceil(2).max(1);
    loop {
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let candidate: Vec<Item> = current[..start]
                .iter()
                .chain(&current[end..])
                .cloned()
                .collect();
            if reproduces(&candidate) {
                current = candidate;
                // Re-scan from the top at this granularity.
                start = 0;
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            return current;
        }
        chunk = chunk.div_ceil(2).max(1);
    }
}

/// The outcome of fuzzing one program index across every simulator pair.
struct ProgramResult {
    pairs_checked: u64,
    instructions_checked: u64,
    failures: Vec<FuzzFailure>,
}

/// Generates, runs, and (on divergence) shrinks program `index`.
fn fuzz_program(config: &FuzzConfig, options: &LockstepOptions, index: u32) -> ProgramResult {
    let mut result = ProgramResult {
        pairs_checked: 0,
        instructions_checked: 0,
        failures: Vec::new(),
    };
    let mut rng = program_rng(config.seed, index);
    let items = generate_items(&mut rng, BODY_ITEMS);
    // The data/prologue seeds must not depend on which items survive
    // shrinking, so render against a fixed tail stream.
    let tail_rng = rng.clone();
    let render = |items: &[Item]| render_program(items, &mut tail_rng.clone());
    let source = render(&items);
    let program = assemble(&source)
        .unwrap_or_else(|e| panic!("generated program {index} does not assemble: {e}"));
    for pair in Pair::ALL {
        result.pairs_checked += 1;
        let outcome = run_program_pair(&program, pair, options);
        match outcome {
            LockstepOutcome::Agreement { instructions, .. } => {
                result.instructions_checked += instructions;
            }
            LockstepOutcome::Divergence(_) => {
                let reproduces = |candidate: &[Item]| {
                    let Ok(program) = assemble(&render(candidate)) else {
                        // A removed label some branch still targets:
                        // this candidate is invalid, not minimal.
                        return false;
                    };
                    !run_program_pair(&program, pair, options).is_agreement()
                };
                let shrunk = shrink_items(items.clone(), &reproduces);
                let shrunk_source = render(&shrunk);
                let shrunk_program =
                    assemble(&shrunk_source).expect("shrunk candidate assembled before");
                let final_outcome = run_program_pair(&shrunk_program, pair, options);
                let divergence = final_outcome
                    .divergence()
                    .expect("shrinker only keeps reproducing candidates")
                    .clone();
                result.failures.push(FuzzFailure {
                    program_index: index,
                    pair,
                    source: source.clone(),
                    shrunk_source,
                    divergence,
                });
            }
        }
    }
    result
}

/// Runs the full differential fuzzing campaign: every generated program on
/// every simulator pair, shrinking any failure before reporting it.
///
/// # Panics
///
/// Panics if a generated program fails to assemble — that is a generator
/// bug, not a simulator divergence.
#[must_use]
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    run_fuzz_journaled(config, None, &mut |_| {})
        .expect("a fuzz run without a journal performs no fallible I/O")
}

/// Binds a fuzz journal to everything that shapes the program stream. The
/// body size and the RoCC switch (always on) are hashed where they stood
/// when they were settable, so older journals still resume.
fn fuzz_fingerprint(config: &FuzzConfig) -> u64 {
    let mut fp = Fingerprint::new("fuzz");
    fp.u64(config.seed)
        .u64(u64::from(config.programs))
        .u64(BODY_ITEMS as u64)
        .u64(u64::from(true))
        .u64(config.max_instructions);
    fp.finish()
}

/// The `(instructions, pairs)` of a journaled program that ran clean
/// (fields `<instructions> <pairs> <failures>` with zero failures).
fn clean_program(fields: &str) -> Option<(u64, u64)> {
    let [instructions, pairs, "0"] = fields.split(' ').collect::<Vec<_>>()[..] else {
        return None;
    };
    Some((instructions.parse().ok()?, pairs.parse().ok()?))
}

/// Runs the fuzzing campaign with an optional write-ahead journal and
/// progress callback.
///
/// Each journal line records one completed program: its index, the
/// instructions it contributed, the pairs it checked, and its failure
/// count. On resume, clean programs are credited from the journal without
/// re-running; diverged programs are re-run (everything is deterministic
/// in the seed) to regenerate the full shrunk failure report.
///
/// # Errors
///
/// Journal I/O failures and header mismatches ([`JournalError`]).
///
/// # Panics
///
/// Panics if a generated program fails to assemble (a generator bug).
pub fn run_fuzz_journaled(
    config: &FuzzConfig,
    journal: Option<&JournalSpec>,
    progress: &mut dyn FnMut(Progress),
) -> Result<FuzzReport, JournalError> {
    let options = LockstepOptions {
        max_instructions: config.max_instructions,
        ..LockstepOptions::default()
    };
    let mut log = CaseLog::open(
        journal,
        "fuzz",
        fuzz_fingerprint(config),
        config.programs as usize,
        progress,
    )?;
    let mut report = FuzzReport {
        programs_run: 0,
        pairs_checked: 0,
        instructions_checked: 0,
        failures: Vec::new(),
    };
    let mut failed_programs = 0usize;
    for index in 0..config.programs {
        let key = index.to_string();
        // A journaled clean program is credited without re-running; a
        // journaled diverged program re-runs to regenerate its shrunk
        // failure (the run is deterministic, so the journal only needs
        // the fact of the failure, not its details).
        if let Some((instructions, pairs)) = log.recovered(&key).and_then(clean_program) {
            report.instructions_checked += instructions;
            report.pairs_checked += pairs;
            log.close_case(&key, None, failed_programs)?;
        } else {
            let result = fuzz_program(config, &options, index);
            report.pairs_checked += result.pairs_checked;
            report.instructions_checked += result.instructions_checked;
            failed_programs += usize::from(!result.failures.is_empty());
            let fields: [&str; 3] = [
                &result.instructions_checked.to_string(),
                &result.pairs_checked.to_string(),
                &result.failures.len().to_string(),
            ];
            log.close_case(&key, Some(&fields), failed_programs)?;
            report.failures.extend(result.failures);
        }
        report.programs_run += 1;
    }
    log.finish(failed_programs);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value a journal of `lockstep fuzz --seed 2019 --programs 3`
    /// carries in its header, from when the body size and the RoCC switch
    /// were still fields: such journals must keep resuming.
    #[test]
    fn fingerprint_is_unchanged_from_when_body_and_rocc_were_settable() {
        let config = FuzzConfig {
            seed: 2019,
            programs: 3,
            ..FuzzConfig::default()
        };
        assert_eq!(fuzz_fingerprint(&config), 0xcec4_c736_99a6_8e47);
    }
}
