//! Control and status register numbers used by the framework.

/// `cycle` — cycle counter for `RDCYCLE`, the instruction the paper uses to
/// count cycles ("We use RISC-V RDCYCLE instruction to count the number of
/// cycles").
pub const CYCLE: u16 = 0xC00;

/// `time` — wall-clock timer.
pub const TIME: u16 = 0xC01;

/// `instret` — instructions-retired counter for `RDINSTRET`.
pub const INSTRET: u16 = 0xC02;

/// `mhartid` — hardware thread id (always zero in the single-core models).
pub const MHARTID: u16 = 0xF14;

/// `mstatus` — machine status (modelled as plain storage; the minimal trap
/// model does not implement interrupt enables).
pub const MSTATUS: u16 = 0x300;

/// `mtvec` — machine trap vector. A nonzero value arms guest-visible trap
/// delivery in every simulator; zero (the reset value) keeps the seed
/// behaviour of surfacing faults to the host.
pub const MTVEC: u16 = 0x305;

/// `mscratch` — machine scratch register for trap handlers.
pub const MSCRATCH: u16 = 0x340;

/// `mepc` — machine exception program counter.
pub const MEPC: u16 = 0x341;

/// `mcause` — machine trap cause.
pub const MCAUSE: u16 = 0x342;

/// `mtval` — machine trap value (faulting address, CSR number, …).
pub const MTVAL: u16 = 0x343;

/// Machine trap-cause codes delivered by the simulators (RISC-V privileged
/// spec values, plus one custom code in the platform-use range).
pub mod cause {
    /// Instruction address misaligned.
    pub const MISALIGNED_FETCH: u64 = 0;
    /// Instruction access fault.
    pub const FETCH_FAULT: u64 = 1;
    /// Illegal instruction.
    pub const ILLEGAL_INSTRUCTION: u64 = 2;
    /// Breakpoint (`ebreak`).
    pub const BREAKPOINT: u64 = 3;
    /// Load access fault.
    pub const LOAD_FAULT: u64 = 5;
    /// RoCC busy-watchdog timeout (custom cause, platform-use range ≥ 24).
    pub const ROCC_TIMEOUT: u64 = 24;
}

/// Every CSR the framework names, as `(name, number)`: the names the
/// assembler accepts in a CSR operand.
const NAMES: [(&str, u16); 10] = [
    ("cycle", CYCLE),
    ("time", TIME),
    ("instret", INSTRET),
    ("mhartid", MHARTID),
    ("mstatus", MSTATUS),
    ("mtvec", MTVEC),
    ("mscratch", MSCRATCH),
    ("mepc", MEPC),
    ("mcause", MCAUSE),
    ("mtval", MTVAL),
];

/// The number of the CSR called `name`: one of the counters (`cycle`,
/// `time`, `instret`), `mhartid`, or a machine trap CSR defined here.
#[must_use]
pub fn number(name: &str) -> Option<u16> {
    NAMES
        .iter()
        .find(|&&(known, _)| known == name)
        .map(|&(_, number)| number)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(number("cycle"), Some(CYCLE));
        assert_eq!(number("instret"), Some(INSTRET));
        assert_eq!(number("mtvec"), Some(MTVEC));
        assert_eq!(number("mepc"), Some(MEPC));
        assert_eq!(number("mfoo"), None);
        for (name, csr) in NAMES {
            assert_eq!(number(name), Some(csr), "{name}");
        }
    }

    #[test]
    fn privileged_spec_numbers() {
        assert_eq!(MSTATUS, 0x300);
        assert_eq!(MTVEC, 0x305);
        assert_eq!(MSCRATCH, 0x340);
        assert_eq!(MEPC, 0x341);
        assert_eq!(MCAUSE, 0x342);
        assert_eq!(MTVAL, 0x343);
    }
}
