//! RISC-V guest kernels for every evaluated configuration.
//!
//! Each kernel is a function `kernel` with the calling convention the test
//! driver uses: decimal64 interchange bits of the operands in `a0`/`a1`,
//! result bits returned in `a0`. The kernels are emitted as assembly text
//! and built with the in-tree assembler — real RV64IM machine code, the same
//! role the GCC cross-compiler plays in the paper's framework.
//!
//! Configurations:
//!
//! * [`KernelKind::Software`] — the decNumber-style software baseline:
//!   DPD→unit decode (base-1000 units, one per declet), schoolbook
//!   unit-array multiplication in memory, decimal rounding by division,
//!   binary→DPD encode. No custom instructions.
//! * [`KernelKind::SoftwareBid`] — a second software baseline in the style
//!   of Intel's BID library: binary coefficients, one `mul`/`mulhu`
//!   product. Faster than decNumber-style; used as an ablation point.
//! * [`KernelKind::Method1`] — the paper's Method-1: DPD→BCD decode, the
//!   multiplicand-multiples table built with `DEC_ADD`/`DEC_ADC`, Horner
//!   accumulation of partial products, BCD rounding, BCD→DPD encode. "No
//!   binary conversion is required."
//! * [`KernelKind::Method1Dummy`] — Method-1 with every accelerator call
//!   replaced by a call to a dummy function with a fixed return (the prior
//!   art's estimation methodology; results are wrong by design).
//! * [`KernelKind::Method1Ft`] — fault-tolerant Method-1: the hardware
//!   phase is wrapped in a detection net (in-band `STAT`, the watchdog
//!   trap flag, mod-9 residues) and degrades gracefully to a digit-serial
//!   software recompute when the accelerator misbehaves.
//! * [`KernelKind::Method2`]/[`KernelKind::Method3`]/[`KernelKind::Method4`] — the deeper-offload
//!   design points (multiples table inside the accelerator; digit
//!   multiply-accumulate; full hardware multiply).

mod common;
mod method1;
mod method1_ft;
mod methods234;
mod softmul;
mod tables;

pub use tables::data_tables;

/// Which kernel to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// decNumber-style pure-software multiplication (unit arrays).
    Software,
    /// Binary-encoding-style (Intel BID-like) software multiplication — a
    /// second software baseline used for ablation.
    SoftwareBid,
    /// Method-1 with real RoCC instructions.
    Method1,
    /// Method-1 with dummy functions instead of hardware.
    Method1Dummy,
    /// Fault-tolerant Method-1: detection net plus software fallback.
    Method1Ft,
    /// Method-2: multiples table kept in the accelerator register file.
    Method2,
    /// Method-3: digit multiply-accumulate in hardware.
    Method3,
    /// Method-4: full coefficient multiplication in hardware.
    Method4,
}

impl KernelKind {
    /// All kernels, software baseline first.
    pub const ALL: [KernelKind; 8] = [
        KernelKind::Software,
        KernelKind::SoftwareBid,
        KernelKind::Method1,
        KernelKind::Method1Dummy,
        KernelKind::Method1Ft,
        KernelKind::Method2,
        KernelKind::Method3,
        KernelKind::Method4,
    ];

    /// The kernels the fault-injection campaign exercises: plain Method-1
    /// (demonstrating silent corruption) and its fault-tolerant variant
    /// (demonstrating zero silent corruption). This is the single registry
    /// the lockstep CLI and tests consume — don't re-enumerate the pair.
    pub const FAULT_CAMPAIGN: [KernelKind; 2] = [KernelKind::Method1, KernelKind::Method1Ft];

    /// Stable machine-readable identifier, used by CLI arguments
    /// (`lockstep`, `rvlint`) and machine-readable reports.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            KernelKind::Software => "software",
            KernelKind::SoftwareBid => "software_bid",
            KernelKind::Method1 => "method1",
            KernelKind::Method1Dummy => "method1_dummy",
            KernelKind::Method1Ft => "method1_ft",
            KernelKind::Method2 => "method2",
            KernelKind::Method3 => "method3",
            KernelKind::Method4 => "method4",
        }
    }

    /// Looks a kernel up by its [`KernelKind::slug`].
    #[must_use]
    pub fn from_slug(slug: &str) -> Option<KernelKind> {
        KernelKind::ALL.into_iter().find(|k| k.slug() == slug)
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Software => "Software (decNumber-style)",
            KernelKind::SoftwareBid => "Software (BID-style)",
            KernelKind::Method1 => "Method-1",
            KernelKind::Method1Dummy => "Method-1 (dummy functions)",
            KernelKind::Method1Ft => "Method-1 (fault-tolerant)",
            KernelKind::Method2 => "Method-2",
            KernelKind::Method3 => "Method-3",
            KernelKind::Method4 => "Method-4",
        }
    }

    /// True if this kernel issues real RoCC instructions (needs the
    /// accelerator attached).
    #[must_use]
    pub fn uses_accelerator(self) -> bool {
        !matches!(
            self,
            KernelKind::Software | KernelKind::SoftwareBid | KernelKind::Method1Dummy
        )
    }

    /// True if results are expected to be wrong (dummy estimation runs).
    #[must_use]
    pub fn results_are_dummy(self) -> bool {
        self == KernelKind::Method1Dummy
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Emits the complete kernel source for `kind`: the `kernel` entry, its
/// helper subroutines, and the `.data` tables and scratch space it needs.
/// [`build_guest_with`](crate::framework::build_guest_with) parses it once
/// per process and links it after a driver (see [`testgen::driver_source`]).
#[must_use]
pub fn kernel_source(kind: KernelKind) -> String {
    let mut out = String::from("    .text\n");
    match kind {
        KernelKind::Software => {
            out += &softmul::kernel_decnumber();
            out += &common::subroutines_binary();
        }
        KernelKind::SoftwareBid => {
            out += &softmul::kernel_bid();
            out += &common::subroutines_binary();
        }
        KernelKind::Method1 | KernelKind::Method1Dummy => {
            let dummy = kind == KernelKind::Method1Dummy;
            out += &method1::kernel(dummy);
            out += &common::subroutines_bcd(common::AddStyle::from_dummy(dummy));
            if dummy {
                out += common::DUMMY_FUNCTIONS;
            }
        }
        KernelKind::Method1Ft => {
            // The rounding epilogue also uses the software adder, so a
            // fault latched after the detection net cannot corrupt the
            // rounding increment.
            out += &method1_ft::kernel_ft();
            out += &common::subroutines_bcd(common::AddStyle::Soft);
            out += common::SOFT_BCD_ADD;
        }
        KernelKind::Method2 => {
            out += &methods234::kernel_method2();
            out += &common::subroutines_bcd(common::AddStyle::Hw);
        }
        KernelKind::Method3 => {
            out += &methods234::kernel_method3();
            out += &common::subroutines_bcd(common::AddStyle::Hw);
        }
        KernelKind::Method4 => {
            out += &methods234::kernel_method4();
            out += &common::subroutines_bcd(common::AddStyle::Hw);
        }
    }
    out += &tables::data_tables(kind);
    out
}

#[cfg(test)]
mod kernel_tests;
