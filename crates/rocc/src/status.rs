//! The accelerator's in-band error protocol: a sticky status/cause word
//! the guest reads with `STAT` and clears with `CLR_ALL`.
//!
//! The paper's design stops at Fig. 5's happy path; a production
//! coprocessor must also make faults architecturally observable, because a
//! RoCC accelerator cannot raise a precise exception on its own. This
//! module defines the status word that turns datapath and protocol faults
//! into values software can branch on (the documented Fig. 5 deviation,
//! see DESIGN.md §6.2).

use std::fmt;

/// Generates [`AccelCause`] and [`AccelCause::ALL`] from one row per
/// cause: `Variant = code, name`, in code order from 1.
macro_rules! accel_causes {
    ($($(#[doc = $doc:literal])* $variant:ident = $code:literal, $name:literal;)*) => {
        /// Why the accelerator latched its `Error` state.
        ///
        /// The discriminants are the architectural cause codes reported in
        /// the low bits of the [`AccelStatus`] word — stable, guest-visible
        /// values.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum AccelCause {
            $($(#[doc = $doc])* $variant = $code,)*
        }

        impl AccelCause {
            /// All causes, in code order.
            pub const ALL: [AccelCause; [$($code),*].len()] = [$(AccelCause::$variant),*];

            const NAMES: [&'static str; [$($code),*].len()] = [$($name),*];
        }
    };
}

accel_causes! {
    /// A `DEC_ADD`/`DEC_ADC` core-register operand contained a nibble > 9.
    InvalidBcdOperand = 1, "invalid-bcd-operand";
    /// An internal register read by `DEC_MUL`/`DEC_ACCUM`/`DEC_ADD_R`/
    /// `DEC_MULD` contained a nibble > 9.
    InvalidBcdRegister = 2, "invalid-bcd-register";
    /// A digit operand exceeded 9.
    DigitRange = 3, "digit-range";
    /// The funct7 field selected no implemented function.
    UnknownFunction = 4, "unknown-function";
    /// The RoCC memory interface faulted (unmapped or misaligned address).
    MemoryFault = 5, "memory-fault";
    /// The command needed a resource this invocation lacked (e.g. `LD`
    /// without the memory interface, or an `xd`/response mismatch).
    ProtocolViolation = 6, "protocol-violation";
    /// The core's busy-watchdog fired and forcibly aborted the command.
    WatchdogAbort = 7, "watchdog-abort";
}

// `from_code` and `name` index by code: the rows count up from 1.
const _: () = {
    let mut i = 0;
    while i < AccelCause::ALL.len() {
        assert!(AccelCause::ALL[i] as usize == i + 1, "code order");
        i += 1;
    }
};

impl AccelCause {
    /// The architectural cause code.
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a cause code.
    #[must_use]
    pub fn from_code(code: u8) -> Option<AccelCause> {
        AccelCause::ALL
            .get(usize::from(code).wrapping_sub(1))
            .copied()
    }

    /// A short name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        AccelCause::NAMES[self as usize - 1]
    }
}

impl fmt::Display for AccelCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Bit 7 of the status word: the interface FSM is in its `Error` state.
pub const STATUS_ERROR_BIT: u64 = 1 << 7;

/// The decoded accelerator status.
///
/// The wire format (what `STAT` returns in `rd`):
///
/// ```text
///  bits 15:8   funct7 of the command that faulted (0 if none)
///  bit     7   FSM is in the Error state
///  bits  6:0   cause code (see AccelCause; 0 = none recorded)
/// ```
///
/// A healthy accelerator reads back exactly 0. The error flag is distinct
/// from the cause so that an `Error` state entered without a recorded
/// cause (only reachable through fault injection) is still nonzero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccelStatus {
    /// FSM is in the sticky `Error` state.
    pub error: bool,
    /// The first latched cause, if any.
    pub cause: Option<AccelCause>,
    /// funct7 of the command that latched the cause.
    pub funct7: u8,
}

impl AccelStatus {
    /// Encodes the guest-visible status word.
    #[must_use]
    pub fn word(self) -> u64 {
        let cause = self.cause.map_or(0, AccelCause::code);
        let error = if self.error { STATUS_ERROR_BIT } else { 0 };
        (u64::from(self.funct7) << 8) | error | u64::from(cause)
    }

    /// Decodes a status word (unknown cause codes decode to `None`).
    #[must_use]
    pub fn decode(word: u64) -> AccelStatus {
        AccelStatus {
            error: word & STATUS_ERROR_BIT != 0,
            cause: AccelCause::from_code((word & 0x7F) as u8),
            funct7: ((word >> 8) & 0xFF) as u8,
        }
    }

    /// True when nothing is latched (the healthy read-back).
    #[must_use]
    pub fn is_clear(self) -> bool {
        self == AccelStatus::default()
    }
}

impl fmt::Display for AccelStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clear() {
            return write!(f, "ok");
        }
        match self.cause {
            Some(cause) => write!(f, "error={} cause={cause} funct7={}", self.error, self.funct7),
            None => write!(f, "error={} cause=none funct7={}", self.error, self.funct7),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_codes_roundtrip() {
        for cause in AccelCause::ALL {
            assert_eq!(AccelCause::from_code(cause.code()), Some(cause));
        }
        for code in 0..=u8::MAX {
            let searched = AccelCause::ALL.into_iter().find(|c| c.code() == code);
            assert_eq!(AccelCause::from_code(code), searched, "{code}");
        }
        assert_eq!(AccelCause::WatchdogAbort.to_string(), "watchdog-abort");
    }

    #[test]
    fn status_word_roundtrip() {
        let status = AccelStatus {
            error: true,
            cause: Some(AccelCause::InvalidBcdOperand),
            funct7: 4,
        };
        assert_eq!(AccelStatus::decode(status.word()), status);
        assert_eq!(status.word(), (4 << 8) | 0x80 | 1);
    }

    #[test]
    fn clear_status_is_zero() {
        assert_eq!(AccelStatus::default().word(), 0);
        assert!(AccelStatus::decode(0).is_clear());
    }

    #[test]
    fn injected_error_without_cause_is_nonzero() {
        let status = AccelStatus {
            error: true,
            cause: None,
            funct7: 0,
        };
        assert_ne!(status.word(), 0);
        assert_eq!(AccelStatus::decode(status.word()), status);
    }
}
