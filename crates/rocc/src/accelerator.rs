//! The decimal accelerator (paper Fig. 4): decode/interface FSM, a sixteen
//! entry × 128-bit register set, and a BCD-CLA-based execution unit.


use bcd::cla::BcdCla;
use bcd::convert::double_dabble;
use bcd::{Bcd128, Bcd64};
use riscv_sim::{Coprocessor, CpuError, Memory, RoccCommand, RoccResponse};

use crate::fsm::{FsmState, InterfaceFsm};
use crate::isa::{decode_reg_address, DecimalFunct};
use crate::status::{AccelCause, AccelStatus};

/// Register-file index that serves as the wide accumulator (`ACC`).
pub const ACC_INDEX: usize = 15;

/// The decimal accelerator. Implements [`Coprocessor`] so it can be attached
/// to any of the simulated cores, and can also be driven directly (the
/// native Method-1 implementation does) via [`DecimalAccelerator::command`].
///
/// # Example
///
/// ```
/// use rocc::{DecimalAccelerator, DecimalFunct};
///
/// # fn main() -> Result<(), riscv_sim::CpuError> {
/// let mut acc = DecimalAccelerator::new();
/// // 0x0905 + 0x0095 in BCD is 0x1000.
/// let resp = acc.command(DecimalFunct::DecAdd, 0x0905, 0x0095, 0, 0, 0)?;
/// assert_eq!(resp.rd_value, Some(0x1000));
/// # Ok(())
/// # }
/// ```
pub struct DecimalAccelerator {
    /// Raw register file; decimal functions validate BCD on use.
    regfile: [u128; 16],
    bin_scratch: u64,
    carry: bool,
    cla: BcdCla,
    fsm: InterfaceFsm,
    /// First latched fault: `(cause, funct7 of the command that faulted)`.
    /// Sticky until `CLR_ALL` — see [`AccelStatus`] for the wire format.
    latched: Option<(AccelCause, u8)>,
    total_busy: u64,
}

impl Default for DecimalAccelerator {
    fn default() -> Self {
        DecimalAccelerator::new()
    }
}

impl std::fmt::Debug for DecimalAccelerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecimalAccelerator")
            .field("carry", &self.carry)
            .field("total_busy", &self.total_busy)
            .finish_non_exhaustive()
    }
}

impl DecimalAccelerator {
    /// A cleared accelerator with a 16-digit BCD-CLA.
    #[must_use]
    pub fn new() -> Self {
        DecimalAccelerator {
            regfile: [0; 16],
            bin_scratch: 0,
            carry: false,
            cla: BcdCla::new(16),
            fsm: InterfaceFsm::new(),
            latched: None,
            total_busy: 0,
        }
    }

    /// Enables interface-FSM transition tracing (see [`InterfaceFsm`]).
    pub fn set_fsm_tracing(&mut self, on: bool) {
        self.fsm.set_tracing(on);
    }

    /// The interface FSM (for inspecting the Fig. 5 trace).
    #[must_use]
    pub fn fsm(&self) -> &InterfaceFsm {
        &self.fsm
    }

    /// The latched carry flag.
    #[must_use]
    pub fn carry(&self) -> bool {
        self.carry
    }

    /// Raw contents of a register-file entry.
    ///
    /// # Panics
    ///
    /// Panics if `index > 15`.
    #[must_use]
    pub fn register(&self, index: usize) -> u128 {
        self.regfile[index]
    }

    /// The wide accumulator (`regfile[15]`).
    #[must_use]
    pub fn acc(&self) -> u128 {
        self.regfile[ACC_INDEX]
    }

    /// Total execution-unit busy cycles since construction/clear.
    #[must_use]
    pub fn total_busy_cycles(&self) -> u64 {
        self.total_busy
    }

    fn write_half(&mut self, field: u8, value: u64) {
        let (index, half) = decode_reg_address(field);
        let shift = 64 * half;
        let mask = (u128::from(u64::MAX)) << shift;
        self.regfile[index] = (self.regfile[index] & !mask) | (u128::from(value) << shift);
    }

    fn read_half(&self, field: u8) -> u64 {
        let (index, half) = decode_reg_address(field);
        (self.regfile[index] >> (64 * half)) as u64
    }

    fn bcd64_operand(value: u64) -> Result<Bcd64, AccelCause> {
        Bcd64::new(value).map_err(|_| AccelCause::InvalidBcdOperand)
    }

    fn bcd64_reg(&self, index: usize) -> Result<Bcd64, AccelCause> {
        Bcd64::new(self.regfile[index] as u64).map_err(|_| AccelCause::InvalidBcdRegister)
    }

    fn bcd128_reg(&self, index: usize) -> Result<Bcd128, AccelCause> {
        Bcd128::new(self.regfile[index]).map_err(|_| AccelCause::InvalidBcdRegister)
    }

    fn digit_operand(value: u64) -> Result<u8, AccelCause> {
        if value <= 9 {
            Ok(value as u8)
        } else {
            Err(AccelCause::DigitRange)
        }
    }

    /// The current status (error flag, first latched cause, offending
    /// funct7) — what `STAT` returns as [`AccelStatus::word`].
    #[must_use]
    pub fn status(&self) -> AccelStatus {
        AccelStatus {
            error: self.fsm.state() == FsmState::Error,
            cause: self.latched.map(|(cause, _)| cause),
            funct7: self.latched.map_or(0, |(_, funct7)| funct7),
        }
    }

    /// Latches `cause` (first fault wins) and moves the FSM to its sticky
    /// `Error` state.
    fn latch_error(&mut self, cause: AccelCause, funct7: u8) {
        if self.latched.is_none() {
            self.latched = Some((cause, funct7));
        }
        if self.fsm.state() != FsmState::Error {
            self.fsm.enter_error("exec.fault");
        }
    }

    /// Clears every architectural register, the carry, and the latched
    /// fault (the `CLR_ALL` datapath).
    fn clear_state(&mut self) {
        self.regfile = [0; 16];
        self.bin_scratch = 0;
        self.carry = false;
        self.latched = None;
    }

    /// Fault-injection port: flips one bit of a register-file entry
    /// (`index` mod 16, `bit` mod 128). `regfile[15]` is the accumulator.
    pub fn inject_register_bit_flip(&mut self, index: usize, bit: u32) {
        self.regfile[index % 16] ^= 1u128 << (bit % 128);
    }

    /// Fault-injection port: flips the latched carry.
    pub fn inject_carry_flip(&mut self) {
        self.carry = !self.carry;
    }

    /// Fault-injection port: wedges the interface FSM in a busy state, so
    /// the next command never gets a response (caught by the core's
    /// busy-watchdog, not by any in-band check).
    pub fn inject_fsm_wedge(&mut self) {
        self.fsm.force_state(FsmState::Execute(DecimalFunct::DecAdd));
    }

    /// Fault-injection port: forces the FSM into `Error` without latching a
    /// cause (a bit flip in the state register itself).
    pub fn inject_fsm_error(&mut self) {
        self.fsm.force_state(FsmState::Error);
    }

    /// Executes one function directly, without going through instruction
    /// decode or a memory bus (so `LD` is rejected here). Datapath faults
    /// are reported in-band: the response is benign and the status word
    /// (readable with [`DecimalFunct::Stat`]) carries the cause.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::RoccProtocol`] only for `LD`, which needs the
    /// memory interface this entry point does not have — a host-side API
    /// misuse, not a guest-visible fault.
    pub fn command(
        &mut self,
        funct: DecimalFunct,
        rs1_value: u64,
        rs2_value: u64,
        rd_field: u8,
        rs1_field: u8,
        rs2_field: u8,
    ) -> Result<RoccResponse, CpuError> {
        if funct == DecimalFunct::Ld {
            return Err(CpuError::RoccProtocol("LD requires the memory interface"));
        }
        Ok(self.dispatch(funct, rs1_value, rs2_value, rd_field, rs1_field, rs2_field, None))
    }

    fn account(&mut self, busy: u32) {
        self.total_busy += u64::from(busy);
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        funct: DecimalFunct,
        rs1_value: u64,
        rs2_value: u64,
        rd_field: u8,
        rs1_field: u8,
        rs2_field: u8,
        mem: Option<&mut Memory>,
    ) -> RoccResponse {
        let spec = funct.spec();
        let in_error = match self.fsm.state() {
            FsmState::Idle => false,
            // Sticky error: only the `serviced_in_error` commands (STAT,
            // CLR_ALL) are serviced; every other command is ignored with a
            // benign response so the core's handshake still completes.
            FsmState::Error if spec.serviced_in_error => true,
            FsmState::Error => {
                return RoccResponse {
                    rd_value: Some(0),
                    busy_cycles: 1,
                    mem_accesses: 0,
                }
            }
            // Wedged mid-command (reachable only through fault injection):
            // the response never arrives; the core's watchdog must act.
            _ => return RoccResponse::hung(),
        };

        match self.execute_unit(funct, rs1_value, rs2_value, rd_field, rs1_field, rs2_field, mem) {
            Ok((rd_value, mem_accesses)) => {
                let busy = spec
                    .busy_cycles
                    .unwrap_or_else(|| double_dabble(rs1_value).cycles);
                self.account(busy);
                if !in_error {
                    self.fsm.run_command(funct, rd_value.is_some());
                } else if spec.serve_state == FsmState::Clear {
                    // Error is left only through Clear; STAT reads it in place.
                    self.fsm.clear_error();
                }
                RoccResponse {
                    rd_value,
                    busy_cycles: busy,
                    mem_accesses,
                }
            }
            Err(cause) => {
                self.account(1);
                self.latch_error(cause, funct.funct7());
                // The command is dropped; a benign zero keeps an `xd`
                // handshake alive so the fault stays in-band.
                RoccResponse {
                    rd_value: Some(0),
                    busy_cycles: 1,
                    mem_accesses: 0,
                }
            }
        }
    }

    /// The execution unit proper: performs `funct` or reports the first
    /// datapath fault without touching any architectural state.
    #[allow(clippy::too_many_arguments)]
    fn execute_unit(
        &mut self,
        funct: DecimalFunct,
        rs1_value: u64,
        rs2_value: u64,
        rd_field: u8,
        rs1_field: u8,
        rs2_field: u8,
        mem: Option<&mut Memory>,
    ) -> Result<(Option<u64>, u32), AccelCause> {
        let mut rd_value = None;
        let mut mem_accesses = 0;

        match funct {
            DecimalFunct::Wr => {
                self.write_half(rs2_field, rs1_value);
            }
            DecimalFunct::Rd => {
                rd_value = Some(self.read_half(rs1_field));
            }
            DecimalFunct::Ld => {
                let mem = mem.ok_or(AccelCause::ProtocolViolation)?;
                let data = mem.read_u64(rs1_value).map_err(|_| AccelCause::MemoryFault)?;
                self.write_half(rs2_field, data);
                mem_accesses = 1;
            }
            DecimalFunct::Accum => {
                self.bin_scratch = self.bin_scratch.wrapping_add(rs1_value);
                rd_value = Some(self.bin_scratch);
            }
            DecimalFunct::DecAdd | DecimalFunct::DecAdc => {
                let a = Self::bcd64_operand(rs1_value)?;
                let b = Self::bcd64_operand(rs2_value)?;
                let carry_in = funct == DecimalFunct::DecAdc && self.carry;
                let (sum, carry_out) = self.cla.add(a, b, carry_in);
                self.carry = carry_out;
                rd_value = Some(sum.raw());
            }
            DecimalFunct::ClrAll => {
                self.clear_state();
            }
            DecimalFunct::DecCnv => {
                let hw = double_dabble(rs1_value);
                self.regfile[ACC_INDEX] = hw.bcd.raw();
                rd_value = Some(hw.bcd.raw() as u64);
            }
            DecimalFunct::DecMul => {
                let (i1, _) = decode_reg_address(rs1_field);
                let (i2, _) = decode_reg_address(rs2_field);
                let a = self.bcd64_reg(i1)?;
                let b = self.bcd64_reg(i2)?;
                let product = a.full_mul(b);
                self.regfile[ACC_INDEX] = product.raw();
                rd_value = Some(product.raw() as u64);
            }
            DecimalFunct::DecAccum => {
                let digit = Self::digit_operand(rs1_value)?;
                let acc = self.bcd128_reg(ACC_INDEX)?;
                let addend = self.bcd128_reg(usize::from(digit))?;
                let (sum, carry) = acc.shl_digits(1).add(addend);
                self.carry = carry;
                self.regfile[ACC_INDEX] = sum.raw();
            }
            DecimalFunct::DecAddR => {
                let (ia, _) = decode_reg_address(rs1_field);
                let (ib, _) = decode_reg_address(rs2_field);
                let (id, _) = decode_reg_address(rd_field);
                let a = self.bcd128_reg(ia)?;
                let b = self.bcd128_reg(ib)?;
                let (sum, carry) = a.add(b);
                self.carry = carry;
                self.regfile[id] = sum.raw();
            }
            DecimalFunct::DecMulD => {
                let digit = Self::digit_operand(rs1_value)?;
                let x = self.bcd64_reg(1)?;
                let acc = self.bcd128_reg(ACC_INDEX)?;
                let (sum, carry) = acc.shl_digits(1).add(x.mul_digit(digit));
                self.carry = carry;
                self.regfile[ACC_INDEX] = sum.raw();
            }
            DecimalFunct::Stat => {
                rd_value = Some(self.status().word());
            }
        }

        Ok((rd_value, mem_accesses))
    }
}

impl Coprocessor for DecimalAccelerator {
    fn execute(&mut self, cmd: &RoccCommand, mem: &mut Memory) -> Result<RoccResponse, CpuError> {
        let instr = cmd.instruction;
        let Some(funct) = DecimalFunct::from_funct7(instr.funct7) else {
            // Unimplemented functions are a guest fault, reported in-band
            // like any other: latch the cause, answer benignly.
            self.latch_error(AccelCause::UnknownFunction, instr.funct7);
            return Ok(RoccResponse {
                rd_value: instr.xd.then_some(0),
                busy_cycles: 1,
                mem_accesses: 0,
            });
        };
        let mut resp = self.dispatch(
            funct,
            cmd.rs1_value,
            cmd.rs2_value,
            instr.rd.number(),
            instr.rs1.number(),
            instr.rs2.number(),
            Some(mem),
        );
        // When xs-flags are clear, the field numbers double as accelerator
        // addresses; when set, the values travelled in rs1_value/rs2_value —
        // dispatch already received both forms. An `xd` command whose
        // function produces no value is a protocol violation; it, too,
        // stays in-band (unless the FSM is wedged and nothing responds).
        if instr.xd && resp.rd_value.is_none() && !resp.is_hung() {
            self.latch_error(AccelCause::ProtocolViolation, instr.funct7);
            resp.rd_value = Some(0);
        }
        Ok(resp)
    }

    fn watchdog_abort(&mut self) {
        // The core gave up on a wedged handshake: force the FSM into the
        // recoverable Error state and record the abort so STAT sees it.
        if self.latched.is_none() {
            self.latched = Some((AccelCause::WatchdogAbort, 0));
        }
        if self.fsm.state() != FsmState::Error {
            self.fsm.enter_error("watchdog");
        }
    }

    fn reset(&mut self) {
        self.clear_state();
        self.fsm.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc() -> DecimalAccelerator {
        DecimalAccelerator::new()
    }

    #[test]
    fn dec_add_and_carry() {
        let mut a = acc();
        let r = a
            .command(DecimalFunct::DecAdd, 0x9999_9999_9999_9999, 0x1, 0, 0, 0)
            .unwrap();
        assert_eq!(r.rd_value, Some(0));
        assert!(a.carry());
        // Chain the carry into the high half.
        let r2 = a.command(DecimalFunct::DecAdc, 0x5, 0x5, 0, 0, 0).unwrap();
        assert_eq!(r2.rd_value, Some(0x11)); // 5 + 5 + 1 = 11 in BCD
        assert!(!a.carry());
    }

    #[test]
    fn dec_add_reports_invalid_bcd_in_band() {
        let mut a = acc();
        let resp = a.command(DecimalFunct::DecAdd, 0xA, 0x1, 0, 0, 0).unwrap();
        // Benign response, fault latched, FSM sticky in Error.
        assert_eq!(resp.rd_value, Some(0));
        let status = a.status();
        assert!(status.error);
        assert_eq!(status.cause, Some(AccelCause::InvalidBcdOperand));
        assert_eq!(status.funct7, DecimalFunct::DecAdd.funct7());
        assert_eq!(a.fsm().state(), FsmState::Error);
        assert!(!a.carry(), "faulting command must not touch the carry");
    }

    #[test]
    fn stat_reads_the_status_word_and_clr_all_recovers() {
        let mut a = acc();
        let clean = a.command(DecimalFunct::Stat, 0, 0, 0, 0, 0).unwrap();
        assert_eq!(clean.rd_value, Some(0));

        a.command(DecimalFunct::DecAdd, 0xA, 0x1, 0, 0, 0).unwrap();
        let stat = a.command(DecimalFunct::Stat, 0, 0, 0, 0, 0).unwrap();
        let word = stat.rd_value.unwrap();
        assert_ne!(word, 0);
        assert_eq!(AccelStatus::decode(word), a.status());

        // Commands other than STAT/CLR_ALL are ignored while in Error.
        let ignored = a.command(DecimalFunct::DecAdd, 0x1, 0x1, 0, 0, 0).unwrap();
        assert_eq!(ignored.rd_value, Some(0));
        assert!(a.status().error, "error stays sticky");

        a.command(DecimalFunct::ClrAll, 0, 0, 0, 0, 0).unwrap();
        assert!(a.status().is_clear());
        assert_eq!(a.fsm().state(), FsmState::Idle);
        let sum = a.command(DecimalFunct::DecAdd, 0x2, 0x3, 0, 0, 0).unwrap();
        assert_eq!(sum.rd_value, Some(0x5), "recovered accelerator computes again");
    }

    #[test]
    fn first_fault_wins_the_cause_field() {
        let mut a = acc();
        a.command(DecimalFunct::DecAdd, 0xA, 0x1, 0, 0, 0).unwrap();
        a.command(DecimalFunct::DecAccum, 10, 0, 0, 0, 0).unwrap();
        assert_eq!(a.status().cause, Some(AccelCause::InvalidBcdOperand));
    }

    #[test]
    fn wedged_fsm_never_responds() {
        let mut a = acc();
        a.inject_fsm_wedge();
        let resp = a.command(DecimalFunct::DecAdd, 0x1, 0x1, 0, 0, 0).unwrap();
        assert!(resp.is_hung());
    }

    #[test]
    fn watchdog_abort_lands_in_recoverable_error() {
        let mut a = acc();
        a.inject_fsm_wedge();
        a.watchdog_abort();
        let status = a.status();
        assert!(status.error);
        assert_eq!(status.cause, Some(AccelCause::WatchdogAbort));
        a.command(DecimalFunct::ClrAll, 0, 0, 0, 0, 0).unwrap();
        assert!(a.status().is_clear());
    }

    #[test]
    fn injected_fsm_error_is_visible_without_a_cause() {
        let mut a = acc();
        a.inject_fsm_error();
        let stat = a.command(DecimalFunct::Stat, 0, 0, 0, 0, 0).unwrap();
        let status = AccelStatus::decode(stat.rd_value.unwrap());
        assert!(status.error);
        assert_eq!(status.cause, None);
        assert_ne!(stat.rd_value, Some(0));
    }

    #[test]
    fn register_bit_flip_port_flips_one_bit() {
        let mut a = acc();
        a.command(DecimalFunct::Wr, 0x5, 0, 0, 0, 3).unwrap();
        a.inject_register_bit_flip(3, 1);
        assert_eq!(a.register(3), 0x7);
        a.inject_carry_flip();
        assert!(a.carry());
    }

    #[test]
    fn wr_rd_halves() {
        let mut a = acc();
        a.command(DecimalFunct::Wr, 0x1234, 0, 0, 0, 3).unwrap(); // reg3 lo
        a.command(DecimalFunct::Wr, 0x5678, 0, 0, 0, 0x13).unwrap(); // reg3 hi
        assert_eq!(a.register(3), (0x5678u128 << 64) | 0x1234);
        let lo = a.command(DecimalFunct::Rd, 0, 0, 0, 3, 0).unwrap();
        let hi = a.command(DecimalFunct::Rd, 0, 0, 0, 0x13, 0).unwrap();
        assert_eq!(lo.rd_value, Some(0x1234));
        assert_eq!(hi.rd_value, Some(0x5678));
    }

    #[test]
    fn binary_accumulator() {
        let mut a = acc();
        assert_eq!(
            a.command(DecimalFunct::Accum, 5, 0, 0, 0, 0).unwrap().rd_value,
            Some(5)
        );
        assert_eq!(
            a.command(DecimalFunct::Accum, 7, 0, 0, 0, 0).unwrap().rd_value,
            Some(12)
        );
    }

    #[test]
    fn clr_all_clears() {
        let mut a = acc();
        a.command(DecimalFunct::Wr, 42, 0, 0, 0, 1).unwrap();
        a.command(DecimalFunct::DecAdd, 0x9999_9999_9999_9999, 1, 0, 0, 0)
            .unwrap();
        a.command(DecimalFunct::ClrAll, 0, 0, 0, 0, 0).unwrap();
        assert_eq!(a.register(1), 0);
        assert!(!a.carry());
    }

    #[test]
    fn dec_cnv_converts_binary() {
        let mut a = acc();
        let r = a.command(DecimalFunct::DecCnv, 90_24, 0, 0, 0, 0).unwrap();
        assert_eq!(r.rd_value, Some(0x9024));
        assert!(r.busy_cycles >= 14, "9024 needs 14 bits");
    }

    #[test]
    fn dec_mul_full_product_in_acc() {
        let mut a = acc();
        a.command(DecimalFunct::Wr, 0x9999_9999_9999_9999, 0, 0, 0, 1)
            .unwrap();
        a.command(DecimalFunct::Wr, 0x9999_9999_9999_9999, 0, 0, 0, 2)
            .unwrap();
        a.command(DecimalFunct::DecMul, 0, 0, 0, 1, 2).unwrap();
        let product = bcd::Bcd128::new(a.acc()).unwrap();
        assert_eq!(
            product.to_value(),
            9_999_999_999_999_999u128 * 9_999_999_999_999_999u128
        );
    }

    #[test]
    fn dec_accum_horner_step() {
        let mut a = acc();
        // reg1 = 7, reg2 = 3.
        a.command(DecimalFunct::Wr, 0x7, 0, 0, 0, 1).unwrap();
        a.command(DecimalFunct::Wr, 0x3, 0, 0, 0, 2).unwrap();
        // acc = ((0*10)+7)*10 + 3 = 73
        a.command(DecimalFunct::DecAccum, 1, 0, 0, 0, 0).unwrap();
        a.command(DecimalFunct::DecAccum, 2, 0, 0, 0, 0).unwrap();
        assert_eq!(a.acc(), 0x73);
    }

    #[test]
    fn dec_accum_reports_wide_digit_in_band() {
        let mut a = acc();
        a.command(DecimalFunct::DecAccum, 10, 0, 0, 0, 0).unwrap();
        assert_eq!(a.status().cause, Some(AccelCause::DigitRange));
        assert_eq!(a.acc(), 0, "faulting command must not touch the accumulator");
    }

    #[test]
    fn dec_add_r_wide() {
        let mut a = acc();
        // reg1 = 16 nines in the low half, 1 in the high half ... build 17-digit value.
        a.command(DecimalFunct::Wr, 0x9999_9999_9999_9999, 0, 0, 0, 1).unwrap();
        a.command(DecimalFunct::Wr, 0x1, 0, 0, 0, 2).unwrap();
        // reg3 = reg1 + reg2 (wide): 10^16.
        a.command(DecimalFunct::DecAddR, 0, 0, 3, 1, 2).unwrap();
        assert_eq!(a.register(3), 1u128 << 64);
    }

    #[test]
    fn dec_muld_digit_multiply() {
        let mut a = acc();
        a.command(DecimalFunct::Wr, 0x123, 0, 0, 0, 1).unwrap();
        // acc = 0*10 + 123*9 = 1107
        a.command(DecimalFunct::DecMulD, 9, 0, 0, 0, 0).unwrap();
        assert_eq!(a.acc(), 0x1107);
    }

    /// An accelerator holding BCD in registers 1 and 2, its carry latch
    /// set to `carry`, tracing the FSM from here on.
    fn prepared(carry: bool) -> DecimalAccelerator {
        let mut a = acc();
        a.command(DecimalFunct::Wr, 0x12, 0, 0, 0, 1).unwrap();
        a.command(DecimalFunct::Wr, 0x34, 0, 0, 0, 2).unwrap();
        if carry {
            a.inject_carry_flip();
        }
        a.set_fsm_tracing(true);
        a
    }

    /// Issues `funct` with `rs1_value`, 3 in `rs2` and register fields
    /// rd = 3, rs1 = 1, rs2 = 2: valid operands of every function when
    /// `rs1_value` is a digit. None of them carries out.
    fn issue(a: &mut DecimalAccelerator, funct: DecimalFunct, rs1_value: u64) -> RoccResponse {
        a.command(funct, rs1_value, 3, 3, 1, 2).unwrap()
    }

    /// Every function `command` accepts (`LD` needs the memory interface).
    fn all_but_ld() -> impl Iterator<Item = DecimalFunct> {
        DecimalFunct::ALL
            .into_iter()
            .filter(|&f| f != DecimalFunct::Ld)
    }

    fn registers(a: &DecimalAccelerator) -> Vec<u128> {
        (0..16).map(|i| a.register(i)).collect()
    }

    #[test]
    fn rows_match_busy_cycles_and_serve_states() {
        let mut seen = Vec::new();
        for funct in all_but_ld() {
            let spec = funct.spec();
            let mut a = prepared(false);
            let resp = issue(&mut a, funct, 2);
            if let Some(busy) = spec.busy_cycles {
                assert_eq!(resp.busy_cycles, busy, "{funct}");
            }
            let served = a.fsm().trace()[0].to;
            assert_eq!(served, spec.serve_state, "{funct}");
            seen.push(format!("{funct}:{}:{served}", resp.busy_cycles));
        }
        assert_eq!(
            seen.join(" "),
            "WR:1:Write RD:1:Read ACCUM:1:Accum DEC_ADD:1:Execute(DEC_ADD) \
             CLR_ALL:1:Clear DEC_CNV:2:Execute(DEC_CNV) DEC_MUL:18:Execute(DEC_MUL) \
             DEC_ACCUM:2:Execute(DEC_ACCUM) DEC_ADC:1:Execute(DEC_ADC) \
             DEC_ADD_R:2:Execute(DEC_ADD_R) DEC_MULD:2:Execute(DEC_MULD) STAT:1:Read"
        );
        // DEC_CNV's shift-and-add-3 takes one cycle per significant bit.
        for (operand, cycles) in [(0, 1), (1, 1), (9024, 14), (u64::MAX, 64)] {
            let busy = issue(&mut acc(), DecimalFunct::DecCnv, operand).busy_cycles;
            assert_eq!(busy, cycles, "{operand}");
        }
    }

    #[test]
    fn rows_match_carry_behaviour() {
        for funct in all_but_ld() {
            let spec = funct.spec();
            let mut clear = prepared(false);
            let mut set = prepared(true);
            let without = issue(&mut clear, funct, 2);
            let with = issue(&mut set, funct, 2);
            // No operand carries out, so defining the latch clears it.
            assert_eq!(set.carry(), !spec.defines_carry, "{funct}");
            let read = with.rd_value != without.rd_value || registers(&set) != registers(&clear);
            assert_eq!(read, spec.reads_carry, "{funct}");
        }
    }

    #[test]
    fn rows_match_digit_operands() {
        for funct in all_but_ld() {
            let mut a = prepared(false);
            issue(&mut a, funct, 10);
            let digit_fault = a.status().cause == Some(AccelCause::DigitRange);
            assert_eq!(digit_fault, funct.spec().digit_operand, "{funct}");
        }
    }

    #[test]
    fn error_state_services_exactly_the_rows_that_say_so() {
        for funct in all_but_ld() {
            let mut a = prepared(false);
            a.inject_fsm_error();
            let before = registers(&a);
            let busy = a.total_busy_cycles();
            let resp = issue(&mut a, funct, 2);
            let took_effect = a.total_busy_cycles() != busy;
            assert_eq!(took_effect, funct.spec().serviced_in_error, "{funct}");
            if !took_effect {
                assert_eq!(resp.rd_value, Some(0), "{funct}");
                assert_eq!(a.fsm().state(), FsmState::Error, "{funct}");
                assert_eq!(registers(&a), before, "{funct}");
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut a = acc();
        a.command(DecimalFunct::DecAdd, 1, 2, 0, 0, 0).unwrap();
        a.command(DecimalFunct::DecAdd, 3, 4, 0, 0, 0).unwrap();
        assert_eq!(a.total_busy_cycles(), 2);
    }
}
