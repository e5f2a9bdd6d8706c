//! The benchmark's host clock: this thread's CPU time, rescaled to a
//! nominal host speed.
//!
//! Host times are read from the thread's CPU clock, so time the host gives
//! to other work (steal, preemption) is not charged to the program. On a
//! shared host the speed of that CPU time still drifts, by a third for
//! minutes at a time: neighbours on sibling hyperthreads and in shared
//! caches, frequency changes. So the benchmark also times a fixed
//! reference loop next to every measurement and rescales the measurement
//! to the host speed at which that loop takes [`NOMINAL_REFERENCE_S`]. The
//! loop is the benchmark's own code, a small interpreter with the
//! simulators' shape of work (byte fetches, decode, a dispatch `match`,
//! data-dependent branches), so no change to the repository moves it.

use std::cell::RefCell;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the thread CPU clock of 64-bit Linux");

/// One reference loop's CPU time at the nominal host speed, seconds.
pub const NOMINAL_REFERENCE_S: f64 = 0.001;

/// Reference loops per [`reference_s`] sample; the sample is their median.
const REFERENCE_REPEATS: usize = 3;

/// A reading of this thread's CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(u64);

impl CpuInstant {
    /// The thread's CPU time now.
    #[must_use]
    pub fn now() -> Self {
        CpuInstant(thread_cpu_ns())
    }

    /// CPU seconds since this reading.
    #[must_use]
    pub fn elapsed_s(self) -> f64 {
        thread_cpu_ns().saturating_sub(self.0) as f64 * 1e-9
    }

    /// CPU milliseconds since this reading.
    #[must_use]
    pub fn elapsed_ms(self) -> f64 {
        self.elapsed_s() * 1e3
    }
}

/// The calling thread's CPU time, nanoseconds (`CLOCK_THREAD_CPUTIME_ID`).
#[allow(unsafe_code)]
fn thread_cpu_ns() -> u64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, which the `compile_error!` above enforces) for the
    // whole call, and the clock id is the one Linux defines for the calling
    // thread's CPU time.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the calling thread's CPU clock is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Bytes of the reference machine's memory: one text page and the data
/// pages its loads and stores spread over.
const MEMORY: u64 = 17 * 4096;

/// The reference program: 32-bit words, one byte each of (from the top)
/// opcode, destination register, source register and immediate.
const PROGRAM: [u32; 8] = [
    0x00_01_02_07, // r1 += r2 + 7
    0x01_02_01_00, // r2 *= r1 | 1
    0x02_03_02_0d, // r3 ^= r2 >> 13
    0x04_01_03_00, // store the low byte of r1 at r3
    0x03_04_02_00, // load r4 from r2
    0x00_04_03_01, // r4 += r3 + 1
    0x05_04_00_00, // if r4 is even, jump to word 0
    0x00_05_04_03, // r5 += r4 + 3
];

/// Instructions one reference loop executes.
const STEPS: u32 = 200_000;

thread_local! {
    /// The reference machine's memory, kept between loops so that a loop
    /// times no allocation.
    static MEMORY_BYTES: RefCell<Vec<u8>> = RefCell::new(vec![0; MEMORY as usize]);
}

/// One reference loop: [`STEPS`] instructions of [`PROGRAM`] from zeroed
/// memory, every fetch and data access a byte at a time.
fn reference_loop(memory: &mut [u8]) -> u64 {
    memory.fill(0);
    for (i, word) in std::hint::black_box(PROGRAM).iter().enumerate() {
        memory[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    let text_end = 4 * PROGRAM.len() as u64;
    let data_addr = |value: u64| (4096 + value % (MEMORY - 4096)) as usize;
    let mut regs = [1u64; 16];
    let mut pc = 0;
    for _ in 0..STEPS {
        let mut word = [0u8; 4];
        for (offset, byte) in (0..).zip(&mut word) {
            *byte = memory[(pc + offset) as usize];
        }
        let [imm, rs, rd, op] = word;
        let (rd, rs, imm) = (usize::from(rd & 15), usize::from(rs & 15), u64::from(imm));
        pc = (pc + 4) % text_end;
        match op {
            0 => regs[rd] = regs[rd].wrapping_add(regs[rs]).wrapping_add(imm),
            1 => regs[rd] = regs[rd].wrapping_mul(regs[rs] | 1),
            2 => regs[rd] ^= regs[rs] >> (imm & 63),
            3 => regs[rd] = u64::from(memory[data_addr(regs[rs])]),
            4 => memory[data_addr(regs[rs])] = regs[rd] as u8,
            _ => {
                if regs[rd] & 1 == 0 {
                    pc = 4 * imm % text_end;
                }
            }
        }
    }
    regs.iter().fold(0, |acc, r| acc ^ r)
}

/// Times the reference loop: the median CPU seconds of a few runs.
#[must_use]
pub fn reference_s() -> f64 {
    let mut times = [0.0; REFERENCE_REPEATS];
    MEMORY_BYTES.with_borrow_mut(|memory| {
        for time in &mut times {
            let start = CpuInstant::now();
            std::hint::black_box(reference_loop(memory));
            *time = start.elapsed_s();
        }
    });
    times.sort_by(f64::total_cmp);
    times[REFERENCE_REPEATS / 2]
}

/// The factor that rescales a host time measured while the reference loop
/// took `reference_s` to the nominal host speed.
#[must_use]
pub fn to_nominal(reference_s: f64) -> f64 {
    NOMINAL_REFERENCE_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cpu_clock_does_not_run_while_the_thread_sleeps() {
        let start = CpuInstant::now();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(start.elapsed_ms() < 25.0, "{} ms", start.elapsed_ms());
    }

    #[test]
    fn the_reference_loop_takes_cpu_time() {
        let once = reference_s();
        assert!(once > 0.0);
        assert!(to_nominal(once).is_finite());
    }
}
