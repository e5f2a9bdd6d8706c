//! A structured sweep of the 32-bit instruction space: every major opcode ×
//! funct3 × bits 31:25, each with five register-field patterns. It pins
//! what the decoder, the disassembler and the encoder make of every word,
//! and checks that the assembler reads back what the disassembler prints.

use riscv_asm::assemble;
use riscv_isa::{Instr, Op};

/// `(rd, rs1, rs2)` field patterns. The three zero-`rd`/`rs1` rows with
/// `rs2` 0, 1 and 2 reach `ecall`, `ebreak` and (with funct7 `0x18`)
/// `mret`.
const FIELDS: [(u32, u32, u32); 5] = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (10, 11, 12), (31, 31, 31)];

fn sweep() -> impl Iterator<Item = u32> {
    (0..128u32).flat_map(|opcode| {
        (0..8u32).flat_map(move |funct3| {
            (0..128u32).flat_map(move |top| {
                FIELDS.iter().map(move |&(rd, rs1, rs2)| {
                    (top << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode
                })
            })
        })
    })
}

/// FNV-1a, 64-bit: a fixed hash, so the digest is the same on every
/// toolchain.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Hashes, for each of the 655,360 swept words, its decode result, its
/// `Display` text and its re-encoding. The counts, and the digest with
/// RoCC commands printed in the old `custom0.f4 a2, a1, a0 [xd=1 xs1=1
/// xs2=1]` listing form, were recorded by this test on the tree whose
/// decoder, encoder and disassembler each kept their own per-op `match`
/// (before the per-family encoding tables): the tables must spell, encode
/// and decode every instruction exactly as that code did. The digest was
/// re-recorded when RoCC commands began to print in assembler syntax,
/// which changed their text and nothing else.
#[test]
fn decode_display_and_reencode_of_the_sweep_are_pinned() {
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let (mut words, mut decoded) = (0, 0);
    for word in sweep() {
        let decode = Instr::decode(word);
        let mut record = format!("{word:08x} {decode:?}");
        if let Ok(instr) = decode {
            record += &format!(" {instr} {:?}", instr.encode());
            decoded += 1;
        }
        digest = fnv1a(digest, record.as_bytes());
        digest = fnv1a(digest, b"\n");
        words += 1;
    }
    assert_eq!((words, decoded), (655_360, 60_988));
    assert_eq!(digest, 0x5991_90CD_9BCE_51BE, "{digest:#018x}");
}

/// Every decodable word's flat op maps back to the instruction it was
/// built from, so a retirement printed from the `Op` the simulators carry
/// prints what was decoded.
#[test]
fn every_decoded_instruction_maps_to_its_op_and_back() {
    let mut checked = 0;
    for word in sweep() {
        let Ok(instr) = Instr::decode(word) else { continue };
        assert_eq!(Instr::from(Op::from(instr)), instr, "{word:#010x}");
        checked += 1;
    }
    assert_eq!(checked, 60_988);
}

/// Every decodable word's disassembly, RoCC commands included, assembles
/// back to a word that decodes to the same instruction.
#[test]
fn disassembly_reassembles_to_the_same_instruction() {
    let mut checked = 0;
    for word in sweep() {
        let Ok(instr) = Instr::decode(word) else { continue };
        let text = instr.to_string();
        let program = assemble(&text).unwrap_or_else(|e| panic!("{word:#010x} `{text}`: {e}"));
        let bytes: [u8; 4] = program.text.data[..].try_into().expect("one word");
        assert_eq!(
            Instr::decode(u32::from_le_bytes(bytes)),
            Ok(instr),
            "{word:#010x} `{text}`"
        );
        checked += 1;
    }
    assert_eq!(checked, 60_988);
}
