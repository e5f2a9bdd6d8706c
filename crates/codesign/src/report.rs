//! Textual reports that regenerate the paper's tables.

use std::fmt::Write as _;

use rocc::{AcceleratorConfig, DecimalFunct};
use riscv_isa::rocc::{CustomOpcode, RoccInstruction};
use riscv_isa::Reg;

use crate::framework::CycleEvaluation;
use crate::kernels::KernelKind;

/// Renders Table II: the decimal instruction list with funct7 codes.
#[must_use]
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table II: List of instructions");
    let _ = writeln!(out, "{:<11} {:<9} {:<7} Description", "Function", "Funct7", "Paper?");
    for funct in DecimalFunct::ALL {
        let _ = writeln!(
            out,
            "{:<11} {:07b}   {:<7} {}",
            funct.spec().name,
            funct.funct7(),
            if funct.in_paper_table2() { "yes" } else { "ext" },
            funct.spec().description,
        );
    }
    out
}

/// Renders Table III: RoCC instruction encodings, including the paper's
/// `DEC_ADD` example with x10/x11 sources and x12 destination.
#[must_use]
pub fn table3() -> String {
    let rows: Vec<(&str, RoccInstruction)> = vec![
        (
            "CLR_ALL",
            RoccInstruction {
                opcode: CustomOpcode::Custom0,
                funct7: DecimalFunct::ClrAll.funct7(),
                rd: Reg::ZERO,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
                xd: false,
                xs1: false,
                xs2: false,
            },
        ),
        (
            "RD",
            RoccInstruction {
                opcode: CustomOpcode::Custom0,
                funct7: DecimalFunct::Rd.funct7(),
                rd: Reg::A0,
                rs1: Reg::A5, // accelerator register-file address in the field
                rs2: Reg::ZERO,
                xd: true,
                xs1: false,
                xs2: false,
            },
        ),
        (
            "WR",
            RoccInstruction {
                opcode: CustomOpcode::Custom0,
                funct7: DecimalFunct::Wr.funct7(),
                rd: Reg::ZERO,
                rs1: Reg::A1,
                rs2: Reg::T0,
                xd: false,
                xs1: true,
                xs2: false,
            },
        ),
        (
            "DEC_ADD",
            RoccInstruction::reg_reg(
                CustomOpcode::Custom0,
                DecimalFunct::DecAdd.funct7(),
                Reg::A2,
                Reg::A1,
                Reg::A0,
            ),
        ),
    ];
    let mut out = String::new();
    let _ = writeln!(out, "Table III: RoCC instruction encodings (custom-0)");
    let _ = writeln!(
        out,
        "Note: the paper prints DEC_ADD as 0x08A5F617 using opcode 0010111,"
    );
    let _ = writeln!(
        out,
        "which is AUIPC's major opcode; with the architecturally correct"
    );
    let _ = writeln!(
        out,
        "custom-0 opcode (0001011) the same fields encode as shown here."
    );
    for (name, instr) in rows {
        let _ = writeln!(out, "{:<8} {:#010x}  {}", name, instr.encode(), instr.field_layout());
    }
    out
}

/// One row of Table IV.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Configuration name.
    pub name: String,
    /// Average software-part cycles.
    pub sw: f64,
    /// Average hardware-part cycles.
    pub hw: f64,
}

impl Table4Row {
    /// Builds a row from a cycle evaluation.
    #[must_use]
    pub fn from_eval(kind: KernelKind, eval: &CycleEvaluation) -> Table4Row {
        Table4Row {
            name: kind.name().to_string(),
            sw: eval.avg_sw_cycles,
            hw: eval.avg_hw_cycles,
        }
    }

    /// Total cycles.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.sw + self.hw
    }
}

/// Renders Table IV: average cycles with the SW/HW split and speedups
/// relative to `baseline` (the software row).
#[must_use]
pub fn table4(rows: &[Table4Row], baseline: &Table4Row) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table IV: Average number of cycles (cycle-accurate, {} baseline total {:.0})",
        baseline.name,
        baseline.total()
    );
    let _ = writeln!(
        out,
        "{:<28} {:>9} {:>9} {:>9} {:>9}",
        "Configuration", "SW part", "HW part", "Total", "Speedup"
    );
    for row in rows {
        let speedup = baseline.total() / row.total();
        let _ = writeln!(
            out,
            "{:<28} {:>9.0} {:>9.0} {:>9.0} {:>8.2}x",
            row.name,
            row.sw,
            row.hw,
            row.total(),
            speedup
        );
    }
    out
}

/// Renders a Table V / Table VI style two-row time comparison.
#[must_use]
pub fn time_table(
    title: &str,
    unit: &str,
    rows: &[(String, f64)],
    baseline_index: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{:<32} {:>14} {:>9}", "Configuration", unit, "Speedup");
    let baseline = rows[baseline_index].1;
    for (name, time) in rows {
        let _ = writeln!(
            out,
            "{:<32} {:>14.6} {:>8.2}x",
            name,
            time,
            baseline / time
        );
    }
    out
}

/// Renders the per-input-class cycle breakdown: one column per
/// configuration, one row per class — the quantitative form of the paper's
/// "computing time highly dependent on the nature of the input" remark.
#[must_use]
pub fn class_table(
    configs: &[(String, crate::framework::ClassBreakdown)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Per-class average cycles per multiplication");
    let mut header = format!("{:<12}", "class");
    for (name, _) in configs {
        header += &format!(" {name:>28}");
    }
    let _ = writeln!(out, "{header}");
    if let Some((_, first)) = configs.first() {
        for (i, (class, _, n)) in first.rows.iter().enumerate() {
            let mut line = format!("{:<12}", format!("{class} ({n})"));
            for (_, breakdown) in configs {
                line += &format!(" {:>28.0}", breakdown.rows[i].1);
            }
            let _ = writeln!(out, "{line}");
        }
        let mut line = format!("{:<12}", "overall");
        for (_, breakdown) in configs {
            line += &format!(" {:>28.0}", breakdown.overall);
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Renders the Pareto table: per-method hardware cost against cycles.
#[must_use]
pub fn pareto_table(entries: &[(String, u64, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Pareto points: hardware cost vs. performance");
    let _ = writeln!(
        out,
        "{:<28} {:>14} {:>14}",
        "Configuration", "NAND2 gates", "Avg cycles"
    );
    for (name, gates, cycles) in entries {
        let _ = writeln!(out, "{:<28} {:>14} {:>14.0}", name, gates, cycles);
    }
    out
}

/// The hardware-cost inventory for the four methods.
#[must_use]
pub fn method_costs() -> Vec<(String, u64)> {
    AcceleratorConfig::all_methods()
        .into_iter()
        .map(|c| {
            let gates = c.cost().gates;
            (c.name, gates)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_all_functions() {
        let t = table2();
        for funct in DecimalFunct::ALL {
            assert!(t.contains(funct.spec().name), "{}", funct.spec().name);
        }
    }

    #[test]
    fn table3_contains_corrected_dec_add() {
        let t = table3();
        assert!(t.contains("0x08a5f60b"));
        assert!(t.contains("AUIPC"));
    }

    #[test]
    fn table4_formats_speedups() {
        let baseline = Table4Row {
            name: "Software".into(),
            sw: 3000.0,
            hw: 0.0,
        };
        let rows = vec![
            baseline.clone(),
            Table4Row {
                name: "Method-1".into(),
                sw: 1000.0,
                hw: 200.0,
            },
        ];
        let t = table4(&rows, &baseline);
        assert!(t.contains("2.50x"));
        assert!(t.contains("1.00x"));
    }

    #[test]
    fn method_costs_monotonic() {
        let costs = method_costs();
        assert_eq!(costs.len(), 4);
        assert!(costs.windows(2).all(|w| w[0].1 < w[1].1));
    }
}
