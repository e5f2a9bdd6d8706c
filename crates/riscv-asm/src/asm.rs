//! The assembler core: [`parse`] a source text into a [`Unit`], then
//! [`link`] units into a [`Program`].

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use riscv_isa::instr::{BranchOp, CsrOp, Instr, LoadOp, Op32Op, OpImm32Op, OpImmOp, OpOp, StoreOp};
use riscv_isa::rocc::{CustomOpcode, RoccInstruction};
use riscv_isa::{csr, EncodeError, Reg};

use crate::{DATA_BASE, TEXT_BASE};

/// Assembly error with the 1-based source line that caused it and, when
/// available, the offending source text itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// The trimmed source text of the offending line, when available.
    pub source: Option<String>,
}

impl AsmError {
    /// Builds an error without source context.
    #[must_use]
    pub fn new(line: usize, message: String) -> AsmError {
        AsmError {
            line,
            message,
            source: None,
        }
    }

    /// Attaches the offending line's text, looked up from the full source.
    #[must_use]
    pub fn with_source_context(mut self, source: &str) -> AsmError {
        self.source = source
            .lines()
            .nth(self.line.saturating_sub(1))
            .map(|text| text.trim().to_string())
            .filter(|text| !text.is_empty());
        self
    }

    /// A `file:line`-style location string (the assembler has no file
    /// names, so the "file" is the conventional `<asm>`).
    #[must_use]
    pub fn location(&self) -> String {
        format!("<asm>:{}", self.line)
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)?;
        if let Some(source) = &self.source {
            write!(f, "\n  {} | {}", self.line, source)?;
        }
        Ok(())
    }
}

impl std::error::Error for AsmError {}

/// A contiguous loadable region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Load address of the first byte.
    pub base: u64,
    /// The bytes.
    pub data: Vec<u8>,
}

/// An assembled program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Entry point: the `start`, `_start` or `main` symbol, or the text base.
    pub entry: u64,
    /// The `.text` segment.
    pub text: Segment,
    /// The `.data` segment.
    pub data: Segment,
    /// All defined symbols.
    pub symbols: SymbolTable,
    /// 1-based source line per text word: `line_map[i]` is the line that
    /// produced the word at `text.base + 4*i` (an `.align`'s line for its
    /// NOP padding).
    pub line_map: Vec<u32>,
}

impl Program {
    /// The 1-based source line that produced the instruction at `pc`, if
    /// `pc` lies inside the text segment.
    #[must_use]
    pub fn source_line(&self, pc: u64) -> Option<u32> {
        let offset = pc.checked_sub(self.text.base)?;
        let line = *self.line_map.get((offset / 4) as usize)?;
        (line != 0).then_some(line)
    }

    /// The nearest symbol at or below `pc` in the text segment, with the
    /// byte offset from it: the conventional `name+0x10` anchor.
    #[must_use]
    pub fn nearest_symbol(&self, pc: u64) -> Option<(&str, u64)> {
        let text_end = self.text.base + self.text.data.len() as u64;
        if pc < self.text.base || pc >= text_end {
            return None;
        }
        self.symbols
            .iter()
            .filter(|&(_, addr)| addr >= self.text.base && addr < text_end && addr <= pc)
            .max_by_key(|&(_, addr)| addr)
            .map(|(name, addr)| (name, pc - addr))
    }

    /// A human-readable location for `pc`: symbol+offset and source line
    /// when known, always including the raw pc.
    #[must_use]
    pub fn location(&self, pc: u64) -> String {
        let mut out = format!("{pc:#x}");
        if let Some((name, offset)) = self.nearest_symbol(pc) {
            if offset == 0 {
                out.push_str(&format!(" <{name}>"));
            } else {
                out.push_str(&format!(" <{name}+{offset:#x}>"));
            }
        }
        if let Some(line) = self.source_line(pc) {
            out.push_str(&format!(" (line {line})"));
        }
        out
    }
    /// Both segments, text first.
    #[must_use]
    pub fn segments(&self) -> [&Segment; 2] {
        [&self.text, &self.data]
    }

    /// Looks up a symbol's address.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name)
    }

    /// Total size in bytes across segments.
    #[must_use]
    pub fn size(&self) -> usize {
        self.text.data.len() + self.data.data.len()
    }

    /// Disassembles the text segment: `(address, word, text)` per
    /// instruction, with symbol names where an address carries a label.
    /// Undecodable words (there should be none in assembled output) are
    /// rendered as `.word 0x...`.
    #[must_use]
    pub fn disassemble(&self) -> Vec<(u64, u32, String)> {
        use std::collections::BTreeMap;
        let labels: BTreeMap<u64, Vec<&str>> = {
            let mut m: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
            for (name, addr) in self.symbols.iter() {
                m.entry(addr).or_default().push(name);
            }
            m
        };
        let mut out = Vec::with_capacity(self.text.data.len() / 4);
        for (i, chunk) in self.text.data.chunks_exact(4).enumerate() {
            let addr = self.text.base + 4 * i as u64;
            let word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
            let mut line = String::new();
            if let Some(names) = labels.get(&addr) {
                for name in names {
                    line.push_str(&format!("{name}: "));
                }
            }
            match riscv_isa::Instr::decode(word) {
                Ok(instr) => line.push_str(&instr.to_string()),
                Err(_) => line.push_str(&format!(".word {word:#010x}")),
            }
            out.push((addr, word, line));
        }
        out
    }
}

/// A program's symbols and their addresses (or `.equ` values), sorted by
/// name. Names are shared with the [`Unit`]s that define them, so linking
/// a cached unit into many programs copies no string.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    entries: Vec<(Arc<str>, u64)>,
}

impl SymbolTable {
    /// The value of symbol `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .binary_search_by(|(entry, _)| (**entry).cmp(name))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Every symbol with its value, in name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, u64)> + '_ {
        self.entries.iter().map(|(name, value)| (&**name, *value))
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Operand {
    Reg(Reg),
    Imm(i64),
    Sym(String),
    Mem { offset: i64, base: Reg },
}

impl Operand {
    fn describe(&self) -> &'static str {
        match self {
            Operand::Reg(_) => "register",
            Operand::Imm(_) => "immediate",
            Operand::Sym(_) => "symbol",
            Operand::Mem { .. } => "memory operand",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Section {
    Text,
    Data,
}

/// An instruction as written: its mnemonic, operands and encoded size.
#[derive(Debug, Clone)]
pub(crate) struct PendingInstr {
    pub(crate) mnemonic: Cow<'static, str>,
    pub(crate) operands: Vec<Operand>,
    pub(crate) size: u64,
}

/// A `.word`/`.dword` whose value is a symbol's address.
#[derive(Debug, Clone)]
pub(crate) struct SymbolWord {
    size: u8,
    sym: String,
}

/// Bytes a fragment leaves zero until [`link`] knows the symbols.
#[derive(Debug, Clone)]
struct Fixup<T> {
    /// Byte offset inside the fragment.
    offset: u64,
    /// 1-based line inside the unit.
    line: usize,
    item: T,
}

/// A run of one section's bytes with no `.align` inside it, so everything
/// in it sits at a fixed offset from its start; [`link`] places the start.
#[derive(Debug, Clone)]
pub(crate) struct Fragment<T> {
    /// The `.align` that opens the fragment, as (log2 alignment, line).
    /// Each section of a unit starts with one fragment that has none.
    align: Option<(u32, usize)>,
    pub(crate) bytes: Vec<u8>,
    /// Text only: the unit line of each word.
    lines: Vec<u32>,
    fixups: Vec<Fixup<T>>,
}

impl<T> Fragment<T> {
    fn new(align: Option<(u32, usize)>) -> Self {
        Fragment {
            align,
            bytes: Vec::new(),
            lines: Vec::new(),
            fixups: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum SymbolValue {
    /// A label: byte `offset` into fragment `fragment` of `section`.
    Label {
        section: Section,
        fragment: usize,
        offset: u64,
    },
    /// An `.equ`/`.set` constant.
    Absolute(u64),
}

#[derive(Debug, Clone)]
struct SymbolDef {
    name: Arc<str>,
    /// 1-based line inside the unit.
    line: usize,
    value: SymbolValue,
}

/// A parsed source text: the input to [`link`].
///
/// Parsing does all the per-line work once — labels, directives, operands,
/// instruction sizes, and the machine words of every instruction that names
/// no symbol. What depends on where the unit lands (`.align` padding,
/// symbol addresses, instructions and data words that name symbols) is left
/// to [`link`], so one `Unit` can be linked into many programs.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Source lines: how far the lines of the next linked unit are offset.
    pub(crate) lines: usize,
    text: Vec<Fragment<PendingInstr>>,
    data: Vec<Fragment<SymbolWord>>,
    /// In definition order.
    symbols: Vec<SymbolDef>,
    /// Indices into `symbols`, in name order.
    by_name: Vec<u32>,
}

/// Assembles `source`: a one-unit [`link`], with errors quoting the
/// offending source line.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered (syntax, unknown mnemonic,
/// undefined symbol, out-of-range immediate, …).
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    parse(source)
        .and_then(|unit| link(&[&unit]))
        .map_err(|e| e.with_source_context(source))
}

/// Parses `source` into a [`Unit`], starting in `.text`.
///
/// # Errors
///
/// Returns the first error found line by line (syntax, bad directive,
/// duplicate symbol, …), with its line inside `source`. Errors that need
/// the symbols, and instructions that fail to encode, are reported by
/// [`link`] in source order, as [`assemble`] reports them.
pub fn parse(source: &str) -> Result<Unit, AsmError> {
    let mut parser = Parser {
        unit: Unit::empty(),
        section: Section::Text,
        defined: HashSet::new(),
    };
    for (idx, raw_line) in source.lines().enumerate() {
        parser.line(raw_line, idx + 1)?;
        parser.unit.lines = idx + 1;
    }
    parser.unit.seal()?;
    parser.unit.shrink_to_fit();
    Ok(parser.unit)
}

impl Unit {
    /// An empty unit: no lines, one empty fragment per section.
    pub(crate) fn empty() -> Unit {
        Unit {
            lines: 0,
            text: vec![Fragment::new(None)],
            data: vec![Fragment::new(None)],
            symbols: Vec::new(),
            by_name: Vec::new(),
        }
    }

    /// Drops the capacity the unit grew into: a parsed unit is typically
    /// kept (the co-design framework caches one per kernel).
    fn shrink_to_fit(&mut self) {
        fn shrink<T>(fragments: &mut Vec<Fragment<T>>) {
            for fragment in fragments.iter_mut() {
                fragment.bytes.shrink_to_fit();
                fragment.lines.shrink_to_fit();
                fragment.fixups.shrink_to_fit();
            }
            fragments.shrink_to_fit();
        }
        shrink(&mut self.text);
        shrink(&mut self.data);
        self.symbols.shrink_to_fit();
    }

    /// The end of `section` so far, as a label there records it.
    pub(crate) fn here(&self, section: Section) -> SymbolValue {
        fn end<T>(fragments: &[Fragment<T>]) -> (usize, u64) {
            let last = fragments.len() - 1;
            (last, fragments[last].bytes.len() as u64)
        }
        let (fragment, offset) = match section {
            Section::Text => end(&self.text),
            Section::Data => end(&self.data),
        };
        SymbolValue::Label {
            section,
            fragment,
            offset,
        }
    }

    /// Records symbol `name`, defined on `line` (duplicates are rejected
    /// by [`Unit::seal`]).
    pub(crate) fn define(&mut self, name: &str, line: usize, value: SymbolValue) {
        self.symbols.push(SymbolDef {
            name: Arc::from(name),
            line,
            value,
        });
    }

    /// Opens a fragment of `section` aligned to `2^log2` bytes by the
    /// `.align` on `line`.
    pub(crate) fn align(&mut self, section: Section, log2: u32, line: usize) {
        let align = Some((log2, line));
        match section {
            Section::Text => self.text.push(Fragment::new(align)),
            Section::Data => self.data.push(Fragment::new(align)),
        }
    }

    /// Appends machine `words`, written on `line`, to the text.
    pub(crate) fn push_words(&mut self, words: impl IntoIterator<Item = u32>, line: usize) {
        let fragment = self.text_fragment();
        for word in words {
            fragment.bytes.extend_from_slice(&word.to_le_bytes());
            fragment.lines.push(line as u32);
        }
    }

    /// Appends `instr`, written on `line`, to the text: its words if it
    /// names no symbol (they do not depend on placement), else a fixup. One
    /// that fails to encode is left to `link`, which reports it in order.
    pub(crate) fn push_instr(&mut self, instr: PendingInstr, line: usize) {
        let fragment = self.text_fragment();
        let offset = fragment.bytes.len();
        fragment.bytes.resize(offset + instr.size as usize, 0);
        fragment.lines.resize(fragment.lines.len() + (instr.size / 4) as usize, line as u32);
        let symbolic = instr.operands.iter().any(|o| matches!(o, Operand::Sym(_)));
        let image = &mut fragment.bytes[offset..];
        if symbolic || encode(&instr, 0, &SymbolTable::default(), image).is_err() {
            fragment.fixups.push(Fixup {
                offset: offset as u64,
                line,
                item: instr,
            });
        }
    }

    fn text_fragment(&mut self) -> &mut Fragment<PendingInstr> {
        self.text.last_mut().expect("every section has a fragment")
    }

    /// The data fragment that bytes are appended to.
    pub(crate) fn data_fragment(&mut self) -> &mut Fragment<SymbolWord> {
        self.data.last_mut().expect("every section has a fragment")
    }

    /// Completes a unit whose lines are all in: rejects a symbol defined
    /// twice, indexes the symbols by name for [`link`], and encodes every
    /// text fixup that placement cannot change — a pc-relative reference to
    /// a label of its own text fragment, or a use of the unit's own `.equ`
    /// values — so `link` only copies its words. A fixup that needs any
    /// other symbol, or fails to encode, is left for `link`, which reports
    /// errors in source order.
    pub(crate) fn seal(&mut self) -> Result<(), AsmError> {
        let Unit {
            text,
            symbols,
            by_name,
            ..
        } = self;
        *by_name = (0..symbols.len() as u32).collect();
        by_name.sort_unstable_by(|&a, &b| {
            (&symbols[a as usize].name, a).cmp(&(&symbols[b as usize].name, b))
        });
        // Each name's second definition, in definition order: the first one
        // a line-by-line reader rejects.
        let duplicate = by_name
            .windows(2)
            .filter(|pair| symbols[pair[0] as usize].name == symbols[pair[1] as usize].name)
            .map(|pair| pair[1])
            .min();
        if let Some(index) = duplicate {
            let def = &symbols[index as usize];
            return Err(AsmError::new(
                def.line,
                format!("duplicate symbol {:?}", def.name),
            ));
        }
        for (index, fragment) in text.iter_mut().enumerate() {
            let Fragment { bytes, fixups, .. } = fragment;
            let local = Local {
                symbols,
                by_name,
                fragment: index,
            };
            fixups.retain(|fixup| {
                let image = &mut bytes[fixup.offset as usize..];
                encode(&fixup.item, fixup.offset, &local, image).is_err()
            });
        }
        Ok(())
    }
}

/// Where [`expand`] reads the symbols an instruction names.
trait Symbols {
    /// `name` as an immediate: its address, or its `.equ` value.
    fn value(&self, name: &str) -> Option<u64>;
    /// `name`'s address minus `pc`, the referencing instruction's address.
    fn offset(&self, name: &str, pc: u64) -> Option<i64>;
}

/// A linked program's symbols, at their final addresses.
impl Symbols for SymbolTable {
    fn value(&self, name: &str) -> Option<u64> {
        self.get(name)
    }

    fn offset(&self, name: &str, pc: u64) -> Option<i64> {
        self.value(name).map(|addr| addr.wrapping_sub(pc) as i64)
    }
}

/// What one unit knows before placement: its `.equ` values, and the
/// distance between two points of one text fragment (addresses are offsets
/// into fragment `fragment`).
struct Local<'a> {
    symbols: &'a [SymbolDef],
    by_name: &'a [u32],
    fragment: usize,
}

impl Local<'_> {
    fn get(&self, name: &str) -> Option<SymbolValue> {
        let at = |i: &u32| &*self.symbols[*i as usize].name;
        let i = self.by_name.binary_search_by(|i| at(i).cmp(name)).ok()?;
        Some(self.symbols[self.by_name[i] as usize].value)
    }
}

impl Symbols for Local<'_> {
    fn value(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            SymbolValue::Absolute(value) => Some(value),
            SymbolValue::Label { .. } => None,
        }
    }

    fn offset(&self, name: &str, pc: u64) -> Option<i64> {
        match self.get(name)? {
            SymbolValue::Label {
                section: Section::Text,
                fragment,
                offset,
            } if fragment == self.fragment => Some(offset.wrapping_sub(pc) as i64),
            _ => None,
        }
    }
}

/// Links `units` into one program with `.text` at [`TEXT_BASE`] and `.data`
/// at [`DATA_BASE`]: each unit starts in `.text`, its text is placed after
/// the text of the units before it and its data after their data, and its
/// line numbers continue from theirs.
///
/// If `a` ends with a newline and `b` begins with a section directive,
/// `link(&[&parse(a)?, &parse(b)?])` equals `assemble(&(a + b))` apart from
/// the source context `assemble` adds to an error.
///
/// # Errors
///
/// A symbol defined in two units, an undefined symbol, or an instruction
/// that does not encode, with its line counted across all of `units`.
pub fn link(units: &[&Unit]) -> Result<Program, AsmError> {
    // Lay out every fragment first, so each image is allocated once, at
    // its exact size (callers keep programs: a set-up may build hundreds).
    let mut text = Layout::new(TEXT_BASE);
    let mut data = Layout::new(DATA_BASE);
    // Per unit: its first line and the index of its first fragment's start.
    let mut placed = Vec::with_capacity(units.len());
    let mut first_line = 0;
    for unit in units {
        placed.push((first_line, text.starts.len(), data.starts.len()));
        text.place(&unit.text, Section::Text, first_line)?;
        data.place(&unit.data, Section::Data, first_line)?;
        first_line += unit.lines;
    }
    let symbols = link_symbols(units, &placed, &text, &data)?;

    let mut text_image = Vec::with_capacity(text.len());
    let mut line_map = Vec::with_capacity(text.len() / 4);
    let mut data_image = Vec::with_capacity(data.len());
    let nop = Instr::NOP.encode().expect("nop encodes").to_le_bytes();
    for (unit, &(first_line, first_text, first_data)) in units.iter().zip(&placed) {
        for (fragment, &start) in unit.text.iter().zip(&text.starts[first_text..]) {
            // Pad with NOPs so the gap stays executable.
            let pad_words = (start - TEXT_BASE) as usize / 4 - line_map.len();
            if pad_words > 0 {
                let (_, line) = fragment.align.expect("only an .align pads");
                for _ in 0..pad_words {
                    text_image.extend_from_slice(&nop);
                }
                line_map.resize(line_map.len() + pad_words, (first_line + line) as u32);
            }
            text_image.extend_from_slice(&fragment.bytes);
            line_map.extend(fragment.lines.iter().map(|&line| line + first_line as u32));
        }
        for (fragment, &start) in unit.data.iter().zip(&data.starts[first_data..]) {
            data_image.resize((start - DATA_BASE) as usize, 0);
            data_image.extend_from_slice(&fragment.bytes);
        }
    }
    debug_assert_eq!(text_image.len(), text.len());
    debug_assert_eq!(data_image.len(), data.len());

    for (unit, &(first_line, first_text, _)) in units.iter().zip(&placed) {
        for (fragment, &start) in unit.text.iter().zip(&text.starts[first_text..]) {
            for fixup in &fragment.fixups {
                let addr = start + fixup.offset;
                let image = &mut text_image[(addr - TEXT_BASE) as usize..];
                encode(&fixup.item, addr, &symbols, image)
                    .map_err(|message| AsmError::new(first_line + fixup.line, message))?;
            }
        }
    }
    for (unit, &(first_line, _, first_data)) in units.iter().zip(&placed) {
        for (fragment, &start) in unit.data.iter().zip(&data.starts[first_data..]) {
            for fixup in &fragment.fixups {
                let SymbolWord { size, sym } = &fixup.item;
                let value = symbols.get(sym).ok_or_else(|| {
                    AsmError::new(first_line + fixup.line, format!("undefined symbol {sym:?}"))
                })?;
                let off = (start + fixup.offset - DATA_BASE) as usize;
                let size = usize::from(*size);
                data_image[off..off + size].copy_from_slice(&value.to_le_bytes()[..size]);
            }
        }
    }

    let entry = ["start", "_start", "main"]
        .iter()
        .find_map(|name| symbols.get(name))
        .unwrap_or(TEXT_BASE);
    Ok(Program {
        entry,
        text: Segment {
            base: TEXT_BASE,
            data: text_image,
        },
        data: Segment {
            base: DATA_BASE,
            data: data_image,
        },
        symbols,
        line_map,
    })
}

/// Every unit's symbols at their placed addresses: a merge of the units'
/// name-ordered indexes.
///
/// # Errors
///
/// The first symbol, in link order, that an earlier definition already
/// named.
fn link_symbols(
    units: &[&Unit],
    placed: &[(usize, usize, usize)],
    text: &Layout,
    data: &Layout,
) -> Result<SymbolTable, AsmError> {
    let address = |unit: usize, def: &SymbolDef| match def.value {
        SymbolValue::Label {
            section,
            fragment,
            offset,
        } => {
            let (layout, first) = match section {
                Section::Text => (text, placed[unit].1),
                Section::Data => (data, placed[unit].2),
            };
            layout.starts[first + fragment] + offset
        }
        SymbolValue::Absolute(value) => value,
    };
    let mut entries: Vec<(Arc<str>, u64)> =
        Vec::with_capacity(units.iter().map(|unit| unit.symbols.len()).sum());
    let mut heads = vec![0; units.len()];
    loop {
        let mut least: Option<(usize, &SymbolDef)> = None;
        for (u, unit) in units.iter().enumerate() {
            if let Some(&i) = unit.by_name.get(heads[u]) {
                let def = &unit.symbols[i as usize];
                if least.is_none_or(|(_, least)| def.name < least.name) {
                    least = Some((u, def));
                }
            }
        }
        let Some((u, def)) = least else {
            break;
        };
        heads[u] += 1;
        if entries.last().is_some_and(|(name, _)| *name == def.name) {
            return Err(first_duplicate(units));
        }
        entries.push((Arc::clone(&def.name), address(u, def)));
    }
    Ok(SymbolTable { entries })
}

/// The error for the first definition, in link order, of a name that an
/// earlier definition took.
fn first_duplicate(units: &[&Unit]) -> AsmError {
    let mut seen = HashSet::new();
    let mut first_line = 0;
    for unit in units {
        for def in &unit.symbols {
            if !seen.insert(&def.name) {
                return AsmError::new(
                    first_line + def.line,
                    format!("duplicate symbol {:?}", def.name),
                );
            }
        }
        first_line += unit.lines;
    }
    unreachable!("the merge found a name defined twice")
}

/// Where the fragments of one section land, before any byte is copied.
struct Layout {
    base: u64,
    /// The address one past the last placed byte.
    end: u64,
    /// The address of every placed fragment, in link order.
    starts: Vec<u64>,
}

impl Layout {
    fn new(base: u64) -> Layout {
        Layout {
            base,
            end: base,
            starts: Vec::new(),
        }
    }

    /// The section's size in bytes so far.
    fn len(&self) -> usize {
        (self.end - self.base) as usize
    }

    /// Places `fragments` after what is placed, padding each `.align`
    /// against the absolute address.
    fn place<T>(
        &mut self,
        fragments: &[Fragment<T>],
        section: Section,
        first_line: usize,
    ) -> Result<(), AsmError> {
        for fragment in fragments {
            if let Some((n, line)) = fragment.align {
                let alignment = 1u64 << n;
                let pad = (alignment - (self.end % alignment)) % alignment;
                if section == Section::Text && !pad.is_multiple_of(4) {
                    return Err(AsmError::new(
                        first_line + line,
                        ".align in .text must be word-aligned".into(),
                    ));
                }
                self.end += pad;
            }
            self.starts.push(self.end);
            self.end += fragment.bytes.len() as u64;
        }
        Ok(())
    }
}

/// Expands `instr`, placed at `addr`, and writes its machine words at the
/// start of `image`; writes nothing if it fails.
fn encode(
    instr: &PendingInstr,
    addr: u64,
    symbols: &dyn Symbols,
    image: &mut [u8],
) -> Result<(), String> {
    let instrs = expand(instr, addr, symbols)?;
    debug_assert_eq!(instrs.len() as u64 * 4, instr.size, "{}", instr.mnemonic);
    let mut words = [0; 8];
    for (word, i) in words.iter_mut().zip(instrs.iter()) {
        *word = i.encode().map_err(|e| e.to_string())?;
    }
    for (slot, word) in image.chunks_exact_mut(4).zip(&words[..instrs.len()]) {
        slot.copy_from_slice(&word.to_le_bytes());
    }
    Ok(())
}

struct Parser<'a> {
    unit: Unit,
    section: Section,
    /// Names defined so far in this unit.
    defined: HashSet<&'a str>,
}

impl<'a> Parser<'a> {
    fn define(&mut self, name: &'a str, line: usize, value: SymbolValue) -> Result<(), AsmError> {
        if !self.defined.insert(name) {
            return Err(AsmError::new(line, format!("duplicate symbol {name:?}")));
        }
        self.unit.define(name, line, value);
        Ok(())
    }

    fn data(&mut self) -> &mut Fragment<SymbolWord> {
        self.unit.data_fragment()
    }

    fn line(&mut self, raw_line: &'a str, line: usize) -> Result<(), AsmError> {
        let err = |message: String| AsmError::new(line, message);
        let mut rest = strip_comment(raw_line).trim();
        // Peel leading labels.
        while let Some(colon) = find_label_colon(rest) {
            let name = rest[..colon].trim();
            if !is_symbol(name) {
                return Err(err(format!("invalid label name {name:?}")));
            }
            self.define(name, line, self.unit.here(self.section))?;
            rest = rest[colon + 1..].trim();
        }
        if rest.is_empty() {
            return Ok(());
        }
        let (mnemonic, operand_str) = split_mnemonic(rest);
        let mnemonic = mnemonic.to_ascii_lowercase();
        if let Some(directive) = mnemonic.strip_prefix('.') {
            return self.directive(directive, operand_str, line);
        }
        if self.section != Section::Text {
            return Err(err("instruction outside .text".into()));
        }
        let operands = parse_operands(operand_str).map_err(&err)?;
        let size = instr_size(&mnemonic, &operands).map_err(&err)?;
        self.unit.push_instr(
            PendingInstr {
                mnemonic: Cow::Owned(mnemonic),
                operands,
                size,
            },
            line,
        );
        Ok(())
    }

    fn directive(&mut self, name: &str, args: &'a str, line: usize) -> Result<(), AsmError> {
        let err = |message: String| AsmError::new(line, message);
        match name {
            "text" => self.section = Section::Text,
            "data" => self.section = Section::Data,
            "globl" | "global" | "type" | "size" | "section" => {}
            "align" | "p2align" => {
                let n: u32 = args
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("bad .align argument {args:?}")))?;
                if n > 12 {
                    return Err(err(format!(".align {n} too large")));
                }
                self.unit.align(self.section, n, line);
            }
            "byte" | "half" | "word" | "dword" | "quad" => {
                let size: u8 = match name {
                    "byte" => 1,
                    "half" => 2,
                    "word" => 4,
                    _ => 8,
                };
                if self.section != Section::Data {
                    return Err(err(format!(".{name} outside .data")));
                }
                let fragment = self.data();
                for piece in split_top_level(args) {
                    let piece = piece.trim();
                    if piece.is_empty() {
                        return Err(err("empty data value".into()));
                    }
                    if let Ok(v) = parse_int(piece) {
                        // The literal's true value, before any wrapping: the
                        // signed minimum up to the unsigned maximum.
                        let min = -(1i128 << (8 * size - 1));
                        let max = (1i128 << (8 * size)) - 1;
                        if v < min || v > max {
                            return Err(err(format!("value {v} does not fit .{name}")));
                        }
                        fragment
                            .bytes
                            .extend_from_slice(&(v as u64).to_le_bytes()[..usize::from(size)]);
                    } else if is_symbol(piece) {
                        if size < 4 {
                            return Err(err("symbol values need .word or .dword".into()));
                        }
                        let offset = fragment.bytes.len() as u64;
                        fragment
                            .bytes
                            .resize(fragment.bytes.len() + usize::from(size), 0);
                        fragment.fixups.push(Fixup {
                            offset,
                            line,
                            item: SymbolWord {
                                size,
                                sym: piece.to_string(),
                            },
                        });
                    } else {
                        return Err(err(format!("bad data value {piece:?}")));
                    }
                }
            }
            "ascii" | "asciz" | "string" => {
                if self.section != Section::Data {
                    return Err(err(format!(".{name} outside .data")));
                }
                let bytes = parse_string(args.trim()).map_err(&err)?;
                let fragment = self.data();
                fragment.bytes.extend_from_slice(&bytes);
                if name != "ascii" {
                    fragment.bytes.push(0);
                }
            }
            "space" | "zero" | "skip" => {
                let n: usize = args
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("bad .{name} argument {args:?}")))?;
                if self.section != Section::Data {
                    return Err(err(format!(".{name} outside .data")));
                }
                let fragment = self.data();
                fragment.bytes.resize(fragment.bytes.len() + n, 0);
            }
            "equ" | "set" => {
                let parts: Vec<&str> = split_top_level(args).collect();
                if parts.len() != 2 {
                    return Err(err(".equ needs `name, value`".into()));
                }
                let sym = parts[0].trim();
                if !is_symbol(sym) {
                    return Err(err(format!("invalid .equ name {sym:?}")));
                }
                let value =
                    parse_int(parts[1].trim()).map_err(|_| err("bad .equ value".into()))?;
                self.define(sym, line, SymbolValue::Absolute(value as u64))?;
            }
            other => return Err(err(format!("unknown directive .{other}"))),
        }
        Ok(())
    }
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if in_str {
            if c == b'\\' {
                i += 1;
            } else if c == b'"' {
                in_str = false;
            }
        } else if c == b'"' {
            in_str = true;
        } else if c == b'#' || c == b';' || (c == b'/' && bytes.get(i + 1) == Some(&b'/')) {
            return &line[..i];
        }
        i += 1;
    }
    line
}

fn find_label_colon(s: &str) -> Option<usize> {
    let colon = s.find(':')?;
    // A colon inside a string or after whitespace-containing junk is not a
    // label; labels are a leading identifier.
    let candidate = s[..colon].trim();
    if !candidate.is_empty() && is_symbol(candidate) {
        Some(colon)
    } else {
        None
    }
}

fn split_mnemonic(s: &str) -> (&str, &str) {
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    }
}

pub(crate) fn is_symbol(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == '.')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '$')
}

fn split_top_level(s: &str) -> impl Iterator<Item = &str> {
    let mut pieces = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut start = 0;
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'(' if !in_str => depth += 1,
            b')' if !in_str => depth -= 1,
            b',' if !in_str && depth == 0 => {
                pieces.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if start < s.len() || !pieces.is_empty() {
        pieces.push(&s[start..]);
    } else if !s.trim().is_empty() {
        pieces.push(s);
    }
    pieces.into_iter().filter(|p| !p.trim().is_empty())
}

/// Parses an integer literal to its true value: decimal, `0x` hex, `0b`
/// binary or a `'c'` character, with an optional sign and `_` separators,
/// and a magnitude of up to `u64::MAX`.
fn parse_int(s: &str) -> Result<i128, String> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    let magnitude = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X"))
    {
        parse_digits(hex, 16)?
    } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
        parse_digits(bin, 2)?
    } else if body.len() == 3 && body.starts_with('\'') && body.ends_with('\'') {
        u64::from(body.as_bytes()[1])
    } else {
        parse_digits(body, 10)?
    };
    let value = i128::from(magnitude);
    Ok(if neg { -value } else { value })
}

fn parse_digits(digits: &str, radix: u32) -> Result<u64, String> {
    let parsed = if digits.contains('_') {
        u64::from_str_radix(&digits.replace('_', ""), radix)
    } else {
        u64::from_str_radix(digits, radix)
    };
    parsed.map_err(|e| e.to_string())
}

fn parse_string(s: &str) -> Result<Vec<u8>, String> {
    let inner = s
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .ok_or_else(|| format!("expected quoted string, got {s:?}"))?;
    let mut out = Vec::with_capacity(inner.len());
    let mut chars = inner.bytes();
    while let Some(c) = chars.next() {
        if c == b'\\' {
            match chars.next() {
                Some(b'n') => out.push(b'\n'),
                Some(b't') => out.push(b'\t'),
                Some(b'0') => out.push(0),
                Some(b'\\') => out.push(b'\\'),
                Some(b'"') => out.push(b'"'),
                other => return Err(format!("bad escape {other:?}")),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

fn parse_operands(s: &str) -> Result<Vec<Operand>, String> {
    split_top_level(s).map(|p| parse_operand(p.trim())).collect()
}

fn parse_operand(s: &str) -> Result<Operand, String> {
    if s.is_empty() {
        return Err("empty operand".into());
    }
    // offset(base) form
    if let Some(open) = s.find('(') {
        if s.ends_with(')') {
            let offset_str = s[..open].trim();
            let base_str = s[open + 1..s.len() - 1].trim();
            let base: Reg = base_str
                .parse()
                .map_err(|_| format!("bad base register {base_str:?}"))?;
            let offset = if offset_str.is_empty() {
                0
            } else {
                parse_int(offset_str)? as i64
            };
            return Ok(Operand::Mem { offset, base });
        }
    }
    if let Ok(reg) = s.parse::<Reg>() {
        return Ok(Operand::Reg(reg));
    }
    // Immediates wrap to 64 bits: `0xFFFFFFFFFFFFFFFF` is -1.
    if let Ok(v) = parse_int(s) {
        return Ok(Operand::Imm(v as i64));
    }
    if is_symbol(s) {
        return Ok(Operand::Sym(s.to_string()));
    }
    Err(format!("cannot parse operand {s:?}"))
}

/// The machine instructions one source instruction expands to: at most
/// eight (the longest `li`), held without a heap allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Expansion {
    instrs: [Instr; 8],
    len: usize,
}

impl Expansion {
    fn push(&mut self, instr: Instr) {
        self.instrs[self.len] = instr;
        self.len += 1;
    }
}

impl std::ops::Deref for Expansion {
    type Target = [Instr];

    fn deref(&self) -> &[Instr] {
        &self.instrs[..self.len]
    }
}

/// An [`Expansion`] of the listed instructions, as `vec!` lists them.
macro_rules! seq {
    ($($instr:expr),* $(,)?) => {{
        let mut expansion = Expansion {
            instrs: [Instr::NOP; 8],
            len: 0,
        };
        $(expansion.push($instr);)*
        expansion
    }};
}

/// Materialization sequence for a 64-bit immediate (the `li` expansion).
pub(crate) fn li_sequence(rd: Reg, imm: i64) -> Expansion {
    if (-2048..=2047).contains(&imm) {
        seq![Instr::OpImm {
            op: OpImmOp::Addi,
            rd,
            rs1: Reg::ZERO,
            imm: imm as i32,
        }]
    } else if i64::from(imm as i32) == imm {
        let hi_pattern = ((imm.wrapping_add(0x800) >> 12) & 0xFFFFF) as u32;
        let imm20 = ((hi_pattern << 12) as i32) >> 12;
        let lo = ((imm << 52) >> 52) as i32;
        let mut seq = seq![Instr::Lui { rd, imm20 }];
        if lo != 0 {
            seq.push(Instr::OpImm32 {
                op: OpImm32Op::Addiw,
                rd,
                rs1: rd,
                imm: lo,
            });
        }
        seq
    } else {
        let lo12 = (imm << 52) >> 52;
        let rest = imm.wrapping_sub(lo12);
        let shift = rest.trailing_zeros();
        let mut seq = li_sequence(rd, rest >> shift);
        seq.push(Instr::OpImm {
            op: OpImmOp::Slli,
            rd,
            rs1: rd,
            imm: shift as i32,
        });
        if lo12 != 0 {
            seq.push(Instr::OpImm {
                op: OpImmOp::Addi,
                rd,
                rs1: rd,
                imm: lo12 as i32,
            });
        }
        seq
    }
}

fn instr_size(mnemonic: &str, operands: &[Operand]) -> Result<u64, String> {
    Ok(match mnemonic {
        "li" => {
            let (_, imm) = li_args(operands)?;
            li_sequence(Reg::ZERO, imm).len() as u64 * 4
        }
        "la" | "call" | "tail" => 8,
        _ => 4,
    })
}

fn li_args(operands: &[Operand]) -> Result<(Reg, i64), String> {
    match operands {
        [Operand::Reg(rd), Operand::Imm(imm)] => Ok((*rd, *imm)),
        [Operand::Reg(_), Operand::Sym(s)] => {
            Err(format!("li needs a literal immediate; use `la` for symbol {s:?}"))
        }
        _ => Err("li needs `rd, immediate`".into()),
    }
}

struct Ctx<'a> {
    instr: &'a PendingInstr,
    addr: u64,
    symbols: &'a dyn Symbols,
}

impl Ctx<'_> {
    fn reg(&self, i: usize) -> Result<Reg, String> {
        match self.operand(i)? {
            Operand::Reg(r) => Ok(*r),
            other => Err(format!(
                "operand {} of {} must be a register, got {}",
                i + 1,
                self.instr.mnemonic,
                other.describe()
            )),
        }
    }

    fn imm(&self, i: usize) -> Result<i64, String> {
        match self.operand(i)? {
            Operand::Imm(v) => Ok(*v),
            Operand::Sym(s) => self
                .symbols
                .value(s)
                .map(|v| v as i64)
                .ok_or_else(|| format!("undefined symbol {s:?}")),
            other => Err(format!(
                "operand {} of {} must be an immediate, got {}",
                i + 1,
                self.instr.mnemonic,
                other.describe()
            )),
        }
    }

    fn imm32(&self, i: usize) -> Result<i32, String> {
        let v = self.imm(i)?;
        i32::try_from(v).map_err(|_| format!("immediate {v} out of 32-bit range"))
    }

    /// Operand `i` as `offset(base)`, for the `what` instruction (`"load"`,
    /// `"store"`, `"jalr"`). An offset beyond 32 bits cannot be held by an
    /// [`Instr`] and is reported as the encoder reports one beyond 12:
    /// as [`EncodeError::ImmediateOutOfRange`], with the value.
    fn mem_offset(&self, i: usize, what: &'static str) -> Result<(i32, Reg), String> {
        let (offset, base) = self.mem(i)?;
        let offset = i32::try_from(offset)
            .map_err(|_| EncodeError::ImmediateOutOfRange { what, value: offset }.to_string())?;
        Ok((offset, base))
    }

    fn mem(&self, i: usize) -> Result<(i64, Reg), String> {
        match self.operand(i)? {
            Operand::Mem { offset, base } => Ok((*offset, *base)),
            // Accept a bare register as 0(reg).
            Operand::Reg(r) => Ok((0, *r)),
            other => Err(format!(
                "operand {} of {} must be offset(base), got {}",
                i + 1,
                self.instr.mnemonic,
                other.describe()
            )),
        }
    }

    /// Branch/jump target: a symbol (absolute address) or immediate
    /// (pc-relative byte offset); returns the pc-relative offset.
    fn target(&self, i: usize) -> Result<i32, String> {
        let offset = match self.operand(i)? {
            Operand::Sym(s) => self
                .symbols
                .offset(s, self.addr)
                .ok_or_else(|| format!("undefined symbol {s:?}"))?,
            Operand::Imm(v) => *v,
            other => {
                return Err(format!(
                    "operand {} of {} must be a label or offset, got {}",
                    i + 1,
                    self.instr.mnemonic,
                    other.describe()
                ))
            }
        };
        i32::try_from(offset).map_err(|_| format!("branch target {offset} out of range"))
    }

    fn operand(&self, i: usize) -> Result<&Operand, String> {
        self.instr.operands.get(i).ok_or_else(|| {
            format!(
                "{} needs at least {} operands",
                self.instr.mnemonic,
                i + 1
            )
        })
    }

    fn expect_len(&self, n: usize) -> Result<(), String> {
        if self.instr.operands.len() == n {
            Ok(())
        } else {
            Err(format!(
                "{} expects {} operands, got {}",
                self.instr.mnemonic,
                n,
                self.instr.operands.len()
            ))
        }
    }

    /// `auipc`-style split of a pc-relative delta into (hi20, lo12).
    fn pcrel(&self, i: usize) -> Result<(i32, i32), String> {
        let delta = i64::from(self.target(i)?);
        let hi_pattern = ((delta.wrapping_add(0x800) >> 12) & 0xFFFFF) as u32;
        let hi = ((hi_pattern << 12) as i32) >> 12;
        let lo = ((delta << 52) >> 52) as i32;
        Ok((hi, lo))
    }
}

fn csr_number(ctx: &Ctx, i: usize) -> Result<u16, String> {
    match ctx.operand(i)? {
        Operand::Imm(v) => u16::try_from(*v).map_err(|_| format!("csr number {v} out of range")),
        Operand::Sym(name) => csr::number(name).ok_or_else(|| format!("unknown csr name {name:?}")),
        other => Err(format!("csr operand must be a number or name, got {}", other.describe())),
    }
}

fn expand(instr: &PendingInstr, addr: u64, symbols: &dyn Symbols) -> Result<Expansion, String> {
    let ctx = Ctx {
        instr,
        addr,
        symbols,
    };
    let m = &*instr.mnemonic;

    if let Some(&(op, ..)) = OpOp::TABLE.iter().find(|row| row.1 == m) {
        ctx.expect_len(3)?;
        return Ok(seq![Instr::Op {
            op,
            rd: ctx.reg(0)?,
            rs1: ctx.reg(1)?,
            rs2: ctx.reg(2)?,
        }]);
    }
    if let Some(&(op, ..)) = Op32Op::TABLE.iter().find(|row| row.1 == m) {
        ctx.expect_len(3)?;
        return Ok(seq![Instr::Op32 {
            op,
            rd: ctx.reg(0)?,
            rs1: ctx.reg(1)?,
            rs2: ctx.reg(2)?,
        }]);
    }
    if let Some(&(op, ..)) = OpImmOp::TABLE.iter().find(|row| row.1 == m) {
        ctx.expect_len(3)?;
        return Ok(seq![Instr::OpImm {
            op,
            rd: ctx.reg(0)?,
            rs1: ctx.reg(1)?,
            imm: ctx.imm32(2)?,
        }]);
    }
    if let Some(&(op, ..)) = OpImm32Op::TABLE.iter().find(|row| row.1 == m) {
        ctx.expect_len(3)?;
        return Ok(seq![Instr::OpImm32 {
            op,
            rd: ctx.reg(0)?,
            rs1: ctx.reg(1)?,
            imm: ctx.imm32(2)?,
        }]);
    }
    if let Some(&(op, ..)) = LoadOp::TABLE.iter().find(|row| row.1 == m) {
        ctx.expect_len(2)?;
        let (offset, base) = ctx.mem_offset(1, "load")?;
        return Ok(seq![Instr::Load {
            op,
            rd: ctx.reg(0)?,
            rs1: base,
            offset,
        }]);
    }
    if let Some(&(op, ..)) = StoreOp::TABLE.iter().find(|row| row.1 == m) {
        ctx.expect_len(2)?;
        let (offset, base) = ctx.mem_offset(1, "store")?;
        return Ok(seq![Instr::Store {
            op,
            rs2: ctx.reg(0)?,
            rs1: base,
            offset,
        }]);
    }
    if let Some(&(op, ..)) = BranchOp::TABLE.iter().find(|row| row.1 == m) {
        ctx.expect_len(3)?;
        return Ok(seq![Instr::Branch {
            op,
            rs1: ctx.reg(0)?,
            rs2: ctx.reg(1)?,
            offset: ctx.target(2)?,
        }]);
    }
    let csr_op = CsrOp::TABLE.iter().find_map(|&(op, names, _)| {
        let form = names.iter().position(|&name| name == m)?;
        Some((op, form == 1))
    });
    if let Some((op, imm_form)) = csr_op {
        ctx.expect_len(3)?;
        return Ok(seq![if imm_form {
            let imm = ctx.imm(2)?;
            Instr::CsrImm {
                op,
                rd: ctx.reg(0)?,
                csr: csr_number(&ctx, 1)?,
                imm: u8::try_from(imm).map_err(|_| format!("csr immediate {imm} out of range"))?,
            }
        } else {
            Instr::Csr {
                op,
                rd: ctx.reg(0)?,
                csr: csr_number(&ctx, 1)?,
                rs1: ctx.reg(2)?,
            }
        }]);
    }
    if let Some(&(opcode, ..)) = CustomOpcode::TABLE.iter().find(|row| row.1 == m) {
        ctx.expect_len(7)?;
        let funct7 = ctx.imm(0)?;
        return Ok(seq![Instr::Custom(RoccInstruction {
            opcode,
            funct7: u8::try_from(funct7).map_err(|_| format!("funct7 {funct7} out of range"))?,
            rd: ctx.reg(1)?,
            rs1: ctx.reg(2)?,
            rs2: ctx.reg(3)?,
            xd: ctx.imm(4)? != 0,
            xs1: ctx.imm(5)? != 0,
            xs2: ctx.imm(6)? != 0,
        })]);
    }

    Ok(match m {
        "lui" => {
            ctx.expect_len(2)?;
            seq![Instr::Lui {
                rd: ctx.reg(0)?,
                imm20: ctx.imm32(1)?,
            }]
        }
        "auipc" => {
            ctx.expect_len(2)?;
            seq![Instr::Auipc {
                rd: ctx.reg(0)?,
                imm20: ctx.imm32(1)?,
            }]
        }
        "jal" => match instr.operands.len() {
            1 => seq![Instr::Jal {
                rd: Reg::RA,
                offset: ctx.target(0)?,
            }],
            2 => seq![Instr::Jal {
                rd: ctx.reg(0)?,
                offset: ctx.target(1)?,
            }],
            n => return Err(format!("jal expects 1 or 2 operands, got {n}")),
        },
        "jalr" => match instr.operands.len() {
            n @ (1 | 2) => {
                let (offset, base) = ctx.mem_offset(n - 1, "jalr")?;
                seq![Instr::Jalr {
                    rd: if n == 1 { Reg::RA } else { ctx.reg(0)? },
                    rs1: base,
                    offset,
                }]
            }
            3 => seq![Instr::Jalr {
                rd: ctx.reg(0)?,
                rs1: ctx.reg(1)?,
                offset: ctx.imm32(2)?,
            }],
            n => return Err(format!("jalr expects 1-3 operands, got {n}")),
        },
        "j" => {
            ctx.expect_len(1)?;
            seq![Instr::Jal {
                rd: Reg::ZERO,
                offset: ctx.target(0)?,
            }]
        }
        "jr" => {
            ctx.expect_len(1)?;
            seq![Instr::Jalr {
                rd: Reg::ZERO,
                rs1: ctx.reg(0)?,
                offset: 0,
            }]
        }
        "ret" => {
            ctx.expect_len(0)?;
            seq![Instr::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                offset: 0,
            }]
        }
        "call" => {
            ctx.expect_len(1)?;
            let (hi, lo) = ctx.pcrel(0)?;
            seq![
                Instr::Auipc {
                    rd: Reg::RA,
                    imm20: hi,
                },
                Instr::Jalr {
                    rd: Reg::RA,
                    rs1: Reg::RA,
                    offset: lo,
                },
            ]
        }
        "tail" => {
            ctx.expect_len(1)?;
            let (hi, lo) = ctx.pcrel(0)?;
            seq![
                Instr::Auipc {
                    rd: Reg::T1,
                    imm20: hi,
                },
                Instr::Jalr {
                    rd: Reg::ZERO,
                    rs1: Reg::T1,
                    offset: lo,
                },
            ]
        }
        "la" => {
            ctx.expect_len(2)?;
            let rd = ctx.reg(0)?;
            let (hi, lo) = ctx.pcrel(1)?;
            seq![
                Instr::Auipc { rd, imm20: hi },
                Instr::OpImm {
                    op: OpImmOp::Addi,
                    rd,
                    rs1: rd,
                    imm: lo,
                },
            ]
        }
        "li" => {
            let (rd, imm) = li_args(&instr.operands)?;
            li_sequence(rd, imm)
        }
        "nop" => seq![Instr::NOP],
        "mv" => {
            ctx.expect_len(2)?;
            seq![Instr::OpImm {
                op: OpImmOp::Addi,
                rd: ctx.reg(0)?,
                rs1: ctx.reg(1)?,
                imm: 0,
            }]
        }
        "not" => {
            ctx.expect_len(2)?;
            seq![Instr::OpImm {
                op: OpImmOp::Xori,
                rd: ctx.reg(0)?,
                rs1: ctx.reg(1)?,
                imm: -1,
            }]
        }
        "neg" => {
            ctx.expect_len(2)?;
            seq![Instr::Op {
                op: OpOp::Sub,
                rd: ctx.reg(0)?,
                rs1: Reg::ZERO,
                rs2: ctx.reg(1)?,
            }]
        }
        "negw" => {
            ctx.expect_len(2)?;
            seq![Instr::Op32 {
                op: Op32Op::Subw,
                rd: ctx.reg(0)?,
                rs1: Reg::ZERO,
                rs2: ctx.reg(1)?,
            }]
        }
        "sext.w" => {
            ctx.expect_len(2)?;
            seq![Instr::OpImm32 {
                op: OpImm32Op::Addiw,
                rd: ctx.reg(0)?,
                rs1: ctx.reg(1)?,
                imm: 0,
            }]
        }
        "seqz" => {
            ctx.expect_len(2)?;
            seq![Instr::OpImm {
                op: OpImmOp::Sltiu,
                rd: ctx.reg(0)?,
                rs1: ctx.reg(1)?,
                imm: 1,
            }]
        }
        "snez" => {
            ctx.expect_len(2)?;
            seq![Instr::Op {
                op: OpOp::Sltu,
                rd: ctx.reg(0)?,
                rs1: Reg::ZERO,
                rs2: ctx.reg(1)?,
            }]
        }
        "sltz" => {
            ctx.expect_len(2)?;
            seq![Instr::Op {
                op: OpOp::Slt,
                rd: ctx.reg(0)?,
                rs1: ctx.reg(1)?,
                rs2: Reg::ZERO,
            }]
        }
        "sgtz" => {
            ctx.expect_len(2)?;
            seq![Instr::Op {
                op: OpOp::Slt,
                rd: ctx.reg(0)?,
                rs1: Reg::ZERO,
                rs2: ctx.reg(1)?,
            }]
        }
        "beqz" | "bnez" | "blez" | "bgez" | "bltz" | "bgtz" => {
            ctx.expect_len(2)?;
            let rs = ctx.reg(0)?;
            let offset = ctx.target(1)?;
            let (op, rs1, rs2) = match m {
                "beqz" => (BranchOp::Beq, rs, Reg::ZERO),
                "bnez" => (BranchOp::Bne, rs, Reg::ZERO),
                "blez" => (BranchOp::Bge, Reg::ZERO, rs),
                "bgez" => (BranchOp::Bge, rs, Reg::ZERO),
                "bltz" => (BranchOp::Blt, rs, Reg::ZERO),
                _ => (BranchOp::Blt, Reg::ZERO, rs),
            };
            seq![Instr::Branch { op, rs1, rs2, offset }]
        }
        "bgt" | "ble" | "bgtu" | "bleu" => {
            ctx.expect_len(3)?;
            let a = ctx.reg(0)?;
            let b = ctx.reg(1)?;
            let offset = ctx.target(2)?;
            let (op, rs1, rs2) = match m {
                "bgt" => (BranchOp::Blt, b, a),
                "ble" => (BranchOp::Bge, b, a),
                "bgtu" => (BranchOp::Bltu, b, a),
                _ => (BranchOp::Bgeu, b, a),
            };
            seq![Instr::Branch { op, rs1, rs2, offset }]
        }
        "rdcycle" => {
            ctx.expect_len(1)?;
            seq![Instr::Csr {
                op: CsrOp::Csrrs,
                rd: ctx.reg(0)?,
                csr: csr::CYCLE,
                rs1: Reg::ZERO,
            }]
        }
        "rdinstret" => {
            ctx.expect_len(1)?;
            seq![Instr::Csr {
                op: CsrOp::Csrrs,
                rd: ctx.reg(0)?,
                csr: csr::INSTRET,
                rs1: Reg::ZERO,
            }]
        }
        "ecall" => {
            ctx.expect_len(0)?;
            seq![Instr::Ecall]
        }
        "ebreak" => {
            ctx.expect_len(0)?;
            seq![Instr::Ebreak]
        }
        "mret" => {
            ctx.expect_len(0)?;
            seq![Instr::Mret]
        }
        "fence" => seq![Instr::Fence],
        other => return Err(format!("unknown mnemonic {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn li_sequences_are_correct_shape() {
        assert_eq!(li_sequence(Reg::A0, 0).len(), 1);
        assert_eq!(li_sequence(Reg::A0, 2047).len(), 1);
        assert_eq!(li_sequence(Reg::A0, 2048).len(), 2);
        assert_eq!(li_sequence(Reg::A0, -4096).len(), 1); // lui only
        assert!(li_sequence(Reg::A0, 0x1234_5678_9ABC_DEF0).len() <= 8);
    }

    #[test]
    fn parse_int_forms() {
        assert_eq!(parse_int("42").unwrap(), 42);
        assert_eq!(parse_int("-7").unwrap(), -7);
        assert_eq!(parse_int("0x10").unwrap(), 16);
        assert_eq!(parse_int("0b101").unwrap(), 5);
        assert_eq!(parse_int("'A'").unwrap(), 65);
        assert_eq!(parse_int("1_000").unwrap(), 1000);
        assert!(parse_int("foo").is_err());
    }

    #[test]
    fn operand_forms() {
        assert_eq!(parse_operand("a0").unwrap(), Operand::Reg(Reg::A0));
        assert_eq!(parse_operand("-8").unwrap(), Operand::Imm(-8));
        assert_eq!(
            parse_operand("16(sp)").unwrap(),
            Operand::Mem {
                offset: 16,
                base: Reg::SP
            }
        );
        assert_eq!(
            parse_operand("(t0)").unwrap(),
            Operand::Mem {
                offset: 0,
                base: Reg::T0
            }
        );
        assert_eq!(parse_operand("loop").unwrap(), Operand::Sym("loop".into()));
        assert!(parse_operand("12(xx)").is_err());
    }

    #[test]
    fn equ_cannot_redefine_a_symbol() {
        for (source, line) in [
            ("start:\n    nop\n    .equ start, 5\n", 3),
            (".equ k, 1\n.equ k, 2\n", 2),
            (".set k, 1\nk:\n", 2),
        ] {
            let err = assemble(source).expect_err(source);
            assert_eq!(err.line, line, "{source:?}");
            assert!(err.message.starts_with("duplicate symbol"), "{source:?}: {err}");
        }
        let first = parse(".equ k, 1\n").unwrap();
        let second = parse(".equ k, 2\n").unwrap();
        let err = link(&[&first, &second]).unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (2, "duplicate symbol \"k\""));
    }

    #[test]
    fn data_values_are_range_checked_before_wrapping() {
        let data = |directive: &str| assemble(&format!(".data\n    {directive}\n"));
        for directive in [
            ".half 0xFFFFFFFFFFFF8000",
            ".byte 0xFFFFFFFFFFFFFF80",
            ".byte 256",
            ".half -32769",
            ".word 0x100000000",
            ".dword -18446744073709551615",
        ] {
            let err = data(directive).expect_err(directive);
            assert!(err.message.contains("does not fit"), "{directive}: {err}");
        }
        for (directive, bytes) in [
            (".dword -9223372036854775808", 0x8000_0000_0000_0000u64.to_le_bytes().to_vec()),
            (".dword 18446744073709551615", vec![0xFF; 8]),
            (".dword 0xFFFFFFFFFFFFFFFF", vec![0xFF; 8]),
            (".byte -0x80", vec![0x80]),
            (".half 0xFFFF", vec![0xFF, 0xFF]),
            (".word -2147483648", vec![0x00, 0x00, 0x00, 0x80]),
        ] {
            let program = data(directive).unwrap_or_else(|e| panic!("{directive}: {e}"));
            assert_eq!(program.data.data, bytes, "{directive}");
        }
        // Instruction immediates still wrap to 64 bits.
        assert_eq!(
            assemble("li a0, 0xFFFFFFFFFFFFFFFF").unwrap().text,
            assemble("li a0, -1").unwrap().text
        );
    }

    #[test]
    fn csr_operands_accept_csr_names() {
        assert_eq!(
            assemble("csrrw zero, mtvec, t0").unwrap().text,
            assemble("csrrw zero, 0x305, t0").unwrap().text
        );
        assert_eq!(
            assemble("csrrsi a0, mepc, 0").unwrap().text,
            assemble("csrrsi a0, 0x341, 0").unwrap().text
        );
        let err = assemble("csrrw zero, mfoo, t0").unwrap_err();
        assert!(err.message.contains("unknown csr name \"mfoo\""), "{err}");
    }

    /// Asserts that the one-line `source` fails to assemble with `message`.
    fn assert_rejected(source: &str, message: &str) {
        let err = assemble(source).expect_err(source);
        assert_eq!((err.line, err.message.as_str()), (1, message), "{source}");
    }

    #[test]
    fn jalr_memory_offsets_beyond_32_bits_are_rejected() {
        // One message, with the value, whether or not an offset fits 32 bits.
        assert_rejected("jalr ra, 4294967296(t0)", "jalr immediate 4294967296 out of range");
        assert_rejected("jalr 4294967300(t0)", "jalr immediate 4294967300 out of range");
        assert_rejected("jalr ra, 2048(t0)", "jalr immediate 2048 out of range");
        assert_rejected("ld a0, -4294967296(sp)", "load immediate -4294967296 out of range");
        assert_rejected("ld a0, 5000(sp)", "load immediate 5000 out of range");
        assert_rejected("sd a0, 4294967296(sp)", "store immediate 4294967296 out of range");
        assert_rejected("sd a0, -2049(sp)", "store immediate -2049 out of range");
    }

    #[test]
    fn auipc_immediates_beyond_20_bits_are_rejected() {
        assert_rejected("auipc a0, 0x100000", "auipc immediate 1048576 out of range");
        assert_rejected("lui a0, 0x100000", "lui immediate 1048576 out of range");
        assert!(assemble("auipc a0, 0xfffff").is_ok());
    }

    #[test]
    fn csr_numbers_beyond_12_bits_are_rejected() {
        assert_rejected("csrrw zero, 0x1305, t0", "csr number 4869 out of range");
        assert_rejected("csrrwi zero, 0x1305, 1", "csr number 4869 out of range");
    }

    #[test]
    fn csr_immediates_beyond_5_bits_name_the_field_once() {
        assert_rejected("csrrsi a0, mepc, 32", "csr immediate 32 out of range");
        assert_rejected("csrrsi a0, mepc, 300", "csr immediate 300 out of range");
        assert_rejected("slli a0, a0, 64", "shift amount 64 out of range");
    }

    #[test]
    fn custom_funct7_beyond_7_bits_is_rejected() {
        let source = "custom0 200, a0, a0, a0, 1, 1, 1";
        let unit = parse(source).expect("encoding errors are reported by link");
        assert!(link(&[&unit]).is_err());
        assert_rejected(source, "funct7 200 out of range");
        assert_rejected("custom0 256, a0, a0, a0, 1, 1, 1", "funct7 256 out of range");
    }

    #[test]
    fn comment_stripping() {
        assert_eq!(strip_comment("add a0, a1, a2 # hi"), "add a0, a1, a2 ");
        assert_eq!(strip_comment("nop // c"), "nop ");
        assert_eq!(strip_comment("nop ; c"), "nop ");
        assert_eq!(strip_comment(r#".ascii "a#b" # real"#), r#".ascii "a#b" "#);
    }
}
