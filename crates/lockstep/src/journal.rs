//! Append-only write-ahead journal for resumable campaigns, and
//! [`CaseLog`], the one journaled case loop every resumable workload runs.
//!
//! A journaled run appends one line per completed case, flushed before the
//! next case starts, so a `kill -9` at any point loses at most the case in
//! flight. On resume the reader replays every intact line and the run
//! re-runs only the cases the journal does not cover; because every
//! campaign is deterministic in its seed, the resumed run's final report is
//! byte-identical to an uninterrupted one.
//!
//! # Format
//!
//! The journal is a line-oriented text file. Every line carries its own
//! FNV-1a checksum so a torn tail write (the common crash artifact) is
//! detected and discarded rather than misparsed:
//!
//! ```text
//! journal faults v1 4f1c0e... #a1b2c3d4e5f60718   <- header: kind + config fingerprint
//! case 0 3 reg:7:101 masked                       <- one line per completed case
//! case 1 5 wedge quarantined:wedged:livelock
//! ```
//!
//! The header binds the journal to a *fingerprint* of the campaign
//! configuration (seed, case count, budget, program identity); resuming
//! with a different configuration is a typed error, not silent garbage.
//! A case line is `case <key> <fields...>`; the key names the case and the
//! fields are opaque to this module — campaign, fuzz and conformance code
//! define their own, with the rule that fields are space-separated and
//! space-free. Recovery skips any other sealed line, such as the
//! `ckpt <done>` markers older builds wrote, so their journals still resume.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Journal format version (bumped on any layout change).
pub const JOURNAL_VERSION: u32 = 1;

/// Where and how a workload journals its progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSpec {
    /// Journal file path.
    pub path: PathBuf,
    /// Resume from an existing journal at `path` (a missing file is a
    /// fresh start) instead of truncating it.
    pub resume: bool,
    /// Report progress every this many completed cases (0: only the
    /// final report).
    pub checkpoint_every: usize,
}

/// A progress snapshot reported by journaled runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Cases finished so far (journal replays included).
    pub done: usize,
    /// Total cases planned.
    pub total: usize,
    /// Cases quarantined so far.
    pub quarantined: usize,
}

/// Everything that can go wrong opening, reading, or writing a journal.
#[derive(Debug)]
pub enum JournalError {
    /// The file exists but does not start with a valid journal header.
    NotAJournal(PathBuf),
    /// The header's kind does not match the workload trying to resume.
    KindMismatch {
        /// Kind recorded in the journal.
        found: String,
        /// Kind the workload expected.
        expected: String,
    },
    /// The header's format version is not supported by this build.
    Version {
        /// Version recorded in the journal.
        found: u32,
    },
    /// The header's configuration fingerprint does not match the workload.
    Fingerprint {
        /// Fingerprint recorded in the journal.
        found: u64,
        /// Fingerprint of the resuming configuration.
        expected: u64,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::NotAJournal(path) => {
                write!(f, "{} is not a campaign journal", path.display())
            }
            JournalError::KindMismatch { found, expected } => write!(
                f,
                "journal was written by a '{found}' run, cannot resume a '{expected}' run from it"
            ),
            JournalError::Version { found } => write!(
                f,
                "journal format version {found} is not supported (this build writes v{JOURNAL_VERSION})"
            ),
            JournalError::Fingerprint { found, expected } => write!(
                f,
                "journal fingerprint {found:#018x} does not match this configuration \
                 ({expected:#018x}); the seed, case count, budgets, or program differ"
            ),
            JournalError::Io(e) => write!(f, "journal I/O failure: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// FNV-1a 64-bit hash: the per-line checksum and the fingerprint hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Appends the per-line checksum: `payload #<fnv64 hex>`.
fn sealed_line(payload: &str) -> String {
    format!("{payload} #{:016x}\n", fnv1a64(payload.as_bytes()))
}

/// Strips and verifies the per-line checksum; `None` for torn or corrupt
/// lines.
fn unseal_line(line: &str) -> Option<&str> {
    let (payload, checksum) = line.rsplit_once(" #")?;
    let stored = u64::from_str_radix(checksum, 16).ok()?;
    (stored == fnv1a64(payload.as_bytes())).then_some(payload)
}

fn header_payload(kind: &str, fingerprint: u64) -> String {
    format!("journal {kind} v{JOURNAL_VERSION} {fingerprint:016x}")
}

/// The intact contents of a journal file, as recovered by
/// [`Journal::recover`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Recovered {
    /// The payload of every intact `case` line, in file order, with the
    /// `case ` prefix stripped.
    cases: Vec<String>,
    /// Byte length of the intact prefix — everything after it is a torn
    /// or corrupt tail and is truncated away before appending resumes.
    valid_len: u64,
}

/// An append-only, checksummed, line-oriented write-ahead journal.
#[derive(Debug)]
struct Journal {
    writer: BufWriter<File>,
}

impl Journal {
    /// Creates a fresh journal at `path` (truncating any existing file)
    /// and writes the header binding it to `kind` and `fingerprint`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    fn create(path: &Path, kind: &str, fingerprint: u64) -> Result<Journal, JournalError> {
        let file = File::create(path)?;
        let mut journal = Journal {
            writer: BufWriter::new(file),
        };
        journal.append_raw(&header_payload(kind, fingerprint))?;
        Ok(journal)
    }

    /// Reads the intact prefix of the journal at `path`, validating the
    /// header against `kind` and `fingerprint`. A missing file is an empty
    /// recovery (fresh start), not an error. Reading stops at the first
    /// line that is not UTF-8 or whose checksum fails — everything before
    /// it is trusted, everything after it is a crash artifact.
    ///
    /// # Errors
    ///
    /// Typed errors for a non-journal file or a header that does not match
    /// this workload; I/O errors propagate.
    fn recover(path: &Path, kind: &str, fingerprint: u64) -> Result<Recovered, JournalError> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut file) => {
                file.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Recovered::default())
            }
            Err(e) => return Err(e.into()),
        }
        // A zero-byte file is the crash artifact of a create that died
        // before the header flush — a fresh start, like a missing file.
        if bytes.is_empty() {
            return Ok(Recovered::default());
        }
        let mut cases = Vec::new();
        let mut valid_len = 0u64;
        let mut saw_header = false;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let Some(payload) = line
                .strip_suffix(b"\n")
                .and_then(|line| std::str::from_utf8(line).ok())
                .and_then(unseal_line)
            else {
                break; // torn or corrupt tail
            };
            if !saw_header {
                validate_header(payload, path, kind, fingerprint)?;
                saw_header = true;
            } else if let Some(case) = payload.strip_prefix("case ") {
                cases.push(case.to_string());
            }
            // Other lines (older builds' `ckpt` markers) carry no state.
            valid_len += line.len() as u64;
        }
        if !saw_header {
            return Err(JournalError::NotAJournal(path.to_path_buf()));
        }
        Ok(Recovered { cases, valid_len })
    }

    /// The resume entry point: recovers the intact prefix of the journal
    /// at `path` and reopens it for appending. A missing or empty file
    /// degrades to a fresh [`Journal::create`] (header included), so
    /// `--resume` works whether or not the previous run got far enough to
    /// write anything.
    ///
    /// # Errors
    ///
    /// Same typed errors as [`Journal::recover`] and [`Journal::reopen`].
    fn resume(
        path: &Path,
        kind: &str,
        fingerprint: u64,
    ) -> Result<(Recovered, Journal), JournalError> {
        let recovered = Journal::recover(path, kind, fingerprint)?;
        let journal = if recovered.valid_len == 0 {
            Journal::create(path, kind, fingerprint)?
        } else {
            Journal::reopen(path, recovered.valid_len)?
        };
        Ok((recovered, journal))
    }

    /// Reopens the journal at `path` for appending after a
    /// [`Journal::recover`], truncating the corrupt tail (if any) at
    /// `valid_len` first.
    ///
    /// # Errors
    ///
    /// Propagates open/truncate failures.
    fn reopen(path: &Path, valid_len: u64) -> Result<Journal, JournalError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = OpenOptions::new().append(true).open(path)?;
        // Defensive: append mode positions at the (now truncated) end.
        file.flush()?;
        Ok(Journal {
            writer: BufWriter::new(file),
        })
    }

    fn append_raw(&mut self, payload: &str) -> Result<(), JournalError> {
        debug_assert!(!payload.contains('\n'), "journal payloads are single lines");
        self.writer.write_all(sealed_line(payload).as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Appends one completed-case record, `case <key> <fields...>`. The
    /// key and fields must be space-free.
    fn append_case(&mut self, key: &str, fields: &[&str]) -> Result<(), JournalError> {
        self.append_raw(&format!("case {key} {}", fields.join(" ")))
    }
}

/// The one journaled case loop: a run walks its cases in plan order and
/// closes each one here, and the log does the rest.
///
/// * It opens the journal ([`JournalSpec::resume`] recovers the intact
///   prefix of an existing one, anything else starts fresh) and keeps the
///   recovered fields of each case key; when a key appears twice, the last
///   intact line wins.
/// * [`CaseLog::close_case`] appends the cases that actually ran, never
///   the ones credited from the journal.
/// * Every [`JournalSpec::checkpoint_every`] closed cases it reports
///   [`Progress`]; [`CaseLog::finish`] reports the final one. A run without a
///   journal reports only the final one.
pub struct CaseLog<'p> {
    journal: Option<Journal>,
    recovered: HashMap<String, String>,
    checkpoint_every: usize,
    done: usize,
    total: usize,
    progress: &'p mut dyn FnMut(Progress),
}

impl<'p> CaseLog<'p> {
    /// Opens the log of a `kind` run of `total` cases bound to
    /// `fingerprint`, journaled as `spec` says (`None`: no journal).
    ///
    /// # Errors
    ///
    /// Journal I/O failures and header mismatches ([`JournalError`]).
    pub fn open(
        spec: Option<&JournalSpec>,
        kind: &str,
        fingerprint: u64,
        total: usize,
        progress: &'p mut dyn FnMut(Progress),
    ) -> Result<Self, JournalError> {
        let mut recovered = HashMap::new();
        let journal = match spec {
            None => None,
            Some(spec) if spec.resume => {
                let (intact, journal) = Journal::resume(&spec.path, kind, fingerprint)?;
                for case in intact.cases {
                    if let Some((key, fields)) = case.split_once(' ') {
                        recovered.insert(key.to_string(), fields.to_string());
                    }
                }
                Some(journal)
            }
            Some(spec) => Some(Journal::create(&spec.path, kind, fingerprint)?),
        };
        Ok(CaseLog {
            journal,
            recovered,
            checkpoint_every: spec.map_or(0, |spec| spec.checkpoint_every),
            done: 0,
            total,
            progress,
        })
    }

    /// The fields the journal recovered for case `key`, space-separated.
    #[must_use]
    pub fn recovered(&self, key: &str) -> Option<&str> {
        self.recovered.get(key).map(String::as_str)
    }

    /// Closes the next case. `ran` holds the fields of a case that ran,
    /// which are journaled under `key`; `None` marks a case credited from
    /// the journal. `quarantined` is the run's count so far, for
    /// [`Progress`].
    ///
    /// # Errors
    ///
    /// Journal write failures.
    pub fn close_case(
        &mut self,
        key: &str,
        ran: Option<&[&str]>,
        quarantined: usize,
    ) -> Result<(), JournalError> {
        self.done += 1;
        if let (Some(journal), Some(fields)) = (self.journal.as_mut(), ran) {
            journal.append_case(key, fields)?;
        }
        if self.checkpoint_every > 0 && self.done.is_multiple_of(self.checkpoint_every) {
            self.report(quarantined);
        }
        Ok(())
    }

    /// Reports the final [`Progress`] of the run.
    pub fn finish(mut self, quarantined: usize) {
        self.done = self.total;
        self.report(quarantined);
    }

    fn report(&mut self, quarantined: usize) {
        (self.progress)(Progress {
            done: self.done,
            total: self.total,
            quarantined,
        });
    }
}

fn validate_header(
    payload: &str,
    path: &Path,
    kind: &str,
    fingerprint: u64,
) -> Result<(), JournalError> {
    let mut parts = payload.split(' ');
    if parts.next() != Some("journal") {
        return Err(JournalError::NotAJournal(path.to_path_buf()));
    }
    let found_kind = parts.next().unwrap_or_default();
    let version = parts
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| JournalError::NotAJournal(path.to_path_buf()))?;
    if version != JOURNAL_VERSION {
        return Err(JournalError::Version { found: version });
    }
    if found_kind != kind {
        return Err(JournalError::KindMismatch {
            found: found_kind.to_string(),
            expected: kind.to_string(),
        });
    }
    let found_fingerprint = parts
        .next()
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| JournalError::NotAJournal(path.to_path_buf()))?;
    if found_fingerprint != fingerprint {
        return Err(JournalError::Fingerprint {
            found: found_fingerprint,
            expected: fingerprint,
        });
    }
    Ok(())
}

/// A rolling FNV-1a fingerprint builder for binding journals to their
/// configuration: feed it every parameter that changes the case stream.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The FNV-1a basis, tagged with a domain string.
    #[must_use]
    pub fn new(domain: &str) -> Self {
        Fingerprint(fnv1a64(domain.as_bytes()))
    }

    /// Mixes in one `u64` parameter.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        let mut bytes = self.0.to_le_bytes().to_vec();
        bytes.extend_from_slice(&value.to_le_bytes());
        self.0 = fnv1a64(&bytes);
        self
    }

    /// Mixes in one byte-string parameter (length-delimited, so `("a",
    /// "bc")` and `("ab", "c")` fingerprint differently).
    pub fn bytes(&mut self, value: &[u8]) -> &mut Self {
        self.u64(value.len() as u64);
        let mut bytes = self.0.to_le_bytes().to_vec();
        bytes.extend_from_slice(value);
        self.0 = fnv1a64(&bytes);
        self
    }

    /// The fingerprint value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("lockstep-journal-{tag}-{}", std::process::id()));
        path
    }

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        // Journals written by earlier builds must still verify.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn write_then_recover_round_trips() {
        let path = temp_path("roundtrip");
        let mut journal = Journal::create(&path, "faults", 0xABCD).unwrap();
        journal.append_case("0", &["reg:7:3", "masked"]).unwrap();
        journal.append_case("1", &["wedge", "caught-by-watchdog"]).unwrap();
        // Older builds wrote `ckpt` markers; recovery skips them.
        journal.append_raw("ckpt 2").unwrap();
        drop(journal);
        let recovered = Journal::recover(&path, "faults", 0xABCD).unwrap();
        assert_eq!(
            recovered.cases,
            vec!["0 reg:7:3 masked", "1 wedge caught-by-watchdog"]
        );
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert_eq!(recovered.valid_len, on_disk);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_reopen() {
        let path = temp_path("torn");
        let mut journal = Journal::create(&path, "faults", 1).unwrap();
        journal.append_case("0", &["ok"]).unwrap();
        drop(journal);
        let intact = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: half a line, no newline, no valid
        // checksum.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"case 1 half-writ").unwrap();
        drop(file);
        let recovered = Journal::recover(&path, "faults", 1).unwrap();
        assert_eq!(recovered.cases, vec!["0 ok"]);
        assert_eq!(recovered.valid_len, intact);
        let mut journal = Journal::reopen(&path, recovered.valid_len).unwrap();
        journal.append_case("1", &["retried"]).unwrap();
        drop(journal);
        let recovered = Journal::recover(&path, "faults", 1).unwrap();
        assert_eq!(recovered.cases, vec!["0 ok", "1 retried"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_tail_that_is_not_utf8_is_dropped() {
        let path = temp_path("not-utf8");
        let mut journal = Journal::create(&path, "faults", 1).unwrap();
        journal.append_case("0", &["ok"]).unwrap();
        drop(journal);
        let intact = std::fs::metadata(&path).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"case 1 \xff\xfe\n").unwrap();
        drop(file);
        let recovered = Journal::recover(&path, "faults", 1).unwrap();
        assert_eq!(recovered.cases, vec!["0 ok"]);
        assert_eq!(recovered.valid_len, intact);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn case_log_journals_only_cases_that_ran_and_the_last_line_wins() {
        let path = temp_path("case-log");
        let spec = |resume| JournalSpec {
            path: path.clone(),
            resume,
            checkpoint_every: 1,
        };
        let mut reports = Vec::new();
        let mut report = |p: Progress| reports.push(p.done);
        let mut log = CaseLog::open(Some(&spec(false)), "fuzz", 5, 3, &mut report).unwrap();
        log.close_case("0", Some(&["stale"]), 0).unwrap();
        log.close_case("1", None, 0).unwrap();
        log.close_case("0", Some(&["fresh"]), 1).unwrap();
        log.finish(1);
        assert_eq!(reports, vec![1, 2, 3, 3]);
        let text = std::fs::read_to_string(&path).unwrap();
        let tags: Vec<&str> = text.lines().skip(1).map(|l| l.rsplit_once(" #").unwrap().0).collect();
        assert_eq!(tags, vec!["case 0 stale", "case 0 fresh"]);
        let mut ignore = |_| {};
        let log = CaseLog::open(Some(&spec(true)), "fuzz", 5, 3, &mut ignore).unwrap();
        assert_eq!(log.recovered("0"), Some("fresh"));
        assert_eq!(log.recovered("1"), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_fresh_start() {
        let path = temp_path("missing");
        let recovered = Journal::recover(&path, "faults", 7).unwrap();
        assert_eq!(recovered, Recovered::default());
    }

    #[test]
    fn resume_on_a_missing_or_empty_file_creates_a_fresh_journal() {
        for (tag, prepare) in [
            ("resume-missing", false),
            ("resume-empty", true),
        ] {
            let path = temp_path(tag);
            if prepare {
                std::fs::write(&path, b"").unwrap();
            }
            let (recovered, mut journal) = Journal::resume(&path, "faults", 9).unwrap();
            assert_eq!(recovered, Recovered::default());
            journal.append_case("0", &["ok"]).unwrap();
            drop(journal);
            // The fresh-start journal carries a header and round-trips.
            let recovered = Journal::recover(&path, "faults", 9).unwrap();
            assert_eq!(recovered.cases, vec!["0 ok"]);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn header_mismatches_are_typed_errors() {
        let path = temp_path("mismatch");
        drop(Journal::create(&path, "faults", 0x1111).unwrap());
        assert!(matches!(
            Journal::recover(&path, "fuzz", 0x1111),
            Err(JournalError::KindMismatch { .. })
        ));
        assert!(matches!(
            Journal::recover(&path, "faults", 0x2222),
            Err(JournalError::Fingerprint { .. })
        ));
        std::fs::write(&path, "not a journal at all\n").unwrap();
        assert!(matches!(
            Journal::recover(&path, "faults", 0x1111),
            Err(JournalError::NotAJournal(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_separates_parameters() {
        let a = Fingerprint::new("faults").u64(1).bytes(b"ab").finish();
        let b = Fingerprint::new("faults").u64(1).bytes(b"ac").finish();
        let c = Fingerprint::new("fuzz").u64(1).bytes(b"ab").finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
