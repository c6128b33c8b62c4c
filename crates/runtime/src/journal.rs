//! The record/replay journal: a compact, text-encoded description of a
//! fuzzing campaign precise enough to re-execute it and verify that the
//! outcome is byte-identical.
//!
//! A [`Journal`] is a list of [`CellRecord`]s, one per (tool, subject,
//! seed) campaign of an evaluation matrix. Each record carries:
//!
//! - the **identity** of the cell (tool, subject, seed, execution
//!   budget) plus a hash of the tool configuration it ran under, so a
//!   replay on a drifted configuration is detected rather than silently
//!   producing different results;
//! - the **decision stream**: for the pFuzzer driver the exact bytes it
//!   drew from its RNG (one per random-character decision), which lets a
//!   replay re-execute the campaign *from the journal* without an RNG;
//!   for the baselines a draw count and rolling digest of the raw RNG
//!   stream (see [`Rng::stream_digest`](crate::Rng::stream_digest));
//! - the **outcome digest**: a 64-bit FNV-1a digest over every
//!   deterministic field of the campaign outcome (valid inputs,
//!   discovery indices, branch sets, counters — never wall-clock).
//!
//! The encoding is a line-oriented text format (`pdf-journal v1`), one
//! `cell` line per record, hand-rolled because the build environment has
//! no serde. [`Journal::encode`]/[`Journal::decode`] round-trip exactly.

use std::fmt;

/// Incremental 64-bit FNV-1a digest used for outcome digests, decision
/// digests and configuration hashes throughout the workspace.
///
/// # Example
///
/// ```
/// use pdf_runtime::Digest;
/// let mut d = Digest::new();
/// d.write_bytes(b"abc");
/// d.write_u64(7);
/// let first = d.finish();
/// let mut e = Digest::new();
/// e.write_bytes(b"abc");
/// e.write_u64(7);
/// assert_eq!(first, e.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Digest(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// Creates a digest at the FNV-1a offset basis.
    pub fn new() -> Self {
        Digest(FNV_OFFSET)
    }

    /// Mixes a single byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Mixes a byte slice, framed by its length so that `("ab", "c")`
    /// and `("a", "bc")` digest differently.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Mixes a 64-bit value (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Mixes a UTF-8 string (framed, like [`write_bytes`](Self::write_bytes)).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// The digest value accumulated so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a standalone byte string (the rule used for pFuzzer
/// decision streams).
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.write_bytes(bytes);
    d.finish()
}

/// One recorded campaign: everything needed to re-execute a matrix cell
/// and check the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Tool name (`pFuzzer`, `AFL`, `KLEE`).
    pub tool: String,
    /// Subject name (`ini`, `csv`, `cjson`, ...).
    pub subject: String,
    /// Campaign seed.
    pub seed: u64,
    /// Execution budget the cell ran with.
    pub execs: u64,
    /// Hash of the tool configuration (detects config drift on replay).
    pub config_hash: u64,
    /// Number of decisions the campaign drew.
    pub decision_count: u64,
    /// Digest of the decision stream. For tools that record an explicit
    /// byte stream this is [`digest_bytes`] of `decisions`; for the
    /// others it is the tool RNG's rolling
    /// [`stream_digest`](crate::Rng::stream_digest).
    pub decision_digest: u64,
    /// Explicit byte-level decision stream, when the tool records one
    /// (the pFuzzer driver does; the baselines record digests only).
    pub decisions: Vec<u8>,
    /// Digest over the deterministic fields of the campaign outcome.
    pub outcome_digest: u64,
}

/// A recorded evaluation: an ordered list of campaign records.
///
/// # Example
///
/// The text encoding round-trips exactly, so a journal can be written,
/// stored, and replayed later:
///
/// ```
/// use pdf_runtime::{CellRecord, Journal};
///
/// let journal = Journal {
///     cells: vec![CellRecord {
///         tool: "pFuzzer".to_string(),
///         subject: "csv".to_string(),
///         seed: 1,
///         execs: 500,
///         config_hash: 0xabcd,
///         decision_count: 2,
///         decision_digest: pdf_runtime::digest_bytes(&[7, 9]),
///         decisions: vec![7, 9],
///         outcome_digest: 0x1234,
///     }],
/// };
/// let text = journal.encode();
/// assert!(text.starts_with("pdf-journal v1"));
/// assert_eq!(Journal::decode(&text).unwrap(), journal);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    /// The recorded cells, in matrix order.
    pub cells: Vec<CellRecord>,
}

/// Errors produced when decoding a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The first line is not the expected `pdf-journal v1` header.
    BadHeader,
    /// A `cell` line could not be parsed.
    BadLine {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadHeader => write!(f, "missing or unsupported journal header"),
            JournalError::BadLine { line, reason } => {
                write!(f, "journal line {line}: {reason}")
            }
        }
    }
}

const HEADER: &str = "pdf-journal v1";

/// Lowercase hex of a byte string, two digits per byte. The byte-string
/// encoding shared by the journal codec and the campaign checkpoint
/// codec in `pdf-core`.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write as _;
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Inverse of [`hex_encode`]; `None` on odd length or on any byte that
/// is not a hex digit (signs and non-ASCII included). Works byte by
/// byte, so no input can make it panic.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    let digit = |b: u8| char::from(b).to_digit(16).map(|d| d as u8);
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    bytes
        .chunks_exact(2)
        .map(|pair| Some(digit(pair[0])? << 4 | digit(pair[1])?))
        .collect()
}

/// Names go into whitespace-separated `k=v` pairs; reject anything that
/// would break the framing.
fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| !c.is_whitespace() && c != '=')
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, cell: CellRecord) {
        self.cells.push(cell);
    }

    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Renders the journal in the `pdf-journal v1` text format.
    ///
    /// # Panics
    ///
    /// Panics if a tool or subject name contains whitespace or `=` —
    /// such names cannot round-trip through the line format, and no
    /// registered tool or subject uses them.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        for c in &self.cells {
            assert!(valid_name(&c.tool), "unencodable tool name {:?}", c.tool);
            assert!(
                valid_name(&c.subject),
                "unencodable subject name {:?}",
                c.subject
            );
            let _ = write!(
                out,
                "cell tool={} subject={} seed={} execs={} cfg={:016x} decn={} decd={:016x} out={:016x}",
                c.tool,
                c.subject,
                c.seed,
                c.execs,
                c.config_hash,
                c.decision_count,
                c.decision_digest,
                c.outcome_digest,
            );
            if !c.decisions.is_empty() {
                let _ = write!(out, " dec={}", hex_encode(&c.decisions));
            }
            out.push('\n');
        }
        out
    }

    /// Parses a journal previously produced by [`encode`](Self::encode).
    /// Blank lines and `#` comment lines are ignored.
    pub fn decode(text: &str) -> Result<Journal, JournalError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first.trim() == HEADER => {}
            _ => return Err(JournalError::BadHeader),
        }
        let mut journal = Journal::new();
        for (idx, line) in lines {
            let line_no = idx + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |reason: &str| JournalError::BadLine {
                line: line_no,
                reason: reason.to_string(),
            };
            let rest = line
                .strip_prefix("cell ")
                .ok_or_else(|| bad("expected a 'cell' line"))?;
            let mut cell = CellRecord {
                tool: String::new(),
                subject: String::new(),
                seed: 0,
                execs: 0,
                config_hash: 0,
                decision_count: 0,
                decision_digest: 0,
                decisions: Vec::new(),
                outcome_digest: 0,
            };
            let mut seen = [false; 8];
            for pair in rest.split_whitespace() {
                let (key, value) = pair.split_once('=').ok_or_else(|| bad("expected k=v"))?;
                match key {
                    "tool" => {
                        cell.tool = value.to_string();
                        seen[0] = true;
                    }
                    "subject" => {
                        cell.subject = value.to_string();
                        seen[1] = true;
                    }
                    "seed" => {
                        cell.seed = value.parse().map_err(|_| bad("bad seed"))?;
                        seen[2] = true;
                    }
                    "execs" => {
                        cell.execs = value.parse().map_err(|_| bad("bad execs"))?;
                        seen[3] = true;
                    }
                    "cfg" => {
                        cell.config_hash =
                            u64::from_str_radix(value, 16).map_err(|_| bad("bad cfg hash"))?;
                        seen[4] = true;
                    }
                    "decn" => {
                        cell.decision_count = value.parse().map_err(|_| bad("bad decn"))?;
                        seen[5] = true;
                    }
                    "decd" => {
                        cell.decision_digest =
                            u64::from_str_radix(value, 16).map_err(|_| bad("bad decd"))?;
                        seen[6] = true;
                    }
                    "out" => {
                        cell.outcome_digest =
                            u64::from_str_radix(value, 16).map_err(|_| bad("bad out digest"))?;
                        seen[7] = true;
                    }
                    "dec" => {
                        cell.decisions =
                            hex_decode(value).ok_or_else(|| bad("bad decision hex"))?;
                    }
                    other => {
                        return Err(bad(&format!("unknown key {other:?}")));
                    }
                }
            }
            if let Some(missing) = seen.iter().position(|s| !s) {
                const KEYS: [&str; 8] = [
                    "tool", "subject", "seed", "execs", "cfg", "decn", "decd", "out",
                ];
                return Err(bad(&format!("missing key {:?}", KEYS[missing])));
            }
            journal.push(cell);
        }
        Ok(journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> CellRecord {
        CellRecord {
            tool: "pFuzzer".to_string(),
            subject: "cjson".to_string(),
            seed: 7,
            execs: 30_000,
            config_hash: 0xdead_beef,
            decision_count: 3,
            decision_digest: digest_bytes(&[1, 2, 3]),
            decisions: vec![1, 2, 3],
            outcome_digest: 0x0123_4567_89ab_cdef,
        }
    }

    #[test]
    fn digest_is_deterministic_and_framed() {
        let mut a = Digest::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = Digest::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish(), "length framing must separate");
        assert_eq!(digest_bytes(b"xyz"), digest_bytes(b"xyz"));
        assert_ne!(digest_bytes(b"xyz"), digest_bytes(b"xyw"));
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut j = Journal::new();
        j.push(sample_cell());
        let mut second = sample_cell();
        second.tool = "AFL".to_string();
        second.decisions = Vec::new();
        second.decision_count = 123_456;
        j.push(second);
        let text = j.encode();
        let back = Journal::decode(&text).expect("decodes");
        assert_eq!(j, back);
    }

    #[test]
    fn empty_journal_round_trips() {
        let j = Journal::new();
        assert!(j.is_empty());
        assert_eq!(Journal::decode(&j.encode()).unwrap(), j);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Journal::decode(""), Err(JournalError::BadHeader));
        assert_eq!(Journal::decode("nonsense"), Err(JournalError::BadHeader));
        let text = format!("{HEADER}\nnot a cell line");
        assert!(matches!(
            Journal::decode(&text),
            Err(JournalError::BadLine { line: 2, .. })
        ));
        let text = format!("{HEADER}\ncell tool=x subject=y seed=abc");
        assert!(matches!(
            Journal::decode(&text),
            Err(JournalError::BadLine { .. })
        ));
        let text = format!("{HEADER}\ncell tool=x subject=y");
        assert!(matches!(
            Journal::decode(&text),
            Err(JournalError::BadLine { .. })
        ));
    }

    #[test]
    fn decode_skips_comments_and_blanks() {
        let mut j = Journal::new();
        j.push(sample_cell());
        let mut text = j.encode();
        text.push_str("\n# trailing comment\n\n");
        assert_eq!(Journal::decode(&text).unwrap(), j);
    }

    #[test]
    fn hex_round_trip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("0").is_none());
        assert!(hex_decode("zz").is_none());
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        // Corrupt input is an error, never a panic or a misread.
        assert!(hex_decode("aéb").is_none());
        assert!(hex_decode("+f").is_none());
        assert_eq!(hex_decode("0A").unwrap(), [0x0a]);
    }

    #[test]
    fn corrupt_decision_hex_is_an_error_not_a_panic() {
        let mut j = Journal::new();
        j.push(sample_cell());
        let text = j.encode();
        assert!(text.contains("dec=010203"));
        for bad in ["dec=aéb", "dec=+f", "dec=00é"] {
            let corrupt = text.replace("dec=010203", bad);
            assert!(Journal::decode(&corrupt).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn errors_display() {
        assert!(!JournalError::BadHeader.to_string().is_empty());
        let e = JournalError::BadLine {
            line: 3,
            reason: "x".into(),
        };
        assert!(e.to_string().contains('3'));
    }
}
