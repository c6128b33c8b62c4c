//! The `pdf-grammar v1` text codec: a mined [`Grammar`] plus its
//! learned per-alternative weights, persisted with the same count +
//! digest integrity conventions as `pdf-dict v1` (pdf-tokens).
//!
//! A [`GrammarFile`] couples a grammar with one `u32` weight per
//! alternative — the state the evolutionary weighting layer in
//! `pdf-gen` learns and the compiled generator samples from. Weights
//! are stored parallel to the grammar's canonical rule order
//! ([`Grammar::labels`], sorted) so a file round-tripped through its
//! text encoding drives generation byte-identically.
//!
//! Format, line-oriented:
//!
//! ```text
//! pdf-grammar v1 rules=2 alts=3 digest=8f3a... (16 hex)
//! rule label=0000000000000000 alts=2
//! alt w=3 lit=28 ref=00000000000000aa lit=29
//! alt w=1
//! rule label=00000000000000aa alts=1
//! alt w=2 lit=31
//! ```
//!
//! Rules appear in strictly increasing label order (the canonical
//! order); literal bytes are hex-encoded so arbitrary bytes survive the
//! line-oriented format; the header's rule count, alternative count and
//! digest are all verified on decode, so a torn or hand-edited file is
//! rejected instead of silently generating a different distribution.

use std::fmt;
use std::path::Path;

use pdf_runtime::{hex_decode, hex_encode, Digest};

use crate::mine::{Grammar, Label, Sym};

/// A grammar plus per-alternative weights — the unit `evalrunner
/// --grammar-out` writes and `--grammar-in` reads.
///
/// # Example
///
/// ```
/// use pdf_grammar::{Grammar, GrammarFile, Label, Sym, START};
///
/// let mut g = Grammar::default();
/// g.add_alternative(START, vec![Sym::Lit(b"1".to_vec())]);
/// let file = GrammarFile::uniform(g);
/// let back = GrammarFile::decode(&file.encode()).unwrap();
/// assert_eq!(back, file);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GrammarFile {
    grammar: Grammar,
    /// One weight vector per rule, parallel to [`Grammar::labels`]
    /// order; `weights[r][a]` weights alternative `a` of rule `r`.
    weights: Vec<Vec<u32>>,
}

/// Errors decoding or assembling a `pdf-grammar v1` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// The header line is missing or not `pdf-grammar v1`.
    Header(String),
    /// A record line could not be parsed.
    Parse {
        /// 1-based line number of the bad record.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The file's counts or digest do not match its records, or a
    /// weight table does not match the grammar's shape.
    Integrity(String),
    /// The file could not be read or written.
    Io(String),
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::Header(m) => write!(f, "bad grammar header: {m}"),
            GrammarError::Parse { line, message } => {
                write!(f, "bad grammar record at line {line}: {message}")
            }
            GrammarError::Integrity(m) => write!(f, "grammar integrity check failed: {m}"),
            GrammarError::Io(m) => write!(f, "grammar io error: {m}"),
        }
    }
}

impl std::error::Error for GrammarError {}

impl GrammarFile {
    /// Wraps a grammar with uniform weights (`1` per alternative) — the
    /// state before any evolutionary epoch has run. Uniform weights
    /// sample exactly like the recursive [`Generator`](crate::Generator).
    pub fn uniform(grammar: Grammar) -> Self {
        let weights = grammar
            .labels()
            .map(|l| vec![1u32; grammar.alts(l).len()])
            .collect();
        GrammarFile { grammar, weights }
    }

    /// Wraps a grammar with explicit weights.
    ///
    /// # Errors
    ///
    /// [`GrammarError::Integrity`] when the weight table's shape does
    /// not match the grammar (one `u32` per alternative, in
    /// [`Grammar::labels`] order) or any weight is zero — a zero weight
    /// would zero a rule's total and break the sampling contract.
    pub fn with_weights(grammar: Grammar, weights: Vec<Vec<u32>>) -> Result<Self, GrammarError> {
        Self::check_shape(&grammar, &weights)?;
        Ok(GrammarFile { grammar, weights })
    }

    fn check_shape(grammar: &Grammar, weights: &[Vec<u32>]) -> Result<(), GrammarError> {
        if weights.len() != grammar.len() {
            return Err(GrammarError::Integrity(format!(
                "{} weight rows for {} rules",
                weights.len(),
                grammar.len()
            )));
        }
        for (label, row) in grammar.labels().zip(weights) {
            if row.len() != grammar.alts(label).len() {
                return Err(GrammarError::Integrity(format!(
                    "rule {:016x} has {} alternatives but {} weights",
                    label.0,
                    grammar.alts(label).len(),
                    row.len()
                )));
            }
            if row.contains(&0) {
                return Err(GrammarError::Integrity(format!(
                    "rule {:016x} has a zero weight",
                    label.0
                )));
            }
        }
        Ok(())
    }

    /// The wrapped grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// Consumes the file into its grammar, dropping the weights.
    pub fn into_grammar(self) -> Grammar {
        self.grammar
    }

    /// The weight rows, parallel to [`Grammar::labels`] order.
    pub fn weights(&self) -> &[Vec<u32>] {
        &self.weights
    }

    /// The weight row of one rule, when it exists.
    pub fn weights_for(&self, label: Label) -> Option<&[u32]> {
        self.grammar
            .labels()
            .position(|l| l == label)
            .map(|i| self.weights[i].as_slice())
    }

    /// Replaces the weights (the write-back path of an evolutionary
    /// epoch).
    ///
    /// # Errors
    ///
    /// Shape errors, as in [`with_weights`](Self::with_weights).
    pub fn set_weights(&mut self, weights: Vec<Vec<u32>>) -> Result<(), GrammarError> {
        Self::check_shape(&self.grammar, &weights)?;
        self.weights = weights;
        Ok(())
    }

    /// Total number of alternatives (= total number of weights).
    pub fn alt_count(&self) -> usize {
        self.weights.iter().map(Vec::len).sum()
    }

    /// FNV-1a digest over the grammar structure *and* the weights, so
    /// two files that drive generation identically digest equally and a
    /// re-weighting epoch changes the digest.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_str("pdf-grammar-v1");
        d.write_u64(self.grammar.digest());
        d.write_u64(self.weights.len() as u64);
        for row in &self.weights {
            d.write_u64(row.len() as u64);
            for &w in row {
                d.write_u64(u64::from(w));
            }
        }
        d.finish()
    }

    /// Encodes the file as `pdf-grammar v1` text (see the module docs
    /// for the format).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "pdf-grammar v1 rules={} alts={} digest={:016x}\n",
            self.grammar.len(),
            self.alt_count(),
            self.digest()
        ));
        for (label, row) in self.grammar.labels().zip(&self.weights) {
            let alts = self.grammar.alts(label);
            out.push_str(&format!(
                "rule label={:016x} alts={}\n",
                label.0,
                alts.len()
            ));
            for (alt, &w) in alts.iter().zip(row) {
                out.push_str(&format!("alt w={w}"));
                for sym in alt {
                    match sym {
                        Sym::Lit(bytes) => out.push_str(&format!(" lit={}", hex_encode(bytes))),
                        Sym::Ref(r) => out.push_str(&format!(" ref={:016x}", r.0)),
                    }
                }
                out.push('\n');
            }
        }
        out
    }

    /// Decodes `pdf-grammar v1` text. `decode(encode(f)) == f` for
    /// every file; rule order, per-rule alternative counts, the header
    /// counts and the digest are all verified.
    pub fn decode(text: &str) -> Result<Self, GrammarError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| GrammarError::Header("empty file".to_string()))?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("pdf-grammar") || parts.next() != Some("v1") {
            return Err(GrammarError::Header(format!(
                "expected `pdf-grammar v1 ...`, got {header:?}"
            )));
        }
        let mut want_rules: Option<usize> = None;
        let mut want_alts: Option<usize> = None;
        let mut want_digest: Option<u64> = None;
        for part in parts {
            if let Some(n) = part.strip_prefix("rules=") {
                want_rules =
                    Some(n.parse().map_err(|_| {
                        GrammarError::Header(format!("bad rule count in {header:?}"))
                    })?);
            } else if let Some(n) = part.strip_prefix("alts=") {
                want_alts = Some(n.parse().map_err(|_| {
                    GrammarError::Header(format!("bad alternative count in {header:?}"))
                })?);
            } else if let Some(h) = part.strip_prefix("digest=") {
                want_digest = Some(
                    u64::from_str_radix(h, 16)
                        .map_err(|_| GrammarError::Header(format!("bad digest in {header:?}")))?,
                );
            }
        }
        // (label, expected alt count, alternatives with weights)
        type RawRule = (Label, usize, Vec<(Vec<Sym>, u32)>);
        let mut rules: Vec<RawRule> = Vec::new();
        for (i, line) in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let parse_err = |message: String| GrammarError::Parse {
                line: i + 1,
                message,
            };
            if let Some(rest) = line.strip_prefix("rule ") {
                let mut label = None;
                let mut count = None;
                for field in rest.split_whitespace() {
                    if let Some(h) = field.strip_prefix("label=") {
                        label = Some(Label(
                            u64::from_str_radix(h, 16)
                                .map_err(|_| parse_err(format!("bad rule label {h:?}")))?,
                        ));
                    } else if let Some(n) = field.strip_prefix("alts=") {
                        count = Some(
                            n.parse::<usize>()
                                .map_err(|_| parse_err(format!("bad alt count {n:?}")))?,
                        );
                    } else {
                        return Err(parse_err(format!("unknown rule field {field:?}")));
                    }
                }
                let label = label.ok_or_else(|| parse_err("rule without label=".to_string()))?;
                let count = count.ok_or_else(|| parse_err("rule without alts=".to_string()))?;
                if let Some((last, _, _)) = rules.last() {
                    if *last >= label {
                        return Err(parse_err(format!(
                            "rule {:016x} out of order after {:016x} (canonical order is \
                             strictly increasing)",
                            label.0, last.0
                        )));
                    }
                }
                rules.push((label, count, Vec::new()));
            } else if let Some(rest) = line.strip_prefix("alt ") {
                let (_, _, alts) = rules
                    .last_mut()
                    .ok_or_else(|| parse_err("alt record before any rule".to_string()))?;
                let mut fields = rest.split_whitespace();
                let w_field = fields
                    .next()
                    .ok_or_else(|| parse_err("alt without w= field".to_string()))?;
                let w: u32 = w_field
                    .strip_prefix("w=")
                    .ok_or_else(|| parse_err(format!("expected w= first, got {w_field:?}")))?
                    .parse()
                    .map_err(|_| parse_err(format!("bad weight in {w_field:?}")))?;
                if w == 0 {
                    return Err(parse_err("zero weight".to_string()));
                }
                let mut body = Vec::new();
                for field in fields {
                    if let Some(h) = field.strip_prefix("lit=") {
                        let bytes = hex_decode(h)
                            .ok_or_else(|| parse_err(format!("bad hex literal {h:?}")))?;
                        if bytes.is_empty() {
                            return Err(parse_err("empty literal".to_string()));
                        }
                        body.push(Sym::Lit(bytes));
                    } else if let Some(h) = field.strip_prefix("ref=") {
                        body.push(Sym::Ref(Label(
                            u64::from_str_radix(h, 16)
                                .map_err(|_| parse_err(format!("bad ref label {h:?}")))?,
                        )));
                    } else {
                        return Err(parse_err(format!("unknown alt field {field:?}")));
                    }
                }
                if alts.iter().any(|(existing, _)| *existing == body) {
                    return Err(GrammarError::Integrity("duplicate alternative".to_string()));
                }
                alts.push((body, w));
            } else if line == "alt" {
                // `alt w=1` with trailing whitespace stripped still has
                // its weight field; a bare `alt` lost it
                return Err(parse_err("alt without w= field".to_string()));
            } else {
                return Err(parse_err(format!(
                    "expected `rule ...` or `alt ...`, got {line:?}"
                )));
            }
        }
        let mut grammar = Grammar::default();
        let mut weights = Vec::with_capacity(rules.len());
        for (label, count, alts) in rules {
            if alts.len() != count {
                return Err(GrammarError::Integrity(format!(
                    "rule {:016x} claims {count} alternatives, file holds {}",
                    label.0,
                    alts.len()
                )));
            }
            let mut row = Vec::with_capacity(alts.len());
            for (body, w) in alts {
                grammar.add_alternative(label, body);
                row.push(w);
            }
            weights.push(row);
        }
        let file = GrammarFile { grammar, weights };
        if let Some(n) = want_rules {
            if n != file.grammar.len() {
                return Err(GrammarError::Integrity(format!(
                    "header claims {n} rules, file holds {}",
                    file.grammar.len()
                )));
            }
        }
        if let Some(n) = want_alts {
            if n != file.alt_count() {
                return Err(GrammarError::Integrity(format!(
                    "header claims {n} alternatives, file holds {}",
                    file.alt_count()
                )));
            }
        }
        if let Some(h) = want_digest {
            if h != file.digest() {
                return Err(GrammarError::Integrity(format!(
                    "header digest {:016x} does not match content digest {:016x}",
                    h,
                    file.digest()
                )));
            }
        }
        Ok(file)
    }

    /// Writes [`encode`](Self::encode) to a file.
    ///
    /// # Errors
    ///
    /// [`GrammarError::Io`] on the underlying write error.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), GrammarError> {
        std::fs::write(path, self.encode()).map_err(|e| GrammarError::Io(e.to_string()))
    }

    /// Reads and [`decode`](Self::decode)s a file.
    ///
    /// # Errors
    ///
    /// [`GrammarError::Io`] when the file cannot be read, plus every
    /// decode error.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, GrammarError> {
        let text = std::fs::read_to_string(path).map_err(|e| GrammarError::Io(e.to_string()))?;
        Self::decode(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine::START;

    fn sample() -> GrammarFile {
        let mut g = Grammar::default();
        let num = Label(0xaa);
        g.add_alternative(
            START,
            vec![
                Sym::Lit(b"(".to_vec()),
                Sym::Ref(num),
                Sym::Lit(b")".to_vec()),
            ],
        );
        g.add_alternative(START, vec![Sym::Ref(num)]);
        g.add_alternative(START, Vec::new());
        g.add_alternative(num, vec![Sym::Lit(b"1".to_vec())]);
        g.add_alternative(num, vec![Sym::Lit(b"\n\x00\xff".to_vec())]);
        GrammarFile::with_weights(g, vec![vec![3, 1, 1], vec![2, 5]]).unwrap()
    }

    #[test]
    fn encode_decode_round_trips() {
        let file = sample();
        let back = GrammarFile::decode(&file.encode()).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.digest(), file.digest());
    }

    #[test]
    fn empty_file_round_trips() {
        let file = GrammarFile::default();
        assert_eq!(GrammarFile::decode(&file.encode()).unwrap(), file);
    }

    #[test]
    fn uniform_weights_match_shape() {
        let file = GrammarFile::uniform(sample().into_grammar());
        assert_eq!(file.weights().len(), 2);
        assert_eq!(file.weights_for(START), Some(&[1u32, 1, 1][..]));
        assert_eq!(file.weights_for(Label(0xaa)), Some(&[1u32, 1][..]));
        assert_eq!(file.weights_for(Label(0xbb)), None);
    }

    #[test]
    fn with_weights_rejects_bad_shapes() {
        let g = sample().into_grammar();
        assert!(matches!(
            GrammarFile::with_weights(g.clone(), vec![vec![1, 1, 1]]),
            Err(GrammarError::Integrity(_))
        ));
        assert!(matches!(
            GrammarFile::with_weights(g.clone(), vec![vec![1, 1], vec![1, 1]]),
            Err(GrammarError::Integrity(_))
        ));
        assert!(matches!(
            GrammarFile::with_weights(g, vec![vec![1, 0, 1], vec![1, 1]]),
            Err(GrammarError::Integrity(_))
        ));
    }

    #[test]
    fn decode_rejects_bad_header() {
        assert!(matches!(
            GrammarFile::decode("pdf-dict v1\n"),
            Err(GrammarError::Header(_))
        ));
        assert!(matches!(
            GrammarFile::decode(""),
            Err(GrammarError::Header(_))
        ));
        assert!(matches!(
            GrammarFile::decode("pdf-grammar v1 rules=x\n"),
            Err(GrammarError::Header(_))
        ));
    }

    #[test]
    fn decode_rejects_bad_records() {
        let head = "pdf-grammar v1\n";
        for bad in [
            "nope\n",
            "alt w=1 lit=31\n",                        // alt before rule
            "rule label=00 alts=1\nalt lit=31\n",      // missing weight
            "rule label=00 alts=1\nalt w=0 lit=31\n",  // zero weight
            "rule label=00 alts=1\nalt w=1 lit=\n",    // empty literal
            "rule label=00 alts=1\nalt w=1 lit=zz\n",  // bad hex
            "rule label=00 alts=1\nalt w=1 lit=abc\n", // odd hex
            "rule label=00 alts=1\nalt w=1 lit=aéb\n", // non-ASCII hex
            "rule label=00 alts=1\nalt w=1 lit=+f\n",  // signed hex
            "rule label=00 alts=1\nalt w=1 wat=1\n",   // unknown field
            "rule label=zz alts=1\nalt w=1 lit=31\n",  // bad label
            "rule alts=1\nalt w=1 lit=31\n",           // missing label
        ] {
            let text = format!("{head}{bad}");
            assert!(
                matches!(GrammarFile::decode(&text), Err(GrammarError::Parse { .. })),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_out_of_order_and_duplicate_rules() {
        let text = "pdf-grammar v1\n\
                    rule label=00000000000000aa alts=1\nalt w=1 lit=31\n\
                    rule label=0000000000000000 alts=1\nalt w=1 lit=32\n";
        assert!(matches!(
            GrammarFile::decode(text),
            Err(GrammarError::Parse { .. })
        ));
        let text = "pdf-grammar v1\n\
                    rule label=0000000000000000 alts=1\nalt w=1 lit=31\n\
                    rule label=0000000000000000 alts=1\nalt w=1 lit=32\n";
        assert!(matches!(
            GrammarFile::decode(text),
            Err(GrammarError::Parse { .. })
        ));
    }

    #[test]
    fn decode_rejects_duplicate_alternatives() {
        let text = "pdf-grammar v1\n\
                    rule label=0000000000000000 alts=2\n\
                    alt w=1 lit=31\nalt w=2 lit=31\n";
        assert!(matches!(
            GrammarFile::decode(text),
            Err(GrammarError::Integrity(_))
        ));
    }

    #[test]
    fn decode_rejects_count_and_digest_drift() {
        let file = sample();
        let encoded = file.encode();
        // torn file: header plus first rule only
        let torn: String = encoded.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(matches!(
            GrammarFile::decode(&torn),
            Err(GrammarError::Integrity(_))
        ));
        // edited literal: digest no longer matches
        let edited = encoded.replace("lit=31", "lit=32");
        assert!(matches!(
            GrammarFile::decode(&edited),
            Err(GrammarError::Integrity(_))
        ));
        // edited weight: digest covers weights too
        let edited = encoded.replace("w=5", "w=6");
        assert!(matches!(
            GrammarFile::decode(&edited),
            Err(GrammarError::Integrity(_))
        ));
    }

    #[test]
    fn digest_covers_weights() {
        let file = sample();
        let mut other = file.clone();
        other.set_weights(vec![vec![3, 1, 2], vec![2, 5]]).unwrap();
        assert_ne!(file.digest(), other.digest());
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("pdf-grammar-codec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.grammar");
        let file = sample();
        file.save(&path).unwrap();
        assert_eq!(GrammarFile::load(&path).unwrap(), file);
        std::fs::remove_file(&path).ok();
    }
}
