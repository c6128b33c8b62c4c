//! The mined token dictionary and its `pdf-dict v1` text codec.
//!
//! A [`Dictionary`] is an ordered, duplicate-free list of byte-string
//! tokens, produced by [`TokenMiner::mine`](crate::TokenMiner::mine)
//! and consumed by the driver's whole-token substitution
//! (`DriverConfig::dictionary` in pdf-core) and by AFL's dictionary
//! mutation stages (`AflConfig::dictionary` in pdf-afl). Order is part
//! of the contract: both consumers iterate tokens in stored order, so a
//! dictionary round-tripped through its text encoding drives campaigns
//! byte-identically.

use std::fmt;
use std::path::Path;

use pdf_runtime::{hex_decode, hex_encode, Digest};

/// An ordered, duplicate-free list of mined tokens.
///
/// # Example
///
/// ```
/// use pdf_tokens::Dictionary;
///
/// let dict = Dictionary::from_tokens(vec![b"while".to_vec(), b"if".to_vec()]);
/// assert_eq!(dict.len(), 2);
/// let text = dict.encode();
/// let back = Dictionary::decode(&text).unwrap();
/// assert_eq!(back, dict);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dictionary {
    tokens: Vec<Vec<u8>>,
}

/// Errors decoding a `pdf-dict v1` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DictError {
    /// The header line is missing or not `pdf-dict v1`.
    Header(String),
    /// A record line could not be parsed.
    Parse {
        /// 1-based line number of the bad record.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The file's token count or digest does not match its records.
    Integrity(String),
    /// The file could not be read or written.
    Io(String),
}

impl fmt::Display for DictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DictError::Header(m) => write!(f, "bad dictionary header: {m}"),
            DictError::Parse { line, message } => {
                write!(f, "bad dictionary record at line {line}: {message}")
            }
            DictError::Integrity(m) => write!(f, "dictionary integrity check failed: {m}"),
            DictError::Io(m) => write!(f, "dictionary io error: {m}"),
        }
    }
}

impl std::error::Error for DictError {}

impl Dictionary {
    /// Builds a dictionary from `tokens`, dropping empty tokens and
    /// duplicates while preserving first-occurrence order.
    pub fn from_tokens(tokens: Vec<Vec<u8>>) -> Self {
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(tokens.len());
        for t in tokens {
            if !t.is_empty() && !out.contains(&t) {
                out.push(t);
            }
        }
        Dictionary { tokens: out }
    }

    /// The tokens, in stored order.
    pub fn tokens(&self) -> &[Vec<u8>] {
        &self.tokens
    }

    /// Consumes the dictionary into its token list (the shape
    /// `DriverConfig::dictionary` and `AflConfig::dictionary` take).
    pub fn into_tokens(self) -> Vec<Vec<u8>> {
        self.tokens
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the dictionary holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Whether the dictionary contains exactly this token.
    pub fn contains(&self, token: &[u8]) -> bool {
        self.tokens.iter().any(|t| t == token)
    }

    /// Tokens at least `min_len` bytes long, in stored order.
    pub fn tokens_of_min_len(&self, min_len: usize) -> Vec<&[u8]> {
        self.tokens
            .iter()
            .filter(|t| t.len() >= min_len)
            .map(Vec::as_slice)
            .collect()
    }

    /// FNV-1a digest over the token list (order-sensitive, so two
    /// dictionaries that drive campaigns identically digest equally).
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_str("pdf-dict-v1");
        d.write_u64(self.tokens.len() as u64);
        for t in &self.tokens {
            d.write_bytes(t);
        }
        d.finish()
    }

    /// Encodes the dictionary as `pdf-dict v1` text: a header carrying
    /// the token count and digest, then one `tok hex=<bytes>` record
    /// per token in stored order. Tokens are hex-encoded so arbitrary
    /// bytes (newlines, non-UTF-8) survive the line-oriented format.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "pdf-dict v1 tokens={} digest={:016x}\n",
            self.tokens.len(),
            self.digest()
        ));
        for t in &self.tokens {
            out.push_str(&format!("tok hex={}\n", hex_encode(t)));
        }
        out
    }

    /// Decodes `pdf-dict v1` text. `decode(encode(d)) == d` for every
    /// dictionary; the header's count and digest are verified so a torn
    /// or hand-edited file is rejected instead of silently driving a
    /// different campaign.
    pub fn decode(text: &str) -> Result<Self, DictError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| DictError::Header("empty file".to_string()))?;
        let mut want_tokens: Option<usize> = None;
        let mut want_digest: Option<u64> = None;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("pdf-dict") || parts.next() != Some("v1") {
            return Err(DictError::Header(format!(
                "expected `pdf-dict v1 ...`, got {header:?}"
            )));
        }
        for part in parts {
            if let Some(n) = part.strip_prefix("tokens=") {
                want_tokens =
                    Some(n.parse().map_err(|_| {
                        DictError::Header(format!("bad token count in {header:?}"))
                    })?);
            } else if let Some(h) = part.strip_prefix("digest=") {
                want_digest = Some(
                    u64::from_str_radix(h, 16)
                        .map_err(|_| DictError::Header(format!("bad digest in {header:?}")))?,
                );
            }
        }
        let mut tokens = Vec::new();
        for (i, line) in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let rest = line.strip_prefix("tok ").ok_or_else(|| DictError::Parse {
                line: i + 1,
                message: format!("expected `tok hex=...`, got {line:?}"),
            })?;
            let hex = rest.strip_prefix("hex=").ok_or_else(|| DictError::Parse {
                line: i + 1,
                message: format!("expected `hex=` field, got {rest:?}"),
            })?;
            let bytes = hex_decode(hex).ok_or_else(|| DictError::Parse {
                line: i + 1,
                message: format!("bad hex string {hex:?}"),
            })?;
            if bytes.is_empty() {
                return Err(DictError::Parse {
                    line: i + 1,
                    message: "empty token".to_string(),
                });
            }
            tokens.push(bytes);
        }
        let dict = Dictionary { tokens };
        if let Some(n) = want_tokens {
            if n != dict.tokens.len() {
                return Err(DictError::Integrity(format!(
                    "header claims {n} tokens, file holds {}",
                    dict.tokens.len()
                )));
            }
        }
        if dict.tokens.len() != Dictionary::from_tokens(dict.tokens.clone()).tokens.len() {
            return Err(DictError::Integrity("duplicate token".to_string()));
        }
        if let Some(h) = want_digest {
            if h != dict.digest() {
                return Err(DictError::Integrity(format!(
                    "header digest {:016x} does not match content digest {:016x}",
                    h,
                    dict.digest()
                )));
            }
        }
        Ok(dict)
    }

    /// Writes [`encode`](Self::encode) to a file.
    ///
    /// # Errors
    ///
    /// [`DictError::Io`] on the underlying write error.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DictError> {
        std::fs::write(path, self.encode()).map_err(|e| DictError::Io(e.to_string()))
    }

    /// Reads and [`decode`](Self::decode)s a file.
    ///
    /// # Errors
    ///
    /// [`DictError::Io`] when the file cannot be read, plus every decode
    /// error.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DictError> {
        let text = std::fs::read_to_string(path).map_err(|e| DictError::Io(e.to_string()))?;
        Self::decode(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_tokens_dedups_preserving_order() {
        let dict = Dictionary::from_tokens(vec![
            b"while".to_vec(),
            b"if".to_vec(),
            b"while".to_vec(),
            Vec::new(),
            b"do".to_vec(),
        ]);
        assert_eq!(
            dict.tokens(),
            &[b"while".to_vec(), b"if".to_vec(), b"do".to_vec()]
        );
    }

    #[test]
    fn encode_decode_round_trips() {
        let dict = Dictionary::from_tokens(vec![
            b"while".to_vec(),
            b"\n\"\x00\xff".to_vec(),
            b"=".to_vec(),
        ]);
        let back = Dictionary::decode(&dict.encode()).unwrap();
        assert_eq!(back, dict);
        assert_eq!(back.digest(), dict.digest());
    }

    #[test]
    fn empty_dictionary_round_trips() {
        let dict = Dictionary::default();
        assert!(dict.is_empty());
        assert_eq!(Dictionary::decode(&dict.encode()).unwrap(), dict);
    }

    #[test]
    fn decode_rejects_bad_header() {
        assert!(matches!(
            Dictionary::decode("pdf-journal v1\n"),
            Err(DictError::Header(_))
        ));
        assert!(matches!(Dictionary::decode(""), Err(DictError::Header(_))));
    }

    #[test]
    fn decode_rejects_bad_records() {
        let text = "pdf-dict v1 tokens=1 digest=0000000000000000\nnope\n";
        assert!(matches!(
            Dictionary::decode(text),
            Err(DictError::Parse { .. })
        ));
        let text = "pdf-dict v1\ntok hex=zz\n";
        assert!(matches!(
            Dictionary::decode(text),
            Err(DictError::Parse { .. })
        ));
        let text = "pdf-dict v1\ntok hex=abc\n";
        assert!(matches!(
            Dictionary::decode(text),
            Err(DictError::Parse { .. })
        ));
        // Corrupt UTF-8 and signs are errors, never panics or misreads.
        for hex in ["aéb", "+f", "00é"] {
            let text = format!("pdf-dict v1\ntok hex={hex}\n");
            assert!(matches!(
                Dictionary::decode(&text),
                Err(DictError::Parse { .. })
            ));
        }
    }

    #[test]
    fn decode_rejects_count_and_digest_drift() {
        let dict = Dictionary::from_tokens(vec![b"true".to_vec()]);
        let torn = dict.encode().lines().next().unwrap().to_string() + "\n";
        assert!(matches!(
            Dictionary::decode(&torn),
            Err(DictError::Integrity(_))
        ));
        let edited = dict.encode().replace("hex=74727565", "hex=66616c7365");
        assert!(matches!(
            Dictionary::decode(&edited),
            Err(DictError::Integrity(_))
        ));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = Dictionary::from_tokens(vec![b"a".to_vec(), b"b".to_vec()]);
        let b = Dictionary::from_tokens(vec![b"b".to_vec(), b"a".to_vec()]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn min_len_filter() {
        let dict = Dictionary::from_tokens(vec![b"{".to_vec(), b"null".to_vec()]);
        assert_eq!(dict.tokens_of_min_len(2), vec![&b"null"[..]]);
        assert!(dict.contains(b"{"));
        assert!(!dict.contains(b"}"));
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("pdf-dict-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.dict");
        let dict = Dictionary::from_tokens(vec![b"return".to_vec()]);
        dict.save(&path).unwrap();
        assert_eq!(Dictionary::load(&path).unwrap(), dict);
        std::fs::remove_file(&path).ok();
    }
}
