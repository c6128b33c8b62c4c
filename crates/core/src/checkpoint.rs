//! Campaign checkpoints: kill-and-resume for long campaigns.
//!
//! A [`Checkpoint`] is a complete serialization of a paused campaign's
//! search state — enough that [`Fuzzer::resume_from_checkpoint`]
//! (crate::Fuzzer::resume_from_checkpoint) continues the campaign
//! *byte-identically*: the resumed run produces the same
//! [`FuzzReport::digest`](crate::FuzzReport::digest) as an uninterrupted
//! run of the same configuration. That contract dictates what is
//! stored:
//!
//! - the RNG **draw count** (the generator is a pure function of seed +
//!   draws, so a fresh generator fast-forwarded with
//!   [`Rng::skip`](pdf_runtime::Rng::skip) continues the exact stream),
//! - the **decision bytes** drawn so far (they prefix the final report's
//!   decision stream),
//! - the **queue**, including each entry's *cached score bits*: scores
//!   are recomputed only at rebuild points, so a stale cached score
//!   legitimately shapes pop order and must survive the round-trip
//!   bit-exactly (hence `f64::to_bits`, not a decimal rendering),
//! - the queue's **rebuild counters** and **path counts** (they decide
//!   when the next rescoring happens),
//! - the **coverage sets**, **valid inputs**, the **verdict cache** and
//!   the in-flight current input.
//!
//! The text format follows the `pdf-journal v1` conventions: a header
//! line, then one whitespace-separated `k=v` record per line, with byte
//! strings hex-encoded via the journal codec's
//! [`hex_encode`](pdf_runtime::hex_encode). Unordered collections
//! (the verdict cache, path counts) are emitted sorted, so encoding is
//! canonical: decode ∘ encode is the identity and equal states produce
//! equal text.

use std::fmt;

use pdf_runtime::{hex_decode, hex_encode, BranchId, BranchSet, SiteId};

const HEADER: &str = "pdf-checkpoint v1";

/// A serializable snapshot of one queued candidate, cached score
/// included.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueItemSnapshot {
    /// Bit pattern of the cached heuristic score (`f64::to_bits`).
    pub score_bits: u64,
    /// Insertion sequence number (final FIFO tie-break).
    pub seq: u64,
    /// The candidate input.
    pub input: Vec<u8>,
    /// Branches the parent run covered up to its rejection point.
    pub parent_branches: Vec<(u64, bool)>,
    /// Length of the replacement that produced this candidate.
    pub replacement_len: u64,
    /// Bit pattern of the parent's average stack depth.
    pub avg_stack_bits: u64,
    /// Number of substitutions on the path from the initial input.
    pub num_parents: u64,
    /// Path hash of the parent run.
    pub path_hash: u64,
}

/// A serializable snapshot of the candidate queue.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueSnapshot {
    /// Next insertion sequence number.
    pub seq: u64,
    /// `vBr` size at the last rescoring.
    pub last_vbr_len: u64,
    /// Pops since the last rescoring.
    pub pops_since_rebuild: u64,
    /// Path-seen counters, sorted by path hash.
    pub path_counts: Vec<(u64, u64)>,
    /// Queued candidates, sorted by insertion sequence.
    pub items: Vec<QueueItemSnapshot>,
}

/// A paused campaign's complete search state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Subject name the campaign runs against.
    pub subject: String,
    /// [`DriverConfig::config_hash`](crate::DriverConfig::config_hash)
    /// of the campaign's configuration; resume refuses a drifted config.
    pub config_hash: u64,
    /// Campaign seed.
    pub seed: u64,
    /// RNG draws consumed so far.
    pub draws: u64,
    /// Whether the initial input was already drawn.
    pub primed: bool,
    /// Executions spent so far.
    pub execs: u64,
    /// Instrumentation events observed so far.
    pub events: u64,
    /// Hung executions so far.
    pub hangs: u64,
    /// Crashed executions so far.
    pub crashes: u64,
    /// Execution count of the first valid input, if any yet.
    pub first_valid_execs: Option<u64>,
    /// Decision bytes drawn so far.
    pub decisions: Vec<u8>,
    /// The in-flight input the next iteration starts from.
    pub current: Vec<u8>,
    /// `numParents` of the in-flight input.
    pub parents: u64,
    /// Valid inputs with their discovery execution counts, in discovery
    /// order.
    pub valid: Vec<(Vec<u8>, u64)>,
    /// Branches covered by valid inputs (`vBr`), as (site, outcome).
    pub valid_branches: Vec<(u64, bool)>,
    /// Branches covered by any run.
    pub all_branches: Vec<(u64, bool)>,
    /// The candidate-scoring (steering) set: `vBr` plus any coverage
    /// adopted from fleet peers. Absent in pre-fleet checkpoints, in
    /// which case resuming falls back to `vBr`.
    pub steer_branches: Vec<(u64, bool)>,
    /// The verdict cache of known-invalid inputs, sorted.
    pub known_invalid: Vec<Vec<u8>>,
    /// Tiered-mode escalation watermark: the highest rejection index any
    /// escalated fast-tier run reached. Always `None` outside tiered
    /// mode, so full-mode checkpoints stay byte-identical to releases
    /// that predate execution tiering.
    pub tier_max_rejection: Option<u64>,
    /// Last-comparison fingerprints the tiered filter has already
    /// escalated, sorted. Empty outside tiered mode.
    pub tier_fingerprints: Vec<u64>,
    /// Expected-token observation counts mined so far
    /// ([`DriverConfig::mine_tokens`](crate::DriverConfig::mine_tokens)),
    /// in canonical (byte-sorted) token order. Empty unless mining is
    /// enabled, so non-mining checkpoints stay byte-identical to
    /// releases that predate token discovery.
    pub mined: Vec<(Vec<u8>, u64)>,
    /// The candidate queue.
    pub queue: QueueSnapshot,
}

/// Why a checkpoint could not be decoded or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The text does not start with the `pdf-checkpoint v1` header.
    Header,
    /// A line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The subject or configuration drifted since the checkpoint was
    /// taken; resuming would silently diverge instead of continuing.
    Drift(String),
    /// Reading or writing the checkpoint file failed.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Header => write!(f, "missing `{HEADER}` header"),
            CheckpointError::Parse { line, reason } => {
                write!(f, "checkpoint line {line}: {reason}")
            }
            CheckpointError::Drift(what) => write!(f, "checkpoint drift: {what}"),
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The recovery-relevant classification of a checkpoint (or other
/// persistence) failure: what a consumer holding an older generation
/// of the same state should *do* about the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The bytes on disk are damaged (torn write, truncation, bit
    /// rot). An older generation of the same state is still good —
    /// **fall back** to it, quarantine the damage.
    Corrupt,
    /// The configuration or subject changed since the state was
    /// written. Every generation was written under the old
    /// configuration, so falling back cannot help — **fail** the
    /// resume and surface the mismatch.
    Drift,
    /// The storage itself misbehaved (permission, `ENOSPC`, missing
    /// file). Retrying or falling back *may* help; the caller decides
    /// based on what it knows about the medium.
    Io,
}

impl CheckpointError {
    /// Classifies this error for fallback decisions (see
    /// [`ErrorClass`]). Torn or truncated checkpoint files surface as
    /// [`Header`](CheckpointError::Header) or
    /// [`Parse`](CheckpointError::Parse) and classify as
    /// [`Corrupt`](ErrorClass::Corrupt).
    pub fn class(&self) -> ErrorClass {
        match self {
            CheckpointError::Header | CheckpointError::Parse { .. } => ErrorClass::Corrupt,
            CheckpointError::Drift(_) => ErrorClass::Drift,
            CheckpointError::Io(_) => ErrorClass::Io,
        }
    }
}

/// Renders a `(site, outcome)` set as `SITE+` / `SITE-` entries joined
/// with commas; the empty set is the single character `-`.
fn encode_branches(set: &[(u64, bool)]) -> String {
    if set.is_empty() {
        return "-".to_string();
    }
    set.iter()
        .map(|(site, outcome)| format!("{site:016x}{}", if *outcome { '+' } else { '-' }))
        .collect::<Vec<_>>()
        .join(",")
}

fn decode_branches(s: &str) -> Option<Vec<(u64, bool)>> {
    if s == "-" || s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',')
        .map(|tok| {
            let (hex, outcome) = match tok.strip_suffix('+') {
                Some(hex) => (hex, true),
                None => (tok.strip_suffix('-')?, false),
            };
            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
            let site = u64::from_str_radix(hex, 16).ok()?;
            Some((site, outcome))
        })
        .collect()
}

/// Rebuilds a [`BranchSet`] from serialized (site, outcome) pairs.
pub(crate) fn branch_set_of(pairs: &[(u64, bool)]) -> BranchSet {
    pairs
        .iter()
        .map(|&(site, outcome)| BranchId::new(SiteId::from_raw(site), outcome))
        .collect()
}

/// Flattens a [`BranchSet`] into serializable (site, outcome) pairs
/// (already sorted: the set iterates in order).
pub(crate) fn branch_pairs_of(set: &BranchSet) -> Vec<(u64, bool)> {
    set.iter().map(|b| (b.site.0, b.outcome)).collect()
}

/// One parsed `k=v` line: the leading tag plus the key/value pairs.
struct Record<'a> {
    tag: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Record<'a> {
    fn parse(line: &'a str) -> Option<Record<'a>> {
        let mut toks = line.split_whitespace();
        let tag = toks.next()?;
        let mut pairs = Vec::new();
        for tok in toks {
            let (k, v) = tok.split_once('=')?;
            pairs.push((k, v));
        }
        Some(Record { tag, pairs })
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn u64_of(&self, key: &str) -> Option<u64> {
        self.get(key)?.parse().ok()
    }

    fn hex_u64_of(&self, key: &str) -> Option<u64> {
        u64::from_str_radix(self.get(key)?, 16).ok()
    }

    fn bytes_of(&self, key: &str) -> Option<Vec<u8>> {
        hex_decode(self.get(key)?)
    }

    fn branches_of(&self, key: &str) -> Option<Vec<(u64, bool)>> {
        decode_branches(self.get(key)?)
    }
}

impl Checkpoint {
    /// Renders the checkpoint as `pdf-checkpoint v1` text.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let first = match self.first_valid_execs {
            Some(n) => n.to_string(),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "meta subject={} cfg={:016x} seed={} draws={} primed={} execs={} events={} \
             hangs={} crashes={} first={first} parents={} qseq={} qvbr={} qpops={}",
            self.subject,
            self.config_hash,
            self.seed,
            self.draws,
            self.primed as u8,
            self.execs,
            self.events,
            self.hangs,
            self.crashes,
            self.parents,
            self.queue.seq,
            self.queue.last_vbr_len,
            self.queue.pops_since_rebuild,
        );
        let _ = writeln!(out, "decisions hex={}", hex_encode(&self.decisions));
        let _ = writeln!(out, "current hex={}", hex_encode(&self.current));
        for (input, at) in &self.valid {
            let _ = writeln!(out, "valid at={at} hex={}", hex_encode(input));
        }
        let _ = writeln!(out, "vbr set={}", encode_branches(&self.valid_branches));
        let _ = writeln!(out, "abr set={}", encode_branches(&self.all_branches));
        let _ = writeln!(out, "sbr set={}", encode_branches(&self.steer_branches));
        if self.tier_max_rejection.is_some() || !self.tier_fingerprints.is_empty() {
            let maxrej = match self.tier_max_rejection {
                Some(n) => n.to_string(),
                None => "-".to_string(),
            };
            let fps = if self.tier_fingerprints.is_empty() {
                "-".to_string()
            } else {
                self.tier_fingerprints
                    .iter()
                    .map(|f| format!("{f:016x}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = writeln!(out, "tier maxrej={maxrej} fps={fps}");
        }
        for input in &self.known_invalid {
            let _ = writeln!(out, "inv hex={}", hex_encode(input));
        }
        for (tok, n) in &self.mined {
            let _ = writeln!(out, "mine n={n} hex={}", hex_encode(tok));
        }
        for (hash, n) in &self.queue.path_counts {
            let _ = writeln!(out, "path hash={hash:016x} n={n}");
        }
        for item in &self.queue.items {
            let _ = writeln!(
                out,
                "item score={:016x} seq={} repl={} par={} path={:016x} stack={:016x} pb={} hex={}",
                item.score_bits,
                item.seq,
                item.replacement_len,
                item.num_parents,
                item.path_hash,
                item.avg_stack_bits,
                encode_branches(&item.parent_branches),
                hex_encode(&item.input),
            );
        }
        out
    }

    /// Parses `pdf-checkpoint v1` text.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Header`] on a missing header,
    /// [`CheckpointError::Parse`] on any malformed line.
    pub fn decode(text: &str) -> Result<Checkpoint, CheckpointError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l.trim() == HEADER => {}
            _ => return Err(CheckpointError::Header),
        }
        let mut ck = Checkpoint::default();
        let mut saw_meta = false;
        for (idx, line) in lines {
            let lineno = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let err = |reason: &str| CheckpointError::Parse {
                line: lineno,
                reason: reason.to_string(),
            };
            let rec = Record::parse(line).ok_or_else(|| err("malformed k=v line"))?;
            match rec.tag {
                "meta" => {
                    ck.subject = rec
                        .get("subject")
                        .ok_or_else(|| err("missing subject"))?
                        .to_string();
                    ck.config_hash = rec.hex_u64_of("cfg").ok_or_else(|| err("bad cfg"))?;
                    ck.seed = rec.u64_of("seed").ok_or_else(|| err("bad seed"))?;
                    ck.draws = rec.u64_of("draws").ok_or_else(|| err("bad draws"))?;
                    ck.primed = match rec.get("primed") {
                        Some("0") => false,
                        Some("1") => true,
                        _ => return Err(err("bad primed")),
                    };
                    ck.execs = rec.u64_of("execs").ok_or_else(|| err("bad execs"))?;
                    ck.events = rec.u64_of("events").ok_or_else(|| err("bad events"))?;
                    ck.hangs = rec.u64_of("hangs").ok_or_else(|| err("bad hangs"))?;
                    ck.crashes = rec.u64_of("crashes").ok_or_else(|| err("bad crashes"))?;
                    ck.first_valid_execs = match rec.get("first") {
                        Some("-") => None,
                        Some(n) => Some(n.parse().map_err(|_| err("bad first"))?),
                        None => return Err(err("missing first")),
                    };
                    ck.parents = rec.u64_of("parents").ok_or_else(|| err("bad parents"))?;
                    ck.queue.seq = rec.u64_of("qseq").ok_or_else(|| err("bad qseq"))?;
                    ck.queue.last_vbr_len = rec.u64_of("qvbr").ok_or_else(|| err("bad qvbr"))?;
                    ck.queue.pops_since_rebuild =
                        rec.u64_of("qpops").ok_or_else(|| err("bad qpops"))?;
                    saw_meta = true;
                }
                "decisions" => {
                    ck.decisions = rec.bytes_of("hex").ok_or_else(|| err("bad hex"))?;
                }
                "current" => {
                    ck.current = rec.bytes_of("hex").ok_or_else(|| err("bad hex"))?;
                }
                "valid" => {
                    let at = rec.u64_of("at").ok_or_else(|| err("bad at"))?;
                    let input = rec.bytes_of("hex").ok_or_else(|| err("bad hex"))?;
                    ck.valid.push((input, at));
                }
                "vbr" => {
                    ck.valid_branches = rec.branches_of("set").ok_or_else(|| err("bad set"))?;
                }
                "abr" => {
                    ck.all_branches = rec.branches_of("set").ok_or_else(|| err("bad set"))?;
                }
                "sbr" => {
                    ck.steer_branches = rec.branches_of("set").ok_or_else(|| err("bad set"))?;
                }
                "inv" => {
                    ck.known_invalid
                        .push(rec.bytes_of("hex").ok_or_else(|| err("bad hex"))?);
                }
                "mine" => {
                    let n = rec.u64_of("n").ok_or_else(|| err("bad n"))?;
                    let tok = rec.bytes_of("hex").ok_or_else(|| err("bad hex"))?;
                    ck.mined.push((tok, n));
                }
                "tier" => {
                    ck.tier_max_rejection = match rec.get("maxrej") {
                        Some("-") => None,
                        Some(n) => Some(n.parse().map_err(|_| err("bad maxrej"))?),
                        None => return Err(err("missing maxrej")),
                    };
                    ck.tier_fingerprints = match rec.get("fps") {
                        Some("-") => Vec::new(),
                        Some(s) => s
                            .split(',')
                            .map(|tok| u64::from_str_radix(tok, 16))
                            .collect::<Result<_, _>>()
                            .map_err(|_| err("bad fps"))?,
                        None => return Err(err("missing fps")),
                    };
                }
                "path" => {
                    let hash = rec.hex_u64_of("hash").ok_or_else(|| err("bad hash"))?;
                    let n = rec.u64_of("n").ok_or_else(|| err("bad n"))?;
                    ck.queue.path_counts.push((hash, n));
                }
                "item" => {
                    ck.queue.items.push(QueueItemSnapshot {
                        score_bits: rec.hex_u64_of("score").ok_or_else(|| err("bad score"))?,
                        seq: rec.u64_of("seq").ok_or_else(|| err("bad seq"))?,
                        replacement_len: rec.u64_of("repl").ok_or_else(|| err("bad repl"))?,
                        num_parents: rec.u64_of("par").ok_or_else(|| err("bad par"))?,
                        path_hash: rec.hex_u64_of("path").ok_or_else(|| err("bad path"))?,
                        avg_stack_bits: rec.hex_u64_of("stack").ok_or_else(|| err("bad stack"))?,
                        parent_branches: rec.branches_of("pb").ok_or_else(|| err("bad pb"))?,
                        input: rec.bytes_of("hex").ok_or_else(|| err("bad hex"))?,
                    });
                }
                other => {
                    return Err(CheckpointError::Parse {
                        line: lineno,
                        reason: format!("unknown record tag {other:?}"),
                    })
                }
            }
        }
        if !saw_meta {
            return Err(CheckpointError::Parse {
                line: 0,
                reason: "no meta record".to_string(),
            });
        }
        Ok(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            subject: "arith".to_string(),
            config_hash: 0xdead_beef,
            seed: 7,
            draws: 42,
            primed: true,
            execs: 100,
            events: 4_321,
            hangs: 3,
            crashes: 1,
            first_valid_execs: Some(12),
            decisions: vec![0x30, 0x31, 0x2b],
            current: b"1+".to_vec(),
            parents: 2,
            valid: vec![(b"1".to_vec(), 12), (b"1+1".to_vec(), 50)],
            valid_branches: vec![(1, true), (2, false)],
            all_branches: vec![(1, true), (2, false), (3, true)],
            steer_branches: vec![(1, true), (2, false), (9, true)],
            known_invalid: vec![b"(".to_vec(), b")".to_vec()],
            tier_max_rejection: Some(4),
            tier_fingerprints: vec![0x11, 0x22, 0x33],
            mined: Vec::new(),
            queue: QueueSnapshot {
                seq: 9,
                last_vbr_len: 2,
                pops_since_rebuild: 5,
                path_counts: vec![(0xaa, 3), (0xbb, 1)],
                items: vec![QueueItemSnapshot {
                    score_bits: 4.5f64.to_bits(),
                    seq: 8,
                    input: b"1+2".to_vec(),
                    parent_branches: vec![(1, true)],
                    replacement_len: 1,
                    avg_stack_bits: 1.5f64.to_bits(),
                    num_parents: 2,
                    path_hash: 0xaa,
                }],
            },
        }
    }

    #[test]
    fn round_trips_through_text() {
        let ck = sample();
        let text = ck.encode();
        let decoded = Checkpoint::decode(&text).expect("decodes");
        assert_eq!(ck, decoded);
        // canonical: re-encoding the decoded form is byte-identical
        assert_eq!(text, decoded.encode());
    }

    #[test]
    fn empty_collections_round_trip() {
        let ck = Checkpoint {
            subject: "x".to_string(),
            ..Checkpoint::default()
        };
        let decoded = Checkpoint::decode(&ck.encode()).expect("decodes");
        assert_eq!(ck, decoded);
        assert!(decoded.valid_branches.is_empty());
        assert!(decoded.queue.items.is_empty());
    }

    #[test]
    fn header_is_required() {
        assert_eq!(Checkpoint::decode("nope"), Err(CheckpointError::Header));
        assert_eq!(Checkpoint::decode(""), Err(CheckpointError::Header));
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let mut text = sample().encode();
        text.push_str("garbage notkv\n");
        match Checkpoint::decode(&text) {
            Err(CheckpointError::Parse { line, .. }) => assert!(line > 1),
            other => panic!("expected parse error, got {other:?}"),
        }
        let bad_hex = format!("{HEADER}\nmeta subject=s cfg=zz seed=0 draws=0 primed=1 execs=0 events=0 hangs=0 crashes=0 first=- parents=0 qseq=0 qvbr=0 qpops=0\n");
        assert!(matches!(
            Checkpoint::decode(&bad_hex),
            Err(CheckpointError::Parse { .. })
        ));
    }

    #[test]
    fn corrupt_hex_and_branch_sets_are_errors_not_panics() {
        let text = sample().encode();
        for (good, bad) in [
            ("decisions hex=30312b", "decisions hex=aéb"),
            ("decisions hex=30312b", "decisions hex=+f"),
            ("0000000000000001+", "00é"),
            ("0000000000000001+", "+f+"),
            ("0000000000000001+", "é"),
        ] {
            assert!(text.contains(good), "sample lacks {good:?}");
            let corrupt = text.replacen(good, bad, 1);
            assert!(
                matches!(
                    Checkpoint::decode(&corrupt),
                    Err(CheckpointError::Parse { .. })
                ),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn empty_tier_state_emits_no_record() {
        // full-mode checkpoints must stay byte-identical to the
        // pre-tiering format
        let mut ck = sample();
        ck.tier_max_rejection = None;
        ck.tier_fingerprints = Vec::new();
        let text = ck.encode();
        assert!(!text.contains("tier "), "spurious tier record:\n{text}");
        let decoded = Checkpoint::decode(&text).expect("decodes");
        assert_eq!(ck, decoded);
    }

    #[test]
    fn tier_record_round_trips() {
        let mut ck = sample();
        ck.tier_max_rejection = None;
        ck.tier_fingerprints = vec![0xdead];
        let decoded = Checkpoint::decode(&ck.encode()).expect("decodes");
        assert_eq!(ck, decoded);
        ck.tier_max_rejection = Some(0);
        ck.tier_fingerprints = Vec::new();
        let decoded = Checkpoint::decode(&ck.encode()).expect("decodes");
        assert_eq!(ck, decoded);
    }

    #[test]
    fn mine_records_round_trip_and_default_to_absent() {
        // non-mining checkpoints must stay byte-identical to the
        // pre-token format
        let ck = sample();
        assert!(ck.mined.is_empty());
        assert!(!ck.encode().contains("mine "), "spurious mine record");

        let mut mined = sample();
        mined.mined = vec![(b"while".to_vec(), 7), (b"}".to_vec(), 1)];
        let decoded = Checkpoint::decode(&mined.encode()).expect("decodes");
        assert_eq!(mined, decoded);
    }

    #[test]
    fn branch_list_encoding_is_exact() {
        assert_eq!(encode_branches(&[]), "-");
        let pairs = vec![(0x10, true), (0x20, false)];
        let s = encode_branches(&pairs);
        assert_eq!(decode_branches(&s), Some(pairs));
        assert_eq!(decode_branches("-"), Some(Vec::new()));
        assert_eq!(decode_branches("zz+"), None);
        assert_eq!(decode_branches("10?"), None);
    }

    #[test]
    fn score_bits_survive_exactly() {
        // the point of storing bits: scores like 0.1 + 0.2 must survive
        // without decimal rounding
        let tricky = 0.1f64 + 0.2f64;
        let mut ck = sample();
        ck.queue.items[0].score_bits = tricky.to_bits();
        let decoded = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(f64::from_bits(decoded.queue.items[0].score_bits), tricky,);
    }
}
