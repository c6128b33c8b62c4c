//! The daemon's append-only campaign journal (`pdf-serve v2`).
//!
//! `<state_dir>/serve.journal` is the only durable record of the
//! daemon's campaigns. Every record carries the campaign's whole status
//! *after* its event, in the wire's [`status_fields`] encoding, so the
//! last record for an id is that campaign's state:
//!
//! ```text
//! pdf-serve v2
//! txn seq=0 ev=submit id=1 state=queued subject=arith seed=5 execs=400 shards=2 sync=60 mode=full epoch=0 spent=0 valid=0
//! txn seq=1 ev=dispatch from=queued id=1 state=running subject=arith ... valid=0
//! txn seq=2 ev=finish from=running id=1 state=done subject=arith ... digest=91aa50fe01c0ef2d coverage=07c1d2e3f4a5b6c7
//! ```
//!
//! A `submit` record has no `from` phase: it creates the campaign in
//! `Queued`. Every other record is one lifecycle transition. `seq` is
//! one global counter, dense across restarts. `finish` records carry
//! the final digest, coverage, epoch, spent and valid counts; `fail`
//! records carry the failure as `msg`. The journal is replayable:
//! [`read_journal`] re-parses every record, and the soak tests re-check
//! each transition against [`transition`](crate::lifecycle::transition).

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pdf_chaos::{ChaosWriter, FaultPlan, OpKind};

use crate::lifecycle::{Event, Phase};
use crate::wire::{
    encode_fields, lookup, parse_fields, parse_u64, require, status_fields, status_from_fields,
    CampaignStatus, WireError, RESPONSE_KEYS,
};

/// The journal header/version line.
pub const JOURNAL_HEADER: &str = "pdf-serve v2";

/// One journal record: a campaign's status right after an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Global sequence number, dense and increasing across restarts.
    pub seq: u64,
    /// The event that fired.
    pub event: Event,
    /// Phase before the event; `None` exactly on `submit` records.
    pub from: Option<Phase>,
    /// The campaign's status after the event (its id, its phase, and
    /// on `finish` its final digest).
    pub status: CampaignStatus,
}

impl JournalRecord {
    fn encode(&self) -> String {
        let mut fields = vec![
            ("seq".to_string(), self.seq.to_string()),
            ("ev".to_string(), self.event.name().to_string()),
        ];
        if let Some(from) = self.from {
            fields.push(("from".to_string(), from.name().to_string()));
        }
        fields.extend(status_fields(&self.status));
        encode_fields("txn", &fields)
    }

    fn decode(line: &str) -> Result<JournalRecord, WireError> {
        let rest = line
            .strip_prefix("txn ")
            .ok_or_else(|| WireError::BadResponse(format!("not a txn record: {line:?}")))?;
        let keys: Vec<&str> = ["seq", "ev", "from"]
            .into_iter()
            .chain(RESPONSE_KEYS)
            .collect();
        let fields = parse_fields(rest, &keys)?;
        let bad = |key: &str, reason: &str| WireError::BadValue {
            key: key.into(),
            reason: reason.into(),
        };
        let event =
            Event::parse(require(&fields, "ev")?).ok_or_else(|| bad("ev", "unknown event"))?;
        let from = lookup(&fields, "from")
            .map(|v| Phase::parse(v).ok_or_else(|| bad("from", "unknown phase")))
            .transpose()?;
        if from.is_none() != (event == Event::Submit) {
            return Err(bad("from", "required on every record but submit"));
        }
        Ok(JournalRecord {
            seq: parse_u64("seq", require(&fields, "seq")?)?,
            event,
            from,
            status: status_from_fields(&fields)?,
        })
    }
}

/// Append-only writer over `<state_dir>/serve.journal`.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    faults: Option<Arc<FaultPlan>>,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, positioning `seq` after
    /// the last persisted record so restarts continue the sequence.
    ///
    /// # Errors
    ///
    /// I/O errors, or a corrupt existing journal (restart paths that
    /// must survive a torn tail go through [`recover_journal`] first).
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        let next_seq = if path.exists() {
            read_journal(path)?.last().map(|r| r.seq + 1).unwrap_or(0)
        } else {
            let mut f = File::create(path)?;
            writeln!(f, "{JOURNAL_HEADER}")?;
            f.sync_all()?;
            sync_parent_dir(path)?;
            0
        };
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            next_seq,
            faults: None,
        })
    }

    /// Installs a fault plan: every subsequent [`append`](Self::append)
    /// consults it once for an injected torn write, ENOSPC or delay.
    pub fn set_faults(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan;
    }

    /// Appends one record and syncs it to disk: when this returns `Ok`,
    /// the record survives a crash.
    ///
    /// # Errors
    ///
    /// I/O errors from the write or the sync — including injected ones
    /// when a fault plan is installed. A failed append rolls the file
    /// back to its pre-append length (best effort), so a *live* daemon
    /// never leaves a torn line mid-journal; torn tails come only from
    /// hard kills, and [`recover_journal`] quarantines those on the
    /// next restart. `seq` is not consumed on failure, so the salvaged
    /// history stays gap-free.
    pub fn append(
        &mut self,
        event: Event,
        from: Option<Phase>,
        status: &CampaignStatus,
    ) -> std::io::Result<JournalRecord> {
        let record = JournalRecord {
            seq: self.next_seq,
            event,
            from,
            status: status.clone(),
        };
        let line = record.encode() + "\n";
        let rollback_to = self.file.metadata()?.len();
        let mut w = ChaosWriter::new(&mut self.file, self.faults.clone(), OpKind::JournalWrite);
        let wrote = w
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_data());
        if let Err(e) = wrote {
            let _ = self.file.set_len(rollback_to);
            return Err(e);
        }
        self.next_seq += 1;
        Ok(record)
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sequence number the next record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// Reads and parses the whole journal at `path`.
///
/// # Errors
///
/// I/O errors; parse failures surface as `InvalidData`.
pub fn read_journal(path: &Path) -> std::io::Result<Vec<JournalRecord>> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut lines = BufReader::new(File::open(path)?).lines();
    match lines.next() {
        Some(Ok(h)) if h == JOURNAL_HEADER => {}
        Some(Ok(h)) => return Err(invalid(format!("bad journal header {h:?}"))),
        Some(Err(e)) => return Err(e),
        None => return Err(invalid("empty journal (missing header)".into())),
    }
    let mut records = Vec::new();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        records.push(JournalRecord::decode(&line).map_err(|e| invalid(e.to_string()))?);
    }
    Ok(records)
}

/// Syncs the directory holding `path`, so a file just created or
/// renamed there survives a crash.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => File::open(dir)?.sync_all(),
        _ => Ok(()),
    }
}

/// `<path><suffix>`, appended to the full file name (unlike
/// `Path::with_extension`, which would *replace* `.journal`).
pub(crate) fn append_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// What [`recover_journal`] salvaged from a possibly-torn journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredJournal {
    /// The gap-free legal prefix: every record up to (not including)
    /// the first unparseable, unterminated or sequence-breaking line.
    pub records: Vec<JournalRecord>,
    /// Lines cut from the journal and appended to the quarantine file
    /// (zero when the journal was clean).
    pub quarantined_lines: usize,
    /// Where the torn tail went (`<journal>.quarantine`), present only
    /// when something was quarantined.
    pub quarantine_path: Option<PathBuf>,
}

/// Restart-safe journal read: salvages the longest gap-free prefix of
/// legal records and quarantines everything after it.
///
/// A hard kill mid-append leaves a torn final line; a torn storage
/// write can leave worse. Instead of refusing to restart (what
/// [`read_journal`] does), this cuts the journal at the first
/// unparseable line, the first sequence gap or a final line with no
/// newline (a prefix of a record can parse as a different record),
/// appends the cut tail to `<path>.quarantine` for post-mortems, and
/// rewrites the journal (tmp plus rename) to exactly the salvaged
/// prefix — after which [`Journal::open`] succeeds and continues the
/// sequence densely.
///
/// A missing file recovers to an empty journal. An unreadable *header*
/// quarantines the entire file; an empty one is given a header.
///
/// # Errors
///
/// Only real I/O errors (reading the journal, writing the quarantine
/// or the rewrite); corruption itself is never an error here.
pub fn recover_journal(path: &Path) -> std::io::Result<RecoveredJournal> {
    if !path.exists() {
        return Ok(RecoveredJournal {
            records: Vec::new(),
            quarantined_lines: 0,
            quarantine_path: None,
        });
    }
    // Read as raw bytes: a torn tail can hold arbitrary garbage, and
    // "not UTF-8" is corruption to quarantine, not an I/O failure.
    let bytes = std::fs::read(path)?;
    let mut lines: Vec<String> = bytes
        .split(|&b| b == b'\n')
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .collect();
    // Lines followed by a newline; a final line without one is torn.
    let complete = lines.len() - 1;
    if lines.last().is_some_and(String::is_empty) {
        lines.pop(); // the split artifact after a trailing newline
    }
    let header_ok = complete > 0 && lines[0] == JOURNAL_HEADER;
    let mut records = Vec::new();
    // Index of the first line that does NOT belong to the legal prefix.
    let mut cut = if header_ok { 1 } else { 0 };
    if header_ok {
        for (idx, line) in lines.iter().enumerate().take(complete).skip(1) {
            if line.trim().is_empty() {
                cut = idx + 1;
                continue;
            }
            match JournalRecord::decode(line) {
                Ok(r) if r.seq == records.len() as u64 => {
                    records.push(r);
                    cut = idx + 1;
                }
                _ => break,
            }
        }
    }
    let tail: Vec<&String> = lines.iter().skip(cut).collect();
    let mut quarantine_path = None;
    if !tail.is_empty() {
        let qpath = append_suffix(path, ".quarantine");
        let mut q = OpenOptions::new().create(true).append(true).open(&qpath)?;
        for line in &tail {
            writeln!(q, "{line}")?;
        }
        q.sync_all()?;
        quarantine_path = Some(qpath);
    }
    // Rewrite the journal to the salvaged prefix, atomically. A file
    // with no header (a crash can leave it empty) gets one.
    if !tail.is_empty() || !header_ok {
        let tmp = append_suffix(path, ".tmp");
        {
            let mut f = File::create(&tmp)?;
            writeln!(f, "{JOURNAL_HEADER}")?;
            for r in &records {
                writeln!(f, "{}", r.encode())?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)?;
    }
    Ok(RecoveredJournal {
        records,
        quarantined_lines: tail.len(),
        quarantine_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::CampaignSpec;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pdf-serve-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn status(id: u64, phase: Phase) -> CampaignStatus {
        CampaignStatus {
            id,
            phase,
            spec: CampaignSpec::new("arith", id, 400),
            epoch: 0,
            spent: 0,
            valid: 0,
            digest: None,
            coverage: None,
            error: None,
        }
    }

    fn finished(id: u64, digest: u64) -> CampaignStatus {
        CampaignStatus {
            epoch: 4,
            spent: 400,
            valid: 3,
            digest: Some(digest),
            coverage: Some(!digest),
            ..status(id, Phase::Done)
        }
    }

    #[test]
    fn append_and_read_round_trip() {
        let dir = tmpdir("rt");
        let path = dir.join("serve.journal");
        let mut j = Journal::open(&path).unwrap();
        let mut keyed = status(1, Phase::Queued);
        keyed.spec.idempotency_key = Some("k-1".into());
        keyed.spec.deadline_ms = Some(900);
        let failed = CampaignStatus {
            error: Some("epoch slice panicked: boom with spaces".into()),
            ..status(2, Phase::Failed)
        };
        let written = [
            j.append(Event::Submit, None, &keyed).unwrap(),
            j.append(
                Event::Dispatch,
                Some(Phase::Queued),
                &status(1, Phase::Running),
            )
            .unwrap(),
            j.append(Event::Finish, Some(Phase::Running), &finished(1, 0xabcd))
                .unwrap(),
            j.append(Event::Fail, Some(Phase::Running), &failed)
                .unwrap(),
        ];
        let records = read_journal(&path).unwrap();
        assert_eq!(records, written);
        assert_eq!(records[2].seq, 2);
        assert_eq!(records[2].status.digest, Some(0xabcd));
        assert_eq!(
            records[0].status.spec.idempotency_key.as_deref(),
            Some("k-1")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_is_required_exactly_off_submit_records() {
        let line = JournalRecord {
            seq: 0,
            event: Event::Submit,
            from: None,
            status: status(1, Phase::Queued),
        }
        .encode();
        assert!(JournalRecord::decode(&line).is_ok());
        let with_from = line.replace("ev=submit", "ev=submit from=queued");
        assert!(JournalRecord::decode(&with_from).is_err());
        let no_from = line.replace("ev=submit", "ev=dispatch");
        assert!(JournalRecord::decode(&no_from).is_err());
    }

    #[test]
    fn reopen_continues_sequence() {
        let dir = tmpdir("seq");
        let path = dir.join("serve.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(Event::Submit, None, &status(7, Phase::Queued))
                .unwrap();
            assert_eq!(j.next_seq(), 1);
        }
        {
            let mut j = Journal::open(&path).unwrap();
            assert_eq!(j.next_seq(), 1);
            let r = j
                .append(Event::Pause, Some(Phase::Queued), &status(7, Phase::Paused))
                .unwrap();
            assert_eq!(r.seq, 1);
        }
        let records = read_journal(&path).unwrap();
        assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_salvages_prefix_and_quarantines_tail() {
        let dir = tmpdir("recover");
        let path = dir.join("serve.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(Event::Submit, None, &status(1, Phase::Queued))
                .unwrap();
            j.append(
                Event::Dispatch,
                Some(Phase::Queued),
                &status(1, Phase::Running),
            )
            .unwrap();
        }
        // Simulate a hard kill mid-append: a torn final line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("txn seq=2 ev=finish from=running id=1 state=dispa");
        std::fs::write(&path, &text).unwrap();

        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.quarantined_lines, 1);
        let qpath = rec.quarantine_path.unwrap();
        assert!(std::fs::read_to_string(&qpath)
            .unwrap()
            .contains("state=dispa"));

        // The rewritten journal is clean and continues the sequence.
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.next_seq(), 2);
        j.append(Event::Submit, None, &status(2, Phase::Queued))
            .unwrap();
        assert_eq!(read_journal(&path).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unterminated_final_line_is_torn_even_when_it_parses() {
        let dir = tmpdir("unterminated");
        let path = dir.join("serve.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(Event::Submit, None, &status(1, Phase::Queued))
                .unwrap();
            j.append(
                Event::Dispatch,
                Some(Phase::Queued),
                &status(1, Phase::Running),
            )
            .unwrap();
            j.append(Event::Finish, Some(Phase::Running), &finished(1, 0xfeed))
                .unwrap();
        }
        // Cut the last record inside its coverage digest: the prefix is
        // a well-formed record with the wrong coverage.
        let text = std::fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - 5];
        assert!(JournalRecord::decode(torn.lines().last().unwrap()).is_ok());
        std::fs::write(&path, torn).unwrap();

        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.quarantined_lines, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_cuts_at_sequence_gap() {
        let dir = tmpdir("gap");
        let path = dir.join("serve.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(Event::Submit, None, &status(1, Phase::Queued))
                .unwrap();
            j.append(
                Event::Dispatch,
                Some(Phase::Queued),
                &status(1, Phase::Running),
            )
            .unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("txn seq=1 ", "txn seq=5 ")).unwrap();
        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.quarantined_lines, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_of_clean_or_missing_journal_is_a_no_op() {
        let dir = tmpdir("clean");
        let path = dir.join("serve.journal");
        assert_eq!(recover_journal(&path).unwrap().records.len(), 0);
        assert!(!path.exists(), "recovery must not invent a journal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(Event::Submit, None, &status(1, Phase::Queued))
                .unwrap();
        }
        let before = std::fs::read_to_string(&path).unwrap();
        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.quarantined_lines, 0);
        assert_eq!(rec.quarantine_path, None);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_quarantines_whole_file_on_bad_header() {
        let dir = tmpdir("hdr");
        let path = dir.join("serve.journal");
        std::fs::write(&path, "not-a-journal\ngarbage\n").unwrap();
        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.records.len(), 0);
        assert_eq!(rec.quarantined_lines, 2);
        assert!(read_journal(&path).unwrap().is_empty());
        // A crash between creating the file and syncing its header.
        std::fs::write(&path, "").unwrap();
        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.quarantined_lines, 0);
        assert!(Journal::open(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_rolls_back_and_journal_stays_clean() {
        let dir = tmpdir("torn-append");
        let path = dir.join("serve.journal");
        let mut j = Journal::open(&path).unwrap();
        j.append(Event::Submit, None, &status(1, Phase::Queued))
            .unwrap();
        // Every storage write tears: the append must fail but leave the
        // journal exactly as it was, with seq unconsumed.
        j.set_faults(Some(std::sync::Arc::new(pdf_chaos::FaultPlan::new(
            3,
            pdf_chaos::FaultSpec {
                torn_write_per_mille: 1000,
                ..pdf_chaos::FaultSpec::QUIET
            },
        ))));
        let running = status(1, Phase::Running);
        let err = j
            .append(Event::Dispatch, Some(Phase::Queued), &running)
            .unwrap_err();
        assert!(pdf_chaos::is_injected(&err), "unexpected error {err}");
        assert_eq!(j.next_seq(), 1);
        j.set_faults(None);
        let r = j
            .append(Event::Dispatch, Some(Phase::Queued), &running)
            .unwrap();
        assert_eq!(r.seq, 1);
        assert_eq!(read_journal(&path).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journal_rejected() {
        let dir = tmpdir("bad");
        let path = dir.join("serve.journal");
        std::fs::write(
            &path,
            format!("{JOURNAL_HEADER}\ntxn seq=0 ev=warp from=queued id=1 state=running\n"),
        )
        .unwrap();
        assert!(read_journal(&path).is_err());
        std::fs::write(&path, "not-a-journal\n").unwrap();
        assert!(read_journal(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
