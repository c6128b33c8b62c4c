//! Torn-state recovery suite: deterministic damage to each durable
//! artifact — journal tail, checkpoint generations, a journal write
//! refused under a submit — followed by a restart that must salvage
//! what is legal, quarantine what is not, and still reproduce the
//! fault-free digests. These are the targeted companions to the
//! randomized chaos soak: every recovery path in the fault model gets
//! its own worst case here.

use std::path::PathBuf;
use std::sync::Arc;

use pdf_chaos::{FaultKind, OpKind};
use pdf_fleet::Fleet;
use pdf_serve::{
    checkpoint_dir, fleet_config, journal_path, prev_checkpoint_dir, read_journal, CampaignSpec,
    Daemon, DaemonConfig, FaultPlan, FaultSpec, Phase, ServeError,
};
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdf-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(subject: &str, seed: u64) -> CampaignSpec {
    CampaignSpec {
        subject: subject.into(),
        seed,
        execs: 600,
        shards: 2,
        sync_every: 50,
        exec_mode: pdf_core::ExecMode::Full,
        deadline_ms: None,
        idempotency_key: None,
    }
}

fn baseline(spec: &CampaignSpec) -> pdf_fleet::FleetReport {
    let info = pdf_subjects::by_name(&spec.subject).unwrap();
    Fleet::new(info.subject, fleet_config(spec)).unwrap().run()
}

/// Runs `spec` on a fresh persistent daemon until it has at least two
/// checkpoint epochs behind it, then hard-kills. Returns the id.
fn run_then_kill(dir: &PathBuf, spec: &CampaignSpec) -> u64 {
    let daemon = Daemon::open(DaemonConfig::persistent(2, dir)).unwrap();
    let id = daemon.submit(spec.clone()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while daemon.status(id).unwrap().epoch < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "campaign never reached epoch 2"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.hard_stop();
    id
}

fn finish(dir: &PathBuf, id: u64, spec: &CampaignSpec) -> pdf_serve::CampaignStatus {
    let daemon = Daemon::open(DaemonConfig::persistent(2, dir)).unwrap();
    assert!(daemon.wait_idle(Duration::from_secs(120)), "daemon wedged");
    let status = daemon.status(id).unwrap();
    assert_eq!(status.phase, Phase::Done);
    let base = baseline(spec);
    assert_eq!(status.digest, Some(base.digest()), "digest diverged");
    assert_eq!(status.coverage, Some(base.coverage_digest()));
    daemon.shutdown();
    status
}

#[test]
fn corrupt_current_checkpoint_falls_back_one_epoch() {
    let dir = tmpdir("torn-ck-cur");
    let spec = spec("dyck", 41);
    let id = run_then_kill(&dir, &spec);

    // Tear the current generation mid-manifest; ck.prev stays legal.
    let manifest = checkpoint_dir(&dir, id).join(pdf_fleet::MANIFEST_FILE);
    let text = std::fs::read(&manifest).unwrap();
    assert!(prev_checkpoint_dir(&dir, id)
        .join(pdf_fleet::MANIFEST_FILE)
        .exists());
    std::fs::write(&manifest, &text[..text.len() / 2]).unwrap();

    finish(&dir, id, &spec);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn both_checkpoint_generations_corrupt_restarts_fresh_and_identical() {
    let dir = tmpdir("torn-ck-both");
    let spec = spec("arith", 42);
    let id = run_then_kill(&dir, &spec);

    // No generation survives: the fallback chain is exhausted and the
    // daemon must quarantine both and rerun from exec zero — losing
    // time, never results, because the fleet is deterministic.
    for ck in [checkpoint_dir(&dir, id), prev_checkpoint_dir(&dir, id)] {
        let manifest = ck.join(pdf_fleet::MANIFEST_FILE);
        if manifest.exists() {
            std::fs::write(&manifest, b"pdf-fleet v1\ngarbage beyond repair\n").unwrap();
        }
    }

    finish(&dir, id, &spec);
    // The wreckage was set aside for post-mortem, not deleted.
    let campaign_dir = checkpoint_dir(&dir, id);
    let campaign_dir = campaign_dir.parent().unwrap();
    let quarantined = std::fs::read_dir(campaign_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .any(|e| e.file_name().to_string_lossy().contains("quarantine"));
    assert!(quarantined, "corrupt checkpoints were not quarantined");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_less_generation_without_fallback_reruns_identically() {
    let dir = tmpdir("torn-ck-manifest");
    let spec = spec("csv", 40);
    let id = run_then_kill(&dir, &spec);

    // What ENOSPC at a campaign's first checkpoint leaves: a `ck/`
    // whose manifest never reached the disk, and no older generation.
    let _ = std::fs::remove_dir_all(prev_checkpoint_dir(&dir, id));
    std::fs::remove_file(checkpoint_dir(&dir, id).join(pdf_fleet::MANIFEST_FILE)).unwrap();

    finish(&dir, id, &spec);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_journal_tail_is_quarantined_and_history_preserved() {
    let dir = tmpdir("torn-journal");
    let spec = spec("ini", 43);
    let id = run_then_kill(&dir, &spec);

    // A hard kill mid-append leaves a torn line; pile on worse: raw
    // binary garbage and a syntactically valid record with a seq gap.
    let journal = journal_path(&dir);
    let before = read_journal(&journal).unwrap().len();
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .unwrap();
    f.write_all(b"txn seq=9999 id=1 ev=start from=queued to=running\n")
        .unwrap();
    f.write_all(&[0xff, 0xfe, 0x00, 0x41, 0x0a]).unwrap();
    f.write_all(b"txn seq=").unwrap(); // torn mid-line, no newline
    drop(f);

    finish(&dir, id, &spec);

    // The salvaged prefix kept every legal record, the tail went to
    // the quarantine file, and the rewritten journal parses clean and
    // then kept growing through the finishing run.
    let quarantine = journal.with_file_name("serve.journal.quarantine");
    assert!(quarantine.exists(), "no quarantine file at {quarantine:?}");
    let recovered = read_journal(&journal).unwrap();
    assert!(
        recovered.len() > before,
        "journal lost salvageable history ({} <= {before})",
        recovered.len()
    );
    for (i, r) in recovered.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "seq gap survived recovery");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_on_submit_then_kill_keeps_the_acknowledged_campaign() {
    let dir = tmpdir("enospc-submit");
    let spec = CampaignSpec {
        idempotency_key: Some("enospc-submit".into()),
        ..spec("csv", 44)
    };
    // A schedule whose first journal write hits ENOSPC and whose
    // second goes through.
    let rates = FaultSpec {
        enospc_per_mille: 500,
        ..FaultSpec::QUIET
    };
    let plan = (0..)
        .map(|seed| FaultPlan::new(seed, rates))
        .find(|p| {
            p.schedule_for(OpKind::JournalWrite, 0).map(|f| f.kind) == Some(FaultKind::Enospc)
                && p.schedule_for(OpKind::JournalWrite, 1).is_none()
        })
        .unwrap();

    let daemon =
        Daemon::open(DaemonConfig::persistent(2, &dir).with_faults(Arc::new(plan))).unwrap();
    let refused = daemon.submit(spec.clone());
    assert!(
        matches!(refused, Err(ServeError::Unavailable { .. })),
        "submit with an unwritable record answered {refused:?}"
    );
    let id = daemon.submit(spec.clone()).unwrap();
    // Kill right after the acknowledgement: the campaign must survive
    // on its submit record alone.
    daemon.hard_stop();
    drop(daemon);

    finish(&dir, id, &spec);
    let _ = std::fs::remove_dir_all(&dir);
}
