//! Kill/resume integration test: hard-stop the daemon mid-epoch (the
//! simulated SIGKILL — the in-flight slice is abandoned, nothing is
//! flushed), restart from the state directory, and require the final
//! reports to be digest-identical to uninterrupted runs — including
//! after several kill cycles in a row — with a fully legal journaled
//! history for every campaign.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pdf_fleet::Fleet;
use pdf_serve::{
    fleet_config, journal_path, read_journal, transition, CampaignSpec, Daemon, DaemonConfig,
    Event, Phase,
};

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
        execs: 1_200,
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

#[test]
fn hard_kill_mid_epoch_then_restart_is_digest_identical() {
    let dir = tmpdir("kill-resume");
    let specs = [spec("arith", 11), spec("dyck", 12), spec("csv", 13)];
    let baselines: Vec<pdf_fleet::FleetReport> = specs.iter().map(baseline).collect();

    // Phase 1: submit everything, let the pool make real progress, then
    // yank the power cord mid-epoch.
    let ids: Vec<u64> = {
        let daemon = Daemon::open(DaemonConfig::persistent(2, &dir)).unwrap();
        let ids: Vec<u64> = specs
            .iter()
            .map(|s| daemon.submit(s.clone()).unwrap())
            .collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            let progressed = ids
                .iter()
                .filter(|&&id| daemon.status(id).unwrap().epoch >= 1)
                .count();
            if progressed >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // At least one campaign must still be mid-flight for the kill
        // to interrupt anything.
        assert!(
            ids.iter()
                .any(|&id| !daemon.status(id).unwrap().phase.is_terminal()),
            "campaigns finished before the kill; grow the execs budget"
        );
        daemon.hard_stop();
        ids
    };

    // Phase 2: two more kill cycles — restart, run a little, kill again.
    for cycle in 0..2u32 {
        let daemon = Daemon::open(DaemonConfig::persistent(2, &dir)).unwrap();
        std::thread::sleep(Duration::from_millis(20 + 30 * u64::from(cycle)));
        daemon.hard_stop();
    }

    // Phase 3: final restart runs everything to completion.
    let daemon = Daemon::open(DaemonConfig::persistent(2, &dir)).unwrap();
    assert!(daemon.wait_idle(Duration::from_secs(120)), "daemon wedged");
    for (id, base) in ids.iter().zip(&baselines) {
        let status = daemon.status(*id).unwrap();
        assert_eq!(status.phase, Phase::Done, "campaign {id} not done");
        assert_eq!(
            status.digest,
            Some(base.digest()),
            "campaign {id} diverged from its uninterrupted run"
        );
        assert_eq!(status.coverage, Some(base.coverage_digest()));
        assert_eq!(status.spent, base.total_execs);
    }
    assert_eq!(daemon.busy_slots(), 0);
    daemon.shutdown();

    // The journal must hold a legal, gap-free history per campaign,
    // the requeue edges from the kills, and the baseline digests on
    // the finish records.
    let records = read_journal(&journal_path(&dir)).unwrap();
    assert!(
        records.iter().any(|r| r.event == Event::Requeue),
        "kill cycles left no requeue edge in the journal"
    );
    for (id, base) in ids.iter().zip(&baselines) {
        let mut phase = None;
        for r in records.iter().filter(|r| r.status.id == *id) {
            phase = Some(match (phase, r.from) {
                (None, None) => Phase::Queued,
                (Some(p), Some(from)) => {
                    assert_eq!(from, p, "journal gap for {id} at seq {}", r.seq);
                    transition(from, r.event).expect("journaled transition is legal")
                }
                _ => panic!("seq {}: campaign {id} not opened by one submit", r.seq),
            });
            assert_eq!(phase, Some(r.status.phase));
            if r.event == Event::Finish {
                assert_eq!(r.status.digest, Some(base.digest()));
            }
        }
        assert_eq!(phase, Some(Phase::Done));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paused_campaign_survives_restart_paused() {
    let dir = tmpdir("kill-paused");
    let daemon = Daemon::open(DaemonConfig::persistent(1, &dir)).unwrap();
    // With a single worker, b waits queued behind a and can be paused
    // before it ever dispatches.
    let a = daemon.submit(spec("arith", 21)).unwrap();
    let b = daemon.submit(spec("dyck", 22)).unwrap();
    daemon.pause(b).unwrap();
    daemon.hard_stop();
    drop(daemon);

    let daemon = Daemon::open(DaemonConfig::persistent(1, &dir)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    while !daemon.status(a).unwrap().phase.is_terminal() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(daemon.status(a).unwrap().phase, Phase::Done);
    // b held its pause across the restart and never consumed budget
    // while paused.
    assert_eq!(daemon.status(b).unwrap().phase, Phase::Paused);
    daemon.resume(b).unwrap();
    assert!(daemon.wait_idle(Duration::from_secs(120)));
    let status = daemon.status(b).unwrap();
    assert_eq!(status.phase, Phase::Done);
    assert_eq!(status.digest, Some(baseline(&spec("dyck", 22)).digest()));
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
