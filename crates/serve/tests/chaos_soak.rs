//! Chaos soak: dozens of campaigns run to completion while a seeded
//! [`FaultPlan`] actively tears journal lines, fails journal and
//! checkpoint writes with `ENOSPC`, truncates and drops socket frames,
//! and stalls everything at random — plus one hard kill and restart in
//! the middle, so recovery itself runs under fault injection. The bar
//! is the same as the quiet soak's: every campaign ends `Done` and
//! every digest is byte-identical to its fault-free serial baseline.
//! Chaos may cost retries and degraded writes; it may never cost an
//! acknowledged campaign or its coverage results. The soak sweeps a
//! fixed list of plan seeds, so a failure names a seed that replays
//! the same fault schedule.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pdf_fleet::Fleet;
use pdf_serve::{
    fleet_config, CampaignSpec, Daemon, DaemonConfig, FaultPlan, FaultSpec, Phase, RetryClient,
    RetryPolicy, Server, ServerConfig,
};

const CAMPAIGNS: u64 = 32;
const WORKERS: usize = 4;
const SUBJECTS: [&str; 4] = ["arith", "dyck", "ini", "csv"];
const CHAOS_SEEDS: [u64; 5] = [0xC4A0_55EE, 1, 2, 5, 8];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdf-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec_for(i: u64) -> CampaignSpec {
    CampaignSpec {
        subject: SUBJECTS[(i % SUBJECTS.len() as u64) as usize].into(),
        seed: 7000 + i,
        execs: 150,
        shards: 1 + (i % 2),
        sync_every: 30,
        exec_mode: pdf_core::ExecMode::Full,
        deadline_ms: None,
        idempotency_key: None,
    }
}

fn patient() -> RetryPolicy {
    RetryPolicy {
        max_retries: 24,
        ..RetryPolicy::default()
    }
}

#[test]
fn chaos_soak_matches_fault_free_baselines() {
    for seed in CHAOS_SEEDS {
        soak_one_seed(seed);
    }
}

fn soak_one_seed(seed: u64) {
    let dir = tmpdir(&format!("chaos-soak-{seed:x}"));
    let plan = Arc::new(FaultPlan::new(seed, FaultSpec::SOAK));
    let server_cfg = || ServerConfig {
        faults: Some(Arc::clone(&plan)),
        ..ServerConfig::default()
    };
    let start = || {
        let cfg = DaemonConfig::persistent(WORKERS, &dir).with_faults(Arc::clone(&plan));
        let daemon = Arc::new(
            Daemon::open(cfg).unwrap_or_else(|e| panic!("seed {seed:#x}: open failed: {e}")),
        );
        let server = Server::start_with(Arc::clone(&daemon), "127.0.0.1:0", server_cfg())
            .unwrap_or_else(|e| panic!("seed {seed:#x}: server start failed: {e}"));
        (daemon, server)
    };

    // Phase 1: submit the whole burst over chaotic sockets. Every
    // submission rides the retrying client, so injected disconnects
    // and short reads cost reconnects, and the auto idempotency key
    // keeps a retried submit from forking a duplicate campaign.
    let (daemon, mut server) = start();
    let mut client = RetryClient::with_policy(&server.local_addr().to_string(), patient());
    let ids: Vec<u64> = (0..CAMPAIGNS)
        .map(|i| {
            client
                .submit(&spec_for(i))
                .unwrap_or_else(|e| panic!("seed {seed:#x}: submit {i} failed: {e}"))
        })
        .collect();

    // Stream one campaign's progress through the chaos: the watch must
    // survive mid-stream drops by reconnecting (ticks may repeat) and
    // still deliver a terminal row.
    let watched = client
        .watch(ids[0], |_| {})
        .unwrap_or_else(|e| panic!("seed {seed:#x}: watch failed: {e}"));
    assert!(
        watched.phase.is_terminal(),
        "seed {seed:#x}: watch returned {watched:?}"
    );

    // Phase 2: yank the power cord while the pool is busy, leaving
    // whatever torn tails and half-rotated checkpoints the fault plan
    // produced, then restart on the same directory — recovery has to
    // dig the service out of chaos-damaged state.
    daemon.hard_stop();
    server.stop();
    drop(client);
    let (daemon, mut server) = start();
    let mut client = RetryClient::with_policy(&server.local_addr().to_string(), patient());

    // Phase 3: drain to completion (chaos still active) and hold every
    // campaign to its fault-free serial baseline.
    assert!(
        daemon.wait_idle(Duration::from_secs(240)),
        "seed {seed:#x}: daemon wedged under chaos"
    );
    for (i, id) in ids.iter().enumerate() {
        let status = client
            .status(*id)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: status of campaign {id} failed: {e}"));
        assert_eq!(
            status.phase,
            Phase::Done,
            "seed {seed:#x}: campaign {id} ended {status:?}"
        );
        let spec = spec_for(i as u64);
        let info = pdf_subjects::by_name(&spec.subject).unwrap();
        let base = Fleet::new(info.subject, fleet_config(&spec)).unwrap().run();
        assert_eq!(
            status.digest,
            Some(base.digest()),
            "seed {seed:#x}: campaign {id} ({}/{}) diverged from its fault-free baseline",
            spec.subject,
            spec.seed
        );
        assert_eq!(
            status.coverage,
            Some(base.coverage_digest()),
            "seed {seed:#x}: campaign {id} coverage"
        );
        assert_eq!(
            status.spent, base.total_execs,
            "seed {seed:#x}: campaign {id} spent"
        );
    }
    assert_eq!(daemon.busy_slots(), 0, "seed {seed:#x}: busy slots");

    // The run must have actually been chaotic, and absorbed it: faults
    // fired, and the client needed its retry loop.
    assert!(
        plan.injected() > 0,
        "seed {seed:#x}: fault plan never fired"
    );
    eprintln!(
        "chaos soak seed {seed:#x}: {} faults injected, {} client retries, degraded writes {}, \
         journal lines recovered {}, checkpoints quarantined {}",
        plan.injected(),
        client.retries(),
        daemon.registry().serve_write_degraded.get(),
        daemon.registry().serve_journal_recovered.get(),
        daemon.registry().serve_checkpoint_quarantined.get(),
    );

    server.stop();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
