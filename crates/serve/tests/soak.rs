//! Soak test: a few hundred small campaigns thrown at one daemon over
//! real loopback sockets, with randomly interleaved pause / resume /
//! cancel meddling from concurrent connections. At the end every
//! campaign must be terminal, every completed campaign's digest must
//! equal its serial single-process baseline, the worker pool's slots
//! must all be back, and the journal must hold a legal history for
//! every campaign the daemon ever saw.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdf_fleet::Fleet;
use pdf_serve::{
    fleet_config, journal_path, read_journal, transition, CampaignSpec, Daemon, DaemonConfig,
    Phase, ServeClient, Server,
};

const CAMPAIGNS: u64 = 208;
const WORKERS: usize = 4;
const SUBJECTS: [&str; 4] = ["arith", "dyck", "ini", "csv"];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdf-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec_for(i: u64) -> CampaignSpec {
    CampaignSpec {
        subject: SUBJECTS[(i % SUBJECTS.len() as u64) as usize].into(),
        seed: 1000 + i,
        execs: 120,
        shards: 1,
        sync_every: 30,
        exec_mode: pdf_core::ExecMode::Full,
        deadline_ms: None,
        idempotency_key: None,
    }
}

/// Deterministic meddling RNG (splitmix-style); the interleaving is
/// random-looking but reproducible for a given seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn soak_two_hundred_campaigns_with_meddling() {
    let dir = tmpdir("soak");
    let daemon = Arc::new(Daemon::open(DaemonConfig::persistent(WORKERS, &dir)).unwrap());
    let mut server = Server::start(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    // Submit the whole burst over several connections, round-robin.
    let mut submitters: Vec<ServeClient> = (0..4)
        .map(|_| ServeClient::connect(&addr).unwrap())
        .collect();
    let mut ids: Vec<u64> = Vec::new();
    for i in 0..CAMPAIGNS {
        let client = &mut submitters[(i % 4) as usize];
        ids.push(client.submit(&spec_for(i)).unwrap());
    }
    assert_eq!(ids.len(), CAMPAIGNS as usize);

    // Meddle from two concurrent connections while the pool churns:
    // random pause / resume / cancel requests against random campaigns.
    // Illegal transitions are expected (the campaign may have finished
    // first) — they must come back as clean wire errors, never wedge a
    // connection or the daemon.
    let meddlers: Vec<std::thread::JoinHandle<u64>> = (0..2u64)
        .map(|m| {
            let addr = addr.clone();
            let ids = ids.clone();
            std::thread::spawn(move || {
                let mut rng = Lcg(0x9e3779b97f4a7c15 ^ m);
                let mut client = ServeClient::connect(&addr).unwrap();
                let mut requests = 0u64;
                for _ in 0..300 {
                    let id = ids[rng.below(ids.len() as u64) as usize];
                    let r = match rng.below(10) {
                        0..=3 => client.pause(id),
                        4..=7 => client.resume(id),
                        8 => client.cancel(id),
                        _ => client.status(id).map(|s| s.phase.to_string()),
                    };
                    match r {
                        Ok(_) | Err(pdf_serve::ClientError::Server { .. }) => requests += 1,
                        Err(e) => panic!("meddler {m} transport failure: {e}"),
                    }
                    if rng.below(3) == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                requests
            })
        })
        .collect();
    for h in meddlers {
        assert_eq!(h.join().expect("meddler panicked"), 300);
    }

    // Drain: keep resuming whatever the meddlers left paused until
    // every campaign is terminal.
    let mut control = ServeClient::connect(&addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let all = control.list().unwrap();
        assert_eq!(all.len(), CAMPAIGNS as usize);
        let open: Vec<_> = all.iter().filter(|s| !s.phase.is_terminal()).collect();
        if open.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{} campaigns still open after drain deadline",
            open.len()
        );
        for s in open {
            if s.phase == Phase::Paused {
                let _ = control.resume(s.id);
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Every campaign terminal; completed ones digest-identical to a
    // serial in-process baseline of the same spec.
    let final_states = control.list().unwrap();
    let mut done = 0u64;
    let mut cancelled = 0u64;
    let mut baselines: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, id) in ids.iter().enumerate() {
        let status = final_states.iter().find(|s| s.id == *id).unwrap();
        assert!(status.phase.is_terminal());
        match status.phase {
            Phase::Done => {
                done += 1;
                let spec = spec_for(i as u64);
                let digest = *baselines.entry(i as u64).or_insert_with(|| {
                    let info = pdf_subjects::by_name(&spec.subject).unwrap();
                    Fleet::new(info.subject, fleet_config(&spec))
                        .unwrap()
                        .run()
                        .digest()
                });
                assert_eq!(
                    status.digest,
                    Some(digest),
                    "campaign {id} ({}/{}) diverged from serial baseline",
                    spec.subject,
                    spec.seed
                );
            }
            Phase::Cancelled => cancelled += 1,
            other => panic!("campaign {id} ended {other:?}"),
        }
    }
    // The meddlers' cancel rate is low; most of the burst must complete.
    assert!(done >= CAMPAIGNS / 2, "only {done} campaigns completed");
    eprintln!(
        "soak: {done} done, {cancelled} cancelled, {} baselines checked",
        baselines.len()
    );

    // Every pool slot is back and nothing is left schedulable.
    assert_eq!(daemon.busy_slots(), 0);
    assert_eq!(daemon.active_len(), 0);

    server.stop();
    daemon.shutdown();

    // The journal holds a gap-free legal history for every campaign,
    // each opened by its submit record.
    let records = read_journal(&journal_path(&dir)).unwrap();
    let mut phases: BTreeMap<u64, Phase> = BTreeMap::new();
    for r in &records {
        let id = r.status.id;
        let next = match (phases.get(&id), r.from) {
            (None, None) => Phase::Queued,
            (Some(&phase), Some(from)) => {
                assert_eq!(from, phase, "journal gap for {id} at seq {}", r.seq);
                transition(from, r.event).expect("journaled transition is legal")
            }
            _ => panic!("seq {}: campaign {id} not opened by one submit", r.seq),
        };
        assert_eq!(next, r.status.phase);
        phases.insert(id, next);
    }
    assert_eq!(phases.len(), CAMPAIGNS as usize);
    assert!(phases.values().all(|p| p.is_terminal()));
    let _ = std::fs::remove_dir_all(&dir);
}
