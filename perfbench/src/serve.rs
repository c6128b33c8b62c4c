//! serve-mix: an in-process `pdfserved` with two worker slots, served over
//! loopback TCP to a closed loop of clients. Each client submits a
//! 2-shard tiered campaign, waits for `Done` on the streamed `watch`,
//! then submits the next; subjects rotate over the five evaluation
//! subjects. Loads the wire, scheduling, fleet sync and the tiered
//! driver path.
//!
//! The timed session runs an in-memory daemon: with a state directory the
//! latency is two-thirds checkpoint and journal file operations, whose
//! cost on a shared disk swings by a quarter from run to run. The traced
//! run adds a persistent twin session and reports the difference as
//! `serve.persist_ms_per_campaign`.
//!
//! The traced run's in-memory session traces every other campaign, so
//! `obs.trace_overhead` compares traced and untraced campaigns served
//! side by side under the same load.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pdf_core::ExecMode;
use pdf_fleet::{Fleet, FleetReport};
use pdf_obs::MetricsSnapshot;
use pdf_serve::{CampaignSpec, CampaignStatus, Daemon, DaemonConfig, Phase, ServeClient, Server};

use crate::stats::{median, mix, Outcome};
use crate::trace::{identity_table, ns_per_call, span_of, span_prefix_ns, Row, Tracer};
use crate::{latency_metrics, not_run, sink_layers, Run, GEN_LAYERS};

const SUBJECTS: [&str; 5] = ["ini", "csv", "cjson", "tinyC", "mjs"];

/// Worker slots of the daemon and closed-loop clients driving it.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;

/// How often the observer re-reads in-flight campaigns.
const OBSERVER_POLL: Duration = Duration::from_micros(500);

/// The campaign rotation: subjects cycle, seeds come from the workload
/// seed.
pub fn specs(seed: u64, n: usize, execs: u64, shards: u64, mode: ExecMode) -> Vec<CampaignSpec> {
    (0..n)
        .map(|k| CampaignSpec {
            shards,
            sync_every: pdf_serve::default_sync_every(execs, shards),
            exec_mode: mode,
            ..CampaignSpec::new(
                SUBJECTS[k % SUBJECTS.len()],
                mix(seed, 3 << 40 | k as u64),
                execs,
            )
        })
        .collect()
}

/// A started daemon and its TCP front end.
pub struct Service {
    daemon: Arc<Daemon>,
    server: Server,
    pub addr: String,
}

impl Service {
    /// Opens the daemon (persistent when `state_dir` is given), starts the
    /// server on a loopback port and waits until a client's ping answers.
    pub fn start(state_dir: Option<&Path>, workers: usize) -> Result<Service, String> {
        let cfg = match state_dir {
            Some(dir) => DaemonConfig::persistent(workers, dir),
            None => DaemonConfig::in_memory(workers),
        };
        let daemon = Arc::new(Daemon::open(cfg).map_err(|e| format!("open daemon: {e}"))?);
        let server = Server::start(Arc::clone(&daemon), "127.0.0.1:0")
            .map_err(|e| format!("start server: {e}"))?;
        let addr = server.local_addr().to_string();
        let mut client = ServeClient::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        client.ping().map_err(|e| format!("ping: {e}"))?;
        Ok(Service {
            daemon,
            server,
            addr,
        })
    }

    /// The daemon's own view of campaign `id`, read in-process.
    pub fn status(&self, id: u64) -> Option<CampaignStatus> {
        self.daemon.status(id)
    }

    pub fn registry(&self) -> MetricsSnapshot {
        self.daemon.registry().snapshot()
    }

    pub fn stop(mut self) {
        self.server.stop();
        self.daemon.shutdown();
    }
}

/// One finished campaign as a client saw it.
#[derive(Debug)]
pub struct Served {
    /// Index of its spec in the rotation.
    pub spec: usize,
    pub status: CampaignStatus,
    /// Submit to `Done`, in ms.
    pub latency_ms: f64,
    pub submitted: Instant,
    pub done: Instant,
    /// Whether the benchmark's tracer recorded its spans.
    pub traced: bool,
}

/// What one closed-loop session observed.
#[derive(Debug, Default)]
pub struct Session {
    pub campaigns: Vec<Served>,
    pub submit_ms: Vec<f64>,
    /// How long after `Done` the client's `watch` returned, in ms.
    pub watch_lag_ms: Vec<f64>,
    pub rtt_us: Vec<f64>,
    /// Client errors, with the index of the spec being served.
    pub client_errors: Vec<(usize, String)>,
    pub elapsed_s: f64,
}

impl Session {
    pub fn latencies(&self) -> Vec<f64> {
        self.campaigns.iter().map(|c| c.latency_ms).collect()
    }

    /// Latencies of the campaigns that were (or were not) traced.
    pub fn latencies_traced(&self, traced: bool) -> Vec<f64> {
        self.campaigns
            .iter()
            .filter(|c| c.traced == traced)
            .map(|c| c.latency_ms)
            .collect()
    }
}

/// Drives `clients` closed-loop clients against `service` until
/// `seconds` have passed and at least `min_campaigns` were submitted. A
/// prober client pings every 20 ms when `probe_rtt` is set. With a
/// `tracer`, every other campaign records its spans: submission `k`
/// is traced when its spec index plus its pass over the rotation is
/// even, so each spec alternates between traced and untraced.
///
/// Clients wait on the streamed `watch`, but the server re-reads a
/// watched campaign only every 25 ms, so its end lags `Done` by up to
/// that much. An observer thread therefore polls the daemon in-process
/// every 0.5 ms and timestamps `Done` itself; the lag is kept apart.
pub fn session(
    service: &Service,
    specs: &[CampaignSpec],
    clients: usize,
    seconds: f64,
    min_campaigns: usize,
    probe_rtt: bool,
    tracer: Option<&Tracer>,
) -> Session {
    let next = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let inflight: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let done_at: Mutex<BTreeMap<u64, Instant>> = Mutex::new(BTreeMap::new());
    let done_time = |id: u64| loop {
        if let Some(t) = done_at.lock().expect("observer poisoned").remove(&id) {
            return t;
        }
        std::thread::sleep(OBSERVER_POLL);
    };
    let start = Instant::now();
    let addr = service.addr.as_str();
    let mut out = Session::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut s = Session::default();
                    let mut client = None;
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        if k >= min_campaigns && start.elapsed().as_secs_f64() >= seconds {
                            return s;
                        }
                        let idx = k % specs.len();
                        let traced = tracer.filter(|_| (idx + k / specs.len()).is_multiple_of(2));
                        if client.is_none() {
                            match ServeClient::connect(addr) {
                                Ok(c) => client = Some(c),
                                Err(e) => {
                                    s.client_errors.push((idx, format!("connect: {e}")));
                                    continue;
                                }
                            }
                        }
                        let c = client.as_mut().expect("connected above");
                        let t0 = Instant::now();
                        let id = match c.submit(&specs[idx]) {
                            Ok(id) => id,
                            Err(e) => {
                                s.client_errors.push((idx, format!("submit: {e}")));
                                client = None;
                                continue;
                            }
                        };
                        let t1 = Instant::now();
                        s.submit_ms.push((t1 - t0).as_secs_f64() * 1e3);
                        inflight.lock().expect("observer poisoned").push(id);
                        match c.watch(id, |_| {}) {
                            Ok(status) => {
                                let t2 = Instant::now();
                                let at = done_time(id);
                                s.campaigns.push(Served {
                                    spec: idx,
                                    status,
                                    latency_ms: (at - t0).as_secs_f64() * 1e3,
                                    submitted: t0,
                                    done: at,
                                    traced: traced.is_some(),
                                });
                                s.watch_lag_ms
                                    .push(t2.saturating_duration_since(at).as_secs_f64() * 1e3);
                                if let Some(tr) = traced {
                                    let root = tr.record("serve.campaign", id, None, t0, t2);
                                    tr.record("serve.submit", id, Some(root), t0, t1);
                                    tr.record("serve.watch", id, Some(root), t1, t2);
                                }
                            }
                            Err(e) => {
                                s.client_errors.push((idx, format!("watch {id}: {e}")));
                                inflight
                                    .lock()
                                    .expect("observer poisoned")
                                    .retain(|&x| x != id);
                                client = None;
                            }
                        }
                    }
                })
            })
            .collect();
        let observer = scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                let ids = inflight.lock().expect("observer poisoned").clone();
                for id in ids {
                    if service.status(id).is_some_and(|st| st.phase.is_terminal()) {
                        let now = Instant::now();
                        done_at.lock().expect("observer poisoned").insert(id, now);
                        inflight
                            .lock()
                            .expect("observer poisoned")
                            .retain(|&x| x != id);
                    }
                }
                std::thread::sleep(OBSERVER_POLL);
            }
        });
        let prober = probe_rtt.then(|| {
            scope.spawn(|| {
                let mut rtt = Vec::new();
                let Ok(mut c) = ServeClient::connect(addr) else {
                    return rtt;
                };
                while !done.load(Ordering::SeqCst) {
                    let t = Instant::now();
                    if c.ping().is_ok() {
                        let end = Instant::now();
                        rtt.push((end - t).as_secs_f64() * 1e6);
                        if let Some(tr) = tracer {
                            tr.record("serve.ping", 0, None, t, end);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                rtt
            })
        });
        for w in workers {
            let s = w.join().expect("client thread panicked");
            out.campaigns.extend(s.campaigns);
            out.submit_ms.extend(s.submit_ms);
            out.watch_lag_ms.extend(s.watch_lag_ms);
            out.client_errors.extend(s.client_errors);
        }
        out.elapsed_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        observer.join().expect("observer thread panicked");
        if let Some(p) = prober {
            out.rtt_us = p.join().expect("prober thread panicked");
        }
    });
    out
}

/// The serial reference run of every spec, outside any timed window.
pub fn expected(specs: &[CampaignSpec]) -> Vec<FleetReport> {
    specs
        .iter()
        .map(|spec| {
            let subject = pdf_subjects::by_name(&spec.subject)
                .expect("rotation names evaluation subjects")
                .subject;
            Fleet::new(subject, pdf_serve::fleet_config(spec))
                .expect("valid fleet config")
                .run()
        })
        .collect()
}

/// Checks every served campaign: a spec fails when any of its campaigns
/// is not `Done` with the reference digest, or a client error hit it.
pub fn check(out: &mut Outcome, session: &Session, reference: &[FleetReport]) {
    for Served { spec, status, .. } in &session.campaigns {
        let want = reference[*spec].digest();
        if status.phase != Phase::Done || status.digest != Some(want) {
            out.fail(
                *spec as u64,
                format!(
                    "serve-mix campaign {} ({}): phase {:?} digest {:?}, reference {want:016x}",
                    status.id, status.spec.subject, status.phase, status.digest
                ),
            );
        }
    }
    for (idx, e) in &session.client_errors {
        out.fail(
            *idx as u64,
            format!("serve-mix client error on spec {idx}: {e}"),
        );
    }
}

fn state_dir(ctx: &Run, name: &str) -> PathBuf {
    ctx.state_root.join(name)
}

pub fn run(ctx: &Run, out: &mut Outcome) {
    let plan = &ctx.plan;
    let specs = specs(
        ctx.seed,
        plan.serve_specs,
        plan.serve_execs,
        2,
        ExecMode::Tiered,
    );

    // Set-up: Daemon::open plus Server::start, until a ping answers; the
    // last one serves the timed session.
    let mut setup = Vec::new();
    let mut service = None;
    for _ in 0..5 * plan.setups {
        let t = Instant::now();
        match Service::start(None, WORKERS) {
            Ok(s) => {
                setup.push(t.elapsed().as_secs_f64());
                if let Some(prev) = service.replace(s) {
                    prev.stop();
                }
            }
            Err(e) => out.errors.push(e),
        }
    }
    out.put("setup_s", median(&setup));
    let Some(service) = service else {
        return;
    };
    let clients = CLIENTS;
    let min = specs.len();
    out.items = specs.len() as u64;

    // The serial reference runs come after the sessions, outside every
    // timed window and without their heap in the sessions' memory peak.
    let (main, snap, reference) = if ctx.trace {
        // Half the time each: the in-memory session, every other
        // campaign traced, and the persistent twin that prices
        // persistence. The ping prober runs in both.
        let half = ctx.seconds / 2.0;
        let traced = session(
            &service,
            &specs,
            clients,
            half,
            min,
            true,
            Some(&ctx.tracer),
        );
        let snap = service.registry();
        service.stop();
        let dir = state_dir(ctx, "persistent");
        let (twin, twin_snap) = match Service::start(Some(&dir), WORKERS) {
            Ok(s) => {
                let t = session(&s, &specs, clients, half, min, true, None);
                let snap = s.registry();
                s.stop();
                (t, snap)
            }
            Err(e) => return out.errors.push(e),
        };
        let reference = expected(&specs);
        check(out, &twin, &reference);
        traced_layers(out, &traced, &twin, &snap, &twin_snap, &reference);
        out.note(format!(
            "serve-mix: persistent twin in {} on {}",
            dir.display(),
            crate::filesystem_of(&dir)
        ));
        (traced, snap, reference)
    } else {
        let s = session(&service, &specs, clients, ctx.seconds, min, false, None);
        let snap = service.registry();
        service.stop();
        (s, snap, expected(&specs))
    };

    check(out, &main, &reference);
    out.windows
        .extend(main.campaigns.iter().map(|c| (c.submitted, c.done)));
    let done: Vec<&CampaignStatus> = main
        .campaigns
        .iter()
        .filter(|c| c.status.phase == Phase::Done)
        .map(|c| &c.status)
        .collect();
    let spent: u64 = done.iter().map(|s| s.spent).sum();
    let escalations = snap.counter("tier.escalations").unwrap_or(0);
    out.put("execs_per_s", spent as f64 / main.elapsed_s);
    // No grammar generation runs here (flood-mjs measures it): the
    // driver's generated candidates are its executions minus the
    // escalations, which re-run an input the fast tier already screened.
    out.put(
        "gen_inputs_per_s",
        spent.saturating_sub(escalations) as f64 / main.elapsed_s,
    );
    out.put(
        "valid_branches",
        reference
            .iter()
            .map(|r| r.valid_branches.len())
            .sum::<usize>() as f64,
    );
    out.put(
        "valid_inputs",
        reference
            .iter()
            .map(|r| r.valid_inputs.len())
            .sum::<usize>() as f64,
    );
    latency_metrics(out, &main.latencies(), "campaign (submit to Done)");
    out.note(format!(
        "serve-mix: watch returned a median {:.3} ms after Done (the server re-reads \
         watched campaigns every 25 ms)",
        median(&main.watch_lag_ms)
    ));
    out.put("campaigns_per_s", done.len() as f64 / main.elapsed_s);
    out.note(format!(
        "serve-mix: {} specs x {} execs (2 shards, tiered), {clients} clients, {} workers, \
         {} campaigns in {:.3} s",
        specs.len(),
        plan.serve_execs,
        WORKERS,
        main.campaigns.len(),
        main.elapsed_s,
    ));
}

fn traced_layers(
    out: &mut Outcome,
    traced: &Session,
    twin: &Session,
    snap: &MetricsSnapshot,
    twin_snap: &MetricsSnapshot,
    reference: &[FleetReport],
) {
    let n = traced.campaigns.len().max(1) as f64;
    let latency_s: f64 = traced.latencies().iter().sum::<f64>() / 1e3;
    let counter = |name| snap.counter(name).unwrap_or(0) as f64;
    let ns = |name| span_of(snap, name).1 as f64 / 1e9;
    let runtime = snap.hist("exec.latency_ns").map_or(0, |h| h.sum) as f64 / 1e9;
    let compute = span_prefix_ns(snap, "serve.campaign") as f64 / 1e9;
    let p50 = |s: &Session| median(&s.latencies());
    let persist_ms = p50(twin) - p50(traced);
    let per_twin_campaign =
        |name| twin_snap.counter(name).unwrap_or(0) as f64 / twin.campaigns.len().max(1) as f64;

    out.put("core.pick.ns_per_call", ns_per_call(snap, "driver.pick"));
    out.put("core.pick.share", ns("driver.pick") / latency_s);
    out.put(
        "core.enqueue.ns_per_call",
        ns_per_call(snap, "driver.enqueue"),
    );
    out.put("core.enqueue.share", ns("driver.enqueue") / latency_s);
    out.put(
        "core.classify.ns_per_call",
        ns_per_call(snap, "driver.classify"),
    );
    out.put(
        "core.queue_depth.p50",
        snap.hist("driver.queue_depth")
            .map_or(0.0, |h| crate::stats::hist_quantile(h, 0.5)),
    );
    out.put(
        "core.tier.escalation_ratio",
        counter("tier.escalations") / counter("tier.fast_execs").max(1.0),
    );
    out.put("runtime.exec.share", runtime / latency_s);
    out.put(
        "runtime.input_len.p50",
        snap.hist("exec.input_len")
            .map_or(0.0, |h| crate::stats::hist_quantile(h, 0.5)),
    );
    let sync = snap.hist("fleet.sync_ns");
    out.put(
        "fleet.sync.ns_per_epoch",
        sync.map_or(0.0, |h| h.sum as f64 / h.count.max(1) as f64),
    );
    out.put("fleet.promotions", counter("fleet.promotions") / n);
    out.put("serve.wire_rtt_us", median(&traced.rtt_us));
    out.put("serve.submit_ms", median(&traced.submit_ms));
    out.put("serve.slice_compute.share", compute / latency_s);
    out.put("serve.persist_ms_per_campaign", persist_ms);
    out.put("serve.checkpoints", per_twin_campaign("serve.checkpoints"));
    out.put("serve.slices", counter("serve.slices") / n);
    let overhead = median(&traced.latencies_traced(true)) / median(&traced.latencies_traced(false));
    out.put("obs.trace_overhead", overhead);
    not_run(out, &GEN_LAYERS);

    let rows = vec![
        Row {
            layer: "pdf-fleet/pdf-core slice compute",
            self_s: compute - runtime,
            source: "serve.campaignNN spans - runtime",
        },
        Row {
            layer: "pdf-runtime exec",
            self_s: runtime,
            source: "exec.latency_ns histogram sum",
        },
        Row {
            layer: "pdf-serve submit round trip",
            self_s: traced.submit_ms.iter().sum::<f64>() / 1e3,
            source: "client spans",
        },
    ];
    identity_table(
        "serve-mix in-memory session (sum of campaign latencies)",
        latency_s,
        &rows,
        overhead,
        &mut out.notes,
    );
    out.note(format!(
        "serve-mix: p50 latency in-memory {:.3} ms vs persistent twin {:.3} ms over {} / {} \
         campaigns; persistence would be {:.1}% of the persistent latency",
        p50(traced),
        p50(twin),
        traced.campaigns.len(),
        twin.campaigns.len(),
        100.0 * persist_ms / p50(twin)
    ));

    // Each subject's valid inputs from the reference runs, with their
    // prefixes, for the sink probe.
    let corpora: Vec<(pdf_runtime::Subject, Vec<Vec<u8>>)> = reference
        .iter()
        .zip(SUBJECTS.iter().cycle())
        .map(|(r, name)| {
            let subject = pdf_subjects::by_name(name)
                .expect("evaluation subject")
                .subject;
            (subject, crate::probe::with_prefixes(&r.valid_inputs))
        })
        .collect();
    sink_layers(out, &corpora);
}
