//! explore-mjs: single-threaded pFuzzer campaigns on mjs in the paper's
//! default full-instrumentation mode, driven by `Fuzzer::run_until`
//! slices. Loads the driver, the candidate queue and the last-failure
//! exec path; no generation, wire or disk.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use pdf_core::{CampaignBudget, DriverConfig, FuzzReport, Fuzzer, StopReason};
use pdf_runtime::{BranchSet, Subject};

use crate::plan::Plan;
use crate::stats::{median, mix, total_rate, Outcome};
use crate::trace::{identity_table, ns_per_call, span_of, Registry, Row};
use crate::{latency_metrics, not_run, sink_layers, Run, FLEET_LAYERS, GEN_LAYERS, SERVE_LAYERS};

/// Executions per `run_until` slice; the queue depth is sampled at each
/// pause.
const SLICE: u64 = 500;

/// One round of campaigns outlasts the run time, so a run times one
/// round and then every `REPEAT_EVERY`-th campaign again, also timed,
/// to check that it reproduces.
const REPEAT_EVERY: usize = 8;

/// Seed of the warm-up campaign and the set-up repetitions.
const WARM_UP_SEED: u64 = 0x5741_524d; // "WARM"

pub fn mjs() -> Subject {
    pdf_subjects::by_name("mjs")
        .expect("mjs is an evaluation subject")
        .subject
}

fn config(seed: u64, execs: u64) -> DriverConfig {
    DriverConfig {
        seed,
        max_execs: execs,
        ..DriverConfig::default()
    }
}

/// Runs one campaign to its budget in `slice`-execution steps, calling
/// `at_pause` with the queue depth at every pause.
fn campaign(
    subject: Subject,
    seed: u64,
    execs: u64,
    slice: u64,
    mut at_pause: impl FnMut(usize),
) -> FuzzReport {
    let mut fuzzer = Fuzzer::new(subject, config(seed, execs));
    loop {
        let stop = fuzzer.run_until(&CampaignBudget::execs(fuzzer.execs() + slice));
        if stop == StopReason::Finished {
            return fuzzer.into_report();
        }
        at_pause(fuzzer.sync_point().queue_len());
    }
}

pub fn run(ctx: &Run, out: &mut Outcome) {
    let plan: &Plan = &ctx.plan;
    let subject = mjs();
    let seeds: Vec<u64> = (0..plan.explore_campaigns as u64)
        .map(|i| mix(ctx.seed, i))
        .collect();

    // Untimed warm-up: one whole campaign with a fixed seed, so page
    // faults and cold caches land before anything is timed.
    black_box(campaign(subject, WARM_UP_SEED, plan.explore_execs, SLICE, |_| {}).digest());

    // Set-up: `Fuzzer::new` and its first slice, with fixed seeds, so
    // set-up does the same work whatever the workload seed.
    let setup: Vec<f64> = (0..plan.setups as u64)
        .map(|r| {
            let t = Instant::now();
            let mut fuzzer = Fuzzer::new(subject, config(mix(WARM_UP_SEED, r), plan.explore_execs));
            fuzzer.run_until(&CampaignBudget::execs(SLICE));
            black_box(fuzzer.execs());
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.put("setup_s", median(&setup));

    let mut first: Vec<Option<FuzzReport>> = vec![None; seeds.len()];
    let mut check = |i: usize, report: FuzzReport, out: &mut Outcome, what: &str| match &first[i] {
        None => first[i] = Some(report),
        Some(f) => {
            let (a, b) = (f.digest(), report.digest());
            if a != b {
                out.fail(
                    i as u64,
                    format!("explore-mjs campaign {i}: {what} digest {b:016x} != {a:016x}"),
                );
            }
        }
    };

    let (samples, elapsed) = if ctx.trace {
        // The first half of the campaigns, each once untraced and once
        // traced (so the run stays well inside its time limit); even
        // campaigns untraced first, odd ones traced first, so drift
        // during the run weighs on both passes alike.
        let traced_seeds = &seeds[..seeds.len().div_ceil(2)];
        let registry = Registry::new();
        let mut depths = Vec::new();
        let mut traced_s = vec![0.0; traced_seeds.len()];
        let mut untraced_s = vec![0.0; traced_seeds.len()];
        for (i, &seed) in traced_seeds.iter().enumerate() {
            for traced in [i % 2 == 1, i % 2 == 0] {
                let t = Instant::now();
                let report = if traced {
                    let _scope = registry.install();
                    let r = campaign(subject, seed, plan.explore_execs, SLICE, |q| {
                        depths.push(q as f64)
                    });
                    ctx.tracer
                        .record("core.campaign", i as u64, None, t, Instant::now());
                    traced_s[i] = t.elapsed().as_secs_f64();
                    r
                } else {
                    let r = campaign(subject, seed, plan.explore_execs, SLICE, |_| {});
                    untraced_s[i] = t.elapsed().as_secs_f64();
                    r
                };
                check(i, report, out, if traced { "traced" } else { "untraced" });
            }
        }
        let snap = registry.reg.snapshot();
        let traced_total: f64 = traced_s.iter().sum();
        let untraced_total: f64 = untraced_s.iter().sum();
        let reports: Vec<&FuzzReport> = first.iter().flatten().collect();
        traced_layers(out, &snap, &reports, traced_total, untraced_total, &depths);
        (traced_s.iter().map(|&s| vec![s]).collect(), traced_total)
    } else {
        let order = (0..seeds.len()).chain((0..seeds.len()).step_by(REPEAT_EVERY));
        let mut samples = vec![Vec::new(); seeds.len()];
        let start = Instant::now();
        for i in order {
            let t = Instant::now();
            let r = campaign(subject, seeds[i], plan.explore_execs, SLICE, |_| {});
            samples[i].push(t.elapsed().as_secs_f64());
            out.window(t);
            check(i, r, out, "repeat");
        }
        (samples, start.elapsed().as_secs_f64())
    };

    let reports: Vec<&FuzzReport> = first.iter().flatten().collect();
    out.items = reports.len() as u64;
    let mut branches = BranchSet::new();
    let mut valid: BTreeSet<&[u8]> = BTreeSet::new();
    for r in &reports {
        branches.union_with(&r.valid_branches);
        valid.extend(r.valid_inputs.iter().map(Vec::as_slice));
    }
    // Output check, outside the timed window: every reported valid
    // input is accepted by the subject.
    for (i, r) in reports.iter().enumerate() {
        if let Some(bad) = r.valid_inputs.iter().find(|v| !subject.run(v).valid) {
            out.fail(
                i as u64,
                format!("explore-mjs campaign {i}: reported valid input {bad:?} is rejected"),
            );
        }
    }

    // Executions over every timed campaign run per second of those runs,
    // so each campaign weighs by its duration: the host's speed swings
    // move a short campaign's rate as much as a long one's, and a mean
    // of rates that weighs them alike is the noisier figure.
    let runs: usize = samples.iter().map(Vec::len).sum();
    let rate = total_rate(reports.iter().map(|r| r.execs), &samples);
    out.put("execs_per_s", rate);
    // No grammar generation runs here (flood-mjs measures it): every
    // input the driver executes is a candidate it generated, so this is
    // execs_per_s again.
    out.put("gen_inputs_per_s", rate);
    out.put("valid_branches", branches.len() as f64);
    out.put("valid_inputs", valid.len() as f64);
    let all: Vec<f64> = samples.iter().flatten().map(|s| s * 1e3).collect();
    latency_metrics(out, &all, "campaign");
    out.put("campaigns_per_s", runs as f64 / elapsed);
    out.note(format!(
        "explore-mjs: {} campaigns x {} execs, {runs} campaign runs in {elapsed:.3} s",
        reports.len(),
        plan.explore_execs
    ));
}

/// Per-layer metrics and the identity table of the traced pass.
fn traced_layers(
    out: &mut Outcome,
    snap: &pdf_obs::MetricsSnapshot,
    reports: &[&FuzzReport],
    wall_s: f64,
    untraced_s: f64,
    depths: &[f64],
) {
    let subject = mjs();
    let ns = |name| span_of(snap, name).1 as f64 / 1e9;
    let (pick, exec, classify, enqueue) = (
        ns("driver.pick"),
        ns("driver.exec"),
        ns("driver.classify"),
        ns("driver.enqueue"),
    );
    let runtime = snap.hist("exec.latency_ns").map_or(0, |h| h.sum) as f64 / 1e9;
    // `run_check` calls `add_inputs` once per valid find, so that much
    // enqueue time sits inside the classify span.
    let finds: usize = reports.iter().map(|r| r.valid_inputs.len()).sum();
    let nested = (finds as f64 * ns_per_call(snap, "driver.enqueue") / 1e9).min(classify);
    out.put("core.pick.ns_per_call", ns_per_call(snap, "driver.pick"));
    out.put("core.pick.share", pick / wall_s);
    out.put(
        "core.enqueue.ns_per_call",
        ns_per_call(snap, "driver.enqueue"),
    );
    out.put("core.enqueue.share", enqueue / wall_s);
    out.put(
        "core.classify.ns_per_call",
        ns_per_call(snap, "driver.classify"),
    );
    out.put("core.queue_depth.p50", median(depths));
    // Full mode: every executed input pays for the full run.
    out.put("core.tier.escalation_ratio", 1.0);
    out.put("runtime.exec.share", runtime / wall_s);
    out.put(
        "runtime.input_len.p50",
        snap.hist("exec.input_len")
            .map_or(0.0, |h| crate::stats::hist_quantile(h, 0.5)),
    );
    out.put("obs.trace_overhead", wall_s / untraced_s);
    not_run(out, &GEN_LAYERS);
    not_run(out, &FLEET_LAYERS);
    not_run(out, &SERVE_LAYERS);

    let rows = vec![
        Row {
            layer: "pdf-runtime exec (subject run)",
            self_s: runtime,
            source: "exec.latency_ns histogram sum",
        },
        Row {
            layer: "pdf-core exec glue",
            self_s: exec - runtime,
            source: "driver.exec span - runtime",
        },
        Row {
            layer: "pdf-core classify",
            self_s: classify - nested,
            source: "driver.classify span - nested enqueue",
        },
        Row {
            layer: "pdf-core enqueue",
            self_s: enqueue,
            source: "driver.enqueue span",
        },
        Row {
            layer: "pdf-core pick",
            self_s: pick,
            source: "driver.pick span",
        },
    ];
    let explained = identity_table(
        "explore-mjs traced pass",
        wall_s,
        &rows,
        wall_s / untraced_s,
        &mut out.notes,
    );
    if explained < 0.9 {
        out.note(format!(
            "explore-mjs: layers explain only {:.1}% of wall time",
            100.0 * explained
        ));
    }

    let valid: Vec<Vec<u8>> = reports
        .iter()
        .flat_map(|r| r.valid_inputs.iter().cloned())
        .collect();
    sink_layers(out, &[(subject, crate::probe::with_prefixes(&valid))]);
}
