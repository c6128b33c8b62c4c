//! flood-mjs: grammar-based generation on mjs. Set-up explores mjs with
//! fixed-seed pFuzzer campaigns, mines their valid inputs into a grammar
//! (`mine_corpus`) and compiles it (`CompiledGrammar::compile`). The
//! timed part runs evolve runs of `Evolver::epoch`, which load `pdf-gen`
//! and the batch fast-failure exec path and bypass the candidate queue.
//! The exploration seeds are fixed, so every workload seed floods the
//! same grammar; the workload seed drives only the generation streams.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use pdf_core::{DriverConfig, Fuzzer};
use pdf_gen::{CompiledGrammar, EvolveConfig, EvolveReport, Evolver, GenBatch};
use pdf_grammar::GrammarFile;
use pdf_runtime::{BranchSet, ExecArena, Rng, Subject};

use crate::explore::mjs;
use crate::plan::{rotate, Plan, MIN_ROUNDS};
use crate::stats::{median, mix, total_rate, Outcome};
use crate::trace::{identity_table, Registry, Row, Tracer};
use crate::{
    latency_metrics, not_run, sink_layers, Run, DRIVER_LAYERS, FLEET_LAYERS, SERVE_LAYERS,
};

/// Seed of the exploration campaigns whose valid inputs are mined.
const EXPLORE_SEED: u64 = 0x464c_4f4f; // "FLOO"

/// Depth bound for grammar expansion (the combined campaign's default).
const MAX_DEPTH: usize = 10;

/// The grammar set-up produced, and how long mining alone took.
struct Mined {
    file: GrammarFile,
    compiled: CompiledGrammar,
    mine_s: f64,
}

/// Explores mjs with the fixed-seed campaigns, mines the union of their
/// valid inputs and compiles the grammar with uniform weights.
fn mine(subject: Subject, plan: &Plan) -> Result<Mined, String> {
    let mut valid = Vec::new();
    for i in 0..plan.flood_explore_campaigns as u64 {
        let cfg = DriverConfig {
            seed: mix(EXPLORE_SEED, i),
            max_execs: plan.flood_explore_execs,
            ..DriverConfig::default()
        };
        valid.extend(Fuzzer::new(subject, cfg).run().valid_inputs);
    }
    let t = Instant::now();
    let grammar = pdf_grammar::mine_corpus(subject, &valid);
    let mine_s = t.elapsed().as_secs_f64();
    if grammar.alts(pdf_grammar::START).is_empty() {
        return Err(format!(
            "flood-mjs: {} explored valid inputs yield no grammar",
            valid.len()
        ));
    }
    let file = GrammarFile::uniform(grammar);
    let compiled = CompiledGrammar::compile(&file, MAX_DEPTH)
        .map_err(|e| format!("flood-mjs: compile: {e:?}"))?;
    Ok(Mined {
        file,
        compiled,
        mine_s,
    })
}

fn config(seed: u64, plan: &Plan) -> EvolveConfig {
    EvolveConfig {
        seed,
        epochs: plan.flood_epochs,
        batch: plan.flood_batch,
        ..EvolveConfig::default()
    }
}

/// One evolve run: every epoch of one generation stream.
fn flood(subject: Subject, compiled: &CompiledGrammar, cfg: &EvolveConfig) -> EvolveReport {
    let mut evolver = Evolver::new(subject, compiled.clone(), cfg.clone());
    for _ in 0..cfg.epochs {
        evolver.epoch();
    }
    evolver.into_report()
}

/// Time spent in each replayed layer of traced evolve runs.
#[derive(Debug, Clone, Copy, Default)]
struct LayerTimes {
    /// `generate_batch` on the twins.
    generate_s: f64,
    /// `exec_batch_fast` on the twins' batches.
    fast_s: f64,
    /// `run_coverage` on each epoch's fresh valid inputs.
    coverage_s: f64,
    /// Their branches inserted into the evolver's coverage set.
    union_s: f64,
}

impl LayerTimes {
    fn add(&mut self, other: &LayerTimes) {
        self.generate_s += other.generate_s;
        self.fast_s += other.fast_s;
        self.coverage_s += other.coverage_s;
        self.union_s += other.union_s;
    }
}

/// An evolve run with the program's registry installed and a span per
/// epoch. `Evolver::epoch` generates, floods and escalates in one call,
/// so its layers are priced by replaying their public calls outside the
/// epoch: before each epoch a twin compiled with the evolver's current
/// weights generates one batch (same distribution, so the same cost)
/// and floods it through `exec_batch_fast`; after it, the epoch's fresh
/// valid inputs run through `run_coverage` again and their branches go
/// into a copy of the coverage set the evolver started the epoch with.
/// Returns the report, the run's wall time without the replays, and
/// the replays' times.
fn traced_flood(
    subject: Subject,
    mined: &Mined,
    cfg: &EvolveConfig,
    registry: &Registry,
    tracer: &Tracer,
    trace: u64,
) -> Result<(EvolveReport, f64, LayerTimes), String> {
    let start = Instant::now();
    let mut out = LayerTimes::default();
    let mut replay_s = 0.0;
    let mut evolver = Evolver::new(subject, mined.compiled.clone(), cfg.clone());
    let mut batch = GenBatch::new();
    let mut arena = ExecArena::new();
    for epoch in 0..cfg.epochs {
        let t = Instant::now();
        let file = GrammarFile::with_weights(mined.file.grammar().clone(), evolver.weight_rows())
            .map_err(|e| format!("flood-mjs: learned weights: {e:?}"))?;
        let mut twin = CompiledGrammar::compile(&file, MAX_DEPTH)
            .map_err(|e| format!("flood-mjs: twin compile: {e:?}"))?;
        let mut rng = Rng::new(mix(cfg.seed, epoch as u64));
        let g = Instant::now();
        twin.generate_batch(&mut rng, &mut batch, cfg.batch);
        out.generate_s += g.elapsed().as_secs_f64();
        let views: Vec<&[u8]> = batch.inputs().collect();
        let f = Instant::now();
        black_box(subject.exec_batch_fast(&mut arena, &views).len());
        out.fast_s += f.elapsed().as_secs_f64();
        let mut branches = evolver.branches().clone();
        replay_s += t.elapsed().as_secs_f64();

        let fresh = {
            let _scope = registry.install();
            let t = Instant::now();
            let fresh = evolver.epoch().fresh_valid;
            tracer.record("gen.epoch", trace, None, t, Instant::now());
            fresh
        };

        let c = Instant::now();
        let mut union_s = 0.0;
        for input in &fresh {
            let cov = subject.run_coverage(input).cov;
            let u = Instant::now();
            for b in cov.branches.iter() {
                black_box(branches.insert(*b));
            }
            union_s += u.elapsed().as_secs_f64();
        }
        let replay = c.elapsed().as_secs_f64();
        out.coverage_s += replay - union_s;
        out.union_s += union_s;
        replay_s += replay;
    }
    let report = evolver.into_report();
    Ok((report, start.elapsed().as_secs_f64() - replay_s, out))
}

pub fn run(ctx: &Run, out: &mut Outcome) {
    let plan = &ctx.plan;
    let subject = mjs();

    // Set-up: explore, mine and compile, several times; every repetition
    // must mine the same grammar.
    let mut setup = Vec::new();
    let mut mine_s = Vec::new();
    let mut mined: Option<Mined> = None;
    for _ in 0..plan.flood_setups {
        let t = Instant::now();
        match mine(subject, plan) {
            Ok(m) => {
                setup.push(t.elapsed().as_secs_f64());
                mine_s.push(m.mine_s);
                if mined
                    .as_ref()
                    .is_some_and(|prev| prev.file.digest() != m.file.digest())
                {
                    out.errors
                        .push("flood-mjs: set-up mined another grammar from the same seeds".into());
                }
                mined = Some(m);
            }
            Err(e) => out.errors.push(e),
        }
    }
    out.put("setup_s", median(&setup));
    let Some(mined) = mined else {
        return;
    };

    let configs: Vec<EvolveConfig> = (0..plan.flood_runs as u64)
        .map(|i| config(mix(ctx.seed, i), plan))
        .collect();
    out.items = configs.len() as u64;
    let mut first: Vec<Option<EvolveReport>> = vec![None; configs.len()];
    let mut check = |i: usize, report: EvolveReport, out: &mut Outcome, what: &str| match &first[i]
    {
        None => first[i] = Some(report),
        Some(f) => {
            let (a, b) = (f.digest(), report.digest());
            if a != b {
                out.fail(
                    i as u64,
                    format!("flood-mjs run {i}: {what} digest {b:016x} != {a:016x}"),
                );
            }
        }
    };

    let (samples, elapsed) = if ctx.trace {
        // Every run once untraced and once traced, alternating which
        // goes first, as on explore-mjs.
        let registry = Registry::new();
        let mut traced_s = vec![0.0; configs.len()];
        let mut untraced_s = vec![0.0; configs.len()];
        let mut layers = LayerTimes::default();
        for (i, cfg) in configs.iter().enumerate() {
            for traced in [i % 2 == 1, i % 2 == 0] {
                if traced {
                    match traced_flood(subject, &mined, cfg, &registry, &ctx.tracer, i as u64) {
                        Ok((report, run_s, times)) => {
                            traced_s[i] = run_s;
                            layers.add(&times);
                            check(i, report, out, "traced");
                        }
                        Err(e) => out.fail(i as u64, e),
                    }
                } else {
                    let t = Instant::now();
                    let report = flood(subject, &mined.compiled, cfg);
                    untraced_s[i] = t.elapsed().as_secs_f64();
                    check(i, report, out, "untraced");
                }
            }
        }
        let snap = registry.reg.snapshot();
        let wall_s: f64 = traced_s.iter().sum();
        let untraced_total: f64 = untraced_s.iter().sum();
        let reports: Vec<&EvolveReport> = first.iter().flatten().collect();
        traced_layers(out, &snap, &reports, wall_s, untraced_total, &layers);
        out.put("grammar.mine_s", median(&mine_s));
        (traced_s.iter().map(|&s| vec![s]).collect(), wall_s)
    } else {
        rotate(configs.len(), ctx.seconds, MIN_ROUNDS, |i| {
            let t = Instant::now();
            let report = flood(subject, &mined.compiled, &configs[i]);
            out.window(t);
            check(i, report, out, "repeat");
        })
    };

    let reports: Vec<&EvolveReport> = first.iter().flatten().collect();
    let mut branches = BranchSet::new();
    let mut valid: BTreeSet<&[u8]> = BTreeSet::new();
    for r in &reports {
        branches.union_with(&r.branches);
        valid.extend(r.distinct_valid.iter().map(Vec::as_slice));
    }
    // Output check, outside the timed window: the full-instrumentation
    // path accepts every input the fast batch path found valid.
    for (i, r) in reports.iter().enumerate() {
        if let Some(bad) = r.distinct_valid.iter().find(|v| !subject.run(v).valid) {
            out.fail(
                i as u64,
                format!("flood-mjs run {i}: generated valid input {bad:?} is rejected"),
            );
        }
    }

    // Rates as on explore-mjs: counts over every timed evolve run per
    // second of those runs. A run executes every generated input once on
    // the fast path, and each fresh valid one again with coverage.
    let rate =
        |count: fn(&EvolveReport) -> u64| total_rate(reports.iter().map(|r| count(r)), &samples);
    out.put("gen_inputs_per_s", rate(|r| r.generated));
    out.put(
        "execs_per_s",
        rate(|r| r.generated + r.distinct_valid.len() as u64),
    );
    out.put("valid_branches", branches.len() as f64);
    out.put("valid_inputs", valid.len() as f64);
    let all: Vec<f64> = samples.iter().flatten().map(|s| s * 1e3).collect();
    latency_metrics(out, &all, "evolve run");
    let runs: usize = samples.iter().map(Vec::len).sum();
    out.put("campaigns_per_s", runs as f64 / elapsed);
    out.note(format!(
        "flood-mjs: grammar of {} alternatives mined from {} x {} mjs execs; {} runs x {} \
         epochs x {} inputs, {runs} evolve runs in {elapsed:.3} s",
        mined.compiled.alt_count(),
        plan.flood_explore_campaigns,
        plan.flood_explore_execs,
        configs.len(),
        plan.flood_epochs,
        plan.flood_batch,
    ));
}

/// Per-layer metrics and the identity table of the traced pass.
fn traced_layers(
    out: &mut Outcome,
    snap: &pdf_obs::MetricsSnapshot,
    reports: &[&EvolveReport],
    wall_s: f64,
    untraced_s: f64,
    layers: &LayerTimes,
) {
    let subject = mjs();
    let generated: u64 = reports.iter().map(|r| r.generated).sum();
    let generated_valid: u64 = reports.iter().map(|r| r.generated_valid).sum();
    let fresh: usize = reports.iter().map(|r| r.distinct_valid.len()).sum();
    let generate_s = layers.generate_s;
    let generated_f = generated.max(1) as f64;

    not_run(out, &DRIVER_LAYERS);
    // Each fresh valid input escalates from the fast path to a coverage run.
    out.put("core.tier.escalation_ratio", fresh as f64 / generated_f);
    out.put(
        "runtime.exec.share",
        (layers.fast_s + layers.coverage_s) / wall_s,
    );
    out.put(
        "runtime.input_len.p50",
        snap.hist("exec.input_len")
            .map_or(0.0, |h| crate::stats::hist_quantile(h, 0.5)),
    );
    out.put("gen.generate.ns_per_input", generate_s * 1e9 / generated_f);
    out.put("gen.generate.share", generate_s / wall_s);
    out.put("gen.valid_ratio", generated_valid as f64 / generated_f);
    out.put("gen.fresh_ratio", fresh as f64 / generated_f);
    not_run(out, &FLEET_LAYERS);
    not_run(out, &SERVE_LAYERS);
    out.put("obs.trace_overhead", wall_s / untraced_s);

    let rows = vec![
        Row {
            layer: "pdf-gen generate_batch",
            self_s: generate_s,
            source: "twin with the same weights",
        },
        Row {
            layer: "pdf-runtime exec_batch_fast",
            self_s: layers.fast_s,
            source: "twin batch replayed",
        },
        Row {
            layer: "pdf-runtime run_coverage",
            self_s: layers.coverage_s,
            source: "fresh valid inputs replayed",
        },
        Row {
            layer: "pdf-runtime BranchSet::insert",
            self_s: layers.union_s,
            source: "their branches replayed",
        },
    ];
    let explained = identity_table(
        "flood-mjs traced epochs",
        wall_s,
        &rows,
        wall_s / untraced_s,
        &mut out.notes,
    );
    if explained < 0.9 {
        out.note(format!(
            "flood-mjs: layers explain only {:.1}% of wall time",
            100.0 * explained
        ));
    }

    let corpus: Vec<Vec<u8>> = reports
        .first()
        .map(|r| r.distinct_valid.clone())
        .unwrap_or_default();
    sink_layers(out, &[(subject, corpus)]);
}
