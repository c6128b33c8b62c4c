//! The repository benchmark: workloads over the public API of the
//! pFuzzer crates, each printing its end-to-end metrics (`--trace 0`) or
//! its per-layer metrics from a traced run (`--trace 1`), and checking
//! that the program's outputs are correct. `BENCHMARK.json` lists the
//! gated workloads; explore-mjs runs the same way but is a diagnostic
//! only (see `perfbench/README.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flood-mjs --seed 1 --seconds 50 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the workloads, the metric definitions and
//! the answer to where mjs spends its time.

mod explore;
mod flood;
mod plan;
mod probe;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pdf_runtime::Subject;

use crate::plan::Plan;
use crate::stats::{median, tail_percentile, Outcome};
use crate::trace::Tracer;

/// The workloads `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 2] = ["flood-mjs", "serve-mix"];

/// Workloads that run like the listed ones but are not in
/// `BENCHMARK.json`: explore-mjs's rate swings with the host's cache
/// contention by more than any allowed bound.
pub const DIAGNOSTIC: [&str; 1] = ["explore-mjs"];

/// End-to-end metrics and their units, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("execs_per_s", "1/s"),
    ("gen_inputs_per_s", "1/s"),
    ("valid_branches", "count"),
    ("valid_inputs", "count"),
    ("campaign_latency_p50_ms", "ms"),
    ("campaign_latency_p90_ms", "ms"),
    ("campaigns_per_s", "1/s"),
    ("failed_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("core.pick.ns_per_call", "ns"),
    ("core.pick.share", "share"),
    ("core.enqueue.ns_per_call", "ns"),
    ("core.enqueue.share", "share"),
    ("core.classify.ns_per_call", "ns"),
    ("core.queue_depth.p50", "entries"),
    ("core.tier.escalation_ratio", "ratio"),
    ("runtime.exec.last_failure.ns_per_call", "ns"),
    ("runtime.exec.fast_failure.ns_per_call", "ns"),
    ("runtime.exec.coverage.ns_per_call", "ns"),
    ("runtime.exec.share", "share"),
    ("runtime.input_len.p50", "bytes"),
    ("gen.generate.ns_per_input", "ns"),
    ("gen.generate.share", "share"),
    ("gen.valid_ratio", "ratio"),
    ("gen.fresh_ratio", "ratio"),
    ("grammar.mine_s", "s"),
    ("fleet.sync.ns_per_epoch", "ns"),
    ("fleet.promotions", "count/campaign"),
    ("serve.wire_rtt_us", "us"),
    ("serve.submit_ms", "ms"),
    ("serve.slice_compute.share", "share"),
    ("serve.persist_ms_per_campaign", "ms"),
    ("serve.checkpoints", "count/campaign"),
    ("serve.slices", "count/campaign"),
    ("obs.trace_overhead", "ratio"),
];

/// One benchmark run: its arguments, sizes, span store and scratch
/// directory.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub plan: Plan,
    pub tracer: Tracer,
    /// Where serve-mix keeps daemon state; removed when the run ends.
    pub state_root: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// Puts the median and tail-percentile latency, noting the sample count
/// and which percentile the tail metric holds.
pub fn latency_metrics(out: &mut Outcome, samples_ms: &[f64], what: &str) {
    let p50 = median(samples_ms);
    let (tail_pct, tail) = match tail_percentile(samples_ms.len(), 90) {
        Some(p) => (p, stats::quantile(samples_ms, f64::from(p) / 100.0)),
        // Too few samples for any tail with ten beyond it: the maximum.
        None => (100, stats::quantile(samples_ms, 1.0)),
    };
    out.put("campaign_latency_p50_ms", p50);
    out.put("campaign_latency_p90_ms", tail);
    out.note(format!(
        "{what} latency: p50 {p50:.3} ms, p{tail_pct} {tail:.3} ms over {} samples \
         (campaign_latency_p90_ms holds p{tail_pct})",
        samples_ms.len()
    ));
}

/// Per-layer metrics of the layers each workload does not run: they
/// read 0 there.
pub const GEN_LAYERS: [&str; 5] = [
    "gen.generate.ns_per_input",
    "gen.generate.share",
    "gen.valid_ratio",
    "gen.fresh_ratio",
    "grammar.mine_s",
];
pub const FLEET_LAYERS: [&str; 2] = ["fleet.sync.ns_per_epoch", "fleet.promotions"];
pub const SERVE_LAYERS: [&str; 6] = [
    "serve.wire_rtt_us",
    "serve.submit_ms",
    "serve.slice_compute.share",
    "serve.persist_ms_per_campaign",
    "serve.checkpoints",
    "serve.slices",
];
pub const DRIVER_LAYERS: [&str; 6] = [
    "core.pick.ns_per_call",
    "core.pick.share",
    "core.enqueue.ns_per_call",
    "core.enqueue.share",
    "core.classify.ns_per_call",
    "core.queue_depth.p50",
];

/// Puts 0 for every metric of a layer the workload does not run.
pub fn not_run(out: &mut Outcome, names: &[&'static str]) {
    for &name in names {
        out.put(name, 0.0);
    }
}

/// The per-sink exec cost: each sink timed in isolation on the
/// workload's own inputs, averaged over the subjects that have any.
pub fn sink_layers(out: &mut Outcome, corpora: &[(Subject, Vec<Vec<u8>>)]) {
    let costs: Vec<probe::SinkCost> = corpora
        .iter()
        .filter(|(_, c)| !c.is_empty())
        .map(|(s, c)| probe::sinks(*s, c))
        .collect();
    let mean = |f: fn(&probe::SinkCost) -> f64| {
        costs.iter().map(f).sum::<f64>() / costs.len().max(1) as f64
    };
    out.put(
        "runtime.exec.last_failure.ns_per_call",
        mean(|c| c.last_failure_ns),
    );
    out.put(
        "runtime.exec.fast_failure.ns_per_call",
        mean(|c| c.fast_failure_ns),
    );
    out.put("runtime.exec.coverage.ns_per_call", mean(|c| c.coverage_ns));
}

/// The filesystem type mounted under `path`, from `/proc/self/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// How often the resident set size is sampled for `peak_rss_mb`.
const RSS_PERIOD: std::time::Duration = std::time::Duration::from_millis(5);

/// Runs the workload and returns its outcome with every metric of the
/// selected set present (the checks that fail are in `errors`).
pub fn execute(ctx: &Run) -> Outcome {
    let mut out = Outcome::default();
    let sampler = stats::RssSampler::start(RSS_PERIOD);
    match ctx.workload.as_str() {
        "explore-mjs" => explore::run(ctx, &mut out),
        "flood-mjs" => flood::run(ctx, &mut out),
        "serve-mix" => serve::run(ctx, &mut out),
        other => unreachable!("workload {other} was validated"),
    }
    let failed_share = out.failed_share();
    out.put("failed_share", failed_share);
    let samples = sampler.finish();
    let peak = stats::median_window_peak(&samples, &out.windows).unwrap_or_else(stats::peak_rss_mb);
    out.put("peak_rss_mb", peak);
    out
}

/// The selected metric set as `(name, value, unit)`, recording an error
/// for any metric that is missing or not a finite number.
pub fn selected(out: &mut Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut rows = Vec::new();
    for &(name, unit) in set {
        if !stats::valid_name(name) || !stats::valid_unit(unit) {
            out.errors.push(format!(
                "metric {name} ({unit}) breaks the name or unit charset"
            ));
        }
        match out.metrics.iter().rev().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => rows.push((name, m.value, unit)),
            Some(m) => out.errors.push(format!("metric {name} is {}", m.value)),
            None => out.errors.push(format!("metric {name} was not measured")),
        }
    }
    rows
}

fn json_result(out: &Outcome, rows: &[(&str, f64, &str)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.items.max(1),
        out.failed(),
        metrics.join(", ")
    )
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS
            .iter()
            .chain(&DIAGNOSTIC)
            .copied()
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        arg("--workload"),
        arg("--seed").and_then(|s| s.parse::<u64>().ok()),
        arg("--seconds").and_then(|s| s.parse::<f64>().ok()),
        arg("--trace").and_then(|s| match s.as_str() {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    let known = WORKLOADS.iter().chain(&DIAGNOSTIC).any(|w| *w == workload);
    if !known || seconds.is_nan() || seconds < 0.0 {
        return usage();
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let run_dir = format!("{workload}-{}", std::process::id());
    let ctx = Run {
        seed,
        seconds,
        trace,
        plan: Plan::full(),
        tracer: Tracer::new(),
        state_root: target.join("perfbench-state").join(&run_dir),
        out_dir: target.join("perfbench-traces"),
        workload,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.state_root) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.state_root.display());
        return ExitCode::FAILURE;
    }
    let mut out = execute(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.state_root);
    if trace {
        let path = ctx
            .out_dir
            .join(format!("{}-seed{}.spans.tsv", ctx.workload, ctx.seed));
        match ctx.tracer.write_to(&path) {
            Ok(()) => out.note(format!("spans written to {}", path.display())),
            Err(e) => out.note(format!("could not write spans to {}: {e}", path.display())),
        }
        for (name, t) in ctx.tracer.summary() {
            out.note(format!(
                "benchmark span {name}: {} calls, total {:.6} s, self {:.6} s",
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            ));
        }
    }
    let rows = selected(&mut out, trace);
    println!(
        "perfbench {} seed {} seconds {} trace {} (nproc {})",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in &out.notes {
        println!("{line}");
    }
    for m in &out.metrics {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == m.name)
            .map_or("?", |(_, u)| u);
        println!("  {:<40} {:>18.6} {unit}", m.name, m.value);
    }
    for e in &out.errors {
        println!("ERROR {e}");
    }
    println!("{}", json_result(&out, &rows));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json names exactly these workloads and metrics, with
    /// these units and valid names.
    #[test]
    fn benchmark_json_matches_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let quoted = |key: &str| -> Vec<String> {
            text.split(&format!("\"{key}\": \""))
                .skip(1)
                .map(|s| s.split('"').next().unwrap_or_default().to_string())
                .collect()
        };
        let names = quoted("name");
        let units = quoted("unit");
        let expected: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(names, expected);
        let expected_units: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.1).collect();
        assert_eq!(units, expected_units);
        for name in &expected {
            assert!(stats::valid_name(name), "{name}");
        }
        for unit in &expected_units {
            assert!(stats::valid_unit(unit), "{unit}");
        }
    }

    /// Every workload, at a tiny budget, prints every metric of both
    /// sets with its unit and passes its correctness checks.
    #[test]
    fn smoke_every_workload_prints_every_metric() {
        let target = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/smoke");
        for workload in WORKLOADS.iter().chain(&DIAGNOSTIC) {
            for trace in [false, true] {
                let ctx = Run {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    plan: Plan::tiny(),
                    tracer: Tracer::new(),
                    state_root: target.join(format!("{workload}-{trace}")),
                    out_dir: target.join("traces"),
                };
                std::fs::create_dir_all(&ctx.state_root).unwrap();
                let mut out = execute(&ctx);
                let _ = std::fs::remove_dir_all(&ctx.state_root);
                let rows = selected(&mut out, trace);
                assert!(
                    out.errors.is_empty(),
                    "{workload} trace={trace}: {:?}",
                    out.errors
                );
                let set = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                assert_eq!(rows.len(), set.len());
                let line = json_result(&out, &rows);
                for (name, unit) in set {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    assert!(
                        line.contains(&entry),
                        "{workload}: {name} missing in {line}"
                    );
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
                }
                assert!(
                    line.starts_with("{\"correct\": true, \"attempted\": "),
                    "{line}"
                );
            }
        }
    }
}
