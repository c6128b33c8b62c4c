//! Ceiling probe of the exec layer: each sink's public entry point
//! timed in isolation on inputs the workload itself produced, for the
//! per-sink exec cost every traced run reports.

use std::hint::black_box;
use std::time::Instant;

use pdf_runtime::{ExecArena, Subject};

/// Executions each sink probe makes, spread over the corpus.
const SINK_CALLS: usize = 20_000;

/// Mean nanoseconds per call of each exec sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinkCost {
    pub last_failure_ns: f64,
    pub fast_failure_ns: f64,
    pub coverage_ns: f64,
}

/// Adds every prefix of every input: the inputs pFuzzer executes grow a
/// character at a time toward the valid ones, so prefixes of its valid
/// inputs stand in for its candidates.
pub fn with_prefixes(inputs: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for input in inputs {
        for end in 1..=input.len() {
            out.push(input[..end].to_vec());
        }
    }
    out
}

/// Times each sink over `corpus` (cycled to [`SINK_CALLS`] executions).
pub fn sinks(subject: Subject, corpus: &[Vec<u8>]) -> SinkCost {
    if corpus.is_empty() {
        return SinkCost::default();
    }
    let mut arena = ExecArena::new();
    let inputs = || corpus.iter().cycle().take(SINK_CALLS);
    let per_call = |t: Instant| t.elapsed().as_nanos() as f64 / SINK_CALLS as f64;
    let t = Instant::now();
    for input in inputs() {
        black_box(subject.run_last_failure_arena(&mut arena, input).valid);
    }
    let last_failure_ns = per_call(t);
    let t = Instant::now();
    for input in inputs() {
        black_box(subject.run_fast_failure_arena(&mut arena, input).valid);
    }
    let fast_failure_ns = per_call(t);
    let t = Instant::now();
    for input in inputs() {
        black_box(subject.run_coverage(input).valid);
    }
    SinkCost {
        last_failure_ns,
        fast_failure_ns,
        coverage_ns: per_call(t),
    }
}
