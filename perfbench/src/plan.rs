//! Workload sizes, and flood-mjs's timed loop.

use std::time::Instant;

/// Timed rounds a flood-mjs run makes at least: the second checks the
/// first.
pub const MIN_ROUNDS: usize = 2;

/// Every size knob of the workloads. [`Plan::full`] is what the
/// benchmark runs; [`Plan::tiny`] is the smoke test's budget.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Set-up repetitions whose median is `setup_s` (explore-mjs and
    /// serve-mix; their set-up is a few milliseconds).
    pub setups: usize,
    /// explore-mjs: campaigns per run and executions per campaign.
    pub explore_campaigns: usize,
    pub explore_execs: u64,
    /// flood-mjs: set-up repetitions (each explores, mines and
    /// compiles), the fixed-seed exploration campaigns and their budget,
    /// and the evolve runs per round with their epochs and batch size.
    pub flood_setups: usize,
    pub flood_explore_campaigns: usize,
    pub flood_explore_execs: u64,
    pub flood_runs: usize,
    pub flood_epochs: usize,
    pub flood_batch: usize,
    /// serve-mix: execution budget of each campaign and campaign specs in
    /// the rotation (cycling the five subjects).
    pub serve_execs: u64,
    pub serve_specs: usize,
}

impl Plan {
    pub fn full() -> Plan {
        Plan {
            setups: 50,
            explore_campaigns: 64,
            explore_execs: 20_000,
            flood_setups: 5,
            flood_explore_campaigns: 4,
            flood_explore_execs: 10_000,
            flood_runs: 32,
            flood_epochs: 8,
            flood_batch: 1024,
            serve_execs: 8_000,
            serve_specs: 80,
        }
    }

    pub fn tiny() -> Plan {
        Plan {
            setups: 2,
            explore_campaigns: 2,
            explore_execs: 1_500,
            flood_setups: 1,
            flood_explore_campaigns: 2,
            flood_explore_execs: 3_000,
            flood_runs: 2,
            flood_epochs: 2,
            flood_batch: 64,
            serve_execs: 300,
            serve_specs: 5,
        }
    }
}

/// Runs `op(item)` over every item, round after round, until at least
/// `min_rounds` rounds are done and `seconds` have passed; rounds are
/// never cut short, so every item runs equally often. Returns each
/// item's durations in seconds and the total elapsed seconds.
pub fn rotate(
    items: usize,
    seconds: f64,
    min_rounds: usize,
    mut op: impl FnMut(usize),
) -> (Vec<Vec<f64>>, f64) {
    let mut samples = vec![Vec::new(); items];
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        for (i, s) in samples.iter_mut().enumerate() {
            let t = Instant::now();
            op(i);
            s.push(t.elapsed().as_secs_f64());
        }
        rounds += 1;
    }
    (samples, start.elapsed().as_secs_f64())
}
