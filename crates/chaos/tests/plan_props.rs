//! Property tests for the fault schedule: determinism (same seed ⇒
//! byte-identical schedule), independence (consuming one op kind never
//! moves another kind's schedule), and coverage (across disjoint
//! seeds, every fault kind fires on every op class it applies to).

use std::collections::BTreeSet;

use pdf_chaos::{FaultKind, FaultPlan, FaultSpec, OpKind};
use proptest::prelude::*;

/// The full schedule prefix for every op kind, rendered to bytes so
/// "byte-identical" is literal.
fn schedule_bytes(plan: &FaultPlan, len: u64) -> String {
    let mut out = String::new();
    for op in OpKind::ALL {
        for n in 0..len {
            match plan.schedule_for(op, n) {
                None => out.push_str(&format!("{op} {n} -\n")),
                Some(f) => out.push_str(&format!("{op} {n} {} {}\n", f.kind, f.magnitude)),
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn same_seed_gives_byte_identical_schedules(seed in any::<u64>()) {
        let a = FaultPlan::new(seed, FaultSpec::SOAK);
        let b = FaultPlan::new(seed, FaultSpec::SOAK);
        // Consume occurrences on one plan only: live counters must not
        // leak into the schedule function.
        for _ in 0..64 {
            a.decide(OpKind::JournalWrite);
            a.decide(OpKind::WireRead);
        }
        prop_assert_eq!(schedule_bytes(&a, 128), schedule_bytes(&b, 128));
    }

    #[test]
    fn decide_replays_schedule_under_any_interleaving(seed in any::<u64>(), picks in proptest::collection::vec(0usize..OpKind::ALL.len(), 0..200)) {
        let plan = FaultPlan::new(seed, FaultSpec::SOAK);
        for pick in picks {
            let op = OpKind::ALL[pick];
            let n = plan.occurrences(op);
            let expect = plan.schedule_for(op, n);
            prop_assert_eq!(plan.decide(op), expect);
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_schedules(seed in any::<u64>()) {
        let a = FaultPlan::new(seed, FaultSpec::SOAK);
        let b = FaultPlan::new(seed.wrapping_add(1), FaultSpec::SOAK);
        prop_assert_ne!(schedule_bytes(&a, 256), schedule_bytes(&b, 256));
    }
}

#[test]
fn disjoint_seeds_exercise_all_fault_kinds() {
    // Across a handful of seeds, every fault kind must fire on every
    // op class that admits it — the soak mix leaves nothing untested.
    let mut seen: BTreeSet<(OpKind, FaultKind)> = BTreeSet::new();
    for seed in 0..8u64 {
        let plan = FaultPlan::new(seed, FaultSpec::SOAK);
        for op in OpKind::ALL {
            for n in 0..2_000 {
                if let Some(f) = plan.schedule_for(op, n) {
                    seen.insert((op, f.kind));
                }
            }
        }
    }
    for op in OpKind::ALL {
        let expect: &[FaultKind] = if op.is_storage() {
            &[FaultKind::TornWrite, FaultKind::Enospc, FaultKind::Delay]
        } else if op == OpKind::WireRead {
            &[
                FaultKind::ShortRead,
                FaultKind::Disconnect,
                FaultKind::Delay,
            ]
        } else {
            &[
                FaultKind::TornWrite,
                FaultKind::Disconnect,
                FaultKind::Delay,
            ]
        };
        for kind in expect {
            assert!(
                seen.contains(&(op, *kind)),
                "{kind} never fired on {op} across seeds"
            );
        }
    }
}
