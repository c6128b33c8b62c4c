//! The campaign lifecycle state machine.
//!
//! Every campaign the daemon manages is in exactly one [`Phase`];
//! phases change only through [`transition`], which admits exactly the
//! edges of [`LEGAL_TRANSITIONS`] and rejects everything else with an
//! [`IllegalTransition`]. The daemon journals every accepted transition
//! (see [`journal`](crate::journal)), so the full lifecycle history of
//! every campaign is reconstructible from the state directory.
//!
//! The diagram (DESIGN.md §13):
//!
//! ```text
//!  Submit    Dispatch              Pause
//! ──▶ Queued ─────────▶ Running ──────────▶ Paused
//!     │ ▲ Requeue          │ ◀──────────────── │
//!     │ └───────────────── │      Resume       │
//!     │    Pause ▲         │ Finish / Fail     │
//!     ├──────────┘         ▼                   │
//!     │              Done / Failed             │
//!     └──────▶ Cancelled ◀─────────────────────┘
//!                  (Cancel, from any non-terminal phase)
//! ```
//!
//! `Running` means *admitted to the worker pool* — the campaign is
//! either on a worker right now or waiting for its next epoch slice;
//! slot occupancy is scheduler bookkeeping, not lifecycle state.
//! `Requeue` is the restart-recovery edge: a campaign whose persisted
//! phase is `Running` when the daemon comes back up is requeued, since
//! whatever worker held it is gone. `Submit` is not an edge: it creates
//! the campaign in `Queued`.

use std::fmt;

/// The lifecycle phase of a daemon campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Accepted, never yet admitted to the worker pool.
    Queued,
    /// Admitted: on a worker or awaiting its next epoch slice.
    Running,
    /// Explicitly paused; checkpointed, waiting for `resume`.
    Paused,
    /// Terminal: budget spent, final report digested.
    Done,
    /// Terminal: an epoch slice or checkpoint failed.
    Failed,
    /// Terminal: cancelled by request.
    Cancelled,
}

/// An event applied to a campaign's phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// The daemon accepted the campaign. This event creates the
    /// campaign in `Queued` rather than moving it between phases, so
    /// [`transition`] rejects it from every phase.
    Submit,
    /// A worker admitted the campaign to the pool for its first slice.
    Dispatch,
    /// A pause request took effect (at a slice boundary, or immediately
    /// for a campaign not on a worker).
    Pause,
    /// A resume request re-admitted a paused campaign.
    Resume,
    /// The campaign finished its budget; the final report is digested.
    Finish,
    /// An epoch slice or checkpoint failed.
    Fail,
    /// A cancel request took effect.
    Cancel,
    /// Restart recovery: the daemon came back up and requeued a
    /// campaign whose persisted phase was still `Running`.
    Requeue,
}

/// Every legal `(from, event, to)` edge — the single source of truth
/// the [`transition`] function, the property tests and the DESIGN.md
/// table all derive from.
pub const LEGAL_TRANSITIONS: [(Phase, Event, Phase); 10] = [
    (Phase::Queued, Event::Dispatch, Phase::Running),
    (Phase::Queued, Event::Pause, Phase::Paused),
    (Phase::Queued, Event::Cancel, Phase::Cancelled),
    (Phase::Running, Event::Pause, Phase::Paused),
    (Phase::Running, Event::Finish, Phase::Done),
    (Phase::Running, Event::Fail, Phase::Failed),
    (Phase::Running, Event::Cancel, Phase::Cancelled),
    (Phase::Running, Event::Requeue, Phase::Queued),
    (Phase::Paused, Event::Resume, Phase::Running),
    (Phase::Paused, Event::Cancel, Phase::Cancelled),
];

impl Phase {
    /// All six phases, for exhaustive iteration in tests.
    pub const ALL: [Phase; 6] = [
        Phase::Queued,
        Phase::Running,
        Phase::Paused,
        Phase::Done,
        Phase::Failed,
        Phase::Cancelled,
    ];

    /// The wire/journal name of the phase (lowercase).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Paused => "paused",
            Phase::Done => "done",
            Phase::Failed => "failed",
            Phase::Cancelled => "cancelled",
        }
    }

    /// Parses a phase name as produced by [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Whether the phase is terminal (absorbs every event).
    pub fn is_terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Failed | Phase::Cancelled)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Event {
    /// All eight events, for exhaustive iteration in tests.
    pub const ALL: [Event; 8] = [
        Event::Submit,
        Event::Dispatch,
        Event::Pause,
        Event::Resume,
        Event::Finish,
        Event::Fail,
        Event::Cancel,
        Event::Requeue,
    ];

    /// The journal name of the event (lowercase).
    pub fn name(self) -> &'static str {
        match self {
            Event::Submit => "submit",
            Event::Dispatch => "dispatch",
            Event::Pause => "pause",
            Event::Resume => "resume",
            Event::Finish => "finish",
            Event::Fail => "fail",
            Event::Cancel => "cancel",
            Event::Requeue => "requeue",
        }
    }

    /// Parses an event name as produced by [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Event> {
        Event::ALL.into_iter().find(|e| e.name() == s)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An event was applied to a phase with no legal edge for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    /// The phase the campaign was in.
    pub from: Phase,
    /// The event that had no edge from it.
    pub event: Event,
}

impl fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no {} transition from {}", self.event, self.from)
    }
}

impl std::error::Error for IllegalTransition {}

/// Applies `event` to `from`, returning the successor phase.
///
/// # Errors
///
/// [`IllegalTransition`] when [`LEGAL_TRANSITIONS`] has no
/// `(from, event, _)` edge — in particular for every event applied to a
/// terminal phase.
///
/// ```
/// use pdf_serve::{transition, Event, Phase};
///
/// assert_eq!(transition(Phase::Queued, Event::Dispatch), Ok(Phase::Running));
/// assert_eq!(transition(Phase::Running, Event::Pause), Ok(Phase::Paused));
/// assert!(transition(Phase::Done, Event::Resume).is_err());
/// ```
pub fn transition(from: Phase, event: Event) -> Result<Phase, IllegalTransition> {
    LEGAL_TRANSITIONS
        .iter()
        .find(|(f, e, _)| *f == from && *e == event)
        .map(|(_, _, to)| *to)
        .ok_or(IllegalTransition { from, event })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::parse(p.name()), Some(p));
        }
        for e in Event::ALL {
            assert_eq!(Event::parse(e.name()), Some(e));
        }
        assert_eq!(Phase::parse("nope"), None);
        assert_eq!(Event::parse("nope"), None);
    }

    #[test]
    fn terminal_phases_absorb_everything() {
        for p in Phase::ALL.into_iter().filter(|p| p.is_terminal()) {
            for e in Event::ALL {
                assert_eq!(
                    transition(p, e),
                    Err(IllegalTransition { from: p, event: e })
                );
            }
        }
    }

    #[test]
    fn table_and_function_agree_exhaustively() {
        for from in Phase::ALL {
            for event in Event::ALL {
                let edge = LEGAL_TRANSITIONS
                    .iter()
                    .find(|(f, e, _)| *f == from && *e == event);
                match transition(from, event) {
                    Ok(to) => assert_eq!(edge.map(|(_, _, t)| *t), Some(to)),
                    Err(_) => assert!(edge.is_none()),
                }
            }
        }
    }

    #[test]
    fn issue_diagram_edges_present() {
        assert_eq!(
            transition(Phase::Queued, Event::Dispatch),
            Ok(Phase::Running)
        );
        assert_eq!(transition(Phase::Running, Event::Pause), Ok(Phase::Paused));
        assert_eq!(transition(Phase::Paused, Event::Resume), Ok(Phase::Running));
        assert_eq!(transition(Phase::Running, Event::Finish), Ok(Phase::Done));
        assert_eq!(transition(Phase::Running, Event::Fail), Ok(Phase::Failed));
        for p in [Phase::Queued, Phase::Running, Phase::Paused] {
            assert!(transition(p, Event::Cancel) == Ok(Phase::Cancelled));
        }
    }
}
