//! `pdf-chaos` — seeded, deterministic fault injection for storage and
//! wire I/O.
//!
//! The workspace already injects faults *above* the I/O layer: PR 3's
//! `ChaosSubject` makes the parser under test panic, hang and flake on
//! a reproducible schedule. This crate extends the same idea *below*
//! the service layer: a [`FaultPlan`] decides — as a pure function of
//! `(seed, operation kind, occurrence index)` — whether the Nth journal
//! append tears mid-line, the Nth checkpoint write hits `ENOSPC`, or
//! the Nth socket read dies mid-stream. Because the schedule is
//! deterministic, a chaos soak that fails is *re-runnable*: the same
//! seed reproduces the same torn bytes in the same order.
//!
//! The layers:
//!
//! - [`plan`] — [`FaultPlan`] / [`FaultKind`] / [`FaultSpec`]: the
//!   seeded schedule. Same seed ⇒ byte-identical schedule (proven by
//!   proptest); disjoint seeds exercise every fault kind.
//! - [`io`] — [`ChaosWriter`] / [`ChaosReader`]: `Write`/`Read`
//!   wrappers that consult a plan on every call and inject torn
//!   writes, short reads, delays, `ENOSPC` and disconnects as real
//!   `io::Error`s — indistinguishable from the genuine article to the
//!   code under test.
//! - [`backoff`] — [`Backoff`]: the client-side answer; seeded,
//!   jittered exponential delays for retry loops, deterministic for a
//!   given `(seed, attempt)` so retry schedules are reproducible too.
//!
//! Nothing in this crate is wired in by default: a daemon or client
//! without a plan installed pays one `Option` check per operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod io;
pub mod plan;

pub use backoff::Backoff;
pub use io::{is_injected, ChaosReader, ChaosWriter};
pub use plan::{Fault, FaultKind, FaultPlan, FaultSpec, OpKind};
