//! `pdf-serve` — fuzzing as a service.
//!
//! A long-lived [`Daemon`] accepts campaign submissions over the
//! zero-dependency, text-framed [`pdf-wire v1`](wire) TCP protocol and
//! multiplexes them across a bounded worker pool. Each campaign is a
//! [`pdf_fleet::Fleet`] advanced one synchronization epoch per
//! scheduler slice, its lifecycle a first-class state machine
//! ([`Phase`]/[`Event`]/[`transition`]) with the submission and every
//! accepted transition appended to an on-disk [journal] before it takes
//! effect.
//!
//! The layers, bottom up:
//!
//! - [`lifecycle`] — the `Queued → Running ⇄ Paused → Done/Failed/
//!   Cancelled` state machine, one transition table as the single
//!   source of truth.
//! - [`wire`] — the `pdf-wire v1` codec: requests, responses, campaign
//!   specs and statuses as `tag k=v` lines.
//! - [`journal`] — the append-only `pdf-serve v2` journal, the only
//!   durable record of a campaign.
//! - [`daemon`] — the scheduler: bounded worker pool, deadline-first
//!   slice dispatch, per-boundary checkpointing, restart recovery.
//! - [`server`] / [`client`] — the TCP front end and the blocking
//!   client library.
//!
//! # Durability contract
//!
//! With a state directory, the journal holds every campaign's spec and
//! status: a submission or client transition is synced to it before
//! the daemon answers `ok`, or refused with [`ServeError::Unavailable`].
//! Each slice boundary writes the fleet checkpoint
//! (`pdf-checkpoint`/`pdf-fleet` codecs) and nothing else. Kill the
//! daemon at any moment and [`Daemon::open`] on the same directory
//! resumes every acknowledged campaign; because re-running the lost
//! epoch from its checkpoint is deterministic, the final report digests
//! are **byte-identical** to an uninterrupted run. The serve soak,
//! chaos soak and kill/resume tests hold this contract under hundreds
//! of interleaved campaigns.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use pdf_serve::{CampaignSpec, Daemon, DaemonConfig, Phase, ServeClient, Server};
//!
//! let daemon = Arc::new(Daemon::open(DaemonConfig::in_memory(2)).unwrap());
//! let mut server = Server::start(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
//! let mut client = ServeClient::connect(&server.local_addr().to_string()).unwrap();
//!
//! let id = client.submit(&CampaignSpec::new("arith", 1, 300)).unwrap();
//! let done = client.wait_terminal(id, Duration::from_secs(60)).unwrap();
//! assert_eq!(done.phase, Phase::Done);
//! assert!(done.digest.is_some());
//!
//! server.stop();
//! daemon.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod journal;
pub mod lifecycle;
pub mod server;
pub mod wire;

pub use client::{ClientError, RetryClient, RetryPolicy, ServeClient};
pub use daemon::{
    checkpoint_dir, fleet_config, journal_path, prev_checkpoint_dir, Daemon, DaemonConfig,
    ServeError,
};
pub use journal::{
    read_journal, recover_journal, Journal, JournalRecord, RecoveredJournal, JOURNAL_HEADER,
};
pub use lifecycle::{transition, Event, IllegalTransition, Phase, LEGAL_TRANSITIONS};
// Re-exported so clients of this crate configure chaos/backoff without
// naming pdf-chaos directly.
pub use pdf_chaos::{Backoff, FaultPlan, FaultSpec};
pub use server::{Server, ServerConfig};
pub use wire::{
    default_sync_every, parse_mode, read_capped_line, status_fields, status_from_fields,
    CampaignSpec, CampaignStatus, Request, Response, WireError, MAX_LINE, WIRE_HEADER,
};
