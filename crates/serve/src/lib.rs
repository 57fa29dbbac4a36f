//! # bobw-serve
//!
//! The persistent experiment service behind `bobw serve`: a long-lived
//! daemon that keeps a warm worker fleet between sweeps.
//!
//! The batch coordinator (`bobw_dist`) spins up per run: workers
//! connect, build a testbed, compute one grid, and everything is torn
//! down. For iterating on the paper's evaluation — same topology, many
//! sweeps — that cold start dominates. This crate keeps the coordinator
//! resident:
//!
//! * [`daemon`] — one listener classifies each connection by its
//!   greeting: workers go to the coordinator's [`bobw_dist::WorkerPort`]
//!   (unchanged worker protocol, so `bobw-worker` binaries and their
//!   process-wide testbed cache work as-is), clients get the job API.
//!   A FIFO scheduler drains the queue one batch at a time; `--state-dir`
//!   persists jobs across restarts.
//! * [`proto`] — the client half of the wire protocol (submit, watch,
//!   jobs, status, matrix, quit) on the same framed codec.
//! * [`job`] — the JSON job spec, the one builder that turns its
//!   request fields into an experiment config (the `bobw` command line
//!   goes through it too), and its expansion into the exact cell grid the
//!   local runner would enumerate — service results are byte-identical
//!   to a local `--jobs 1` run.
//! * [`client`] — [`ServeClient`], the typed connection the CLI
//!   subcommands and the bench runner's `daemon:` dispatch use.
//! * [`matrix`] — the pooled resilience matrix over completed jobs.
//!
//! Authentication rides the coordinator's v4 challenge/tag handshake:
//! one shared secret (`BOBW_SECRET` / `--secret-file`) vets workers and
//! clients alike; without one the daemon runs open, like the batch
//! coordinator.

pub mod client;
pub mod daemon;
pub mod job;
pub mod matrix;
pub mod proto;

pub use client::ServeClient;
pub use daemon::{run, start, DaemonHandle, ServeConfig, StatusSnapshot};
pub use job::{build_config, expand_spec, ExpandedJob, JobRow, JobSpec, Scale};
pub use matrix::{MatrixCell, ResilienceMatrix};
pub use proto::{ClientReply, ClientRequest, JobState, JobTask};
