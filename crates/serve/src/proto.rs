//! The client half of the service wire protocol.
//!
//! Workers speak the unchanged `bobw_dist` coordinator protocol; this
//! module adds what a *client* connection exchanges after its
//! `Greeting::Client` handshake is welcomed: framed [`ClientRequest`] /
//! [`ClientReply`] messages on the same codec, each a `wire_enum!`. Every
//! request gets at least one reply; `Watch` streams a [`ClientReply::Cell`]
//! per completed cell (in completion order) and terminates with
//! [`ClientReply::JobDone`]. `SubmitRaw` carries its config as canonical
//! JSON, like a coordinator's batch header.

use bobw_core::ExperimentConfig;
use bobw_dist::{wire_enum, wire_struct};
use bobw_dist::{CellOutput, CellSpec};

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for the scheduler (FIFO by job id).
    Queued,
    /// Its batch is on the coordinator now.
    Running,
    /// Every cell completed; outputs are available.
    Done,
    /// The batch errored (interrupt, poisoned cell, …); see the job error.
    Failed,
}

impl JobState {
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Inverse of [`JobState::as_str`], for reloading persisted metadata.
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }
}

/// What a welcomed client may ask the daemon.
#[derive(Debug, Clone)]
pub enum ClientRequest {
    /// Submit a job described by a [`crate::job::JobSpec`] JSON document;
    /// the daemon expands it to a cell grid.
    Submit { spec_json: String },
    /// Submit an exact, pre-expanded batch — the `--dispatch daemon:…`
    /// path, which must reproduce a local run byte-for-byte and therefore
    /// ships its own config and cell list rather than a spec.
    SubmitRaw {
        name: String,
        config: Box<ExperimentConfig>,
        cells: Vec<CellSpec>,
    },
    /// List all jobs the daemon knows (including reloaded ones).
    Jobs,
    /// Stream the job's completed cells (replaying any that already
    /// landed), then its terminal state.
    Watch { job_id: u64 },
    /// The metrics plane: queue/job counters, throughput, worker liveness.
    Status,
    /// The resilience matrix aggregated over all completed jobs.
    Matrix,
    /// Shut the daemon down (drains workers, persists state).
    Quit,
}

/// Daemon → client replies.
#[derive(Debug, Clone)]
pub enum ClientReply {
    /// The request failed; the connection stays usable.
    Error {
        message: String,
    },
    Submitted {
        job_id: u64,
    },
    /// JSON array of [`crate::job::JobRow`].
    Jobs {
        rows_json: String,
    },
    /// One completed cell of a watched job (completion order). Boxed to
    /// keep the enum small next to the result payload.
    Cell {
        job_id: u64,
        cell_index: u64,
        output: Box<CellOutput>,
    },
    /// Terminal frame of a watch stream.
    JobDone {
        job_id: u64,
        state: JobState,
        error: Option<String>,
    },
    /// JSON of [`crate::daemon::StatusSnapshot`].
    Status {
        json: String,
    },
    /// JSON of [`crate::matrix::ResilienceMatrix`].
    Matrix {
        json: String,
    },
    /// Acknowledges `Quit`.
    Bye,
}

wire_enum!(JobState {
    Queued,
    Running,
    Done,
    Failed
});

wire_enum!(ClientRequest {
    Submit { spec_json },
    SubmitRaw {
        name,
        config,
        cells
    },
    Jobs,
    Watch { job_id },
    Status,
    Matrix,
    Quit
});

wire_enum!(ClientReply {
    Error { message },
    Submitted { job_id },
    Jobs { rows_json },
    Cell {
        job_id,
        cell_index,
        output
    },
    JobDone {
        job_id,
        state,
        error
    },
    Status { json },
    Matrix { json },
    Bye
});

/// The replayable essence of a job, persisted to `--state-dir` as wire
/// bytes (`job-<id>.task.bin`) so a restarted daemon re-runs exactly the
/// batch that was submitted — same config, same cell order. The config
/// part is its canonical JSON, as on the wire; a task written before
/// configs crossed as JSON fails to decode and is skipped on reload.
#[derive(Debug, Clone)]
pub struct JobTask {
    pub config: ExperimentConfig,
    pub cells: Vec<CellSpec>,
}

wire_struct!(JobTask { config, cells });

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_dist::wire::{decode_exact, encode_vec};

    #[test]
    fn requests_round_trip() {
        let reqs = [
            ClientRequest::Submit {
                spec_json: "{\"techniques\": [\"anycast\"]}".into(),
            },
            ClientRequest::SubmitRaw {
                name: "bench".into(),
                config: Box::new(ExperimentConfig::quick(3)),
                cells: vec![CellSpec::Failover {
                    technique: "anycast".into(),
                    site: "bos".into(),
                }],
            },
            ClientRequest::Jobs,
            ClientRequest::Watch { job_id: 7 },
            ClientRequest::Status,
            ClientRequest::Matrix,
            ClientRequest::Quit,
        ];
        for req in &reqs {
            let bytes = encode_vec(req);
            let back: ClientRequest = decode_exact(&bytes).unwrap();
            // The config has no PartialEq; compare debug skeletons.
            assert_eq!(
                std::mem::discriminant(req),
                std::mem::discriminant(&back),
                "{req:?}"
            );
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            ClientReply::Error {
                message: "no".into(),
            },
            ClientReply::Submitted { job_id: 3 },
            ClientReply::Jobs {
                rows_json: "[]".into(),
            },
            ClientReply::JobDone {
                job_id: 3,
                state: JobState::Failed,
                error: Some("boom".into()),
            },
            ClientReply::Status { json: "{}".into() },
            ClientReply::Matrix { json: "{}".into() },
            ClientReply::Bye,
        ];
        for reply in &replies {
            let bytes = encode_vec(reply);
            let back: ClientReply = decode_exact(&bytes).unwrap();
            assert_eq!(
                std::mem::discriminant(reply),
                std::mem::discriminant(&back),
                "{reply:?}"
            );
        }
    }

    #[test]
    fn job_state_round_trips() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
        ] {
            let bytes = encode_vec(&state);
            assert_eq!(decode_exact::<JobState>(&bytes).unwrap(), state);
            assert_eq!(JobState::parse(state.as_str()), Some(state));
        }
        assert_eq!(JobState::parse("weird"), None);
    }
}
