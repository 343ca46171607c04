//! # tfsn-client
//!
//! The client SDK for the tfsn serving protocol — everything a remote
//! caller (or the cluster router) needs to speak to a `tfsn serve-http`
//! process, with **no dependency on the engine**:
//!
//! * [`proto`] — the versioned envelope protocol: [`Request`] /
//!   [`Response`] / [`ServiceError`] wire types, the mutation codec, and
//!   the replication [`proto::Response::WalRecords`] payload.
//! * [`query`] / [`answer`] — the JSONL [`TeamQuery`] / [`TeamAnswer`]
//!   line formats carried inside batches.
//! * [`report`] — the observability payload schemas ([`MetricsSnapshot`],
//!   [`TelemetryReport`]) so dashboards can parse `/v1/metrics` and
//!   `/v1/telemetry` without linking the server.
//! * [`client`] — [`HttpClient`], a minimal blocking keep-alive HTTP/1.1
//!   client with capped-jittered GET retries.
//!
//! The engine re-exports these modules under their historical
//! `tfsn_engine::{proto, query, answer, client}` paths, so server-side
//! code and pre-split callers compile unchanged. This crate is the half
//! of the protocol that ships to other processes; the serving half stays
//! in `tfsn-engine`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod client;
pub mod proto;
pub mod query;
pub mod report;

pub use answer::{AnswerStatus, TeamAnswer};
pub use client::{HttpClient, HttpReply};
pub use proto::{Request, RequestBody, Response, ServiceError, PROTOCOL_VERSION};
pub use query::{QueryReadError, TeamQuery};
pub use report::{MetricsSnapshot, TelemetryReport};
