//! `fedsched-service` — an online admission-control server for federated
//! scheduling of constrained-deadline sporadic DAG tasks (Baruah,
//! DATE 2015), with incremental FEDCONS and analysis caching.
//!
//! Batch [`fedcons`](fedsched_core::fedcons::fedcons) answers "is this task
//! *set* schedulable on `m` processors?" once, offline. A long-running
//! system instead sees tasks arrive and depart one at a time and must
//! answer per task, online, without re-analysing the world. This crate
//! provides that service:
//!
//! * [`state`] — [`AdmissionState`]: the live
//!   platform (dedicated clusters plus the shared EDF pool) with
//!   incremental `admit`/`remove` operations whose decisions provably
//!   coincide with a batch FEDCONS run over the resident set;
//! * [`cache`] — memoized `MINPROCS` sizings and frozen LS templates,
//!   keyed by a canonical DAG encoding, so repeated shapes skip the
//!   expensive List-Scheduling search entirely;
//! * [`protocol`] — newline-delimited JSON requests and responses;
//! * [`server`] — one epoll reactor accepting and multiplexing every
//!   connection, a dispatch pool of [`ServerConfig::workers`] threads
//!   running the request pipeline, in-process [`Session`]s on the same
//!   pipeline, and the [`ConnectionLimits`] hardening knobs (IO
//!   deadlines, frame caps, backpressure);
//! * [`client`] — a blocking client speaking the same protocol, with
//!   deadlines and an automatic `Busy` retry ([`ClientConfig`]);
//! * [`chaos`] — a fault-injection client ([`ChaosClient`]) for driving
//!   hostile traffic against the server in tests;
//! * [`stats`] — per-phase admission counters, cache hit rates,
//!   transport-hardening counters, durability counters, and a log-scale
//!   decision-latency histogram;
//! * [`recovery`] — rebuilding the admission state from a
//!   `fedsched-durable` snapshot plus write-ahead-log suffix: snapshots
//!   restore structurally, the log suffix replays by verified
//!   re-execution through the real engine.
//!
//! # Examples
//!
//! An in-process round trip over a loopback socket:
//!
//! ```
//! use fedsched_dag::task::DagTask;
//! use fedsched_dag::time::Duration;
//! use fedsched_service::client::Client;
//! use fedsched_service::protocol::Response;
//! use fedsched_service::server::{serve, ConnectionLimits, ServerConfig};
//! use fedsched_service::state::AdmissionConfig;
//!
//! # fn main() -> std::io::Result<()> {
//! let handle = serve(&ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     workers: 2,
//!     admission: AdmissionConfig::new(4),
//!     limits: ConnectionLimits::default(),
//!     durability: None,
//!     handoff_from: None,
//! })?;
//! let mut client = Client::connect(handle.local_addr())?;
//! let task = DagTask::sequential(Duration::new(1), Duration::new(4), Duration::new(8))
//!     .expect("valid task");
//! assert!(matches!(client.admit(&task)?, Response::Admitted { .. }));
//! client.shutdown()?;
//! handle.join();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod client;
mod pipeline;
pub mod protocol;
mod reactor;
pub mod recovery;
pub mod server;
pub mod state;
pub mod stats;

pub use cache::TemplateCache;
pub use chaos::ChaosClient;
pub use client::{Client, ClientConfig};
pub use protocol::{Placement, Request, RequestTiming, Response};
pub use recovery::{recover_state, RecoverError, ReplayReport};
pub use server::{
    serve, ConnectionLimits, ServerConfig, ServerHandle, Session, StageCounters, StageTimer,
    TransportCounters,
};
pub use state::{AdmissionConfig, AdmissionState, Admitted, RejectReason, Removed, UnknownToken};
pub use stats::{
    render_prometheus, DurabilityStats, LatencyHistogram, ReactorStats, RequestStage, StageStats,
    Stats, StatsSnapshot, TransportStats,
};
