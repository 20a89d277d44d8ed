//! `subdex-service`: a concurrent multi-session exploration server.
//!
//! Hosts many [`subdex_core::ExplorationSession`]s behind a thread-safe
//! registry, executes exploration steps on a bounded worker pool with
//! explicit backpressure, and shares exact map distances across sessions
//! through [`subdex_store::DistanceCache`]. Rating groups are not shared:
//! every step materializes its own.

pub mod metrics;
pub mod registry;
pub mod service;

pub use metrics::{MetricsSnapshot, ServiceMetrics, LATENCY_BUCKETS_US};
pub use registry::{SessionId, SessionRegistry};
pub use service::{
    ServiceConfig, ServiceError, StepRequest, StepTicket, SubdexService, SubmitError,
};
