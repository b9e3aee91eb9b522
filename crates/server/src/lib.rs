//! # sdd-server
//!
//! A concurrent, multi-session smart drill-down server: many independent
//! analyst sessions over one shared table, served over a line-delimited
//! JSON protocol on TCP (see `PROTOCOL.md`), with §4.3 sample prefetch
//! running on a background worker so scans overlap analyst think-time.
//!
//! Built std-only (no tokio/serde — the build environment has no registry
//! access): `std::net::TcpListener`, a [`sdd_core::exec::TaskPool`] of
//! connection workers, a hand-rolled deterministic [`json`] module, and an
//! owned/`Arc`-backed session stack ([`sdd_explorer::Explorer`] over
//! `Arc<Table>`).
//!
//! ## Determinism contract
//!
//! For any fixed per-session request sequence, the response byte stream is
//! identical no matter how many clients run concurrently, how large the
//! worker pool is, or whether the background prefetch worker wins or loses
//! its race with the next request. The layers that make this true:
//!
//! * sessions share nothing but the immutable table ([`Engine`]);
//! * per-session operations serialize on the session's own lock
//!   ([`registry::Registry`] hands out `Arc<Mutex<Explorer>>`);
//! * deferred prefetch jobs always run between the expansion that created
//!   them and the next operation on that session
//!   ([`sdd_explorer::PrefetchMode::Deferred`]);
//! * sample draws are seeded per `(seed, rule)` and all kernel scans are
//!   bit-identical across thread counts (PR 1/2 groundwork);
//! * JSON objects serialize in construction order ([`json::Json`]).
//!
//! The workspace-level `tests/server_stress.rs` harness pins the whole
//! stack: N concurrent TCP clients replayed single-threaded through a
//! fresh [`Engine`] must produce byte-identical transcripts.

#![warn(missing_docs)]

pub mod auth;
pub mod cache;
pub mod engine;
pub mod http;
pub mod json;
pub mod metrics;
pub mod predict;
pub mod protocol;
pub mod registry;
pub mod server;

pub use auth::{Tenant, TenantQuota, TenantRegistry};
pub use cache::{CacheCounters, SearchCache, TenantCacheView};
pub use engine::{Engine, EngineConfig, TailConfig};
pub use http::{HttpClient, HttpReply};
pub use json::Json;
pub use metrics::{LatencyHistogram, Metrics, Transport};
pub use predict::{PredictCounters, TransitionModel};
pub use protocol::{OpenOptions, Request, Response, RuleInfo, StatsInfo};
pub use registry::{Registry, RegistryError, TenantId, ANONYMOUS_TENANT};
pub use server::{Client, Server, ServerConfig, ServerHandle};
