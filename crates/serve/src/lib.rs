//! # ssdrec-serve
//!
//! The online inference subsystem: serve a trained checkpoint over HTTP
//! with scores **bit-identical** to the offline evaluation path, using
//! nothing outside `std`.
//!
//! Pipeline per request:
//!
//! ```text
//! TcpListener ──► connection thread ──► validate ──► session cache ──┐
//!                                                                    │ miss
//!                      mpsc queue ◄─────────────────────────────────┘
//!                          │  (coalesce up to max_batch, linger a moment)
//!                          ▼
//!             worker thread: frozen Graph (params bound once, stage-1
//!             tables + scorer transpose precomputed below a mark)
//!                          │  eval_scores_frozen → top_k per row
//!                          ▼
//!                  responses + /metrics histograms
//! ```
//!
//! See `DESIGN.md` §"Serving architecture" for the full rationale.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod http;
pub mod json;
pub mod server;
pub mod stats;
pub mod swap;

pub use client::{request_with_retry, ClientError, RetryPolicy};
pub use engine::{
    Engine, EngineConfig, InferenceModel, RecError, Recommendation, RetrievalConfig, RetrievalMode,
};
pub use server::{serve, serve_slot, serve_with, ServeConfig, ServerHandle};
pub use stats::{nearest_rank, LatencyHistogram, RetrievalInfo, ServerStats};
pub use swap::{EngineSlot, LoadedModel, ModelLoader, ReloadOutcome};
