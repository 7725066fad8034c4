//! Restoration-latency simulation for RBPC.
//!
//! The paper's systems argument is about *time*: a broken LSP stays black
//! until some scheme rewrites forwarding state, and the schemes differ in
//! what has to happen first:
//!
//! * **local RBPC** — the adjacent router detects loss of signal and
//!   rewrites one ILM entry: restoration within the detection delay;
//! * **source RBPC** — the link-state flood must reach the LSP source,
//!   which then rewrites one FEC entry;
//! * **re-establishment** — the flood must reach the source *and* a new
//!   LSP must be signaled hop by hop (label request + mapping) before the
//!   FEC can switch over.
//!
//! This crate turns those narratives into numbers: a [`LatencyModel`] with
//! the relevant delays, a link-state [`flood_timeline`] (failure
//! notifications propagate along surviving links, which is a hop-count
//! Dijkstra), and per-scheme [`outage`] windows with packet-loss
//! estimates. See `examples/restoration_latency.rs` for the headline
//! comparison.
//!
//! The sweeps ([`outage_summary_threads`], [`churn_under_threads`]) fan
//! their independent per-pair work out on the workspace's one work pool,
//! [`rbpc_graph::par`], and fold per-chunk sums and maxima in chunk
//! order, so a summary is bit-identical for every thread count;
//! [`outage_summary`] and [`churn_under`] are the same sweeps on one
//! worker, run on the caller's thread.
//!
//! The full paper-to-code map (theorems, figures, tables -> modules and
//! tests) is in `docs/PAPER_MAP.md` at the repository root;
//! `docs/ARCHITECTURE.md` shows how the crates fit together.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod churn;
mod flow;
mod model;
mod outage;
mod storm;

pub use churn::{
    churn_sequence, churn_under, churn_under_threads, ChurnEvent, ChurnEventReport, ChurnSummary,
};
pub use flow::{simulate_flow, FlowConfig, FlowReport};
pub use model::{flood_timeline, FloodTimeline, LatencyModel};
pub use outage::{
    outage, outage_summary, outage_summary_threads, outage_under, OutageReport, OutageSummary,
    Scheme,
};
pub use storm::{storm_schedule, StormParams};
