//! Experiment harness regenerating every table and figure of the RBPC
//! paper (Afek, Bremler-Barr, Cohen, Kaplan, Merritt, PODC 2001).
//!
//! | Paper artifact | Module | What it reports |
//! |---|---|---|
//! | Table 1 | [`mod@table1`] | nodes / links / average degree per topology |
//! | Table 2 | [`table2`] | ILM stretch factor, PC length, length stretch, redundancy after 1–2 link / router failures |
//! | Table 3 | [`mod@table3`] | distribution of min-cost bypass hop counts |
//! | Figure 10 | [`mod@figure10`] | cost / hop-count stretch histograms of local RBPC |
//!
//! The paper's topologies are proprietary or unobtainable; [`suite`]
//! generates the synthetic stand-ins described in `DESIGN.md` at either
//! the paper's full scale ([`EvalScale::Paper`]) or a quick scale for CI
//! and benches ([`EvalScale::Quick`]). Sampling follows the paper's
//! protocol (200 pairs on the ISP, 40 on the large graphs), parallelized
//! with std scoped threads; everything is deterministic per seed.
//!
//! Beyond the paper's artifacts, [`mod@loadtest`] drives paced restore
//! queries under deterministic failure storms and reports per-window
//! latency quantiles, restored/dropped counts, and concatenation-depth
//! distributions as live JSONL (the `rbpc-eval loadtest` subcommand).
//! An armed SLO watchdog freezes the flight-recorder ring into a
//! self-contained incident file on the first breached window, and
//! [`mod@incident`] replays such files deterministically with
//! validators on (the `rbpc-eval replay` subcommand): every recorded
//! plan must hash-match its re-execution.
//!
//! [`mod@paperscale`] provisions the paper's largest topology — the
//! 40 377-node Internet router map — end to end through the implicit
//! bounded base-path store ([`rbpc_core::BasePaths`]) under a stated
//! memory budget, reproducing the paper's 40-sample protocol and
//! optionally sweeping every source (the `rbpc-eval paper-scale`
//! subcommand); the memory math and workflow live in `docs/SCALE.md`.
//!
//! The full paper-to-code map (theorems, figures, tables -> modules and
//! tests) is in `docs/PAPER_MAP.md` at the repository root;
//! `docs/ARCHITECTURE.md` shows how the crates fit together.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablation;
pub mod figure10;
pub mod incident;
pub mod loadtest;
pub mod paperscale;
pub mod report;
pub mod sampling;
pub mod suite;
pub mod table1;
pub mod table2;
pub mod table3;

pub use ablation::{
    decomposition_agreement, ksp_comparison, protection_coverage, provisioning_footprint,
    DecompositionAgreement, KspRow, ProtectionCoverage, ProvisioningFootprint,
};
pub use figure10::{figure10, Figure10, StretchHistogram};
pub use incident::{
    parse_incident, replay_incident, write_incident, IncidentHeader, ReplayReport, TopoSpec,
    INCIDENT_FORMAT,
};
pub use loadtest::{
    run_id_for_seed, run_loadtest, run_loadtest_watched, IncidentSink, LoadtestConfig,
    LoadtestReport, WindowStats,
};
pub use paperscale::{
    internet_case, run_paper_scale, PaperScaleConfig, PaperScaleReport, SweepSummary, SweepWindow,
    INTERNET_CASE,
};
pub use report::{format_table, Csv};
pub use sampling::sample_pairs;
pub use suite::{eval_store, standard_suite, EvalScale, NetworkCase};
pub use table1::{table1, Table1Row};
pub use table2::{table2_block, FailureClass, Table2Row};
pub use table3::{table3, BypassHistogram};
