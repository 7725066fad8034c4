//! MPLS data- and control-plane simulator for the RBPC reproduction.
//!
//! The RBPC paper's claims are claims about MPLS *tables* and *signaling*:
//! how many ILM entries base-path provisioning needs versus explicit backup
//! pre-provisioning, and how little work a source-router FEC rewrite (or a
//! local ILM splice) is compared with tearing down and re-establishing
//! LSPs. This crate models exactly those mechanisms:
//!
//! * per-router **ILM** (incoming label map) and **FEC** (forwarding
//!   equivalence class) tables with per-platform label spaces
//!   ([`Router`]);
//! * **LSP establishment and teardown** with downstream label assignment,
//!   optional penultimate-hop popping, and signaling-message accounting
//!   ([`MplsNetwork`], [`SignalingStats`]);
//! * the **label stack**: push/swap/pop/replace operations
//!   ([`LabelStack`], [`IlmOp`]), which is the paper's concatenation
//!   mechanism;
//! * **packet forwarding** with TTL and failure awareness, so every
//!   restoration scheme can be validated by actually routing a packet
//!   ([`MplsNetwork::forward`], [`ForwardTrace`]).
//!
//! Every LSR on an LSP — including the ingress — allocates an incoming
//! label. The ingress label is what makes *path concatenation* work: any
//! router can splice a packet onto an LSP that starts at itself by exposing
//! that label at the top of the stack.
//!
//! # Example
//!
//! ```
//! use rbpc_graph::{Graph, Path};
//! use rbpc_mpls::MplsNetwork;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Graph::new(3);
//! let e0 = g.add_edge(0, 1, 1)?;
//! let e1 = g.add_edge(1, 2, 1)?;
//! let path = Path::from_edges(&g, 0.into(), &[e0, e1])?;
//!
//! let mut net = MplsNetwork::new(g);
//! let lsp = net.establish_lsp(path.clone())?;
//! net.set_fec_via_lsps(0.into(), 2.into(), &[lsp])?;
//!
//! let trace = net.forward(0.into(), 2.into())?;
//! assert_eq!(trace.route(), path.nodes());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;
mod label;
mod merged;
mod network;
mod packet;
mod router;
mod signaling;

pub use error::{ForwardError, MplsError};
pub use label::{Label, LabelStack, LspId};
pub use merged::{SinkTreeId, SinkTreeRecord};
pub use network::{LspRecord, MplsNetwork};
pub use packet::ForwardTrace;
pub use router::{FecEntry, IlmEntry, IlmOp, Router};
pub use signaling::SignalingStats;
