//! Error types for MPLS control- and data-plane operations.

use crate::{Label, LspId};
use core::fmt;
use rbpc_graph::{EdgeId, NodeId, PathError};

/// Error returned by control-plane operations on an
/// [`MplsNetwork`](crate::MplsNetwork).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MplsError {
    /// A node id was out of range for the underlying graph.
    UnknownRouter {
        /// The offending router.
        router: NodeId,
    },
    /// An LSP id did not name an established LSP.
    UnknownLsp {
        /// The offending LSP id.
        lsp: LspId,
    },
    /// The LSP was already torn down.
    LspInactive {
        /// The torn-down LSP.
        lsp: LspId,
    },
    /// A trivial (zero-hop) path cannot be provisioned as an LSP.
    TrivialPath,
    /// LSPs given to a FEC entry do not concatenate (`lsps[i]` must end
    /// where `lsps[i + 1]` starts).
    BrokenChain {
        /// Index of the first LSP that does not start where its
        /// predecessor ends.
        position: usize,
    },
    /// A FEC chain must start at the router whose table is updated.
    ChainStartsElsewhere {
        /// Router whose FEC table was addressed.
        router: NodeId,
        /// Where the first LSP actually starts.
        chain_start: NodeId,
    },
    /// A label had no ILM entry at the given router (for ILM rewrites).
    NoSuchIlmEntry {
        /// The router.
        router: NodeId,
        /// The unmatched label.
        label: Label,
    },
    /// A label the router never allocated (reserved, or at or above its
    /// next label) cannot hold an ILM entry.
    UnallocatedLabel {
        /// The router.
        router: NodeId,
        /// The refused label.
        label: Label,
    },
    /// An underlying path error (propagated from path manipulation).
    Path(PathError),
}

impl fmt::Display for MplsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MplsError::UnknownRouter { router } => write!(f, "unknown router {router}"),
            MplsError::UnknownLsp { lsp } => write!(f, "unknown LSP {lsp}"),
            MplsError::LspInactive { lsp } => write!(f, "LSP {lsp} was torn down"),
            MplsError::TrivialPath => write!(f, "cannot establish an LSP over a zero-hop path"),
            MplsError::BrokenChain { position } => {
                write!(f, "LSP chain breaks at position {position}")
            }
            MplsError::ChainStartsElsewhere {
                router,
                chain_start,
            } => write!(f, "FEC chain for {router} starts at {chain_start} instead"),
            MplsError::NoSuchIlmEntry { router, label } => {
                write!(f, "router {router} has no ILM entry for {label}")
            }
            MplsError::UnallocatedLabel { router, label } => {
                write!(f, "router {router} never allocated {label}")
            }
            MplsError::Path(e) => write!(f, "path error: {e}"),
        }
    }
}

impl std::error::Error for MplsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MplsError::Path(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PathError> for MplsError {
    fn from(e: PathError) -> Self {
        MplsError::Path(e)
    }
}

/// Error produced while forwarding a packet through the data plane.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ForwardError {
    /// The source router has no FEC entry for the destination.
    NoFecEntry {
        /// Ingress router.
        router: NodeId,
        /// Destination with no entry.
        dest: NodeId,
    },
    /// A router received a label it has no ILM entry for (black hole).
    NoIlmEntry {
        /// The router that dropped the packet.
        router: NodeId,
        /// The unmatched label.
        label: Label,
    },
    /// The packet was directed over a failed link.
    DeadLink {
        /// Router at which the dead link was selected.
        router: NodeId,
        /// The failed link.
        link: EdgeId,
    },
    /// The packet was directed to a failed router.
    DeadRouter {
        /// The failed router the packet was sent to.
        router: NodeId,
    },
    /// The label stack emptied at a router that is not the destination —
    /// the packet would fall back to IP routing, which RBPC never needs.
    StackUnderflow {
        /// Where the stack emptied.
        router: NodeId,
    },
    /// Too many label operations: a forwarding loop.
    TtlExceeded {
        /// The TTL that was exhausted.
        ttl: u32,
    },
}

impl fmt::Display for ForwardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ForwardError::NoFecEntry { router, dest } => {
                write!(f, "router {router} has no FEC entry for destination {dest}")
            }
            ForwardError::NoIlmEntry { router, label } => {
                write!(f, "router {router} black-holed label {label}")
            }
            ForwardError::DeadLink { router, link } => {
                write!(f, "router {router} forwarded over failed link {link}")
            }
            ForwardError::DeadRouter { router } => {
                write!(f, "packet sent to failed router {router}")
            }
            ForwardError::StackUnderflow { router } => {
                write!(f, "label stack emptied at non-destination router {router}")
            }
            ForwardError::TtlExceeded { ttl } => write!(f, "ttl {ttl} exceeded: forwarding loop"),
        }
    }
}

impl std::error::Error for ForwardError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = MplsError::ChainStartsElsewhere {
            router: NodeId::new(1),
            chain_start: NodeId::new(2),
        };
        assert!(e.to_string().contains("n1"));
        assert!(e.to_string().contains("n2"));
        let f = ForwardError::DeadLink {
            router: NodeId::new(3),
            link: EdgeId::new(4),
        };
        assert!(f.to_string().contains("e4"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<MplsError>();
        assert_err::<ForwardError>();
    }

    #[test]
    fn path_error_converts() {
        let e: MplsError = PathError::Empty.into();
        assert!(matches!(e, MplsError::Path(PathError::Empty)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
