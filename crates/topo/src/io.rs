//! Plain-text edge-list topology format.
//!
//! ```text
//! # comments and blank lines are ignored
//! nodes 4
//! edge 0 1 10
//! edge 1 2 1
//! edge 2 3 1
//! ```
//!
//! The format is line-oriented so real ISP or measurement-derived
//! topologies can be fed to the evaluation harness.

use core::fmt;
use rbpc_graph::{CostModel, Graph, GraphError};

/// Error produced when parsing an edge-list document.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyParseError {
    /// A line did not match `nodes <n>` or `edge <u> <v> <w>` (a weight
    /// must fit `u32`).
    Malformed {
        /// 1-based line number.
        line: usize,
    },
    /// The `nodes` header is missing before the first `edge` line.
    MissingHeader,
    /// A second `nodes` header, which would discard the graph read so far.
    DuplicateHeader {
        /// 1-based line number.
        line: usize,
    },
    /// The `nodes` header asks for more than [`CostModel::MAX_NODES`].
    TooManyNodes {
        /// 1-based line number.
        line: usize,
        /// The requested node count.
        nodes: usize,
    },
    /// An edge was rejected by the graph (self-loop, range, zero weight).
    Graph {
        /// 1-based line number.
        line: usize,
        /// The underlying graph error.
        source: GraphError,
    },
}

impl fmt::Display for TopologyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologyParseError::Malformed { line } => {
                write!(f, "malformed topology line {line}")
            }
            TopologyParseError::MissingHeader => {
                write!(f, "missing `nodes <n>` header before first edge")
            }
            TopologyParseError::DuplicateHeader { line } => {
                write!(f, "second `nodes` header at line {line}")
            }
            TopologyParseError::TooManyNodes { line, nodes } => write!(
                f,
                "line {line}: {nodes} nodes exceeds the limit of {}",
                CostModel::MAX_NODES
            ),
            TopologyParseError::Graph { line, source } => {
                write!(f, "invalid edge at line {line}: {source}")
            }
        }
    }
}

impl std::error::Error for TopologyParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TopologyParseError::Graph { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Parses an edge-list document into a [`Graph`].
///
/// # Errors
///
/// Returns [`TopologyParseError`] on malformed lines (including weights
/// that do not fit `u32`), a missing or repeated header, a node count
/// above [`CostModel::MAX_NODES`], or edges the graph rejects.
///
/// ```
/// use rbpc_topo::parse_edge_list;
/// let g = parse_edge_list("nodes 3\nedge 0 1 5\nedge 1 2 5\n")?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), rbpc_topo::TopologyParseError>(())
/// ```
pub fn parse_edge_list(text: &str) -> Result<Graph, TopologyParseError> {
    let mut graph: Option<Graph> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("nodes") => {
                let n: usize = field(&mut parts, line_no)?;
                if parts.next().is_some() {
                    return Err(TopologyParseError::Malformed { line: line_no });
                }
                if graph.is_some() {
                    return Err(TopologyParseError::DuplicateHeader { line: line_no });
                }
                if n > CostModel::MAX_NODES {
                    return Err(TopologyParseError::TooManyNodes {
                        line: line_no,
                        nodes: n,
                    });
                }
                graph = Some(Graph::new(n));
            }
            Some("edge") => {
                let g = graph.as_mut().ok_or(TopologyParseError::MissingHeader)?;
                let u: usize = field(&mut parts, line_no)?;
                let v: usize = field(&mut parts, line_no)?;
                // A weight that does not fit `u32` fails to parse.
                let w: u32 = field(&mut parts, line_no)?;
                if parts.next().is_some() {
                    return Err(TopologyParseError::Malformed { line: line_no });
                }
                g.add_edge(u, v, w)
                    .map_err(|source| TopologyParseError::Graph {
                        line: line_no,
                        source,
                    })?;
            }
            _ => return Err(TopologyParseError::Malformed { line: line_no }),
        }
    }
    graph.ok_or(TopologyParseError::MissingHeader)
}

/// The next field of line `line`, parsed as a `T`.
fn field<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<T, TopologyParseError> {
    parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(TopologyParseError::Malformed { line })
}

/// Serializes a graph to the edge-list format parsed by
/// [`parse_edge_list`]. Round-trips exactly.
pub fn write_edge_list(graph: &Graph) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "nodes {}", graph.node_count());
    for (_, rec) in graph.edges() {
        let _ = writeln!(
            out,
            "edge {} {} {}",
            rec.u.index(),
            rec.v.index(),
            rec.weight
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let g = parse_edge_list("nodes 3\nedge 0 1 5\nedge 1 2 7\n").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.weight(0.into()), 5);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# topology\n\nnodes 2\n  # indented comment\nedge 0 1 1\n\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn missing_header() {
        assert_eq!(
            parse_edge_list("edge 0 1 1\n").unwrap_err(),
            TopologyParseError::MissingHeader
        );
        assert_eq!(
            parse_edge_list("").unwrap_err(),
            TopologyParseError::MissingHeader
        );
    }

    #[test]
    fn malformed_lines() {
        assert_eq!(
            parse_edge_list("nodes x\n").unwrap_err(),
            TopologyParseError::Malformed { line: 1 }
        );
        assert_eq!(
            parse_edge_list("nodes 2\nedge 0 1\n").unwrap_err(),
            TopologyParseError::Malformed { line: 2 }
        );
        assert_eq!(
            parse_edge_list("nodes 2\nedge 0 1 1 9\n").unwrap_err(),
            TopologyParseError::Malformed { line: 2 }
        );
        assert_eq!(
            parse_edge_list("link 0 1 1\n").unwrap_err(),
            TopologyParseError::Malformed { line: 1 }
        );
    }

    #[test]
    fn graph_errors_carry_line() {
        let err = parse_edge_list("nodes 2\nedge 0 0 1\n").unwrap_err();
        match err {
            TopologyParseError::Graph { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        let err2 = parse_edge_list("nodes 2\nedge 0 5 1\n").unwrap_err();
        assert!(matches!(err2, TopologyParseError::Graph { line: 2, .. }));
    }

    #[test]
    fn round_trip() {
        let g = crate::gnm_connected(12, 20, 9, 4);
        let text = write_edge_list(&g);
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn round_trip_parallel_edges() {
        let p = crate::parallel_chain(2);
        let text = write_edge_list(&p.graph);
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(p.graph, back);
    }

    #[test]
    fn second_header_is_an_error() {
        // Replacing the graph would silently drop edge 0-1.
        assert_eq!(
            parse_edge_list("nodes 3\nedge 0 1 1\nnodes 3\nedge 1 2 1\n").unwrap_err(),
            TopologyParseError::DuplicateHeader { line: 3 }
        );
        assert_eq!(
            parse_edge_list("nodes 3\nnodes 4\n").unwrap_err(),
            TopologyParseError::DuplicateHeader { line: 2 }
        );
    }

    #[test]
    fn weight_above_u32_is_an_error_not_truncated() {
        // 4 294 967 301 = 2^32 + 5, which `as u32` would load as 5.
        assert_eq!(
            parse_edge_list("nodes 2\nedge 0 1 4294967301\n").unwrap_err(),
            TopologyParseError::Malformed { line: 2 }
        );
        let g = parse_edge_list("nodes 2\nedge 0 1 4294967295\n").unwrap();
        assert_eq!(g.weight(0.into()), u32::MAX);
    }

    #[test]
    fn node_count_above_the_cost_model_limit_is_an_error() {
        let max = CostModel::MAX_NODES;
        for n in [max + 1, usize::MAX] {
            assert_eq!(
                parse_edge_list(&format!("nodes {n}\n")).unwrap_err(),
                TopologyParseError::TooManyNodes { line: 1, nodes: n }
            );
        }
    }
}
