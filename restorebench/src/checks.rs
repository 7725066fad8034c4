//! Correctness checks on every restoration the benchmark produces. They
//! run outside the timed regions; each one that fails counts toward the
//! run's `failed` total.

use rbpc_core::{BasePathOracle, Restoration, SegmentKind};
use rbpc_graph::{shortest_path, FailureSet, NodeId, Path};

/// Whether `path` avoids every failed edge and router — the affected check
/// `Restorer::restore` makes on the base path.
pub fn survives(path: &Path, failures: &FailureSet) -> bool {
    path.edges().iter().all(|&e| !failures.edge_failed(e))
        && path.nodes().iter().all(|&v| !failures.node_failed(v))
}

/// Checks one restoration of `s → t` under `failures`:
///
/// * the backup runs `s → t` and avoids every failed element;
/// * `concatenation.full_path() == backup`;
/// * every base-path segment is a base path of `oracle`;
/// * with edge-only failures, the Theorem 2 stack bound holds;
/// * with `reference`, the backup costs exactly what a from-scratch
///   Dijkstra over the failed view finds.
///
/// # Errors
///
/// A description of the first check that failed.
pub fn check_restoration<O: BasePathOracle>(
    oracle: &O,
    s: NodeId,
    t: NodeId,
    failures: &FailureSet,
    r: &Restoration,
    reference: bool,
) -> Result<(), String> {
    let backup = &r.backup;
    if backup.source() != s || backup.target() != t {
        return Err(format!("{s}->{t}: backup runs {backup}"));
    }
    if !survives(backup, failures) {
        return Err(format!("{s}->{t}: backup crosses a failed element"));
    }
    if r.concatenation.full_path().as_ref() != Some(backup) {
        return Err(format!("{s}->{t}: concatenation does not spell the backup"));
    }
    for seg in r.concatenation.segments() {
        if seg.kind == SegmentKind::BasePath && !oracle.is_base_path(&seg.path) {
            return Err(format!("{s}->{t}: segment {} is no base path", seg.path));
        }
    }
    if failures.failed_node_count() == 0 {
        r.concatenation
            .validate_bounds(failures.failed_edge_count())
            .map_err(|e| format!("{s}->{t}: {e}"))?;
    }
    if reference {
        let graph = oracle.graph();
        let model = oracle.cost_model();
        match shortest_path(&failures.view(graph), model, s, t) {
            Some(want) if want.cost(graph, model) == r.backup_cost => {}
            Some(want) => {
                return Err(format!(
                    "{s}->{t}: backup costs {:?}, Dijkstra finds {:?}",
                    r.backup_cost,
                    want.cost(graph, model)
                ))
            }
            None => return Err(format!("{s}->{t}: restored a disconnected pair")),
        }
    }
    Ok(())
}

/// Confirms a `Disconnected` result with a from-scratch Dijkstra.
///
/// # Errors
///
/// When the failed view still connects `s` and `t`.
pub fn check_disconnected<O: BasePathOracle>(
    oracle: &O,
    s: NodeId,
    t: NodeId,
    failures: &FailureSet,
) -> Result<(), String> {
    match shortest_path(&failures.view(oracle.graph()), oracle.cost_model(), s, t) {
        None => Ok(()),
        Some(p) => Err(format!("{s}->{t}: reported disconnected, but {p} survives")),
    }
}
