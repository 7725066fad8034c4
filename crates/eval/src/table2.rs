//! Table 2: source-router RBPC under 1–2 link and router failures.
//!
//! For each sampled source–destination pair we enumerate failure events on
//! its base path (each link; each unordered pair of links; each interior
//! router; each unordered pair of interior routers), restore, and report:
//!
//! * **ILM stretch factor** — per router, the ILM entries needed by the
//!   base LSPs used in the experiment as a fraction of the entries explicit
//!   backup pre-provisioning would need (the same base LSPs plus one backup
//!   LSP per pair per failure event); min and average over routers. Concatenation segments add **no** numerator state: each
//!   base-path segment is exactly the canonical base LSP of its endpoints,
//!   already provisioned under all-pairs RBPC — only raw-edge segments
//!   (one-hop LSPs outside the base set) are charged;
//! * **average PC length** — mean number of concatenated pieces;
//! * **length stretch factor** — mean backup hop count over mean original
//!   hop count;
//! * **redundancy** — fraction of backup paths whose cost equals the
//!   original (an equal-cost alternative existed), plus (for the one-link
//!   block) the maximum shortest-path multiplicity over sampled sources.

use crate::format_table;
use rbpc_core::{BasePathOracle, Restorer, SegmentKind};
use rbpc_graph::{count_shortest_paths, par, splitmix64, FailureSet, NodeId};
use std::collections::HashMap;

/// The four failure classes of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// Every single link of the base path fails (one at a time).
    OneLink,
    /// Every unordered pair of base-path links fails.
    TwoLinks,
    /// Every interior router of the base path fails.
    OneRouter,
    /// Every unordered pair of interior routers fails.
    TwoRouters,
}

impl FailureClass {
    /// All four classes, in the paper's order.
    pub fn all() -> [FailureClass; 4] {
        [
            FailureClass::OneLink,
            FailureClass::TwoLinks,
            FailureClass::OneRouter,
            FailureClass::TwoRouters,
        ]
    }

    /// The paper's block caption.
    pub fn label(self) -> &'static str {
        match self {
            FailureClass::OneLink => "After one link failure",
            FailureClass::TwoLinks => "After two link failures",
            FailureClass::OneRouter => "After one router failure",
            FailureClass::TwoRouters => "After two router failures",
        }
    }

    /// The paper's theoretical `k` (a router failure counts per incident
    /// edge, so only link classes have a fixed `k`).
    pub fn k_edges(self) -> Option<usize> {
        match self {
            FailureClass::OneLink => Some(1),
            FailureClass::TwoLinks => Some(2),
            _ => None,
        }
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Network name.
    pub network: String,
    /// Failure class of this block.
    pub class: FailureClass,
    /// Minimum ILM stretch factor over routers (fraction, not percent).
    pub min_ilm_sf: f64,
    /// Average ILM stretch factor over routers.
    pub avg_ilm_sf: f64,
    /// Average PC length.
    pub avg_pc_length: f64,
    /// Length stretch factor.
    pub length_sf: f64,
    /// Redundancy: fraction of backup paths with cost equal to original.
    pub redundancy: f64,
    /// Max shortest-path multiplicity over sampled sources (one-link block
    /// only, as in the paper).
    pub max_multiplicity: Option<u64>,
    /// Number of restoration events measured.
    pub events: usize,
    /// Events skipped because the failure disconnected the pair.
    pub skipped: usize,
}

#[derive(Hash, PartialEq, Eq, Clone, Copy)]
enum LspKey {
    /// Base LSP of an ordered pair.
    Pair(u32, u32),
    /// One-hop LSP over an edge, entered at a given endpoint.
    Edge(u32, u32),
    /// An explicit backup LSP: endpoints plus a failure-event hash (the
    /// explicit scheme provisions one backup per pair per failure event,
    /// indexed by the failure — the paper's "for each link … for each
    /// affected path establish a backup LSP").
    Backup(u32, u32, u64),
}

#[derive(Default)]
struct Acc {
    events: usize,
    skipped: usize,
    pc_sum: u64,
    backup_hops: u64,
    orig_hops: u64,
    preserved: usize,
    /// LSPs the RBPC scheme needs: key → routers on the LSP.
    rbpc: HashMap<LspKey, Vec<u32>>,
    /// LSPs explicit pre-provisioning needs.
    full: HashMap<LspKey, Vec<u32>>,
}

impl Acc {
    fn merge(&mut self, other: Acc) {
        self.events += other.events;
        self.skipped += other.skipped;
        self.pc_sum += other.pc_sum;
        self.backup_hops += other.backup_hops;
        self.orig_hops += other.orig_hops;
        self.preserved += other.preserved;
        self.rbpc.extend(other.rbpc);
        self.full.extend(other.full);
    }
}

fn routers_of(path: &rbpc_graph::Path) -> Vec<u32> {
    path.nodes().iter().map(|n| n.index() as u32).collect()
}

fn event_hash(failures: &FailureSet) -> u64 {
    let mut parts: Vec<u64> = failures
        .failed_edges()
        .map(|e| e.index() as u64)
        .chain(
            failures
                .failed_nodes()
                .map(|v| (1 << 40) | v.index() as u64),
        )
        .collect();
    parts.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        h = splitmix64(h ^ p);
    }
    h
}

/// Enumerates the failure events of `class` on a base path.
fn events_for(path: &rbpc_graph::Path, class: FailureClass) -> Vec<FailureSet> {
    let mut out = Vec::new();
    match class {
        FailureClass::OneLink => {
            for &e in path.edges() {
                out.push(FailureSet::of_edge(e));
            }
        }
        FailureClass::TwoLinks => {
            let es = path.edges();
            for i in 0..es.len() {
                for j in i + 1..es.len() {
                    out.push(FailureSet::of_edges([es[i], es[j]]));
                }
            }
        }
        FailureClass::OneRouter => {
            for &v in interior(path) {
                out.push(FailureSet::of_nodes([v.index()]));
            }
        }
        FailureClass::TwoRouters => {
            let vs = interior(path);
            for i in 0..vs.len() {
                for j in i + 1..vs.len() {
                    out.push(FailureSet::of_nodes([vs[i].index(), vs[j].index()]));
                }
            }
        }
    }
    out
}

fn interior(path: &rbpc_graph::Path) -> &[NodeId] {
    let nodes = path.nodes();
    if nodes.len() <= 2 {
        &[]
    } else {
        &nodes[1..nodes.len() - 1]
    }
}

/// Computes one block (network × failure class) of Table 2, parallelized
/// over the sampled pairs.
pub fn table2_block<O: BasePathOracle + Sync>(
    network: &str,
    oracle: &O,
    class: FailureClass,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Table2Row {
    let mut acc = Acc::default();
    for part in par::map_chunks(pairs, threads, |chunk| run_pairs(oracle, class, chunk)) {
        acc.merge(part);
    }

    // Per-router loads.
    let n = oracle.graph().node_count();
    let mut rbpc_load = vec![0u64; n];
    let mut full_load = vec![0u64; n];
    for routers in acc.rbpc.values() {
        for &r in routers {
            rbpc_load[r as usize] += 1;
        }
    }
    for routers in acc.full.values() {
        for &r in routers {
            full_load[r as usize] += 1;
        }
    }
    let mut min_sf = f64::INFINITY;
    let mut sum_sf = 0.0;
    let mut counted = 0usize;
    // Stretch is defined per router that actually holds base-LSP state
    // (the paper speaks of "one ILM table decreas[ing] by a factor of 8" —
    // a ratio of two nonzero table sizes).
    for r in 0..n {
        if full_load[r] > 0 && rbpc_load[r] > 0 {
            let sf = rbpc_load[r] as f64 / full_load[r] as f64;
            min_sf = min_sf.min(sf);
            sum_sf += sf;
            counted += 1;
        }
    }
    let (min_ilm_sf, avg_ilm_sf) = if counted == 0 {
        (0.0, 0.0)
    } else {
        (min_sf, sum_sf / counted as f64)
    };

    let max_multiplicity = if class == FailureClass::OneLink {
        let mut best = 0u64;
        let mut seen = std::collections::HashSet::new();
        for &(s, _) in pairs {
            if !seen.insert(s) {
                continue;
            }
            let counts = count_shortest_paths(oracle.graph(), oracle.cost_model().metric(), s);
            for (i, &c) in counts.iter().enumerate() {
                if i != s.index() {
                    best = best.max(c);
                }
            }
        }
        Some(best)
    } else {
        None
    };

    Table2Row {
        network: network.to_string(),
        class,
        min_ilm_sf,
        avg_ilm_sf,
        avg_pc_length: ratio(acc.pc_sum, acc.events as u64),
        length_sf: if acc.orig_hops == 0 {
            1.0
        } else {
            acc.backup_hops as f64 / acc.orig_hops as f64
        },
        redundancy: ratio(acc.preserved as u64, acc.events as u64),
        max_multiplicity,
        events: acc.events,
        skipped: acc.skipped,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn run_pairs<O: BasePathOracle>(
    oracle: &O,
    class: FailureClass,
    pairs: &[(NodeId, NodeId)],
) -> Acc {
    let mut acc = Acc::default();
    let restorer = Restorer::new(oracle);
    for &(s, t) in pairs {
        let Some(base) = oracle.base_path(s, t) else {
            continue;
        };
        if base.is_trivial() {
            continue;
        }
        let key = LspKey::Pair(s.index() as u32, t.index() as u32);
        let routers = routers_of(&base);
        acc.rbpc.insert(key, routers.clone());
        acc.full.insert(key, routers);

        for failures in events_for(&base, class) {
            match restorer.restore(s, t, &failures) {
                Ok(r) => {
                    acc.events += 1;
                    acc.pc_sum += r.pc_length() as u64;
                    acc.backup_hops += u64::from(r.backup_cost.hops);
                    acc.orig_hops += u64::from(r.original_cost.hops);
                    if r.cost_preserved() {
                        acc.preserved += 1;
                    }
                    // RBPC segments are other pairs' base LSPs — already
                    // provisioned. Only raw edges outside the base set add
                    // ILM state (to both schemes symmetrically we charge
                    // them to RBPC alone, conservatively).
                    for seg in r.concatenation.segments() {
                        if seg.kind == SegmentKind::RawEdge {
                            let k = LspKey::Edge(
                                seg.path.edges()[0].index() as u32,
                                seg.source().index() as u32,
                            );
                            acc.rbpc.entry(k).or_insert_with(|| routers_of(&seg.path));
                        }
                    }
                    // Explicit scheme: one backup LSP per failure event.
                    let bkey =
                        LspKey::Backup(s.index() as u32, t.index() as u32, event_hash(&failures));
                    acc.full
                        .entry(bkey)
                        .or_insert_with(|| routers_of(&r.backup));
                }
                Err(_) => acc.skipped += 1,
            }
        }
    }
    acc
}

/// Renders Table 2 blocks in the paper's layout (one section per class).
pub fn render(rows: &[Table2Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for class in FailureClass::all() {
        let block: Vec<&Table2Row> = rows.iter().filter(|r| r.class == class).collect();
        if block.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{}.", class.label());
        let table = format_table(
            &[
                "Network",
                "min ILM s.f.",
                "avg ILM s.f.",
                "avg PC length",
                "Length s.f.",
                "Redundancy (max)",
                "events",
            ],
            &block
                .iter()
                .map(|r| {
                    let redundancy = match r.max_multiplicity {
                        Some(m) => format!("{:.1}% ({m})", 100.0 * r.redundancy),
                        None => format!("{:.1}%", 100.0 * r.redundancy),
                    };
                    vec![
                        r.network.clone(),
                        format!("{:.1}%", 100.0 * r.min_ilm_sf),
                        format!("{:.1}%", 100.0 * r.avg_ilm_sf),
                        format!("{:.2}", r.avg_pc_length),
                        format!("{:.2}", r.length_sf),
                        redundancy,
                        r.events.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        out.push_str(&table);
        out.push('\n');
    }
    out
}

/// Renders Table 2 rows as CSV.
pub fn to_csv(rows: &[Table2Row]) -> String {
    let mut csv = crate::Csv::new();
    csv.row([
        "class",
        "network",
        "min_ilm_sf",
        "avg_ilm_sf",
        "avg_pc_length",
        "length_sf",
        "redundancy",
        "max_multiplicity",
        "events",
        "skipped",
    ]);
    for r in rows {
        csv.row([
            format!("{:?}", r.class),
            r.network.clone(),
            format!("{:.4}", r.min_ilm_sf),
            format!("{:.4}", r.avg_ilm_sf),
            format!("{:.4}", r.avg_pc_length),
            format!("{:.4}", r.length_sf),
            format!("{:.4}", r.redundancy),
            r.max_multiplicity
                .map(|m| m.to_string())
                .unwrap_or_default(),
            r.events.to_string(),
            r.skipped.to_string(),
        ]);
    }
    csv.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sample_pairs, standard_suite, EvalScale};
    use rbpc_core::DenseBasePaths;
    use rbpc_graph::{CostModel, Metric};
    use rbpc_topo::gnm_connected;

    fn small_oracle() -> DenseBasePaths {
        let g = gnm_connected(30, 70, 7, 4);
        DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 4))
    }

    #[test]
    fn one_link_block_shape() {
        let oracle = small_oracle();
        let pairs = sample_pairs(oracle.graph(), 20, 1);
        let row = table2_block("test", &oracle, FailureClass::OneLink, &pairs, 2);
        assert!(row.events > 0);
        // Theorem 2 with k = 1: PC length in [1, 3].
        assert!(row.avg_pc_length >= 1.0 && row.avg_pc_length <= 3.0);
        assert!(row.length_sf >= 1.0);
        assert!(row.min_ilm_sf >= 0.0 && row.min_ilm_sf <= 1.0);
        assert!(row.avg_ilm_sf >= row.min_ilm_sf);
        // Base state is a strict subset of base + backups.
        assert!(row.avg_ilm_sf < 1.0);
        assert!((0.0..=1.0).contains(&row.redundancy));
        assert!(row.max_multiplicity.is_some());
    }

    #[test]
    fn two_links_use_more_pieces() {
        let oracle = small_oracle();
        let pairs = sample_pairs(oracle.graph(), 20, 2);
        let one = table2_block("t", &oracle, FailureClass::OneLink, &pairs, 2);
        let two = table2_block("t", &oracle, FailureClass::TwoLinks, &pairs, 2);
        assert!(two.avg_pc_length >= one.avg_pc_length - 0.2);
        // On short paths C(len, 2) can undercut len, so only sanity-check
        // the event count; ISP-scale monotonicity lives in the integration
        // tests.
        assert!(two.events > 0);
        assert!(two.avg_ilm_sf < 1.0);
        assert!(two.max_multiplicity.is_none());
    }

    #[test]
    fn router_classes_run() {
        let oracle = small_oracle();
        let pairs = sample_pairs(oracle.graph(), 15, 3);
        for class in [FailureClass::OneRouter, FailureClass::TwoRouters] {
            let row = table2_block("t", &oracle, class, &pairs, 3);
            // Some events exist as long as some base path has ≥ 2 hops.
            assert!(row.events + row.skipped > 0, "{class:?}");
            if row.events > 0 {
                assert!(row.avg_pc_length >= 1.0);
            }
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        let oracle = small_oracle();
        let pairs = sample_pairs(oracle.graph(), 16, 5);
        let serial = table2_block("t", &oracle, FailureClass::OneLink, &pairs, 1);
        let parallel = table2_block("t", &oracle, FailureClass::OneLink, &pairs, 4);
        assert_eq!(serial.events, parallel.events);
        assert!((serial.avg_pc_length - parallel.avg_pc_length).abs() < 1e-12);
        assert!((serial.avg_ilm_sf - parallel.avg_ilm_sf).abs() < 1e-12);
    }

    #[test]
    fn events_enumeration_counts() {
        let oracle = small_oracle();
        let base = {
            use rbpc_core::BasePathOracle as _;
            oracle.base_path(0.into(), 29.into()).unwrap()
        };
        let h = base.hop_count();
        assert_eq!(events_for(&base, FailureClass::OneLink).len(), h);
        assert_eq!(
            events_for(&base, FailureClass::TwoLinks).len(),
            h * (h - 1) / 2
        );
        let interior = h.saturating_sub(1);
        assert_eq!(events_for(&base, FailureClass::OneRouter).len(), interior);
        assert_eq!(
            events_for(&base, FailureClass::TwoRouters).len(),
            interior * interior.saturating_sub(1) / 2
        );
    }

    #[test]
    fn csv_has_header_and_rows() {
        let oracle = small_oracle();
        let pairs = sample_pairs(oracle.graph(), 10, 1);
        let row = table2_block("net", &oracle, FailureClass::OneLink, &pairs, 2);
        let csv = to_csv(&[row]);
        assert!(csv.starts_with("class,network,"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("OneLink"));
    }

    #[test]
    fn renders_blocks() {
        let suite = standard_suite(EvalScale::Quick, 1);
        let oracle = suite[0].oracle(1);
        let pairs = sample_pairs(&suite[0].graph, 8, 1);
        let row = table2_block(&suite[0].name, &oracle, FailureClass::OneLink, &pairs, 2);
        let out = render(&[row]);
        assert!(out.contains("After one link failure"));
        assert!(out.contains("ISP, Weighted"));
    }
}
