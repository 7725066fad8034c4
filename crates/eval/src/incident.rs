//! Self-contained incident files and their deterministic replay.
//!
//! When the SLO watchdog trips during a load test, the flight recorder's
//! ring is frozen into one JSONL **incident file**: a header line (run
//! id, topology recipe, cost metric and seed, breach tick and reason)
//! followed by one [`FlightRecord`] per line. The file carries
//! everything a replay needs — the topology is *rebuilt from the
//! recipe*, not shipped, and every restore record carries its full
//! failure set — so `rbpc-eval replay <incident.jsonl>` months later on
//! another machine re-executes the exact queries and asserts the
//! replayed restoration plans hash-match the recorded outcomes
//! ([`Restoration::plan_hash`](rbpc_core::Restoration::plan_hash)).
//!
//! Replay also re-runs the paper's validators: every replayed
//! restoration under an edge-only failure set is checked against the
//! Theorem 2 stack bound (`Concatenation::validate_bounds`), and each
//! restore record's failure set is cross-checked against the recorded
//! storm schedule for its window.

use crate::suite::{eval_store, standard_suite, EvalScale};
use rbpc_core::{BasePathOracle, Restorer};
use rbpc_graph::{CostModel, EdgeId, FailureSet, Graph, Metric, NodeId};
use rbpc_obs::json::{self, JsonValue};
use rbpc_obs::{json_escape, FlightKind, FlightRecord};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// Current incident-file format tag (the header's `incident` field).
pub const INCIDENT_FORMAT: &str = "rbpc.flight.v1";

/// A recipe for rebuilding the topology an incident was captured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoSpec {
    /// A connected G(n,m) random graph (`rbpc_topo::gnm_connected`) —
    /// what `loadtest --smoke` drives.
    Gnm {
        /// Node count.
        nodes: usize,
        /// Edge count.
        edges: usize,
        /// Maximum link weight.
        max_weight: u32,
        /// Topology seed.
        seed: u64,
    },
    /// Case `case` of [`standard_suite`] at the given scale and seed.
    Suite {
        /// Suite scale (`quick` or `paper`).
        scale: EvalScale,
        /// Suite seed.
        seed: u64,
        /// Case index within the suite.
        case: usize,
    },
    /// An edge-list file (`rbpc_topo::parse_edge_list` format). The
    /// least self-contained recipe: the file must still exist at replay
    /// time.
    File {
        /// Path to the edge-list file.
        path: String,
    },
}

/// Most links a replayed G(n,m) header may ask for: the generator
/// allocates them all up front, so a hostile header must not name more
/// than the process can hold. Every map this workspace generates has far
/// fewer.
const MAX_GNM_EDGES: usize = 1 << 22;

impl TopoSpec {
    /// Rebuilds the topology: `(name, graph)`.
    ///
    /// # Errors
    ///
    /// G(n,m) parameters outside `1 ≤ nodes ≤ CostModel::MAX_NODES`,
    /// `nodes − 1 ≤ edges ≤ min(nodes·(nodes − 1)/2, MAX_GNM_EDGES)` or
    /// `max_weight ≥ 1`,
    /// unreadable/unparsable edge-list files, or a suite case index out
    /// of range.
    pub fn build(&self) -> Result<(String, Graph), String> {
        match self {
            &TopoSpec::Gnm {
                nodes: n,
                edges: m,
                max_weight,
                seed,
            } => {
                if !(1..=CostModel::MAX_NODES).contains(&n) {
                    let max = CostModel::MAX_NODES;
                    return Err(format!("topo: `nodes` must be in 1..={max}, got {n}"));
                }
                if m < n - 1 {
                    return Err(format!("topo: {m} `edges` cannot connect {n} nodes"));
                }
                let most = (n.saturating_mul(n - 1) / 2).min(MAX_GNM_EDGES);
                if m > most {
                    return Err(format!(
                        "topo: {m} `edges` exceed the {most} allowed on {n} nodes"
                    ));
                }
                if max_weight == 0 {
                    return Err("topo: `max_weight` must be at least 1".to_string());
                }
                let graph = rbpc_topo::gnm_connected(n, m, max_weight, seed);
                Ok((format!("gnm-{n}-{m}"), graph))
            }
            TopoSpec::Suite { scale, seed, case } => {
                let suite = standard_suite(*scale, *seed);
                let picked = suite
                    .into_iter()
                    .nth(*case)
                    .ok_or_else(|| format!("suite has no case #{case}"))?;
                Ok((picked.name, picked.graph))
            }
            TopoSpec::File { path } => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read topology {path}: {e}"))?;
                let graph = rbpc_topo::parse_edge_list(&text)
                    .map_err(|e| format!("cannot parse topology {path}: {e}"))?;
                Ok((path.clone(), graph))
            }
        }
    }

    fn to_json(&self) -> String {
        match self {
            TopoSpec::Gnm {
                nodes,
                edges,
                max_weight,
                seed,
            } => format!(
                "{{\"kind\":\"gnm\",\"nodes\":{nodes},\"edges\":{edges},\
                 \"max_weight\":{max_weight},\"seed\":{seed}}}"
            ),
            TopoSpec::Suite { scale, seed, case } => {
                let scale = match scale {
                    EvalScale::Quick => "quick",
                    EvalScale::Paper => "paper",
                };
                format!(
                    "{{\"kind\":\"suite\",\"scale\":\"{scale}\",\"seed\":{seed},\"case\":{case}}}"
                )
            }
            TopoSpec::File { path } => {
                format!("{{\"kind\":\"file\",\"path\":\"{}\"}}", json_escape(path))
            }
        }
    }

    fn from_json(v: &JsonValue) -> Result<TopoSpec, String> {
        let kind = v
            .get("kind")
            .and_then(|x| x.as_str())
            .ok_or("topo: missing `kind`")?;
        match kind {
            "gnm" => Ok(TopoSpec::Gnm {
                nodes: req_num(v, "nodes")?,
                edges: req_num(v, "edges")?,
                max_weight: req_num(v, "max_weight")?,
                seed: req_num(v, "seed")?,
            }),
            "suite" => Ok(TopoSpec::Suite {
                scale: match v.get("scale").and_then(|x| x.as_str()) {
                    Some("quick") => EvalScale::Quick,
                    Some("paper") => EvalScale::Paper,
                    other => return Err(format!("topo: bad scale {other:?}")),
                },
                seed: req_num(v, "seed")?,
                case: req_num(v, "case")?,
            }),
            "file" => Ok(TopoSpec::File {
                path: v
                    .get("path")
                    .and_then(|x| x.as_str())
                    .ok_or("topo: missing `path`")?
                    .to_string(),
            }),
            other => Err(format!("topo: unknown kind `{other}`")),
        }
    }
}

/// The incident file's header line: everything needed to rebuild the
/// run's environment, plus why the ring was frozen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentHeader {
    /// Run correlation id (matches the run's JSONL window lines).
    pub run_id: String,
    /// The load test's seed — feeds the cost model's weight perturbation,
    /// so it MUST match for plan hashes to reproduce.
    pub seed: u64,
    /// Cost metric the oracle was built with.
    pub metric: Metric,
    /// Topology recipe.
    pub topo: TopoSpec,
    /// Window tick at which the SLO watchdog tripped.
    pub breach_tick: u64,
    /// The watchdog's breach reason.
    pub breach_reason: String,
    /// Number of record lines that follow the header.
    pub records: usize,
}

impl IncidentHeader {
    /// The header as one JSON object (a JSONL line, no trailing newline).
    pub fn to_json(&self) -> String {
        let metric = match self.metric {
            Metric::Weighted => "weighted",
            Metric::Unweighted => "unweighted",
        };
        format!(
            "{{\"incident\":\"{INCIDENT_FORMAT}\",\"run_id\":\"{}\",\"seed\":{},\
             \"metric\":\"{metric}\",\"topo\":{},\"breach_tick\":{},\
             \"breach_reason\":\"{}\",\"records\":{}}}",
            json_escape(&self.run_id),
            self.seed,
            self.topo.to_json(),
            self.breach_tick,
            json_escape(&self.breach_reason),
            self.records,
        )
    }

    /// Parses a header back from its JSON object.
    ///
    /// # Errors
    ///
    /// Unknown format tag or any missing/ill-typed field.
    pub fn from_json(v: &JsonValue) -> Result<IncidentHeader, String> {
        let format = v
            .get("incident")
            .and_then(|x| x.as_str())
            .ok_or("header: missing `incident` format tag")?;
        if format != INCIDENT_FORMAT {
            return Err(format!("header: unsupported format `{format}`"));
        }
        Ok(IncidentHeader {
            run_id: v
                .get("run_id")
                .and_then(|x| x.as_str())
                .ok_or("header: missing `run_id`")?
                .to_string(),
            seed: req_num(v, "seed")?,
            metric: match v.get("metric").and_then(|x| x.as_str()) {
                Some("weighted") => Metric::Weighted,
                Some("unweighted") => Metric::Unweighted,
                other => return Err(format!("header: bad metric {other:?}")),
            },
            topo: TopoSpec::from_json(v.get("topo").ok_or("header: missing `topo`")?)?,
            breach_tick: req_num(v, "breach_tick")?,
            breach_reason: v
                .get("breach_reason")
                .and_then(|x| x.as_str())
                .unwrap_or_default()
                .to_string(),
            records: req_num(v, "records")?,
        })
    }
}

/// The non-negative integer field `key`, as a `T`. Negative,
/// fractional, non-finite and out-of-range numbers are errors, not
/// saturated.
fn req_num<T: TryFrom<u64>>(v: &JsonValue, key: &str) -> Result<T, String> {
    let x = v
        .get(key)
        .and_then(|x| x.as_f64())
        .ok_or_else(|| format!("missing numeric field `{key}`"))?;
    // `u64::MAX as f64` rounds up to 2^64, the first value out of range.
    if x >= 0.0 && x.fract() == 0.0 && x < u64::MAX as f64 {
        T::try_from(x as u64).map_err(|_| format!("field `{key}` is out of range: {x}"))
    } else {
        Err(format!(
            "field `{key}` must be a non-negative integer, got {x}"
        ))
    }
}

/// Writes a complete incident file: the header line, then one record
/// line each.
///
/// # Errors
///
/// I/O errors from `out`.
pub fn write_incident<W: Write>(
    out: &mut W,
    header: &IncidentHeader,
    records: &[FlightRecord],
) -> io::Result<()> {
    writeln!(out, "{}", header.to_json())?;
    for rec in records {
        writeln!(out, "{}", rec.to_json())?;
    }
    out.flush()
}

/// Parses an incident file's text back into header + records.
///
/// # Errors
///
/// An empty file, malformed JSON, missing fields, or a record count that
/// disagrees with the header.
pub fn parse_incident(text: &str) -> Result<(IncidentHeader, Vec<FlightRecord>), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("incident file is empty")?;
    let header = IncidentHeader::from_json(
        &json::parse(header_line).map_err(|e| format!("header line: {e}"))?,
    )?;
    let mut records = Vec::with_capacity(header.records);
    for (i, line) in lines.enumerate() {
        let v = json::parse(line).map_err(|e| format!("record line {}: {e}", i + 1))?;
        records
            .push(FlightRecord::from_json(&v).map_err(|e| format!("record line {}: {e}", i + 1))?);
    }
    if records.len() != header.records {
        return Err(format!(
            "header promises {} records, file has {}",
            header.records,
            records.len()
        ));
    }
    Ok((header, records))
}

/// The outcome of replaying one incident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Run id from the incident header.
    pub run_id: String,
    /// Topology name the recipe rebuilt.
    pub topo_name: String,
    /// Restore records re-executed.
    pub replayed: usize,
    /// Re-executed records whose outcome matched bit for bit.
    pub matched: usize,
    /// Human-readable divergence descriptions (empty on a clean replay).
    pub mismatches: Vec<String>,
    /// Theorem-bound validations performed during the replay.
    pub bounds_checked: usize,
}

impl ReplayReport {
    /// True when every replayed record matched and every validator held.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Rebuilds a [`FailureSet`] from a record's id lists, checking every id
/// against `graph` (the ids come from a file).
fn failure_set_of(record: &FlightRecord, graph: &Graph) -> Result<FailureSet, String> {
    let (m, n) = (graph.edge_count() as u64, graph.node_count() as u64);
    let mut set = FailureSet::new();
    for &e in &record.failed_edges {
        if e >= m {
            return Err(format!(
                "record seq {}: failed edge id {e} is out of range (the graph has {m} edges)",
                record.seq
            ));
        }
        set.fail_edge(EdgeId::new(e as usize));
    }
    for &v in &record.failed_nodes {
        if v >= n {
            return Err(format!(
                "record seq {}: failed node id {v} is out of range (the graph has {n} nodes)",
                record.seq
            ));
        }
        set.fail_node(NodeId::new(v as usize));
    }
    Ok(set)
}

/// Replays an incident: rebuilds the topology and oracle from the
/// header, re-executes every [`FlightKind::Restore`] record, and
/// compares outcome, segment count, and plan hash against the recording.
/// Restore records are also cross-checked against the recorded
/// [`FlightKind::StormWindow`] schedule for their tick, and every
/// successful replay under an edge-only failure set is validated against
/// the Theorem 2 stack bound — the validators the always-on hot path
/// compiles out in release builds run unconditionally here.
///
/// Latency fields are ignored: they are the one nondeterministic part of
/// a record.
///
/// # Errors
///
/// Topology rebuild failures, and failed edge or node ids outside the
/// rebuilt graph. Divergence is *data*, not an error — check
/// [`ReplayReport::is_clean`].
pub fn replay_incident(
    header: &IncidentHeader,
    records: &[FlightRecord],
    threads: usize,
) -> Result<ReplayReport, String> {
    let (topo_name, graph) = header.topo.build()?;
    let oracle = eval_store(
        graph,
        CostModel::new(header.metric, header.seed),
        threads.max(1),
    );
    let restorer = Restorer::new(&oracle);

    // The recorded failure schedule, by window tick.
    let storm: BTreeMap<u64, &Vec<u64>> = records
        .iter()
        .filter(|r| r.kind == FlightKind::StormWindow)
        .map(|r| (r.tick, &r.failed_edges))
        .collect();

    let mut report = ReplayReport {
        run_id: header.run_id.clone(),
        topo_name,
        replayed: 0,
        matched: 0,
        mismatches: Vec::new(),
        bounds_checked: 0,
    };
    for rec in records.iter().filter(|r| r.kind == FlightKind::Restore) {
        report.replayed += 1;
        let tag = format!(
            "seq {} (window {}, {} -> {})",
            rec.seq, rec.tick, rec.src, rec.dst
        );
        let failures = failure_set_of(rec, oracle.graph())?;
        if let Some(scheduled) = storm.get(&rec.tick) {
            if rec.failed_nodes.is_empty() && &&rec.failed_edges != scheduled {
                report.mismatches.push(format!(
                    "{tag}: failure set {:?} disagrees with the recorded storm schedule {:?}",
                    rec.failed_edges, scheduled
                ));
                continue;
            }
        }
        let replayed = restorer.restore(
            NodeId::new(rec.src as usize),
            NodeId::new(rec.dst as usize),
            &failures,
        );
        match (rec.ok, replayed) {
            (true, Ok(r)) => {
                // Validators on: re-check the paper's bound explicitly
                // (release builds compile the hot-path debug_assert out).
                if rec.failed_nodes.is_empty() {
                    report.bounds_checked += 1;
                    if let Err(e) = r
                        .concatenation
                        .validate_bounds(failures.failed_edge_count())
                    {
                        report
                            .mismatches
                            .push(format!("{tag}: Theorem 2 bound violated on replay: {e}"));
                        continue;
                    }
                }
                let (seg, hash) = (r.concatenation.len() as u64, r.plan_hash());
                if seg != rec.segments || hash != rec.plan_hash {
                    report.mismatches.push(format!(
                        "{tag}: plan diverged — recorded {} segments hash {:016x}, \
                         replayed {seg} segments hash {hash:016x}",
                        rec.segments, rec.plan_hash
                    ));
                    continue;
                }
                report.matched += 1;
            }
            (false, Err(_)) => report.matched += 1,
            (true, Err(e)) => report
                .mismatches
                .push(format!("{tag}: recorded success, replay failed: {e}")),
            (false, Ok(_)) => report.mismatches.push(format!(
                "{tag}: recorded failure ({}), replay succeeded",
                rec.detail
            )),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbpc_core::BasePathOracle;

    fn header() -> IncidentHeader {
        IncidentHeader {
            run_id: "00c0ffee00c0ffee".to_string(),
            seed: 7,
            metric: Metric::Weighted,
            topo: TopoSpec::Gnm {
                nodes: 30,
                edges: 80,
                max_weight: 9,
                seed: 7,
            },
            breach_tick: 2,
            breach_reason: "p99 5000ns > budget 1000ns".to_string(),
            records: 0,
        }
    }

    #[test]
    fn header_round_trips() {
        for topo in [
            TopoSpec::Gnm {
                nodes: 60,
                edges: 180,
                max_weight: 10,
                seed: 1,
            },
            TopoSpec::Suite {
                scale: EvalScale::Quick,
                seed: 3,
                case: 1,
            },
            TopoSpec::File {
                path: "nets/isp \"a\".txt".to_string(),
            },
        ] {
            let h = IncidentHeader { topo, ..header() };
            let parsed =
                IncidentHeader::from_json(&json::parse(&h.to_json()).expect("header parses"))
                    .expect("header fields parse");
            assert_eq!(parsed, h);
        }
    }

    /// `header()` with its G(n,m) numbers replaced, parsed and built.
    fn build_gnm(nodes: &str, edges: &str, max_weight: &str) -> Result<(String, Graph), String> {
        let text = header().to_json().replace(
            "\"nodes\":30,\"edges\":80,\"max_weight\":9",
            &format!("\"nodes\":{nodes},\"edges\":{edges},\"max_weight\":{max_weight}"),
        );
        IncidentHeader::from_json(&json::parse(&text).expect("header parses"))?
            .topo
            .build()
    }

    #[test]
    fn gnm_header_rejects_bad_node_counts() {
        assert!(build_gnm("1", "0", "4294967295").is_ok());
        assert!(build_gnm("0", "5", "10").unwrap_err().contains("`nodes`"));
        let over = (CostModel::MAX_NODES + 1).to_string();
        assert!(build_gnm(&over, &over, "1")
            .unwrap_err()
            .contains("`nodes`"));
    }

    #[test]
    fn gnm_header_rejects_too_few_edges() {
        assert!(build_gnm("60", "5", "10").unwrap_err().contains("`edges`"));
        // No edge fits on one node: the generator would search forever.
        assert!(build_gnm("1", "3", "10").unwrap_err().contains("`edges`"));
    }

    #[test]
    fn gnm_header_rejects_too_many_edges() {
        // 10^15 links would be allocated up front; refuse before that.
        let err = build_gnm("30", "1000000000000000", "10").unwrap_err();
        assert!(err.contains("`edges` exceed"), "{err}");
        // A simple graph on 30 nodes holds at most 435 links.
        assert!(build_gnm("30", "435", "10").is_ok());
        assert!(build_gnm("30", "436", "10")
            .unwrap_err()
            .contains("`edges`"));
        // Past the fixed cap even when the node count would allow more.
        let err = build_gnm("5000", &(MAX_GNM_EDGES + 1).to_string(), "10").unwrap_err();
        assert!(err.contains("`edges` exceed"), "{err}");
    }

    #[test]
    fn gnm_header_rejects_zero_or_wide_max_weight() {
        for bad in ["0", "4294967296"] {
            let err = build_gnm("60", "180", bad).unwrap_err();
            assert!(err.contains("`max_weight`"), "{bad}: {err}");
        }
    }

    #[test]
    fn numeric_fields_reject_negative_fractional_and_non_finite() {
        for bad in ["-5", "30.5", "1e400", "18446744073709551616"] {
            let err = build_gnm(bad, "80", "9").unwrap_err();
            assert!(
                err.contains("`nodes` must be a non-negative"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn incident_file_round_trips() {
        let mut rec = FlightRecord::new(FlightKind::Restore);
        rec.tick = 2;
        rec.src = 1;
        rec.dst = 5;
        rec.failed_edges = vec![3, 9];
        rec.segments = 2;
        rec.plan_hash = 0x1234_5678_9abc_def0;
        let h = IncidentHeader {
            records: 1,
            ..header()
        };
        let mut buf = Vec::new();
        write_incident(&mut buf, &h, std::slice::from_ref(&rec)).expect("write to Vec");
        let text = String::from_utf8(buf).expect("utf8");
        let (parsed_h, parsed_recs) = parse_incident(&text).expect("file parses");
        assert_eq!(parsed_h, h);
        assert_eq!(parsed_recs, vec![rec]);
        // A count mismatch is rejected.
        let trimmed = text.lines().next().expect("header line").to_string();
        assert!(parse_incident(&trimmed).unwrap_err().contains("promises"));
    }

    #[test]
    fn replay_matches_a_real_recording() {
        // Record a couple of real restores by hand, then replay them.
        let h = header();
        let (_, graph) = h.topo.build().expect("gnm builds");
        let oracle = eval_store(graph, CostModel::new(h.metric, h.seed), 1);
        let restorer = Restorer::new(&oracle);
        let base = oracle
            .base_path(NodeId::new(0), NodeId::new(20))
            .expect("connected");
        let failures = FailureSet::of_edge(base.edges()[0]);
        let r = restorer
            .restore(NodeId::new(0), NodeId::new(20), &failures)
            .expect("restorable");
        let mut rec = FlightRecord::new(FlightKind::Restore);
        rec.tick = 0;
        rec.src = 0;
        rec.dst = 20;
        rec.failed_edges = vec![base.edges()[0].index() as u64];
        rec.segments = r.concatenation.len() as u64;
        rec.plan_hash = r.plan_hash();

        let clean = replay_incident(&h, std::slice::from_ref(&rec), 1).expect("replays");
        assert_eq!((clean.replayed, clean.matched), (1, 1));
        assert!(clean.is_clean());
        assert!(clean.bounds_checked >= 1);

        // Corrupt the recorded hash: replay must flag the divergence.
        rec.plan_hash ^= 1;
        let dirty = replay_incident(&h, std::slice::from_ref(&rec), 1).expect("replays");
        assert!(!dirty.is_clean());
        assert!(dirty.mismatches[0].contains("plan diverged"));
    }

    #[test]
    fn replay_cross_checks_the_storm_schedule() {
        let h = header();
        let mut storm = FlightRecord::new(FlightKind::StormWindow);
        storm.tick = 0;
        storm.failed_edges = vec![1, 2];
        let mut restore = FlightRecord::new(FlightKind::Restore);
        restore.tick = 0;
        restore.src = 0;
        restore.dst = 5;
        restore.failed_edges = vec![1, 3]; // disagrees with the schedule
        let report = replay_incident(&h, &[storm, restore], 1).expect("replays");
        assert_eq!(report.matched, 0);
        assert!(report.mismatches[0].contains("storm schedule"));
    }
}
