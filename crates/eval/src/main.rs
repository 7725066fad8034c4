//! `rbpc-eval` — regenerate the RBPC paper's tables and figures.
//!
//! ```text
//! rbpc-eval <table1|table2|table3|figure10|latency|ablation|trace|validate|all>
//!           [--scale quick|paper] [--seed N] [--threads N] [--csv DIR]
//!           [--topology FILE --metric weighted|unweighted]
//!           [--metrics-out FILE] [--events-out FILE]
//!           [--trace-out FILE] [--failures K]
//! ```
//!
//! With `--csv DIR`, each artifact is additionally written as a CSV file
//! into `DIR` (created if missing). With `--topology FILE` the standard
//! suite is replaced by a single custom network loaded from an edge-list
//! file (see `rbpc_topo::parse_edge_list` for the format).
//!
//! Observability: `--events-out FILE` turns tracing on and streams every
//! finished trace span (one JSON object per line, the Chrome trace event
//! `--trace-out` writes, span timing included) while the suite runs;
//! `--metrics-out FILE` writes the final counter/histogram snapshot as one
//! JSON object. A human-readable metrics summary is printed to stderr at
//! the end whenever any instrumentation fired.
//!
//! Tracing: `--trace-out FILE` collects causal spans from every restoration
//! performed while the suite runs and writes them as Chrome `trace_event`
//! JSON, loadable in `ui.perfetto.dev`. The `trace` command injects a
//! multi-failure scenario (`--failures K`, default 2) into the first suite
//! network and prints one human-readable span tree per affected LSP and
//! scheme, with the critical path marked `*`.
//!
//! Live telemetry: the `loadtest` command drives paced restore queries
//! under a deterministic failure storm, emitting one JSONL window report
//! per line (latency quantiles, restored/dropped, concatenation depth)
//! plus a final summary table; `--serve ADDR` exposes `/metrics` +
//! `/healthz` in Prometheus text format while any command runs, and
//! `--profile-out FILE` samples the `obs_span!` stacks into a
//! collapsed-stack (flamegraph) file.
//!
//! Validation: the `validate` command runs the runtime half of the
//! `rbpc-lint` invariant layer over every suite network — CSR structural
//! invariants ([`CsrGraph::validate`]), shortest-path-tree optimality and
//! uniqueness ([`CsrGraph::validate_tree`], healthy and under random
//! failure masks), and the Theorem 1/2 label-stack bounds on real
//! restorations (`Concatenation::validate_bounds`) — and exits non-zero
//! if any invariant is violated.

use rbpc_core::{BasePathOracle, Restorer};
use rbpc_eval::{
    figure10, sample_pairs, standard_suite, table1, table2_block, table3, EvalScale, FailureClass,
    IncidentSink, LoadtestConfig, TopoSpec,
};
use rbpc_graph::{
    CostModel, CsrGraph, DetRng, DijkstraScratch, EdgeId, FailureMask, FailureSet, NodeId,
};
use rbpc_sim::{
    churn_sequence, churn_under_threads, outage_summary_threads, outage_under, LatencyModel, Scheme,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    command: String,
    scale: EvalScale,
    seed: u64,
    threads: usize,
    csv_dir: Option<PathBuf>,
    topology: Option<PathBuf>,
    metric: rbpc_graph::Metric,
    metrics_out: Option<PathBuf>,
    events_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    failures: usize,
    events: usize,
    windows: Option<u64>,
    window_ms: Option<u64>,
    queries: Option<usize>,
    out: Option<PathBuf>,
    serve: Option<String>,
    smoke: bool,
    profile_out: Option<PathBuf>,
    incident_out: Option<PathBuf>,
    slo_p99_us: Option<u64>,
    slo_drop_pm: Option<u64>,
    /// Positional incident file for the `replay` command.
    incident_path: Option<PathBuf>,
    max_resident_spts: Option<usize>,
    shard_size: Option<usize>,
    full_sweep: bool,
    dests_per_source: Option<usize>,
}

fn usage() -> &'static str {
    "usage: rbpc-eval <table1|table2|table3|figure10|latency|ablation|churn|trace|loadtest|paper-scale|replay|validate|all>\n\
     \x20         [--scale quick|paper] [--seed N] [--threads N] [--csv DIR]\n\
     \x20         [--topology FILE --metric weighted|unweighted]\n\
     \x20         [--metrics-out FILE] [--events-out FILE] [--profile-out FILE]\n\
     \x20         [--trace-out FILE] [--failures K] [--events N]\n\
     \x20         [--windows N] [--window-ms MS] [--queries N] [--out FILE]\n\
     \x20         [--serve ADDR] [--smoke] [--incident-out FILE]\n\
     \x20         [--slo-p99-us N] [--slo-drop-pm N]\n\
     \x20         [--max-resident-spts N] [--shard-size N] [--full-sweep]\n\
     \x20         [--dests-per-source N]\n\
     \n\
     commands:\n\
     \x20 table1    network suite summary (Table 1)\n\
     \x20 table2    source-router RBPC restorability/stretch (Table 2)\n\
     \x20 table3    edge-bypass hop counts (Table 3)\n\
     \x20 figure10  local RBPC stretch histogram (Figure 10)\n\
     \x20 latency   modeled restoration latency per scheme\n\
     \x20 ablation  provisioning footprint, k-SP comparison, coverage\n\
     \x20 churn     failure/recovery sequence, restorations per event\n\
     \x20 trace     inject a K-link failure and print per-LSP span trees\n\
     \x20 loadtest  paced restore queries under a deterministic failure\n\
     \x20           storm; one JSONL window report per line, live\n\
     \x20 paper-scale  provision and restore on the paper's 40 377-node\n\
     \x20           Internet router map through the implicit sharded\n\
     \x20           store, under a stated memory budget: the 40-sample\n\
     \x20           Table 2 protocol, plus — with --full-sweep — every\n\
     \x20           source restored with sampled destinations, one JSONL\n\
     \x20           window line per source block; --smoke uses the quick\n\
     \x20           1 500-node map (see docs/SCALE.md)\n\
     \x20 replay    re-execute a frozen incident file deterministically:\n\
     \x20           rbpc-eval replay <incident.jsonl> — rebuilds the\n\
     \x20           topology, re-runs every recorded restore with\n\
     \x20           validators on, exits non-zero on plan-hash divergence\n\
     \x20 validate  machine-check structural invariants and theory bounds\n\
     \x20           on every suite network (non-zero exit on violation)\n\
     \x20 all       every artifact above except `churn`, `trace`,\n\
     \x20           `loadtest`, `validate`\n\
     \n\
     provisioning:\n\
     \x20 --threads N       worker threads for base-path store builds and\n\
     \x20                   per-link failover planning (default: all cores);\n\
     \x20                   results are identical for every thread count\n\
     \n\
     churn & tracing:\n\
     \x20 --trace-out FILE  write Chrome trace_event JSON of every\n\
     \x20                   restoration (open in ui.perfetto.dev)\n\
     \x20 --failures K      links the `trace` command fails simultaneously;\n\
     \x20                   also the `churn` concurrent-failure cap (default 2)\n\
     \x20 --events N        length of the `churn` event sequence (default 40)\n\
     \n\
     loadtest & telemetry:\n\
     \x20 --windows N       windows to drive (default 24; 6 with --smoke)\n\
     \x20 --window-ms MS    window length in ms (default 100; 5 with --smoke)\n\
     \x20 --queries N       restore queries per window (default 200; 25 smoke)\n\
     \x20 --out FILE        write the per-window JSONL there (default stdout)\n\
     \x20 --serve ADDR      serve /metrics + /healthz on ADDR while running,\n\
     \x20                   e.g. 127.0.0.1:9100 (needs the obs-net feature)\n\
     \x20 --smoke           tiny topology + short windows: sub-second CI run\n\
     \x20 --profile-out FILE  sample the span stacks of any command into a\n\
     \x20                   collapsed-stack (flamegraph) file\n\
     \n\
     paper-scale & sharded store:\n\
     \x20 --max-resident-spts N  residency budget in shortest-path trees\n\
     \x20                   (default 512 ≈ 0.74 GiB on the 40k map; the\n\
     \x20                   LRU evicts whole shards past it)\n\
     \x20 --shard-size N    sources per shard, built as one parallel\n\
     \x20                   batch (default 32)\n\
     \x20 --full-sweep      also visit every source shard by shard and\n\
     \x20                   restore sampled mid-path link failures —\n\
     \x20                   coverage the paper couldn't afford in 2001\n\
     \x20 --dests-per-source N  sampled destinations per source in the\n\
     \x20                   sweep (default 2)\n\
     \x20 --windows N       JSONL windows the sweep splits into (default 32)\n\
     \x20 --out FILE        sweep JSONL there (default stdout);\n\
     \x20                   --incident-out freezes the flight-recorder\n\
     \x20                   ring into a replayable incident at run end\n\
     \n\
     SLO watchdog & flight recorder (loadtest):\n\
     \x20 --slo-p99-us N    per-window p99 restore-latency budget in µs;\n\
     \x20                   the first window over budget freezes the\n\
     \x20                   flight recorder and flips /healthz to 503\n\
     \x20 --slo-drop-pm N   dropped-query budget per thousand attempts\n\
     \x20 --incident-out FILE  where a frozen incident (JSONL) goes; feed\n\
     \x20                   it back to `rbpc-eval replay`"
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "all".to_string());
    let mut scale = EvalScale::Quick;
    let mut seed = 1u64;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut csv_dir = None;
    let mut topology = None;
    let mut metric = rbpc_graph::Metric::Weighted;
    let mut metrics_out = None;
    let mut events_out = None;
    let mut trace_out = None;
    let mut failures = 2usize;
    let mut events = 40usize;
    let mut windows = None;
    let mut window_ms = None;
    let mut queries = None;
    let mut out = None;
    let mut serve = None;
    let mut smoke = false;
    let mut profile_out = None;
    let mut incident_out = None;
    let mut slo_p99_us = None;
    let mut slo_drop_pm = None;
    let mut incident_path = None;
    let mut max_resident_spts = None;
    let mut shard_size = None;
    let mut full_sweep = false;
    let mut dests_per_source = None;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--scale" => {
                scale = match value()?.as_str() {
                    "quick" => EvalScale::Quick,
                    "paper" => EvalScale::Paper,
                    other => return Err(format!("unknown scale `{other}`")),
                }
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--threads" => threads = value()?.parse().map_err(|e| format!("bad threads: {e}"))?,
            "--csv" => csv_dir = Some(PathBuf::from(value()?)),
            "--topology" => topology = Some(PathBuf::from(value()?)),
            "--metrics-out" => metrics_out = Some(PathBuf::from(value()?)),
            "--events-out" => events_out = Some(PathBuf::from(value()?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--failures" => {
                failures = value()?.parse().map_err(|e| format!("bad failures: {e}"))?;
                if failures == 0 {
                    return Err("--failures must be at least 1".to_string());
                }
            }
            "--events" => {
                events = value()?.parse().map_err(|e| format!("bad events: {e}"))?;
                if events == 0 {
                    return Err("--events must be at least 1".to_string());
                }
            }
            "--windows" => {
                let n: u64 = value()?.parse().map_err(|e| format!("bad windows: {e}"))?;
                if n == 0 {
                    return Err("--windows must be at least 1".to_string());
                }
                windows = Some(n);
            }
            "--window-ms" => {
                let ms: u64 = value()?
                    .parse()
                    .map_err(|e| format!("bad window-ms: {e}"))?;
                if ms == 0 {
                    return Err("--window-ms must be at least 1".to_string());
                }
                window_ms = Some(ms);
            }
            "--queries" => {
                let n: usize = value()?.parse().map_err(|e| format!("bad queries: {e}"))?;
                if n == 0 {
                    return Err("--queries must be at least 1".to_string());
                }
                queries = Some(n);
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--serve" => serve = Some(value()?),
            "--smoke" => smoke = true,
            "--profile-out" => profile_out = Some(PathBuf::from(value()?)),
            "--incident-out" => incident_out = Some(PathBuf::from(value()?)),
            "--slo-p99-us" => {
                slo_p99_us = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad slo-p99-us: {e}"))?,
                )
            }
            "--slo-drop-pm" => {
                let pm: u64 = value()?
                    .parse()
                    .map_err(|e| format!("bad slo-drop-pm: {e}"))?;
                if pm > 1000 {
                    return Err("--slo-drop-pm is per mille (0..=1000)".to_string());
                }
                slo_drop_pm = Some(pm);
            }
            "--max-resident-spts" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|e| format!("bad max-resident-spts: {e}"))?;
                if n == 0 {
                    return Err("--max-resident-spts must be at least 1".to_string());
                }
                max_resident_spts = Some(n);
            }
            "--shard-size" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|e| format!("bad shard-size: {e}"))?;
                if n == 0 {
                    return Err("--shard-size must be at least 1".to_string());
                }
                shard_size = Some(n);
            }
            "--full-sweep" => full_sweep = true,
            "--dests-per-source" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|e| format!("bad dests-per-source: {e}"))?;
                if n == 0 {
                    return Err("--dests-per-source must be at least 1".to_string());
                }
                dests_per_source = Some(n);
            }
            "--metric" => {
                metric = match value()?.as_str() {
                    "weighted" => rbpc_graph::Metric::Weighted,
                    "unweighted" => rbpc_graph::Metric::Unweighted,
                    other => return Err(format!("unknown metric `{other}`")),
                }
            }
            // One positional operand: the incident file for `replay`.
            other if !other.starts_with("--") && incident_path.is_none() => {
                incident_path = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        command,
        scale,
        seed,
        threads,
        csv_dir,
        topology,
        metric,
        metrics_out,
        events_out,
        trace_out,
        failures,
        events,
        windows,
        window_ms,
        queries,
        out,
        serve,
        smoke,
        profile_out,
        incident_out,
        slo_p99_us,
        slo_drop_pm,
        incident_path,
        max_resident_spts,
        shard_size,
        full_sweep,
        dests_per_source,
    })
}

fn load_custom_suite(
    path: &PathBuf,
    metric: rbpc_graph::Metric,
) -> Result<Vec<rbpc_eval::NetworkCase>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let graph = rbpc_topo::parse_edge_list(&text)
        .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "custom".to_string());
    let samples = if graph.node_count() <= 600 { 200 } else { 40 };
    Ok(vec![rbpc_eval::NetworkCase {
        name,
        graph,
        metric,
        samples,
    }])
}

fn write_csv(dir: &Option<PathBuf>, name: &str, contents: &str) {
    let Some(dir) = dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let scale_name = match args.scale {
        EvalScale::Quick => "quick",
        EvalScale::Paper => "paper",
    };
    eprintln!(
        "# rbpc-eval {} --scale {scale_name} --seed {} --threads {}",
        args.command, args.seed, args.threads
    );
    // Replay runs with full tracing so an incident can be inspected in
    // perfetto via --trace-out on top of the hash checks.
    if args.trace_out.is_some() || args.command == "trace" || args.command == "replay" {
        rbpc_obs::start_tracing();
    }
    // Span-stack sampler: started before any work so provisioning and the
    // command body are both profiled; drained in `finish_observability`.
    let profiler = args
        .profile_out
        .as_ref()
        .map(|_| rbpc_obs::Profiler::start(std::time::Duration::from_micros(200)));
    if let Some(path) = &args.events_out {
        match std::fs::File::create(path) {
            Ok(file) => rbpc_obs::set_span_stream(Some(Box::new(std::io::BufWriter::new(file)))),
            Err(e) => {
                eprintln!("error: cannot create {}: {e}", path.display());
                eprintln!("{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    // `replay` derives its topology from the incident header, not the
    // suite — dispatch before topology generation.
    if args.command == "replay" {
        let outcome = run_replay(&args);
        finish_observability(&args, Vec::new(), profiler);
        return match outcome {
            Ok(0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // `paper-scale` builds the Internet map itself (it is the only case
    // it needs) — dispatch before the full-suite generation too.
    if args.command == "paper-scale" {
        let outcome = run_paperscale_cmd(&args);
        finish_observability(&args, Vec::new(), profiler);
        return match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let suite = match &args.topology {
        Some(path) => {
            eprintln!("# loading topology {}…", path.display());
            match load_custom_suite(path, args.metric) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            eprintln!("# generating topologies…");
            standard_suite(args.scale, args.seed)
        }
    };

    let run_t1 = || {
        println!("== Table 1: networks ==");
        let rows = table1(&suite);
        println!("{}", rbpc_eval::table1::render(&rows));
        write_csv(
            &args.csv_dir,
            "table1.csv",
            &rbpc_eval::table1::to_csv(&rows),
        );
    };
    let run_t2 = || {
        println!("== Table 2: source-router RBPC ==");
        let mut rows = Vec::new();
        for class in FailureClass::all() {
            for case in &suite {
                eprintln!("#   table2: {} / {}", case.name, class.label());
                let oracle = case.oracle_threads(args.seed, args.threads);
                let pairs = sample_pairs(&case.graph, case.samples, args.seed);
                rows.push(table2_block(
                    &case.name,
                    &oracle,
                    class,
                    &pairs,
                    args.threads,
                ));
            }
        }
        println!("{}", rbpc_eval::table2::render(&rows));
        write_csv(
            &args.csv_dir,
            "table2.csv",
            &rbpc_eval::table2::to_csv(&rows),
        );
    };
    let run_t3 = || {
        println!("== Table 3: edge bypass hop counts ==");
        let mut hists = Vec::new();
        for case in &suite {
            eprintln!("#   table3: {}", case.name);
            hists.push(table3(
                &case.name,
                &case.graph,
                case.metric,
                args.seed,
                args.threads,
            ));
        }
        println!("{}", rbpc_eval::table3::render(&hists));
        write_csv(
            &args.csv_dir,
            "table3.csv",
            &rbpc_eval::table3::to_csv(&hists),
        );
    };
    let run_f10 = || {
        println!("== Figure 10: local RBPC stretch (weighted ISP) ==");
        let case = &suite[0];
        let oracle = case.oracle_threads(args.seed, args.threads);
        let pairs = sample_pairs(&case.graph, case.samples, args.seed);
        let fig = figure10(&oracle, &pairs, args.threads);
        println!("{}", rbpc_eval::figure10::render(&fig));
        write_csv(
            &args.csv_dir,
            "figure10.csv",
            &rbpc_eval::figure10::to_csv(&fig),
        );
    };
    let run_latency = || {
        println!("== Extension: restoration latency per scheme (weighted ISP) ==");
        let case = &suite[0];
        let oracle = case.oracle_threads(args.seed, args.threads);
        let pairs = sample_pairs(&case.graph, case.samples, args.seed);
        let model = LatencyModel::default();
        let mut csv = rbpc_eval::Csv::new();
        csv.row(["scheme", "events", "unrestorable", "mean_us", "max_us"]);
        for scheme in Scheme::all() {
            let s = outage_summary_threads(&oracle, &model, &pairs, scheme, args.threads);
            println!(
                "{:<18} mean outage {:>8.1} ms   max {:>8.1} ms   ({} events, {} unrestorable)",
                format!("{:?}", s.scheme),
                s.mean_us / 1000.0,
                s.max_us as f64 / 1000.0,
                s.events,
                s.unrestorable,
            );
            csv.row([
                format!("{:?}", s.scheme),
                s.events.to_string(),
                s.unrestorable.to_string(),
                format!("{:.1}", s.mean_us),
                s.max_us.to_string(),
            ]);
        }
        println!();
        write_csv(&args.csv_dir, "latency.csv", csv.as_str());
    };
    let run_ablation = || {
        println!("== Extension: ablations ==");
        // Footprint on a scaled-down ISP (all-pairs state is quadratic).
        let small = rbpc_topo::isp_topology(
            rbpc_topo::IspParams {
                pops: 8,
                core_routers: 6,
                ..rbpc_topo::IspParams::default()
            },
            args.seed,
        )
        .graph;
        let small_oracle = rbpc_eval::eval_store(
            small.clone(),
            rbpc_graph::CostModel::new(rbpc_graph::Metric::Weighted, args.seed),
            args.threads,
        );
        let footprint = rbpc_eval::provisioning_footprint(&small_oracle);
        let case = &suite[0];
        let oracle = case.oracle_threads(args.seed, args.threads);
        let pairs = sample_pairs(&case.graph, case.samples.min(60), args.seed);
        let ksp = rbpc_eval::ksp_comparison(&oracle, &pairs, &[1, 2, 3, 4]);
        let agreement = rbpc_eval::decomposition_agreement(&oracle, &pairs);
        let coverage = rbpc_eval::protection_coverage(&case.graph);
        println!(
            "{}",
            rbpc_eval::ablation::render(&footprint, &ksp, &agreement, &coverage)
        );
    };

    let run_churn = || {
        println!(
            "== Extension: churn — {} failure/recovery events on {} (≤{} concurrent) ==",
            args.events, suite[0].name, args.failures
        );
        let case = &suite[0];
        let oracle = case.oracle_threads(args.seed, args.threads);
        let pairs = sample_pairs(&case.graph, case.samples, args.seed);
        let model = LatencyModel::default();
        let events = churn_sequence(&case.graph, args.events, args.failures, args.seed);
        let mut csv = rbpc_eval::Csv::new();
        csv.row([
            "scheme",
            "fail_events",
            "recover_events",
            "disrupted",
            "restored",
            "unrestorable",
            "reverted",
            "mean_outage_us",
            "max_outage_us",
        ]);
        for scheme in Scheme::all() {
            let s = churn_under_threads(&oracle, &model, &pairs, &events, scheme, args.threads);
            println!(
                "{:<18} {:>3} fail / {:>3} recover   {:>4} disrupted   {:>4} restored   \
                 {:>3} unrestorable   {:>4} reverted   mean outage {:>8.1} ms   max {:>8.1} ms",
                format!("{:?}", s.scheme),
                s.fail_events,
                s.recover_events,
                s.disrupted,
                s.restored,
                s.unrestorable,
                s.reverted,
                s.mean_outage_us / 1000.0,
                s.max_outage_us as f64 / 1000.0,
            );
            csv.row([
                format!("{:?}", s.scheme),
                s.fail_events.to_string(),
                s.recover_events.to_string(),
                s.disrupted.to_string(),
                s.restored.to_string(),
                s.unrestorable.to_string(),
                s.reverted.to_string(),
                format!("{:.1}", s.mean_outage_us),
                s.max_outage_us.to_string(),
            ]);
        }
        println!();
        write_csv(&args.csv_dir, "churn.csv", csv.as_str());
    };

    // Spans the `trace` command drains per scheme, kept so `--trace-out`
    // still exports everything at the end.
    let drained_spans = std::cell::RefCell::new(Vec::new());
    let run_trace = || {
        println!(
            "== Trace: {}-link failure on {} — span tree per affected LSP ==",
            args.failures, suite[0].name
        );
        let case = &suite[0];
        let oracle = case.oracle_threads(args.seed, args.threads);
        let pairs = sample_pairs(&case.graph, case.samples, args.seed);
        let model = LatencyModel::default();
        // Fail the middle link of the first K distinct sampled LSPs, so the
        // scenario is guaranteed to hit several provisioned paths at once.
        let mut failures = FailureSet::new();
        for &(s, t) in &pairs {
            if failures.failed_edge_count() >= args.failures {
                break;
            }
            if let Some(path) = oracle.base_path(s, t) {
                failures.fail_edge(path.edges()[path.hop_count() / 2]);
            }
        }
        let affected: Vec<_> = pairs
            .iter()
            .copied()
            .filter_map(|(s, t)| {
                let path = oracle.base_path(s, t)?;
                let hit = path
                    .edges()
                    .iter()
                    .copied()
                    .find(|&e| failures.edge_failed(e))?;
                Some((s, t, hit))
            })
            .collect();
        eprintln!(
            "# failed {} link(s); {} of {} sampled LSPs affected",
            failures.failed_edge_count(),
            affected.len(),
            pairs.len()
        );
        for scheme in Scheme::all() {
            println!("-- scheme {} --", scheme.name());
            for &(s, t, hit) in &affected {
                let _ = outage_under(&oracle, &model, s, t, hit, &failures, scheme);
            }
            let spans = rbpc_obs::take_spans();
            let trees = rbpc_obs::TraceTree::build(&spans);
            if trees.is_empty() {
                println!("(no spans collected — built without the `obs` feature?)");
            }
            for tree in trees {
                print!("{}", tree.render());
            }
            println!();
            drained_spans.borrow_mut().extend(spans);
        }
    };

    // Live telemetry: paced restore queries under a failure storm, one
    // JSONL window report per line while the run is in flight. `--smoke`
    // swaps in a tiny deterministic topology for sub-second CI runs;
    // `--serve` exposes /metrics + /healthz for the duration.
    let run_loadtest_cmd = || -> Result<(), String> {
        let (name, graph, metric) = if args.smoke {
            (
                "smoke-gnm-60".to_string(),
                rbpc_topo::gnm_connected(60, 180, 10, args.seed),
                rbpc_graph::Metric::Weighted,
            )
        } else {
            let case = &suite[0];
            (case.name.clone(), case.graph.clone(), case.metric)
        };
        let mut cfg = if args.smoke {
            LoadtestConfig::smoke()
        } else {
            LoadtestConfig::standard()
        };
        if let Some(w) = args.windows {
            cfg.windows = w;
        }
        if let Some(ms) = args.window_ms {
            cfg.window_ms = ms;
        }
        if let Some(q) = args.queries {
            cfg.queries_per_window = q;
        }
        cfg.seed = args.seed;
        cfg.threads = args.threads;
        cfg.slo = rbpc_obs::SloPolicy {
            p99_budget_ns: args.slo_p99_us.map(|us| us.saturating_mul(1_000)),
            max_drop_per_mille: args.slo_drop_pm,
            ..rbpc_obs::SloPolicy::default()
        };
        // The incident header's topology recipe: whatever rebuilds
        // exactly the graph this run is driving.
        let topo = if args.smoke {
            TopoSpec::Gnm {
                nodes: 60,
                edges: 180,
                max_weight: 10,
                seed: args.seed,
            }
        } else if let Some(path) = &args.topology {
            TopoSpec::File {
                path: path.display().to_string(),
            }
        } else {
            TopoSpec::Suite {
                scale: args.scale,
                seed: args.seed,
                case: 0,
            }
        };
        let sink = args.incident_out.as_ref().map(|path| IncidentSink {
            topo,
            path: path.clone(),
        });
        eprintln!(
            "# loadtest: {name} — {} windows x {}ms, {} queries/window, run_id {}",
            cfg.windows,
            cfg.window_ms,
            cfg.queries_per_window,
            rbpc_eval::run_id_for_seed(cfg.seed)
        );
        let server = match args.serve.as_deref().map(rbpc_obs::MetricsServer::serve) {
            Some(Ok(s)) => {
                eprintln!("# serving metrics on http://{}/metrics", s.local_addr());
                Some(s)
            }
            Some(Err(e)) => {
                eprintln!("warning: cannot serve metrics: {e}");
                None
            }
            None => None,
        };
        let report = match &args.out {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
                let mut w = std::io::BufWriter::new(file);
                let r =
                    rbpc_eval::run_loadtest_watched(&graph, metric, &cfg, &mut w, sink.as_ref())
                        .map_err(|e| format!("loadtest: {e}"))?;
                eprintln!("# wrote {} ({} windows)", path.display(), r.windows.len());
                r
            }
            None => {
                let stdout = std::io::stdout();
                let mut w = stdout.lock();
                rbpc_eval::run_loadtest_watched(&graph, metric, &cfg, &mut w, sink.as_ref())
                    .map_err(|e| format!("loadtest: {e}"))?
            }
        };
        eprintln!();
        eprintln!("== loadtest summary ==");
        eprint!("{}", report.render());
        if let Some(breach) = &report.breach {
            match &args.incident_out {
                Some(path) => eprintln!(
                    "# SLO breach at window {} — incident frozen to {}",
                    breach.tick,
                    path.display()
                ),
                None => eprintln!(
                    "# SLO breach at window {} (no --incident-out; flight \
                     recording discarded)",
                    breach.tick
                ),
            }
        }
        if let Some(s) = server {
            s.shutdown();
        }
        Ok(())
    };

    // Runtime half of the rbpc-lint invariant layer: every structural
    // validator, run over the real suite networks in a release build
    // (where the `debug_assert!` wiring compiles out). Returns the number
    // of violations; the caller turns that into a non-zero exit.
    let run_validate = || -> usize {
        println!("== Validate: structural invariants & theory bounds ==");
        let mut total_checks = 0usize;
        let mut violations: Vec<String> = Vec::new();
        for case in &suite {
            eprintln!("#   validate: {}", case.name);
            let mut checks = 0usize;
            let before = violations.len();
            let model = CostModel::new(case.metric, args.seed);
            let csr = CsrGraph::new(&case.graph, &model);
            checks += 1;
            if let Err(e) = csr.validate() {
                violations.push(format!("{}: CSR: {e}", case.name));
            }

            // Shortest-path trees: healthy, then under random failure
            // masks (edges only, and edges plus one node).
            let pairs = sample_pairs(&case.graph, case.samples, args.seed);
            let mut sources: Vec<NodeId> = pairs.iter().map(|&(s, _)| s).collect();
            sources.sort_unstable();
            sources.dedup();
            sources.truncate(8);
            let mut scratch = DijkstraScratch::new(case.graph.node_count());
            for &s in &sources {
                let tree = csr.full_tree(s, &mut scratch);
                checks += 1;
                if let Err(e) = csr.validate_tree(&tree, None) {
                    violations.push(format!("{}: tree from {s}: {e}", case.name));
                }
            }
            let mut rng = DetRng::seed_from_u64(args.seed ^ 0x5EED);
            for round in 0..3usize {
                let mut set = FailureSet::new();
                for _ in 0..3 {
                    set.fail_edge(EdgeId::new(rng.gen_range(0..case.graph.edge_count())));
                }
                if round == 2 && case.graph.node_count() > 2 {
                    set.fail_node(NodeId::new(
                        1 + rng.gen_range(0..case.graph.node_count() - 1),
                    ));
                }
                let mask = FailureMask::from_set(&csr, &set);
                for &s in &sources {
                    if set.node_failed(s) {
                        continue;
                    }
                    let tree = csr.full_tree_masked(s, Some(&mask), &mut scratch);
                    checks += 1;
                    if let Err(e) = csr.validate_tree(&tree, Some(&mask)) {
                        violations.push(format!(
                            "{}: masked tree from {s} (round {round}): {e}",
                            case.name
                        ));
                    }
                }
            }

            // Theorem 1/2 label-stack bounds on real restorations: fail
            // one, then two, links of each sampled pair's base path.
            let oracle = case.oracle_threads(args.seed, args.threads);
            let restorer = Restorer::new(&oracle);
            for &(s, t) in &pairs {
                let Some(path) = oracle.base_path(s, t) else {
                    continue;
                };
                let edges = path.edges().to_vec();
                for k in 1..=2usize.min(edges.len()) {
                    let mut set = FailureSet::new();
                    for i in 0..k {
                        set.fail_edge(edges[(i + 1) * edges.len() / (k + 1)]);
                    }
                    let Ok(r) = restorer.restore(s, t, &set) else {
                        continue; // disconnected pairs carry no bound
                    };
                    checks += 1;
                    if let Err(e) = r.concatenation.validate_bounds(set.failed_edge_count()) {
                        violations.push(format!("{}: restore {s} -> {t}: {e}", case.name));
                    }
                }
            }

            println!(
                "{:<22} {:>6} checks   {} violations",
                case.name,
                checks,
                violations.len() - before
            );
            total_checks += checks;
        }
        println!();
        for v in &violations {
            println!("VIOLATION: {v}");
        }
        if violations.is_empty() {
            println!(
                "validate: OK — {total_checks} checks across {} networks, all invariants hold",
                suite.len()
            );
        } else {
            println!(
                "validate: FAILED — {} of {total_checks} checks violated",
                violations.len()
            );
        }
        violations.len()
    };

    let mut validate_violations = 0usize;
    match args.command.as_str() {
        "table1" => run_t1(),
        "table2" => run_t2(),
        "table3" => run_t3(),
        "figure10" => run_f10(),
        "latency" => run_latency(),
        "ablation" => run_ablation(),
        "churn" => run_churn(),
        "trace" => run_trace(),
        "loadtest" => {
            if let Err(e) = run_loadtest_cmd() {
                eprintln!("error: {e}");
                finish_observability(&args, drained_spans.into_inner(), profiler);
                return ExitCode::FAILURE;
            }
        }
        "validate" => validate_violations = run_validate(),
        "all" => {
            run_t1();
            run_t2();
            run_t3();
            run_f10();
            run_latency();
            run_ablation();
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    }
    finish_observability(&args, drained_spans.into_inner(), profiler);
    if validate_violations > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The `paper-scale` command: provision and restore on the paper's
/// Internet router map through the implicit sharded store. Defaults to
/// the real 40 377-node map (`--smoke` swaps in the quick-scale
/// 1 500-node stand-in with a deliberately tiny budget); `--scale` is
/// ignored. Sweep JSONL goes to `--out` (or stdout); `--incident-out`
/// freezes the run's flight-recorder ring into a replayable incident.
fn run_paperscale_cmd(args: &Args) -> Result<(), String> {
    let mut cfg = if args.smoke {
        rbpc_eval::PaperScaleConfig::smoke(args.seed, args.threads)
    } else {
        rbpc_eval::PaperScaleConfig::paper(args.seed, args.threads)
    };
    if let Some(n) = args.max_resident_spts {
        cfg.max_resident_spts = n;
    }
    if let Some(n) = args.shard_size {
        cfg.shard_size = n;
    }
    cfg.full_sweep = cfg.full_sweep || args.full_sweep;
    if let Some(n) = args.dests_per_source {
        cfg.dests_per_source = n;
    }
    if let Some(w) = args.windows {
        cfg.sweep_windows = w;
    }
    eprintln!(
        "# paper-scale: {} map — budget {} trees, shards of {}, {} samples{}; run_id {}",
        match cfg.scale {
            EvalScale::Paper => "full 40 377-node",
            EvalScale::Quick => "quick 1 500-node",
        },
        cfg.max_resident_spts,
        cfg.shard_size,
        cfg.samples,
        if cfg.full_sweep { ", full sweep" } else { "" },
        rbpc_eval::run_id_for_seed(cfg.seed),
    );
    let sink = args.incident_out.as_ref().map(|path| IncidentSink {
        topo: TopoSpec::Suite {
            scale: cfg.scale,
            seed: cfg.seed,
            case: rbpc_eval::INTERNET_CASE,
        },
        path: path.clone(),
    });
    let report = match &args.out {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            let mut w = std::io::BufWriter::new(file);
            let r = rbpc_eval::run_paper_scale(&cfg, &mut w, sink.as_ref())
                .map_err(|e| format!("paper-scale: {e}"))?;
            if r.sweep.is_some() {
                eprintln!("# wrote {}", path.display());
            }
            r
        }
        None => {
            let stdout = std::io::stdout();
            let mut w = stdout.lock();
            rbpc_eval::run_paper_scale(&cfg, &mut w, sink.as_ref())
                .map_err(|e| format!("paper-scale: {e}"))?
        }
    };
    println!(
        "== Paper scale: implicit sharded store on the {} map ==",
        report.topo_name
    );
    print!("{}", report.render());
    println!();
    println!("== Table 2 protocol through the sharded store ==");
    println!("{}", rbpc_eval::table2::render(&report.protocol));
    write_csv(
        &args.csv_dir,
        "paper_scale_table2.csv",
        &rbpc_eval::table2::to_csv(&report.protocol),
    );
    if let Some(path) = &args.incident_out {
        eprintln!("# incident frozen to {}", path.display());
    }
    Ok(())
}

/// The `replay` command: parse an incident file, rebuild its topology
/// and oracle, re-execute every recorded restore with validators on, and
/// report divergence. Returns the number of mismatches (0 == clean).
fn run_replay(args: &Args) -> Result<usize, String> {
    let path = args
        .incident_path
        .as_ref()
        .ok_or("replay needs an incident file: rbpc-eval replay <incident.jsonl>")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (header, records) =
        rbpc_eval::parse_incident(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "# replay: run_id {} — {} records, breach at window {} ({})",
        header.run_id,
        records.len(),
        header.breach_tick,
        header.breach_reason
    );
    let report = rbpc_eval::replay_incident(&header, &records, args.threads)?;
    println!(
        "== Replay: incident {} on {} ==",
        report.run_id, report.topo_name
    );
    println!(
        "{} restore records replayed, {} matched, {} Theorem-bound checks",
        report.replayed, report.matched, report.bounds_checked
    );
    for m in &report.mismatches {
        println!("MISMATCH: {m}");
    }
    if report.is_clean() {
        println!("replay: OK — every replayed plan hash-matched the recording");
    } else {
        println!(
            "replay: FAILED — {} of {} replayed records diverged",
            report.mismatches.len(),
            report.replayed
        );
    }
    Ok(report.mismatches.len())
}

/// Closes the span stream, exports buffered trace spans, stops the
/// span-stack profiler (writing its collapsed-stack report to
/// `--profile-out`), and dumps the metric registry: JSON to
/// `--metrics-out` if given, and a human-readable summary to stderr.
fn finish_observability(
    args: &Args,
    mut spans: Vec<rbpc_obs::SpanRecord>,
    profiler: Option<rbpc_obs::Profiler>,
) {
    // Removing the stream flushes the JSONL file.
    rbpc_obs::set_span_stream(None);
    if let Some(path) = &args.events_out {
        eprintln!("# wrote {}", path.display());
    }
    spans.extend(rbpc_obs::stop_tracing());
    if let Some(path) = &args.trace_out {
        let mut json = rbpc_obs::chrome_trace_json(&spans);
        json.push('\n');
        match std::fs::write(path, json) {
            Ok(()) => eprintln!(
                "# wrote {} ({} spans; open in ui.perfetto.dev)",
                path.display(),
                spans.len()
            ),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    if let Some(p) = profiler {
        let report = p.stop();
        if let Some(path) = &args.profile_out {
            match std::fs::write(path, report.to_collapsed()) {
                Ok(()) => eprintln!(
                    "# wrote {} ({} samples, {} distinct stacks; render with any \
                     flamegraph tool that reads collapsed stacks)",
                    path.display(),
                    report.samples(),
                    report.stacks().len()
                ),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
        }
    }
    let snap = rbpc_obs::Registry::global_snapshot();
    if let Some(path) = &args.metrics_out {
        let mut json = snap.to_json();
        json.push('\n');
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("# wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    if !snap.is_empty() {
        eprintln!();
        eprintln!("== metrics summary ==");
        eprint!("{}", snap.render_table());
    }
}
