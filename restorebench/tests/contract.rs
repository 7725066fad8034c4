//! The benchmark's own contract, checked on tiny inputs: every workload
//! passes its correctness checks, prints every metric `BENCHMARK.json`
//! names with its unit, keeps its plan digest across runs, and its traced
//! layers cover the traced restore time.

use rbpc_obs::json::{parse, JsonValue};
use rbpc_restorebench::report::{COVERAGE_BOUND, END_TO_END, PER_LAYER};
use rbpc_restorebench::{run, Config, Outcome, Size, Workload};
use std::process::Command;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Config {
        workload,
        seed,
        seconds: 0.05,
        trace,
        size: Size::Tiny,
        threads: 2,
        trace_out: None,
    })
}

/// `(name, unit)` of every metric of `kind` in the repository's
/// `BENCHMARK.json`.
fn declared(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(kind)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn metrics_of(line: &str) -> JsonValue {
    parse(line).expect("result line parses")
}

#[test]
fn declared_metrics_match_the_printed_lists() {
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(&END_TO_END));
    assert_eq!(declared("per_layer"), own(&PER_LAYER));
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in Workload::ALL {
        let out = tiny(w, 7, false);
        let v = metrics_of(&out.report.to_json(&END_TO_END));
        assert_eq!(
            v.get("correct"),
            Some(&JsonValue::Bool(true)),
            "{}",
            w.name()
        );
        assert_eq!(v.get("failed").and_then(JsonValue::as_f64), Some(0.0));
        assert!(v.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
        let m = v.get("metrics").unwrap();
        for (name, unit) in declared("end_to_end") {
            let metric = m
                .get(&name)
                .unwrap_or_else(|| panic!("{}: {name}", w.name()));
            assert_eq!(
                metric.get("unit").and_then(JsonValue::as_str),
                Some(unit.as_str())
            );
            let value = metric.get("value").and_then(JsonValue::as_f64).unwrap();
            assert!(value > 0.0, "{}: {name} = {value}", w.name());
        }
        assert_eq!(out.stamp.failed_frac, 0.0);
    }
}

#[test]
fn traced_runs_print_every_layer_metric_and_cover_the_restore() {
    for w in Workload::ALL {
        let out = tiny(w, 7, true);
        assert!(out.report.correct, "{}", w.name());
        let v = metrics_of(&out.report.to_json(&PER_LAYER));
        let m = v.get("metrics").unwrap();
        for (name, unit) in declared("per_layer") {
            let metric = m
                .get(&name)
                .unwrap_or_else(|| panic!("{}: {name}", w.name()));
            assert_eq!(
                metric.get("unit").and_then(JsonValue::as_str),
                Some(unit.as_str())
            );
        }
        let coverage = out.report.metrics["bench.coverage"];
        assert!(
            (1.0 - coverage).abs() <= COVERAGE_BOUND,
            "{}: coverage {coverage}",
            w.name()
        );
        assert!(out.report.metrics["core.restore.path_under.calls"] > 0.0);
    }
}

#[test]
fn plan_digest_depends_on_the_seed_only() {
    for w in Workload::ALL {
        let a = tiny(w, 3, false).stamp.plan_digest;
        assert_eq!(a, tiny(w, 3, false).stamp.plan_digest, "{}", w.name());
        assert_eq!(a, tiny(w, 3, true).stamp.plan_digest, "{}", w.name());
        assert_ne!(a, tiny(w, 4, false).stamp.plan_digest, "{}", w.name());
    }
}

#[test]
fn command_line_prints_the_result_last() {
    let out = Command::new(env!("CARGO_BIN_EXE_rbpc-restorebench"))
        .args(["--workload", "isp_events", "--seed", "1", "--seconds", "0"])
        .args(["--trace", "0", "--size", "tiny"])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut lines = stdout.lines().rev();
    let result = metrics_of(lines.next().unwrap());
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
    let stamp = parse(lines.next().unwrap()).unwrap();
    for key in [
        "nproc",
        "git_rev",
        "seed",
        "workload",
        "profile",
        "obs",
        "plan_digest",
    ] {
        assert!(stamp.get(key).is_some(), "stamp lacks {key}");
    }
}

#[test]
fn command_line_rejects_bad_arguments() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "isp_events", "--trace", "2"],
        &["--seed", "1"],
        &["--workload"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rbpc-restorebench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
