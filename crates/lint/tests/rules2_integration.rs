//! Integration tests for the tier-2 (token-aware) rules and the
//! machine-readable report pipeline: fixture counts, the clean twin,
//! JSON round-trip through an independent parser, baseline diffing, and
//! the binary's `--json` / `--baseline` / `--fix-dry-run` flags.

use rbpc_lint::{report, Allowlist, Finding, Workspace};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check(name: &str) -> Vec<Finding> {
    Workspace::load(&fixture(name))
        .expect("fixture workspace loads")
        .check(&Allowlist::default())
}

#[test]
fn conc_violations_fixture_trips_every_tier2_rule() {
    let findings = check("conc_violations");
    let count = |rule: &str| findings.iter().filter(|f| f.rule == rule).count();
    // obs: Relaxed write, Relaxed read, bare allow; sim: static, spawn.
    assert_eq!(count("atomics-order"), 5, "{findings:#?}");
    // A guard held across the second lock, and a `let _ =` guard.
    assert_eq!(count("lock-discipline"), 2, "{findings:#?}");
    // Alloc, compound index, narrowing cast in one hot region.
    assert_eq!(count("hot-path"), 3, "{findings:#?}");
    // Unregistered assert, missing test file, stale manifest entries
    // naming a gone file and a gone fn.
    assert_eq!(count("debug-invariants"), 4, "{findings:#?}");
    assert_eq!(findings.len(), 14, "no unexpected findings\n{findings:#?}");
}

#[test]
fn hot_marker_bound_to_a_closure_is_reported() {
    // The marker above `while let Some(v) = q.pop(|v| { … }) {` binds to
    // the closure; the `push` in the loop body stays unchecked.
    let findings = check("hot_closure");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!((f.rule, f.line), ("hot-path", 27), "{f:#?}");
    assert!(f.message.contains("closure"), "{f:#?}");
}

#[test]
fn conc_clean_fixture_has_no_findings() {
    assert_eq!(check("conc_clean"), vec![]);
}

#[test]
fn allow_keys_are_unique_and_content_stable() {
    let a = check("conc_violations");
    let b = check("conc_violations");
    let keys: Vec<&str> = a.iter().map(|f| f.allow_key.as_str()).collect();
    let mut deduped = keys.clone();
    deduped.sort();
    deduped.dedup();
    assert_eq!(deduped.len(), keys.len(), "keys must be unique: {keys:#?}");
    assert_eq!(
        keys,
        b.iter().map(|f| f.allow_key.as_str()).collect::<Vec<_>>(),
        "keys must be deterministic across runs"
    );
    assert!(keys.iter().all(|k| !k.is_empty()));
}

#[test]
fn json_report_round_trips_through_the_obs_parser() {
    let findings = check("conc_violations");
    let json = report::findings_to_json(&findings, &vec![false; findings.len()]);
    let v = rbpc_obs::json::parse(&json).expect("report is valid JSON");
    assert_eq!(
        v.get("total").and_then(|t| t.as_f64()),
        Some(findings.len() as f64)
    );
    let items = v
        .get("findings")
        .and_then(|f| f.as_arr())
        .expect("findings array");
    assert_eq!(items.len(), findings.len());
    for (item, f) in items.iter().zip(&findings) {
        assert_eq!(item.get("rule").and_then(|x| x.as_str()), Some(f.rule));
        assert_eq!(
            item.get("path").and_then(|x| x.as_str()),
            Some(f.path.as_str())
        );
        assert_eq!(
            item.get("line").and_then(|x| x.as_f64()),
            Some(f.line as f64)
        );
        assert_eq!(
            item.get("allow_key").and_then(|x| x.as_str()),
            Some(f.allow_key.as_str())
        );
        assert_eq!(item.get("status").and_then(|x| x.as_str()), Some("new"));
    }
}

#[test]
fn baseline_accepts_known_findings_and_reports_stale_entries() {
    let findings = check("conc_violations");
    let baseline = report::Baseline {
        entries: findings
            .iter()
            .map(|f| report::BaselineEntry {
                allow_key: f.allow_key.clone(),
                rule: f.rule.to_string(),
                path: f.path.clone(),
                justification: "fixture-accepted".to_string(),
            })
            .collect(),
    };
    // Round-trip through the committed text format first.
    let baseline = report::Baseline::parse(&baseline.render()).expect("render parses");
    let diff = report::diff_against(&findings, &baseline);
    assert!(diff.new.is_empty(), "all findings accepted: {:?}", diff.new);
    assert!(diff.baselined.iter().all(|&b| b));
    assert!(diff.stale.is_empty());

    // A key that no longer fires is stale; dropping an entry makes that
    // finding new again.
    let mut extra = baseline.clone();
    extra.entries.push(report::BaselineEntry {
        allow_key: "atomics-order@gone.rs@0000000000000000@0".into(),
        rule: "atomics-order".into(),
        path: "gone.rs".into(),
        justification: "obsolete".into(),
    });
    let diff = report::diff_against(&findings, &extra);
    assert_eq!(diff.stale.len(), 1);
    let mut short = baseline.clone();
    short.entries.pop();
    let diff = report::diff_against(&findings, &short);
    assert_eq!(diff.new.len(), 1);

    // Empty justifications are themselves an error.
    let mut unjust = baseline;
    unjust.entries[0].justification = "  ".into();
    assert_eq!(unjust.unjustified().len(), 1);
}

#[test]
fn fix_dry_run_suggests_binding_dropped_guards() {
    let findings = check("conc_violations");
    let dropped: Vec<&Finding> = findings.iter().filter(|f| f.suggestion.is_some()).collect();
    assert_eq!(dropped.len(), 1, "{findings:#?}");
    let patch = report::fix_dry_run(&findings);
    assert!(patch.contains("--- a/crates/sim/src/lib.rs"), "{patch}");
    assert!(patch.contains("-        let _ = self.a.lock()"), "{patch}");
    assert!(
        patch.contains("+        let _guard = self.a.lock()"),
        "{patch}"
    );
}

#[test]
fn binary_json_baseline_and_fix_flags_work_end_to_end() {
    let bin = env!("CARGO_BIN_EXE_rbpc-lint");
    let tmp = std::env::temp_dir().join("rbpc-lint-test");
    std::fs::create_dir_all(&tmp).expect("mkdir");
    let json_path = tmp.join("report.json");

    // Violations fixture: non-zero exit, JSON written, diff printed.
    let out = Command::new(bin)
        .args([fixture("conc_violations").as_os_str()])
        .args(["--json".as_ref(), json_path.as_os_str()])
        .arg("--fix-dry-run")
        .output()
        .expect("run rbpc-lint");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[hot-path]"), "{stdout}");
    assert!(
        stdout.contains("let _guard ="),
        "--fix-dry-run diff\n{stdout}"
    );
    assert!(stdout.contains("lint.findings.total=14"), "{stdout}");
    let json = std::fs::read_to_string(&json_path).expect("json written");
    let v = rbpc_obs::json::parse(&json).expect("valid JSON");
    assert_eq!(v.get("new").and_then(|x| x.as_f64()), Some(14.0));

    // Write a full baseline from the report keys; the same run passes.
    let findings = check("conc_violations");
    let baseline = report::Baseline {
        entries: findings
            .iter()
            .map(|f| report::BaselineEntry {
                allow_key: f.allow_key.clone(),
                rule: f.rule.to_string(),
                path: f.path.clone(),
                justification: "fixture-accepted".to_string(),
            })
            .collect(),
    };
    let base_path = tmp.join("baseline.json");
    std::fs::write(&base_path, baseline.render()).expect("write baseline");
    let out = Command::new(bin)
        .args([fixture("conc_violations").as_os_str()])
        .args(["--baseline".as_ref(), base_path.as_os_str()])
        .output()
        .expect("run rbpc-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "baselined run passes:\n{stdout}");
    assert!(stdout.contains("lint.findings.baselined=14"), "{stdout}");

    // An empty justification flips the run back to failure.
    let mut unjust = baseline;
    unjust.entries[0].justification = String::new();
    std::fs::write(&base_path, unjust.render()).expect("write baseline");
    let out = Command::new(bin)
        .args([fixture("conc_violations").as_os_str()])
        .args(["--baseline".as_ref(), base_path.as_os_str()])
        .output()
        .expect("run rbpc-lint");
    assert!(!out.status.success(), "unjustified baseline must fail");
}
