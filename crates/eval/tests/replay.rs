//! End-to-end test of the flight-recorder → incident → replay loop: the
//! `rbpc-eval` binary must freeze an incident when the SLO watchdog
//! trips, replay the committed golden incident with byte-identical plan
//! hashes, and exit non-zero when a recorded hash is corrupted — the
//! contract `scripts/check.sh` relies on.

use std::process::Command;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/incident-smoke.jsonl"
);

fn eval(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rbpc-eval"))
        .args(args)
        .output()
        .expect("spawn rbpc-eval")
}

#[test]
fn golden_incident_replays_clean() {
    let out = eval(&["replay", GOLDEN]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "replay of the golden incident exited {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("replay: OK"), "{stdout}");
    assert!(!stdout.contains("MISMATCH"), "{stdout}");
}

#[test]
fn corrupted_plan_hash_fails_replay() {
    // Flip one digit of the first restore record's plan hash: replay
    // must spot the divergence and exit non-zero.
    let text = std::fs::read_to_string(GOLDEN).expect("read golden incident");
    let mut corrupted = String::new();
    let mut done = false;
    for line in text.lines() {
        if !done && line.contains("\"kind\":\"restore\"") {
            let (head, tail) = line.split_once("\"plan_hash\":\"").expect("hash field");
            let hash = &tail[..16];
            let flipped = if hash.starts_with('0') { "1" } else { "0" };
            corrupted.push_str(&format!("{head}\"plan_hash\":\"{flipped}{}", &tail[1..]));
            done = true;
        } else {
            corrupted.push_str(line);
        }
        corrupted.push('\n');
    }
    assert!(done, "golden incident has no restore record");
    let path =
        std::env::temp_dir().join(format!("rbpc-replay-corrupt-{}.jsonl", std::process::id()));
    std::fs::write(&path, corrupted).expect("write corrupted incident");
    let out = eval(&["replay", path.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "corrupted replay must fail:\n{stdout}"
    );
    assert!(stdout.contains("MISMATCH"), "{stdout}");
    assert!(stdout.contains("replay: FAILED"), "{stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn out_of_range_failed_edge_is_an_error_not_a_panic() {
    // The golden topology has 180 edges: id 180 names none of them.
    let text = std::fs::read_to_string(GOLDEN).expect("read golden incident");
    let mut hostile = String::new();
    let mut done = false;
    for line in text.lines() {
        if !done && line.contains("\"kind\":\"restore\"") {
            let (head, tail) = line
                .split_once("\"failed_edges\":[")
                .expect("failed_edges field");
            hostile.push_str(&format!("{head}\"failed_edges\":[180,{tail}"));
            done = true;
        } else {
            hostile.push_str(line);
        }
        hostile.push('\n');
    }
    assert!(done, "golden incident has no restore record");
    let path =
        std::env::temp_dir().join(format!("rbpc-replay-hostile-{}.jsonl", std::process::id()));
    std::fs::write(&path, hostile).expect("write hostile incident");
    let out = eval(&["replay", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "must exit 1, not panic:\n{stderr}"
    );
    assert!(
        stderr.contains("failed edge id 180 is out of range"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn capture_then_replay_round_trips() {
    // Full loop in one test: a smoke run with an impossible p99 budget
    // breaches at window 0, freezes the ring, and the frozen incident
    // replays clean — plan hashes reproduce across process boundaries.
    let dir = std::env::temp_dir().join(format!("rbpc-replay-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let incident = dir.join("incident.jsonl");
    let windows = dir.join("windows.jsonl");
    let capture = eval(&[
        "loadtest",
        "--smoke",
        "--seed",
        "42",
        "--slo-p99-us",
        "0",
        "--incident-out",
        incident.to_str().expect("utf-8 path"),
        "--out",
        windows.to_str().expect("utf-8 path"),
    ]);
    assert!(
        capture.status.success(),
        "capture run exited {}:\n{}",
        capture.status,
        String::from_utf8_lossy(&capture.stderr)
    );
    let stderr = String::from_utf8_lossy(&capture.stderr);
    assert!(stderr.contains("SLO breach"), "{stderr}");

    // Window JSONL and incident header carry the same seed-derived
    // run_id — the join key across the run's artifacts.
    let run_id = rbpc_eval::run_id_for_seed(42);
    let first_window = std::fs::read_to_string(&windows)
        .expect("read windows")
        .lines()
        .next()
        .expect("one window line")
        .to_string();
    assert!(first_window.contains(&run_id), "{first_window}");
    let header_line = std::fs::read_to_string(&incident)
        .expect("read incident")
        .lines()
        .next()
        .expect("header line")
        .to_string();
    assert!(header_line.contains(&run_id), "{header_line}");

    let replay = eval(&["replay", incident.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(
        replay.status.success(),
        "replay exited {}:\n{stdout}\n{}",
        replay.status,
        String::from_utf8_lossy(&replay.stderr)
    );
    assert!(stdout.contains("replay: OK"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn events_out_streams_one_span_per_line() {
    let dir = std::env::temp_dir().join(format!("rbpc-events-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let events = dir.join("events.jsonl");
    let out = eval(&["replay", GOLDEN, "--events-out", events.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&events).expect("read events");
    for line in text.lines() {
        rbpc_obs::json::parse(line).expect("one JSON object per line");
    }
    let roots = text.matches("\"name\":\"restore.source\"").count();
    assert_eq!(roots > 0, cfg!(feature = "obs"), "{text}");

    // An unwritable path fails before any work, with the usage text.
    let missing = dir.join("missing").join("events.jsonl");
    let bad = eval(&["replay", GOLDEN, "--events-out", missing.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("usage: rbpc-eval"));
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
