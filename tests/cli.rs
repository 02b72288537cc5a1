//! The `htims` binary's run surface, driven as a user would: each case
//! runs in a fresh scratch directory so every file the binary writes is
//! visible (and nothing lands in the working tree). A command line the
//! binary cannot honour exactly must exit 2 before it writes anything.

use std::path::{Path, PathBuf};
use std::process::Output;

/// A fresh, empty scratch directory for one test case.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htims-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn htims(cwd: &Path, args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_htims"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("run htims")
}

fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// Runs `args` (no `--no-ledger`, so a run that slipped through would
/// leave `RUNS.jsonl` behind) and checks it is refused: exit 2, stderr
/// naming `culprit`, no report on stdout, and no file written.
fn assert_refused(name: &str, args: &[&str], culprit: &str) {
    let dir = scratch(name);
    let out = htims(&dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(culprit), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
    assert_eq!(files_in(&dir), Vec::<String>::new(), "{args:?} wrote files");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn a_command_line_it_cannot_honour_exits_2_and_writes_nothing() {
    assert_refused("shard", &["pipeline", "--shard", "4"], "--shard");
    assert_refused("out", &["pipeline", "--out", "--sparse"], "--sparse");
    assert_refused("foo", &["foo"], "foo");
    // Durations too large for a `Duration` are bad values, not panics.
    assert_refused(
        "stall",
        &["pipeline", "--faults", "source.stall=1e30"],
        "--faults",
    );
    assert_refused(
        "timeout",
        &["pipeline", "--stall-timeout", "1e30s"],
        "--stall-timeout",
    );
}

#[test]
fn an_out_of_range_degree_or_an_empty_mz_axis_exits_2_not_a_panic() {
    for (name, args, culprit) in [
        ("degree1", &["pipeline", "--degree", "1"][..], "--degree"),
        ("degree25", &["pipeline", "--degree", "25"], "--degree"),
        ("mz0", &["pipeline", "--mz", "0"], "--mz"),
        ("seq0", &["sequence", "--degree", "0"], "--degree"),
        ("feas0", &["feasibility", "--degree", "0"], "--degree"),
        ("feasmz0", &["feasibility", "--mz", "0"], "--mz"),
    ] {
        assert_refused(name, args, culprit);
    }
    // `run --config`: the config file is the only file afterwards.
    let dir = scratch("config-degree0");
    let text = String::from_utf8(htims(&dir, &["print-config"]).stdout).expect("utf-8 config");
    assert!(text.contains("\"sequence_degree\": 9"), "{text}");
    let text = text.replace("\"sequence_degree\": 9", "\"sequence_degree\": 0");
    std::fs::write(dir.join("cfg.json"), text).expect("write config");
    let out = htims(&dir, &["run", "--config", "cfg.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("sequence_degree"), "{stderr}");
    assert!(out.stdout.is_empty(), "printed a report");
    assert_eq!(files_in(&dir), vec!["cfg.json".to_string()]);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn every_duration_flag_reads_one_grammar() {
    // Decimals and sub-millisecond units read the same in `--slo` and
    // `--stall-timeout` (each refused one of these before).
    for args in [
        &["--slo", "p99=2.5ms"][..],
        &["--slo", "p99=500us"],
        &["--stall-timeout", "1500us"],
        &["--stall-timeout", "2.5ms"],
    ] {
        let dir = scratch("grammar");
        let mut argv = vec!["pipeline", "--frames", "4", "--no-ledger"];
        argv.extend_from_slice(args);
        let out = htims(&dir, &argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
    // The watchdog counts whole milliseconds: under 1 ms it would fire
    // at once, so such a timeout is a bad value.
    for value in ["0", "0.0004", "500us"] {
        assert_refused(
            "short-timeout",
            &["pipeline", "--stall-timeout", value],
            "--stall-timeout",
        );
    }
    assert_refused("slo-neg", &["pipeline", "--slo", "p99=-1ms"], "--slo");
    assert_refused("slo-inf", &["pipeline", "--slo", "p99=1e999s"], "--slo");
}

#[test]
fn help_exits_0() {
    let dir = scratch("help");
    for args in [&[][..], &["help"], &["--help"]] {
        let out = htims(&dir, args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn pipeline_trace_writes_a_chrome_trace_and_metrics() {
    let dir = scratch("trace");
    let out = htims(
        &dir,
        &[
            "pipeline",
            "--trace",
            "run",
            "--backend",
            "software",
            "--no-ledger",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(files_in(&dir.join("run")), ["metrics.json", "trace.json"]);
    assert_eq!(files_in(&dir), ["run"], "the ledger stayed off");

    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("run/trace.json")).unwrap())
            .expect("trace.json parses");
    let serde_json::Value::Array(events) = trace else {
        panic!("trace.json is not an event array");
    };
    let cats: Vec<&str> = events
        .iter()
        .filter(|e| matches!(e.field("ph").as_str(), Some("X" | "B")))
        .filter_map(|e| e.field("cat").as_str())
        .collect();
    for stage in ["source", "link", "accumulate", "deconvolve"] {
        assert!(cats.contains(&stage), "no {stage} span in {cats:?}");
    }
    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("run/metrics.json")).unwrap())
            .expect("metrics.json parses");
    let provenance = metrics.field("obs").field("provenance");
    assert!(provenance.field("schema_version").as_u64().is_some());
    assert_eq!(
        metrics.field("pipeline").field("backend").as_str(),
        Some("software")
    );
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn a_captured_run_replays_with_the_ledger_off() {
    let dir = scratch("replay");
    let capture = htims(
        &dir,
        &[
            "pipeline",
            "--capture-log",
            "cap",
            "--frames",
            "4",
            "--no-ledger",
        ],
    );
    assert!(
        capture.status.success(),
        "{}",
        String::from_utf8_lossy(&capture.stderr)
    );
    let replay = htims(&dir, &["pipeline", "--replay", "cap", "--no-ledger"]);
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert_eq!(replay.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("replay OK"), "{stderr}");
    assert_eq!(files_in(&dir), ["cap"], "the ledger stayed off");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn a_manifest_whose_fault_spec_does_not_parse_is_refused_not_a_panic() {
    let dir = scratch("bad-manifest");
    let capture = htims(
        &dir,
        &[
            "pipeline",
            "--capture-log",
            "cap",
            "--frames",
            "4",
            "--no-ledger",
        ],
    );
    assert!(capture.status.success());
    let manifest = dir.join("cap/manifest.json");
    let text = std::fs::read_to_string(&manifest).expect("read manifest");
    assert!(text.contains("\"faults\": null"), "{text}");
    let text = text.replace("\"faults\": null", "\"faults\": \"source.stall=1e30\"");
    std::fs::write(&manifest, text).expect("rewrite manifest");
    let replay = htims(&dir, &["pipeline", "--replay", "cap", "--no-ledger"]);
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert_eq!(replay.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("bad fault spec in manifest"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn a_manifest_nested_past_the_parser_bound_is_refused_not_a_stack_overflow() {
    let dir = scratch("deep-manifest");
    let capture = htims(
        &dir,
        &[
            "pipeline",
            "--capture-log",
            "cap",
            "--frames",
            "4",
            "--no-ledger",
        ],
    );
    assert!(capture.status.success());
    std::fs::write(dir.join("cap/manifest.json"), "[".repeat(60_000)).expect("rewrite manifest");
    let replay = htims(&dir, &["pipeline", "--replay", "cap", "--no-ledger"]);
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert_eq!(replay.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("bad capture manifest"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn a_manifest_whose_degree_is_out_of_range_is_refused_not_a_panic() {
    let dir = scratch("degree-manifest");
    let capture = htims(
        &dir,
        &[
            "pipeline",
            "--capture-log",
            "cap",
            "--frames",
            "4",
            "--no-ledger",
        ],
    );
    assert!(capture.status.success());
    let manifest = dir.join("cap/manifest.json");
    let text = std::fs::read_to_string(&manifest).expect("read manifest");
    for (from, to, culprit) in [
        ("\"degree\": 6", "\"degree\": 1", "--degree 1"),
        ("\"degree\": 6", "\"degree\": 40", "--degree 40"),
        ("\"mz\": 60", "\"mz\": 0", "--mz 0"),
    ] {
        assert!(text.contains(from), "{text}");
        std::fs::write(&manifest, text.replace(from, to)).expect("rewrite manifest");
        let replay = htims(&dir, &["pipeline", "--replay", "cap", "--no-ledger"]);
        let stderr = String::from_utf8_lossy(&replay.stderr);
        assert_eq!(replay.status.code(), Some(2), "{to}: {stderr}");
        assert!(stderr.contains("bad capture manifest"), "{stderr}");
        assert!(stderr.contains(culprit), "{stderr}");
        assert!(replay.stdout.is_empty(), "{to}: printed a report");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
