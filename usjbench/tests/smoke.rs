//! The benchmark's own smoke test: every workload at a tiny size, traced
//! and untraced, on two seeds. Each run must pass its correctness gate
//! and print exactly the metrics `BENCHMARK.json` declares for its
//! section, each with its declared unit: every workload prints every one.
//!
//! Run with `cargo test --release --manifest-path usjbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric declared in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
                let rest = &entry[at..];
                let open = rest.find('"').unwrap() + 1;
                let close = open + rest[open..].find('"').unwrap();
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric in a result line, and its `correct` flag.
fn parse(line: &str) -> (bool, Vec<(String, String)>) {
    let correct = line.starts_with("{\"correct\": true,");
    let metrics = &line[line.find("\"metrics\": {").expect("metrics key") + 12..];
    let mut out = Vec::new();
    for chunk in metrics.split("}, \"").map(|c| c.trim_start_matches('"')) {
        let name = chunk[..chunk.find('"').unwrap()].to_string();
        let unit_at = chunk.find("\"unit\": \"").expect("unit") + 9;
        let unit = chunk[unit_at..unit_at + chunk[unit_at..].find('"').unwrap()].to_string();
        out.push((name, unit));
    }
    (correct, out)
}

fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_usjbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "4000"])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    for trace in [false, true] {
        let section = if trace { "per_layer" } else { "end_to_end" };
        let declared = declared(section);
        for seed in [42, 7] {
            let line = run(workload, seed, trace);
            let (correct, metrics) = parse(&line);
            assert!(correct, "{workload} seed {seed} trace {trace}: {line}");
            assert_eq!(
                metrics, declared,
                "{workload} trace {trace}: result metrics differ from {section}"
            );
        }
    }
}

#[test]
fn join_batch_smoke() {
    check("join-batch");
}

#[test]
fn service_mixed_smoke() {
    check("service-mixed");
}

#[test]
fn live_ingest_smoke() {
    check("live-ingest");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_usjbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
