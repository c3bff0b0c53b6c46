//! Runs every workload at tiny scale, untraced and traced, and checks
//! that each run passes all of its checks and prints every metric that
//! `BENCHMARK.json` names for its mode, with that metric's unit.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["ring-write", "clique-fanout", "durable-mixed"];

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_prcc-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", &trace.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = declared(list);
        assert!(!metrics.is_empty());
        for workload in WORKLOADS {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{workload}: {line}"
            );
            assert_eq!(
                line.matches("\"value\": ").count(),
                metrics.len(),
                "{workload} --trace {trace} prints exactly the declared metrics: {line}"
            );
            for (name, unit) in &metrics {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}: {line}"));
                let rest = &line[at + key.len()..];
                let (value, rest) = rest.split_once(',').expect("value then unit");
                value
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("{name} = {value} is not a number"));
                assert!(
                    rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                    "{name} has unit {unit}: {line}"
                );
            }
        }
    }
}
