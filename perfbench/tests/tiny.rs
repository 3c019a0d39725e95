//! The benchmark's own tests: every workload at tiny size prints every
//! metric `BENCHMARK.json` names, with its unit, and a corrupted output
//! is counted as a failure, never passed.

use std::process::Command;

use pba_core::json::{parse, Json};

const WORKLOADS: &[&str] = &["dense", "tail", "cluster", "serve"];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{list} is a list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one tiny workload; returns the exit success and the result line.
fn run(workload: &str, trace: bool, corrupt: bool) -> (bool, Json) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", "5", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"]);
    if corrupt {
        cmd.arg("--corrupt");
    }
    let out = cmd.output().expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse(last).unwrap_or_else(|e| panic!("{workload}: last line {last:?}: {e:?}"));
    (out.status.success(), result)
}

fn count(result: &Json, key: &str) -> u64 {
    result
        .get(key)
        .and_then(Json::as_u64)
        .expect("whole-number count")
}

#[test]
fn every_listed_metric_is_printed_with_its_unit() {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected = listed(list);
        for workload in WORKLOADS {
            let (ok, result) = run(workload, trace, false);
            assert!(ok, "{workload} trace={trace} failed");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert!(count(&result, "attempted") >= 1);
            assert_eq!(count(&result, "failed"), 0);
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            assert_eq!(metrics.len(), expected.len(), "{workload}: {list} only");
            for (name, unit) in &expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
            }
        }
    }
}

#[test]
fn corrupted_output_is_counted_as_failed() {
    for workload in WORKLOADS {
        let (ok, result) = run(workload, false, true);
        assert!(!ok, "{workload}: a failed check must exit nonzero");
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(false)),
            "{workload}"
        );
        assert!(
            count(&result, "failed") >= 1,
            "{workload}: corruption not counted"
        );
        assert!(count(&result, "attempted") > count(&result, "failed"));
    }
}
