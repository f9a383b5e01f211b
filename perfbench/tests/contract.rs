//! The benchmark's contract, checked on tiny inputs: every metric named
//! in `BENCHMARK.json` is printed with its unit, an injected digest
//! mismatch shows up as a failed op, and seeds change the inputs but not
//! the metric set.

use picos_trace::{parse_json, Value};
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper_sweep", "stream_cluster", "serve_wire"];

/// Runs the benchmark on tiny inputs; returns its stdout lines.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--size", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(str::to_string)
        .collect()
}

fn obj(v: &Value) -> &BTreeMap<String, Value> {
    v.as_obj().expect("a JSON object")
}

/// The result object (last line) of a run.
fn result(lines: &[String]) -> Value {
    parse_json(lines.last().expect("a result line")).expect("result is JSON")
}

/// (name → unit) of the metrics a result or a BENCHMARK.json list holds.
fn units(metrics: &Value) -> BTreeMap<String, String> {
    match metrics {
        Value::Obj(m) => m
            .iter()
            .map(|(k, v)| (k.clone(), obj(v)["unit"].as_string().unwrap().to_string()))
            .collect(),
        Value::Arr(list) => list
            .iter()
            .map(|m| {
                let m = obj(m);
                let s = |k: &str| m[k].as_string().unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect(),
        _ => panic!("metrics must be an object or a list"),
    }
}

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

#[test]
fn tiny_runs_emit_every_metric_with_its_unit() {
    let spec = spec();
    let spec = obj(&spec);
    for w in WORKLOADS {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = result(&run(w, 1, trace, &[]));
            let r = obj(&r);
            assert_eq!(r["correct"], Value::Bool(true), "{w} trace={trace}");
            assert_eq!(r["failed"].as_int(), Some(0));
            assert!(r["attempted"].as_int().unwrap() >= 1);
            assert_eq!(units(&r["metrics"]), units(&spec[list]), "{w} {list}");
        }
    }
}

#[test]
fn injected_digest_mismatch_is_a_failed_op() {
    for w in WORKLOADS {
        let r = result(&run(w, 1, false, &["--inject-mismatch"]));
        let r = obj(&r);
        assert_eq!(r["correct"], Value::Bool(false), "{w}");
        assert!(r["failed"].as_int().unwrap() >= 1, "{w}");
        let ok = match &obj(&obj(&r["metrics"])["ok_ratio"])["value"] {
            Value::Num(x) => *x,
            other => panic!("ok_ratio value {other:?}"),
        };
        assert!(ok < 1.0, "{w}: ok_ratio {ok}");
    }
}

#[test]
fn seeds_change_inputs_but_not_the_metric_set() {
    for w in WORKLOADS {
        let a = run(w, 1, false, &[]);
        let b = run(w, 2, false, &[]);
        // The provenance line before the result names the input digest.
        let digest = |lines: &[String]| {
            let meta = parse_json(&lines[lines.len() - 2]).expect("provenance line");
            obj(&meta)["input_digest"].as_string().unwrap().to_string()
        };
        assert_ne!(digest(&a), digest(&b), "{w}: seeds must change the inputs");
        assert_eq!(
            units(&obj(&result(&a))["metrics"]),
            units(&obj(&result(&b))["metrics"]),
            "{w}"
        );
    }
}
