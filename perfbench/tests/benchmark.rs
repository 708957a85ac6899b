//! The benchmark's own checks: seeded request lists, the metric names it
//! prints against `BENCHMARK.json`, and the deadline's kill-and-restart path.

use perfbench::client::{self, Config};
use perfbench::metrics::{Metric, END_TO_END, PER_LAYER};
use perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};
use trace::json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_perfbench");

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
}

fn declared(json: &Json, section: &str) -> Vec<(String, String, String)> {
    json.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{section} missing"))
        .iter()
        .map(|e| {
            (
                field(e, "name").to_owned(),
                field(e, "unit").to_owned(),
                field(e, "better").to_owned(),
            )
        })
        .collect()
}

fn catalogue<'a>(metrics: impl Iterator<Item = &'a Metric>) -> Vec<(String, String, String)> {
    metrics
        .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
        .collect()
}

#[test]
fn request_lists_are_a_pure_function_of_the_seed() {
    for w in Workload::ALL {
        assert_eq!(w.request_list(7), w.request_list(7), "{}", w.name());
        assert_ne!(w.request_list(7), w.request_list(8), "{}", w.name());
    }
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    let json = benchmark_json();
    assert_eq!(
        declared(&json, "end_to_end"),
        catalogue(END_TO_END.iter()),
        "end_to_end"
    );
    assert_eq!(
        declared(&json, "per_layer"),
        catalogue(PER_LAYER.iter().map(|l| &l.metric)),
        "per_layer"
    );
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

/// Run the benchmark binary briefly and return the metric names of the
/// JSON line it ends with.
fn printed_metric_names(trace: &str) -> Vec<String> {
    let out = Command::new(EXE)
        .args(["--workload", "suite", "--seed", "1", "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let json = Json::parse(last).expect("the last line is JSON");
    assert!(json.get("correct").is_some() && json.get("failed").is_some());
    match json.get("metrics") {
        Some(Json::Obj(entries)) => entries.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let json = benchmark_json();
    let names = |section| -> Vec<String> {
        declared(&json, section)
            .into_iter()
            .map(|(name, _, _)| name)
            .collect()
    };
    assert_eq!(printed_metric_names("0"), names("end_to_end"));
    assert_eq!(printed_metric_names("1"), names("per_layer"));
}

#[test]
fn a_missed_deadline_kills_and_restarts_the_worker() {
    // 15 ms is below the planning time of every suite family but
    // conditional_pipeline and lookup_table, so the first request
    // (fft_like) misses its deadline and later ones need a fresh worker.
    let cfg = Config {
        workload: Workload::Suite,
        seed: 1,
        seconds: 1.0,
        trace: false,
        deadline: Duration::from_millis(15),
        worker_exe: PathBuf::from(EXE),
    };
    let start = Instant::now();
    let report = client::run(&cfg, start).expect("the run survives missed deadlines");
    let u = &report.untraced;
    let first = report
        .failures
        .first()
        .expect("a request missed its deadline");
    assert_eq!(first.index, 0, "{first}");
    assert!(first.reason.contains("deadline"), "{first}");
    assert!(u.completed > 0, "requests completed on a restarted worker");
    assert_eq!(u.attempted, u.completed + u.failed);
    assert_eq!(u.latencies_ms.len(), u.attempted);
    let at_deadline = u.latencies_ms.iter().filter(|&&(ms, _)| ms == 15.0).count();
    let missed = report
        .failures
        .iter()
        .filter(|f| f.reason.contains("deadline"))
        .count();
    assert_eq!(
        at_deadline, missed,
        "a missed deadline enters latency at the deadline"
    );
}
