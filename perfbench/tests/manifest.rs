//! `BENCHMARK.json` and the benchmark must agree on every workload and
//! metric name and unit.

use aqed_obs::json::{parse, Json};
use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(m: &Json, key: &str) -> Vec<(String, String)> {
    m.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_matches_the_benchmark() {
    let m = manifest();
    assert_eq!(names_and_units(&m, "end_to_end"), owned(END_TO_END));
    assert_eq!(names_and_units(&m, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = m
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
