//! Tests of the benchmark's own logic: percentiles, request generation and
//! the `BENCHMARK.json` round trip. Run with
//! `cargo test --manifest-path perfbench/Cargo.toml`.

use perfbench::json::{render_pretty, Json};
use perfbench::schedule::{poisson_schedule, request_mix, MAX_GRAPHS};
use perfbench::stats::{median, nearest_rank, percentile, samples_beyond, MIN_BEYOND};
use perfbench::{declared_metrics, metric_set_errors, Metric, BENCHMARK_JSON};

#[test]
fn nearest_rank_picks_the_smallest_covering_rank() {
    assert_eq!(nearest_rank(100, 50.0), 50);
    assert_eq!(nearest_rank(100, 99.0), 99);
    assert_eq!(nearest_rank(101, 50.0), 51);
    assert_eq!(nearest_rank(1, 99.0), 1);
    assert_eq!(nearest_rank(10, 100.0), 10);
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    // 1000 samples leave exactly 10 beyond the 99th percentile.
    let ok: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(samples_beyond(1000, 99.0), MIN_BEYOND);
    assert_eq!(percentile(&ok, 99.0), Some(990.0));
    assert_eq!(percentile(&ok, 50.0), Some(500.0));
    // 999 leave 9: not reported.
    let short: Vec<f64> = (1..=999).map(f64::from).collect();
    assert_eq!(percentile(&short, 99.0), None);
    assert_eq!(percentile(&short, 50.0), Some(500.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn percentile_ignores_input_order() {
    let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
    v.reverse();
    assert_eq!(percentile(&v, 50.0), Some(20.0));
}

#[test]
fn failed_samples_count_as_infinitely_slow() {
    // 20 failures among 100 samples push the 90th percentile to +inf:
    // dropping requests cannot improve a percentile.
    let mut v: Vec<f64> = (1..=80).map(f64::from).collect();
    v.extend(std::iter::repeat_n(f64::INFINITY, 20));
    assert_eq!(percentile(&v, 90.0), Some(f64::INFINITY));
    assert_eq!(percentile(&v, 50.0), Some(50.0));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn schedule_is_deterministic_per_seed() {
    let a = poisson_schedule(7, 100.0, 500);
    assert_eq!(a, poisson_schedule(7, 100.0, 500));
    assert_ne!(a, poisson_schedule(8, 100.0, 500));
    assert!(a.windows(2).all(|w| w[0] < w[1]), "send times increase");
    // 500 arrivals at 100/s take about 5 s.
    let span = a[a.len() - 1];
    assert!((4.0..6.0).contains(&span), "span {span}");
}

#[test]
fn request_mix_is_deterministic_and_balanced() {
    let pools = [40, 40, 40, 40];
    let a = request_mix(3, 400, &pools);
    assert_eq!(a, request_mix(3, 400, &pools));
    let b = request_mix(4, 400, &pools);
    assert_ne!(a, b);
    // Every seed carries the same number of graphs.
    let graphs = |m: &[perfbench::schedule::RequestSpec]| -> usize {
        m.iter().map(|r| r.graphs.len()).sum()
    };
    assert_eq!(graphs(&a), graphs(&b));
    assert_eq!(
        graphs(&a),
        400 / MAX_GRAPHS * (1..=MAX_GRAPHS).sum::<usize>()
    );
    for r in &a {
        assert!((1..=MAX_GRAPHS).contains(&r.graphs.len()));
        assert!(r.kernel < pools.len());
        assert!(r.graphs.iter().all(|&g| g < pools[r.kernel]));
    }
}

#[test]
fn benchmark_json_round_trips() {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    // Written back in the file's own layout, it is the same text ...
    assert_eq!(render_pretty(&doc), BENCHMARK_JSON);
    // ... and compact text reads back to the same document.
    assert_eq!(Json::parse(&doc.render()).expect("re-parse"), doc);
}

#[test]
fn json_round_trips_escapes_and_numbers() {
    let text =
        r#"{"s": "a\"b\\c\ndé", "n": [0, -1.5, 1e-7, 12345678901234], "t": true, "z": null}"#;
    let doc = Json::parse(text).expect("parses");
    assert_eq!(
        doc.get("s").and_then(Json::as_str),
        Some("a\"b\\c\nd\u{e9}")
    );
    assert_eq!(Json::parse(&doc.render()).expect("re-parse"), doc);
    assert!(Json::parse("{\"a\": }").is_err());
    assert!(Json::parse("[1, 2").is_err());
    assert!(Json::parse("{} x").is_err());
}

#[test]
fn declared_metrics_are_checked_against_a_run() {
    let e2e = declared_metrics(BENCHMARK_JSON, "end_to_end").expect("end_to_end");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let reported: Vec<Metric> = e2e
        .iter()
        .map(|(n, _)| Metric {
            name: n.clone(),
            value: 1.0,
            unit: "s",
        })
        .collect();
    let errors = metric_set_errors(&e2e, &reported);
    // Only the metrics whose unit is not `s` disagree.
    let not_seconds = e2e.iter().filter(|(_, u)| u != "s").count();
    assert_eq!(errors.len(), not_seconds, "{errors:?}");
    let missing = metric_set_errors(&e2e, &reported[1..]);
    assert!(missing.iter().any(|e| e.contains("was not measured")));
}
