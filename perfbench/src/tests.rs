//! Self-test, mostly at reduced run length: the simulated output is a pure
//! function of the seed, whether the run is repeated, traced or sliced;
//! every metric name is well formed and listed in `BENCHMARK.json`; and
//! the per-layer shares do not sum above the measured window.

use super::*;
use bash_kernel::Duration;
use spec::Shape;

fn short(spec: &Spec) -> Shape {
    let us = |n: u64| Duration::from_ns(n * 1000);
    match spec.name {
        "hier4096" => Shape {
            warmup: Duration::from_ns(500),
            measure: us(1),
            slices: 10,
        },
        _ => Shape {
            warmup: us(5),
            measure: us(40),
            slices: 10,
        },
    }
}

fn run_ok(spec: &Spec, shape: Shape, tracer: Option<&mut Tracer>) -> Outcome {
    let o = run::run(spec, shape, 7, tracer).expect("run succeeds");
    check_stats(spec, &o).expect("simulated output passes its checks");
    o
}

#[test]
fn fingerprint_is_stable_across_runs_tracing_and_slicing() {
    for spec in spec::SPECS {
        let shape = short(spec);
        let base = run_ok(spec, shape, None).fingerprint;
        assert_eq!(
            run_ok(spec, shape, None).fingerprint,
            base,
            "{} repeat",
            spec.name
        );
        let mut tracer = Tracer::new();
        let traced = run_ok(spec, shape, Some(&mut tracer));
        assert_eq!(traced.fingerprint, base, "{} traced", spec.name);
        assert!(!traced.latencies.is_empty(), "{} latencies", spec.name);
        let unsliced = Shape { slices: 1, ..shape };
        assert_eq!(
            run_ok(spec, unsliced, None).fingerprint,
            base,
            "{} unsliced",
            spec.name
        );
    }
}

#[test]
fn seeds_change_the_inputs() {
    let spec = spec::find("bash16-adapt").expect("known workload");
    let shape = short(spec);
    let a = run::run(spec, shape, 1, None).expect("run succeeds");
    let b = run::run(spec, shape, 2, None).expect("run succeeds");
    assert_ne!(a.fingerprint, b.fingerprint);
}

/// The metric names listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = text
        .split(&format!("\"{key}\""))
        .nth(1)
        .and_then(|s| s.split(']').next())
        .expect("section present");
    section
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_listed() {
    let spec = spec::find("bash16-adapt").expect("known workload");
    let shape = short(spec);
    let untraced = vec![run_ok(spec, shape, None)];
    let mut tracer = Tracer::new();
    let traced = run_ok(spec, shape, Some(&mut tracer));
    let e2e = end_to_end(&untraced, 0, 1);
    let layers = per_layer(spec, 7, &traced, &mut tracer, &untraced);
    for m in e2e.iter().chain(&layers) {
        assert!(
            !m.name.is_empty()
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {:?}",
            m.name
        );
        assert!(m.value().is_finite(), "{} is not finite", m.name);
    }
    let reported: Vec<_> = e2e
        .iter()
        .filter(|m| m.name != NOT_IN_JSON)
        .map(|m| m.name.to_string())
        .collect();
    assert_eq!(reported, listed("end_to_end"));
    let layer_names: Vec<_> = layers.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(layer_names, listed("per_layer"));
}

/// At the benchmark's own run length, so the check covers the split the
/// benchmark reports.
#[test]
fn layer_shares_do_not_over_attribute() {
    for spec in spec::SPECS {
        let shape = spec.shape;
        let untraced = vec![run_ok(spec, shape, None)];
        let mut tracer = Tracer::new();
        let traced = run_ok(spec, shape, Some(&mut tracer));
        let layers = per_layer(spec, 7, &traced, &mut tracer, &untraced);
        let attributed = attributed_share(&layers);
        assert!(
            attributed <= 1.0,
            "{}: layer shares sum to {attributed}",
            spec.name
        );
    }
}

#[test]
fn quantiles_interpolate() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 1.0), 4.0);
    assert_eq!(median(&v), 2.5);
    assert_eq!(quantile(&[], 0.5), 0.0);
}
