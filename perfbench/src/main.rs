//! The repository's benchmark: runs one workload from one process on one
//! simulation thread, checks the simulated output, and prints every metric
//! by name and unit. The last line of standard output is a JSON summary.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bash16-adapt --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced runs;
//! `--trace 1` adds a traced run and the component microbenchmarks and reports
//! the per-layer metrics. See `perfbench/README.md`.

mod clock;
mod layers;
mod probe;
mod run;
mod spec;

use std::fs;
use std::io::BufWriter;
use std::process::ExitCode;
use std::time::Instant;

use bash_coherence::ProtocolKind;

use probe::Tracer;
use run::Outcome;
use spec::Spec;

/// Runs made per invocation at least, however short `--seconds` is: the
/// fingerprint check needs more than one, and medians need a few.
const MIN_RUNS: usize = 3;

/// Printed with the end-to-end metrics but left out of the JSON summary:
/// it is 0 on every correct run, and the summary's `failed` and
/// `attempted` carry it exactly.
const NOT_IN_JSON: &str = "failed_run_ratio";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A named metric with its unit and the runs it was taken over.
struct Metric {
    name: &'static str,
    unit: &'static str,
    samples: Vec<f64>,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name,
            unit,
            samples,
        }
    }

    fn one(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric::new(name, unit, vec![value])
    }

    fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// Simulated-output checks that hold for every correct run of `spec`.
fn check_stats(spec: &Spec, o: &Outcome) -> Result<(), String> {
    let s = &o.stats;
    if s.ops_completed == 0 || s.events_processed == 0 || s.link_bytes == 0 {
        return Err(format!("{}: the measure window did no work", spec.name));
    }
    if s.misses == 0 {
        return Err(format!("{}: no misses in the measure window", spec.name));
    }
    if let Some(f) = s.fault {
        if f.undeliverable != 0 {
            return Err(format!("{} messages undeliverable", f.undeliverable));
        }
        if f.retransmits < f.total_discarded() {
            return Err(format!(
                "{} crossings lost but only {} retransmitted",
                f.total_discarded(),
                f.retransmits
            ));
        }
    }
    if let Some(h) = &s.hierarchy {
        if h.bank_requests.iter().all(|&r| r == 0) {
            return Err("no spine bank served a request".into());
        }
    }
    Ok(())
}

/// The fingerprint most runs agree on.
fn consensus(fingerprints: &[u64]) -> Option<u64> {
    let mut best = None;
    let mut best_count = 0;
    for &f in fingerprints {
        let count = fingerprints.iter().filter(|&&g| g == f).count();
        if count > best_count {
            best = Some(f);
            best_count = count;
        }
    }
    best
}

fn end_to_end(outcomes: &[Outcome], failed: usize, attempted: usize) -> Vec<Metric> {
    let per = |f: &dyn Fn(&Outcome) -> f64| outcomes.iter().map(f).collect::<Vec<_>>();
    vec![
        Metric::new(
            "sim_ops_per_host_s",
            "1/s",
            per(&|o| o.stats.ops_completed as f64 / o.measure_s),
        ),
        Metric::new(
            "host_ms_per_sim_us_p50",
            "ms",
            per(&|o| quantile(&o.slice_ms_per_sim_us, 0.5)),
        ),
        Metric::new(
            "host_ms_per_sim_us_p90",
            "ms",
            per(&|o| quantile(&o.slice_ms_per_sim_us, 0.9)),
        ),
        Metric::new(
            "events_per_host_s",
            "1/s",
            per(&|o| o.stats.events_processed as f64 / o.measure_s),
        ),
        Metric::new("wall_s", "s", per(&|o| o.wall_s)),
        Metric::new("setup_s", "s", per(&|o| o.setup_s)),
        Metric::one("peak_rss_mb", "MB", peak_rss_mb()),
        Metric::new(
            "sim_ops_per_sim_us",
            "1/us",
            per(&|o| o.stats.ops_completed as f64 / (o.stats.duration.as_ps() as f64 / 1e6)),
        ),
        Metric::one(
            "failed_run_ratio",
            "ratio",
            ratio(failed as f64, attempted as f64),
        ),
    ]
}

/// Per-layer metrics of the traced run `t`, against the untraced runs.
fn per_layer(
    spec: &Spec,
    seed: u64,
    t: &Outcome,
    tracer: &mut Tracer,
    untraced: &[Outcome],
) -> Vec<Metric> {
    let cfg = spec.config(seed);
    let s = &t.stats;
    let measure_ns = t.measure_s * 1e9;
    let ops = s.ops_completed as f64;
    let events = s.events_processed as f64;
    let requests = (s.broadcasts + s.unicasts) as f64;
    let bash = cfg.protocol == ProtocolKind::Bash;

    let (next_item_ns, items) = tracer.total("workloads.next_item");
    let (on_complete_ns, _) = tracer.total("workloads.on_complete");
    let callback_ns = (next_item_ns + on_complete_ns) as f64;
    let workloads_share = ratio(callback_ns, measure_ns);

    let span = tracer.open("net.micro", None);
    let net = layers::net_cost(&cfg, s, 20_000);
    tracer.close(span);
    let net_share = ratio(net.ns_per_link_byte * s.link_bytes as f64, measure_ns);

    // The queue is timed twice: churned at the run's own peak population
    // with the scheduling delays the network microbenchmark observed, and
    // as that microbenchmark's replay, the network's own event traffic at
    // the run's request rate. The peak is set by the cold-start burst, so
    // the share is estimated from the replay.
    let span = tracer.open("kernel.micro", None);
    let ns_per_queue_op =
        layers::queue_ns_per_op(&cfg, s.peak_queue_len as usize, &net.delays, 2_000_000);
    tracer.close(span);
    let kernel_share = ratio(events * 2.0 * net.queue_ns_per_op, measure_ns);

    let unicast_fraction = if bash {
        ratio(s.unicasts as f64, requests)
    } else {
        0.0
    };
    let span = tracer.open("adaptive.micro", None);
    let ns_per_decide = layers::ns_per_decide(&cfg, unicast_fraction, 4_000_000);
    tracer.close(span);
    let adaptive_share = if bash {
        ratio(ns_per_decide * requests, measure_ns)
    } else {
        0.0
    };

    // Fault counters are whole-run; the warmup's share is subtracted.
    let fault = s.fault.unwrap_or_default();
    let fault_warm = t.warmup_stats.fault.unwrap_or_default();
    let crossings: u64 = s.links.iter().map(|l| l.messages).sum();
    let mut latencies: Vec<f64> = t.latencies.iter().map(|&l| l as f64).collect();
    latencies.sort_by(f64::total_cmp);
    let hier = s.hierarchy.as_ref();
    let untraced_measure = median(&untraced.iter().map(|o| o.measure_s).collect::<Vec<_>>());

    vec![
        Metric::one("core.warmup_s", "s", t.warmup_s),
        Metric::one("core.measure_s", "s", t.measure_s),
        Metric::one("core.teardown_s", "s", t.teardown_s),
        Metric::one("core.events_per_op", "1/op", ratio(events, ops)),
        Metric::one(
            "core.self_ns_per_event",
            "ns",
            ratio(measure_ns - callback_ns, events),
        ),
        Metric::one("kernel.peak_queue_len", "count", s.peak_queue_len as f64),
        Metric::one("kernel.ns_per_queue_op", "ns", ns_per_queue_op),
        Metric::one("kernel.replay_queue_len", "count", net.queue_len as f64),
        Metric::one("kernel.replay_ns_per_queue_op", "ns", net.queue_ns_per_op),
        Metric::one("kernel.est_share", "ratio", kernel_share),
        Metric::one("net.ns_per_send", "ns", net.ns_per_send),
        Metric::one("net.est_share", "ratio", net_share),
        Metric::one(
            "net.link_bytes_per_op",
            "B/op",
            ratio(s.link_bytes as f64, ops),
        ),
        Metric::one("net.link_utilization", "ratio", s.link_utilization),
        Metric::one(
            "net.fault.dropped",
            "count",
            (fault.dropped - fault_warm.dropped) as f64,
        ),
        Metric::one(
            "net.fault.retransmits_per_msg",
            "ratio",
            ratio(
                (fault.retransmits - fault_warm.retransmits) as f64,
                crossings as f64,
            ),
        ),
        Metric::one(
            "coherence.miss_ratio",
            "ratio",
            ratio(s.misses as f64, (s.hits + s.misses) as f64),
        ),
        Metric::one(
            "coherence.sharing_miss_ratio",
            "ratio",
            ratio(s.sharing_misses as f64, s.misses as f64),
        ),
        Metric::one(
            "coherence.retries_per_unicast",
            "ratio",
            ratio(s.retries as f64, s.unicasts as f64),
        ),
        Metric::one(
            "coherence.nacks_per_op",
            "ratio",
            ratio(s.nacks as f64, ops),
        ),
        Metric::one(
            "coherence.sim_op_latency_ns_p50",
            "ns",
            quantile(&latencies, 0.5),
        ),
        Metric::one(
            "coherence.sim_op_latency_ns_p99",
            "ns",
            quantile(&latencies, 0.99),
        ),
        Metric::one(
            "coherence.hier.inter_cluster_fraction",
            "ratio",
            hier.map_or(0.0, |h| h.inter_cluster_fraction()),
        ),
        Metric::one(
            "coherence.hier.bank_balance",
            "ratio",
            hier.map_or(0.0, |h| h.bank_balance()),
        ),
        Metric::one("adaptive.unicast_fraction", "ratio", unicast_fraction),
        Metric::one(
            "adaptive.unicast_success_ratio",
            "ratio",
            if bash {
                1.0 - ratio(s.retries as f64, s.unicasts as f64)
            } else {
                0.0
            },
        ),
        Metric::one("adaptive.ns_per_decide", "ns", ns_per_decide),
        Metric::one("adaptive.est_share", "ratio", adaptive_share),
        Metric::one(
            "workloads.ns_per_item",
            "ns",
            ratio(callback_ns, items as f64),
        ),
        Metric::one("workloads.share", "ratio", workloads_share),
        Metric::one(
            "residual.share",
            "ratio",
            1.0 - kernel_share - net_share - adaptive_share - workloads_share,
        ),
        Metric::one(
            "trace.overhead_ratio",
            "ratio",
            ratio(t.measure_s, untraced_measure) - 1.0,
        ),
    ]
}

/// The layer shares the component models and the callback spans account
/// for. Above 1, the models over-attribute the window and the per-layer
/// split is not a measurement.
const ATTRIBUTED: [&str; 4] = [
    "kernel.est_share",
    "net.est_share",
    "adaptive.est_share",
    "workloads.share",
];

fn attributed_share(layers: &[Metric]) -> f64 {
    layers
        .iter()
        .filter(|m| ATTRIBUTED.contains(&m.name))
        .map(Metric::value)
        .sum()
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<40} {:>16} {:>16} {:>16}  unit",
        "metric", "median", "q1", "q3"
    );
    for m in metrics {
        println!(
            "  {:<40} {:>16.6} {:>16.6} {:>16.6}  {}",
            m.name,
            m.value(),
            quantile(&m.samples, 0.25),
            quantile(&m.samples, 0.75),
            m.unit
        );
    }
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            let v = m.value();
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}")
}

/// Writes the traced run's spans under `.bench_out/` in the working
/// directory.
fn write_spans(tracer: &Tracer, workload: &str, seed: u64) -> std::io::Result<String> {
    fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/spans-{workload}-seed{seed}.jsonl");
    let mut out = BufWriter::new(fs::File::create(&path)?);
    tracer.write_jsonl(&mut out)?;
    std::io::Write::flush(&mut out)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::find(&args.workload) else {
        let names: Vec<_> = spec::SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {} (known: {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    if let Err(e) = clock::try_thread_cpu_ns() {
        eprintln!("perfbench: thread CPU time is not available: {e}");
        return ExitCode::FAILURE;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} threads=1 seed={} workload={} trace={}",
        args.seed, spec.name, args.trace as u8
    );
    let shape = spec.shape;
    println!(
        "shape: warmup={} ns measure={} ns slices={}",
        shape.warmup.as_ns(),
        shape.measure.as_ns(),
        shape.slices
    );

    let started = Instant::now();
    // A traced invocation spends half its time on untraced runs, the
    // baseline for the tracing overhead.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut outcomes = Vec::new();
    let mut fingerprints = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;
    while attempted < MIN_RUNS || started.elapsed().as_secs_f64() < budget {
        attempted += 1;
        match run::run(spec, shape, args.seed, None).and_then(|o| check_stats(spec, &o).map(|_| o))
        {
            Ok(o) => {
                println!(
                    "run {attempted}: fingerprint={:016x} setup_s={:.6} measure_s={:.4} wall_s={:.4}",
                    o.fingerprint,
                    o.setup_s,
                    o.measure_s,
                    o.wall_s
                );
                fingerprints.push(o.fingerprint);
                outcomes.push(o);
            }
            Err(e) => {
                println!("run {attempted}: FAILED: {e}");
                failed += 1;
            }
        }
    }

    let mut traced = None;
    let mut tracer = Tracer::new();
    if args.trace {
        attempted += 1;
        match run::run(spec, shape, args.seed, Some(&mut tracer))
            .and_then(|o| check_stats(spec, &o).map(|_| o))
        {
            Ok(o) => {
                println!("traced run: fingerprint={:016x}", o.fingerprint);
                fingerprints.push(o.fingerprint);
                traced = Some(o);
            }
            Err(e) => {
                println!("traced run: FAILED: {e}");
                failed += 1;
            }
        }
    }

    // A run whose simulated statistics differ from the others' is wrong,
    // even if it finished.
    let reference = consensus(&fingerprints);
    let diverged = fingerprints
        .iter()
        .filter(|&&f| Some(f) != reference)
        .count();
    failed += diverged;
    outcomes.retain(|o| Some(o.fingerprint) == reference);
    if traced
        .as_ref()
        .is_some_and(|o| Some(o.fingerprint) != reference)
    {
        traced = None;
    }
    if let Some(f) = reference {
        println!(
            "fingerprint: {f:016x} ({} of {attempted} runs agree)",
            attempted - failed
        );
    }
    if outcomes.is_empty() || (args.trace && traced.is_none()) {
        eprintln!("perfbench: no successful run to report");
        return ExitCode::FAILURE;
    }

    let e2e = end_to_end(&outcomes, failed, attempted);
    print_table(
        &format!(
            "end-to-end ({} untraced runs, {} slices each)",
            outcomes.len(),
            shape.slices
        ),
        &e2e,
    );
    let reported: Vec<Metric> = if let Some(t) = &traced {
        let layers = per_layer(spec, args.seed, t, &mut tracer, &outcomes);
        print_table("per-layer (traced run)", &layers);
        let attributed = attributed_share(&layers);
        if attributed > 1.0 {
            println!(
                "warning: the layer shares sum to {attributed:.3} > 1; the component models over-attribute this run"
            );
        }
        match write_spans(&tracer, spec.name, args.seed) {
            Ok(path) => println!("spans: {} written to {path}", tracer.spans().len()),
            Err(e) => println!("spans: not written: {e}"),
        }
        layers
    } else {
        e2e.into_iter().filter(|m| m.name != NOT_IN_JSON).collect()
    };
    println!("{}", json_line(failed == 0, attempted, failed, &reported));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
