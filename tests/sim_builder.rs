//! Contract tests for the `SimBuilder` facade: validation, paper-default
//! parity with `SystemConfig`, and seed-aggregation determinism.

use bash::{
    AdaptorConfig, BuildError, CaptureSpec, ConfigError, Duration, FabricSpec, FaultPlaneConfig,
    FaultPlaneError, HierarchyConfig, Jitter, PointErrorKind, ProtocolKind, RobustnessSpec,
    RunReport, SimBuilder, SystemConfig, TopologyKind, WatchdogBudget,
};
use proptest::prelude::*;

fn valid() -> SimBuilder {
    SimBuilder::new(ProtocolKind::Bash)
        .nodes(8)
        .bandwidth_mbps(800)
        .locking_microbench(128, Duration::ZERO)
        .warmup_ns(30_000)
        .measure_ns(60_000)
}

fn config_err(e: ConfigError) -> BuildError {
    BuildError::Config(e)
}

#[test]
fn zero_nodes_rejected() {
    assert_eq!(
        valid().nodes(0).try_run().unwrap_err(),
        config_err(ConfigError::NodeCount(0))
    );
}

#[test]
fn zero_bandwidth_rejected() {
    assert_eq!(
        valid().bandwidth_mbps(0).try_run().unwrap_err(),
        config_err(ConfigError::ZeroBandwidth)
    );
    assert_eq!(
        valid().bandwidths([800, 0, 1600]).try_run().unwrap_err(),
        config_err(ConfigError::ZeroBandwidth)
    );
}

#[test]
fn empty_sweep_rejected() {
    assert_eq!(
        valid().bandwidths([]).try_run_sweep().unwrap_err(),
        BuildError::EmptySweep
    );
}

#[test]
fn missing_workload_rejected() {
    let err = SimBuilder::new(ProtocolKind::Snooping)
        .try_run()
        .unwrap_err();
    assert_eq!(err, BuildError::MissingWorkload);
}

#[test]
fn zero_seeds_and_empty_measurement_rejected() {
    assert_eq!(
        valid().seeds(0).try_run().unwrap_err(),
        BuildError::ZeroSeeds
    );
    assert_eq!(
        valid().measure(Duration::ZERO).try_run().unwrap_err(),
        BuildError::EmptyMeasurement
    );
}

#[test]
fn zero_retry_capacity_rejected() {
    // The builder has no retry-capacity setter; the rule guards the
    // `SystemConfig` field the ablation bench and the tester set.
    let mut cfg = valid().config(800, 0);
    cfg.retry_capacity = 0;
    assert_eq!(cfg.check(), Err(ConfigError::ZeroRetryCapacity));
}

#[test]
fn build_system_returns_err_not_panic_for_bad_configs() {
    // The escape hatch must report the same errors as try_run for
    // everything System::new would otherwise panic on.
    assert_eq!(
        valid()
            .cache(bash::CacheGeometry { sets: 0, ways: 4 })
            .build_system()
            .err(),
        Some(config_err(ConfigError::BadCacheGeometry {
            sets: 0,
            ways: 4
        }))
    );
    assert_eq!(
        valid().nodes(0).build_system().err(),
        Some(config_err(ConfigError::NodeCount(0)))
    );
    assert_eq!(
        valid().nodes(5000).build_system().err(),
        Some(config_err(ConfigError::NodeCount(5000)))
    );
    assert!(valid().build_system().is_ok());
}

/// Inputs that `validate()` used to accept and that then panicked (or, for
/// a zero sampling interval, spun at t = 0 until a watchdog cut them off)
/// inside a sweep point. Each is now a typed rejection up front.
#[test]
fn inputs_that_panicked_inside_a_sweep_point_are_rejected() {
    let adaptor = |f: fn(&mut AdaptorConfig)| {
        let mut a = AdaptorConfig::paper_default();
        f(&mut a);
        valid().adaptor(a).validate()
    };
    assert_eq!(
        valid().nodes(5000).validate(),
        Err(config_err(ConfigError::NodeCount(5000)))
    );
    assert_eq!(
        valid().nodes(4097).validate(),
        Err(config_err(ConfigError::NodeCount(4097)))
    );
    assert_eq!(
        valid()
            .fabric(FabricSpec::new(TopologyKind::Ring))
            .robustness(RobustnessSpec::new().fault_plane(FaultPlaneConfig::lossy(1, 1.5)))
            .validate(),
        Err(config_err(ConfigError::FaultPlane(
            FaultPlaneError::ProbabilityOutOfRange { link: None }
        )))
    );
    assert_eq!(
        adaptor(|a| a.threshold_percent = 0),
        Err(config_err(ConfigError::ThresholdOutOfRange(0)))
    );
    assert_eq!(
        adaptor(|a| a.threshold_percent = 100),
        Err(config_err(ConfigError::ThresholdOutOfRange(100)))
    );
    assert_eq!(
        adaptor(|a| a.policy_bits = 0),
        Err(config_err(ConfigError::PolicyBitsOutOfRange(0)))
    );
    assert_eq!(
        adaptor(|a| a.policy_bits = 17),
        Err(config_err(ConfigError::PolicyBitsOutOfRange(17)))
    );
    assert_eq!(
        adaptor(|a| a.sampling_interval_cycles = 0),
        Err(config_err(ConfigError::ZeroSamplingInterval))
    );
    // The paper's own values sit inside every range.
    assert_eq!(adaptor(|_| {}), Ok(()));
}

#[test]
fn build_errors_display_a_reason() {
    let msg = format!("{}", config_err(ConfigError::ZeroBandwidth));
    assert!(msg.contains("bandwidth"), "unhelpful message: {msg}");
    let msg = format!("{}", config_err(ConfigError::NodeCount(5000)));
    assert!(msg.contains("5000") && msg.contains("4096"), "{msg}");
}

#[test]
fn defaults_match_paper_default_config() {
    // The builder's untouched configuration must be exactly the paper's
    // target system for the same (protocol, nodes, bandwidth) triple.
    for proto in ProtocolKind::ALL {
        let b = SimBuilder::new(proto).nodes(64).bandwidth_mbps(3200);
        let got = b.config(3200, 0);
        let want = SystemConfig::paper_default(proto, 64, 3200);
        assert_eq!(got.protocol, want.protocol);
        assert_eq!(got.nodes, want.nodes);
        assert_eq!(got.link_mbps, want.link_mbps);
        assert_eq!(got.traversal, want.traversal);
        assert_eq!(got.dram_latency, want.dram_latency);
        assert_eq!(got.cache_provide_latency, want.cache_provide_latency);
        assert_eq!(got.cache_geometry.sets, want.cache_geometry.sets);
        assert_eq!(got.cache_geometry.ways, want.cache_geometry.ways);
        assert_eq!(
            got.broadcast_cost_multiplier,
            want.broadcast_cost_multiplier
        );
        assert_eq!(got.serialize_dram, want.serialize_dram);
        assert_eq!(got.retry_capacity, want.retry_capacity);
        assert_eq!(got.coverage, want.coverage);
        assert_eq!(got.seed, want.seed);
        assert!(matches!(got.jitter, Jitter::None));
    }
}

#[test]
fn single_seed_runs_get_no_perturbation_jitter() {
    let cfg = valid().config(800, 0);
    assert!(
        matches!(cfg.jitter, Jitter::None),
        "a single-seed run must stay unperturbed"
    );
    let cfg = valid().seeds(3).config(800, 1);
    assert!(
        matches!(cfg.jitter, Jitter::Uniform { .. }),
        "multi-seed runs are perturbed"
    );
}

#[test]
fn same_seed_gives_identical_reports() {
    // Seed-aggregation determinism: the whole RunReport — every metric,
    // every per-seed RunStats — must be a pure function of the builder
    // configuration.
    let run = || valid().seeds(3).seed(0xDECAF).run();
    let a: RunReport = run();
    let b: RunReport = run();
    assert_eq!(a, b);
    assert_eq!(a.runs.len(), 3);
    assert_eq!(a.seeds, 3);
}

#[test]
fn different_seeds_give_different_reports() {
    let a = valid().seed(1).run();
    let b = valid().seed(2).run();
    assert_ne!(a.runs[0].ops_completed, b.runs[0].ops_completed);
}

#[test]
fn aggregation_spreads_are_sane() {
    let report = valid().seeds(4).run();
    assert_eq!(report.runs.len(), 4);
    let m = report.ops_per_sec;
    assert!(m.min <= m.mean && m.mean <= m.max, "{m:?}");
    assert!(m.stddev >= 0.0);
    // Perturbed runs should not all be byte-identical.
    let first = &report.runs[0];
    assert!(
        report
            .runs
            .iter()
            .any(|r| r.ops_completed != first.ops_completed || r.link_bytes != first.link_bytes),
        "perturbation had no effect at all"
    );
}

#[test]
fn sweep_reports_cover_every_bandwidth_in_order() {
    let reports = valid().bandwidths([400, 800, 1600]).run_sweep();
    let bws: Vec<u64> = reports.iter().map(|r| r.bandwidth_mbps).collect();
    assert_eq!(bws, vec![400, 800, 1600]);
    // More bandwidth, more completed work (monotone for this workload).
    assert!(reports[0].ops_per_sec.mean < reports[2].ops_per_sec.mean);
}

#[test]
fn perf_picks_the_paper_metric_per_workload_kind() {
    // The microbenchmark retires no instructions: perf = ops/s.
    let micro = valid().run();
    assert_eq!(micro.perf, micro.ops_per_sec);
    // Macro workloads retire instructions: perf = instructions/s.
    let mac = valid().synthetic(bash::WorkloadParams::specjbb()).run();
    assert_eq!(mac.perf, mac.instructions_per_sec);
    assert!(mac.instructions_per_sec.mean > 0.0);
}

#[test]
fn unprotected_lossy_without_watchdog_rejected() {
    // The cross-field rule: an unprotected lossy plane silently loses
    // messages, so the builder demands a watchdog budget before it will
    // run one.
    let lossy = || {
        valid()
            .fabric(FabricSpec::new(TopologyKind::Ring))
            .robustness(
                RobustnessSpec::new()
                    .fault_plane(FaultPlaneConfig::lossy(0xBAD, 0.2).unprotected()),
            )
    };
    assert_eq!(
        lossy().try_run().unwrap_err(),
        BuildError::UnprotectedLossyNeedsWatchdog
    );
    // Arming a watchdog clears it.
    let armed = lossy().robustness(
        RobustnessSpec::new()
            .fault_plane(FaultPlaneConfig::lossy(0xBAD, 0.2).unprotected())
            .watchdog(WatchdogBudget::events(1_000_000)),
    );
    assert!(armed.validate().is_ok());
    // A *protected* lossy plane retransmits, so it never needs one.
    let protected = valid()
        .fabric(FabricSpec::new(TopologyKind::Ring))
        .robustness(RobustnessSpec::new().fault_plane(FaultPlaneConfig::lossy(0xBAD, 0.2)));
    assert!(protected.validate().is_ok());
}

#[test]
fn fault_plane_still_needs_a_routed_fabric() {
    let err = valid()
        .robustness(RobustnessSpec::new().fault_plane(FaultPlaneConfig::lossy(0xBAD, 0.2)))
        .try_run()
        .unwrap_err();
    assert_eq!(err, config_err(ConfigError::FaultPlaneNeedsFabric));
}

#[test]
fn trace_policy_lands_in_the_report() {
    let report = valid()
        .capture(CaptureSpec::new().policy(true))
        .warmup(Duration::ZERO)
        .measure_ns(100_000)
        .run();
    let trace = report.policy_trace.as_deref().expect("trace recorded");
    assert!(!trace.is_empty());
    let without = valid().run();
    assert!(without.policy_trace.is_none());
}

/// The divisors of `n`, ascending.
fn divisors(n: u16) -> Vec<u16> {
    (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

proptest! {
    /// Every configuration is either rejected up front with a typed error
    /// (the same one `validate()` and `try_run()` report) or runs without a
    /// `Panicked` row: a configuration rule never surfaces as a panic
    /// inside a sweep point. The plan is tiny and the watchdog is armed,
    /// so a wedge (an unprotected lossy plane) ends as a `Wedged` row.
    /// Node counts above the 4096 limit only take the rejection path.
    #[test]
    fn prop_validated_configs_never_panic_in_a_sweep_point(
        protocol in prop::sample::select(ProtocolKind::ALL.to_vec()),
        nodes in prop_oneof![
            1u16..=64,
            prop::sample::select(vec![1u16, 2, 3, 5, 7, 11, 13, 31, 37, 61]),
        ],
        topology in prop::sample::select(TopologyKind::ALL.to_vec()),
        // (none | fitting | any, divisor picks, raw sizes).
        shape in (
            prop::sample::select(vec![0u16, 1, 1, 2]),
            (0usize..8, 0usize..8),
            (0u16..10, 0u16..10),
        ),
        // none | protected | unprotected | out-of-range p.
        plane in prop::sample::select(vec![0u16, 0, 1, 1, 2, 2, 3]),
        // Mostly in range, so that most cases run; sometimes outside.
        adaptor in (
            prop_oneof![
                8 => prop::sample::select(vec![1u32, 55, 75, 95, 99]),
                1 => prop::sample::select(vec![0u32, 100]),
            ],
            prop_oneof![
                8 => prop::sample::select(vec![1u32, 8, 16]),
                1 => prop::sample::select(vec![0u32, 17]),
            ],
            prop_oneof![8 => prop::sample::select(vec![1u64, 64, 512]), 1 => 0u64..1],
        ),
        broadcast_cost in prop_oneof![8 => 1u32..5, 1 => 0u32..1],
        cache in prop_oneof![
            8 => (
                prop::sample::select(vec![1usize, 16, 256]),
                prop::sample::select(vec![1usize, 4]),
            ),
            1 => (
                prop::sample::select(vec![0usize, 16]),
                prop::sample::select(vec![0usize, 4]),
            ),
        ],
        too_many in prop::sample::select(vec![4097u16, 5000, u16::MAX]),
    ) {
        let (hier_kind, (cluster_pick, bank_pick), (raw_cluster, raw_banks)) = shape;
        let divs = divisors(nodes);
        let hierarchy = match hier_kind {
            0 => None,
            // A shape that fits the node count.
            1 => Some(HierarchyConfig::new(
                divs[cluster_pick % divs.len()],
                divs[bank_pick % divs.len()],
            )),
            // Any shape, usually a misfit.
            _ => Some(HierarchyConfig::new(raw_cluster, raw_banks)),
        };
        let (threshold_percent, policy_bits, sampling_interval_cycles) = adaptor;
        let (sets, ways) = cache;
        let build = |nodes: u16| {
            let mut b = SimBuilder::new(protocol)
                .nodes(nodes)
                .bandwidth_mbps(800)
                .fabric(FabricSpec::new(topology).broadcast_cost(broadcast_cost))
                .adaptor(AdaptorConfig {
                    threshold_percent,
                    policy_bits,
                    sampling_interval_cycles,
                    ..AdaptorConfig::paper_default()
                })
                .cache(bash::CacheGeometry { sets, ways })
                .locking_microbench(64, Duration::ZERO)
                .warmup_ns(2_000)
                .measure_ns(10_000)
                .threads(1);
            if let Some(h) = hierarchy {
                b = b.hierarchy(h);
            }
            let fault_plane = match plane {
                0 => None,
                1 => Some(FaultPlaneConfig::lossy(7, 0.05)),
                2 => Some(FaultPlaneConfig::lossy(7, 0.05).unprotected()),
                _ => Some(FaultPlaneConfig::lossy(7, 1.5)),
            };
            let mut robustness =
                RobustnessSpec::new().watchdog(WatchdogBudget::events(2_000_000));
            robustness.fault_plane = fault_plane;
            b.robustness(robustness)
        };

        prop_assert_eq!(
            build(too_many).validate(),
            Err(BuildError::Config(ConfigError::NodeCount(too_many)))
        );

        let b = build(nodes);
        let case = format!(
            "{protocol:?} nodes={nodes} {topology:?} {hierarchy:?} plane={plane} \
             adaptor=({threshold_percent}, {policy_bits}, {sampling_interval_cycles}) \
             cost={broadcast_cost} cache={sets}x{ways}"
        );
        match b.validate() {
            Err(e) => prop_assert_eq!(b.try_run().unwrap_err(), e, "{}", case),
            Ok(()) => {
                let report = b.try_run().expect("validated configuration");
                prop_assert!(
                    report.errors.iter().all(|e| e.kind != PointErrorKind::Panicked),
                    "{}: {:?}",
                    case,
                    report.errors
                );
            }
        }
    }
}
