//! System configuration: the paper's target system (§4.2, §5.2) with every
//! modeling knob exposed.

use std::fmt;

use bash_adaptive::AdaptorConfig;
use bash_coherence::{CacheGeometry, HierarchyConfig, ProtocolKind};
use bash_kernel::{Duration, QueueKind};
use bash_net::ids::MAX_NODES;
use bash_net::{FaultPlaneConfig, FaultPlaneError, Jitter, TopologyKind};

/// Deliberate fault injection — the verification harness's self-test
/// hook. A protocol tester is only trustworthy if it demonstrably catches
/// broken protocols; injecting a fault here produces a "broken protocol
/// variant" whose violations the harness must detect and whose failing
/// trace the minimizer must shrink. Never enabled by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// Corrupt the value returned by every `period`-th completed load
    /// (counting across all nodes; `period = 1` corrupts every load),
    /// emulating a protocol that returns stale or fabricated data to the
    /// processor.
    CorruptLoads {
        /// Corruption period in completed loads (must be ≥ 1).
        period: u64,
    },
    /// Drop every `period`-th invalidation: a GetM delivery addressed to a
    /// bystander cache holding the block in the Shared state is silently
    /// discarded instead of invalidating the copy, emulating a lost
    /// invalidation message. The stale copy keeps serving local loads, so
    /// the oracle must flag the protocol (stale or out-of-thin-air
    /// values). Only pure sharers are targeted — an owner must still
    /// supply data or the system would deadlock rather than misbehave.
    DropInvalidations {
        /// Drop period in eligible invalidation deliveries (must be ≥ 1).
        period: u64,
    },
    /// Redeliver every `period`-th eligible request — a GetM arriving at
    /// its home memory controller, the ownership-transfer point all three
    /// protocols share — a second time, 20 µs later, emulating a network
    /// that duplicates messages. The duplicate fires only if ownership has
    /// moved to *another* cache in the meantime (a duplicate the home
    /// would treat as idempotent proves nothing), so the home re-runs the
    /// ownership transfer and corrupts the owner record out from under the
    /// real owner: its writeback is then discarded as stale (dirty data
    /// lost → stale memory values) or requests for the block wedge with an
    /// owner that will never answer (quiescence failure). Either way the
    /// oracle must flag the run.
    DuplicateDeliveries {
        /// Duplication period in eligible deliveries (must be ≥ 1).
        period: u64,
    },
    /// Deliver totally ordered messages out of order: per destination
    /// node, hold ordered deliveries back and release each batch of
    /// `window` in reverse, so different nodes observe overlapping
    /// requests in different orders — emulating an interconnect that lost
    /// its total-order guarantee. Protocol serialization breaks down (two
    /// caches both believe they won an ownership race, writebacks squash
    /// at the cache but not at the home, …), which the oracle must flag as
    /// stale values or a quiescence failure.
    ReorderOrdered {
        /// Reorder window in ordered deliveries per node (must be ≥ 2).
        window: u64,
    },
    /// Silently lose a sharer from the home's bookkeeping: after every
    /// `period`-th eligible request (a GetS/GetM reaching its home memory
    /// controller), the home's record of the *requestor* is erased — it is
    /// removed from the sharer bitmap, and if it was recorded as the
    /// owner the record is reset to memory. The home subsequently skips
    /// the forgotten node when invalidating (stale values survive in its
    /// cache) or fetches stale data from memory while the forgotten owner
    /// holds the only dirty copy. The oracle must flag either symptom;
    /// the structural sweep also sees the record/reality mismatch.
    StaleSharerMask {
        /// Corruption period in eligible home-bound requests (must be ≥ 1).
        period: u64,
    },
}

impl FaultInjection {
    /// True for the broken-*network* faults, which deliberately violate
    /// the delivery contract the controllers' internal asserts encode; the
    /// driver switches the controllers into tolerant (drop-and-count) mode
    /// for them so the injected breakage surfaces as an oracle violation
    /// rather than a panic.
    pub fn breaks_network(self) -> bool {
        matches!(
            self,
            FaultInjection::DuplicateDeliveries { .. }
                | FaultInjection::ReorderOrdered { .. }
                | FaultInjection::StaleSharerMask { .. }
        )
    }
}

/// Full configuration of a simulated system.
///
/// Defaults ([`SystemConfig::paper_default`]) reproduce the paper's timing:
/// 50 ns crossbar traversal, 80 ns DRAM/directory access, 25 ns cache data
/// provision — giving 180 ns memory fetches, 125 ns snooping cache-to-cache
/// transfers and 255 ns directory (or BASH-retry) cache-to-cache transfers.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Which coherence protocol to run.
    pub protocol: ProtocolKind,
    /// Number of integrated processor/memory nodes.
    pub nodes: u16,
    /// Endpoint link bandwidth in MB/s (the paper's x-axis).
    pub link_mbps: u64,
    /// Interconnect topology. [`TopologyKind::Crossbar`] (the default) is
    /// the paper's contended-endpoint crossbar; every other kind routes
    /// messages hop-by-hop through the fabric engine with per-directed-link
    /// contention.
    pub topology: TopologyKind,
    /// Fixed crossbar traversal latency.
    pub traversal: Duration,
    /// DRAM / directory access latency.
    pub dram_latency: Duration,
    /// Cache-controller latency to provide data to the interconnect.
    pub cache_provide_latency: Duration,
    /// L2 cache geometry.
    pub cache_geometry: CacheGeometry,
    /// Bandwidth multiplier for full broadcasts (4 in Figure 11).
    pub broadcast_cost_multiplier: u32,
    /// The adaptive mechanism's parameters (BASH only).
    pub adaptor: AdaptorConfig,
    /// Two-level hierarchical coherence: snooping clusters under a
    /// sharded directory spine. `None` (the default) runs the flat
    /// paper system. With a hierarchy every protocol personality rides
    /// the hierarchical BASH engine — Snooping pins cluster-casts,
    /// Directory pins spine dualcasts, BASH adapts per cluster.
    pub hierarchy: Option<HierarchyConfig>,
    /// Serialize DRAM accesses (off per the paper's endpoint-contention-only
    /// model; on for the memory-occupancy ablation).
    pub serialize_dram: bool,
    /// BASH home retry-buffer capacity (per memory controller).
    pub retry_capacity: usize,
    /// Record transition coverage (Table 1 / tester runs).
    pub coverage: bool,
    /// Capture every processor op the workload issues into a replayable
    /// [`bash_trace::Trace`] (see [`System::take_captured_trace`]).
    ///
    /// [`System::take_captured_trace`]: crate::System::take_captured_trace
    pub capture_ops: bool,
    /// Also stamp every captured op with its issue→complete latency
    /// (requires [`capture_ops`](Self::capture_ops)), producing a
    /// completion-bearing trace that latency-diff passes can consume.
    pub capture_completions: bool,
    /// Message latency perturbation (tester and error-bar methodology).
    pub jitter: Jitter,
    /// Deliberate fault injection (verification-harness self-tests only;
    /// `None` in every normal run).
    pub fault: Option<FaultInjection>,
    /// Deterministic interconnect fault plane (loss, corruption, delay,
    /// outages) plus the reliable-delivery transport. Requires a routed
    /// fabric topology — the crossbar has no links to fault.
    pub fault_plane: Option<FaultPlaneConfig>,
    /// Quiescence watchdog: event / virtual-time budgets that convert a
    /// wedged run into a structured diagnostic instead of an endless loop
    /// (see [`System::try_run_to_idle`](crate::System::try_run_to_idle)).
    pub watchdog: Option<WatchdogBudget>,
    /// Event-queue engine. The default calendar queue pops in exactly the
    /// binary heap's order (FIFO-stable per timestamp), so reports are
    /// byte-identical across the two — this knob exists for A/B
    /// benchmarking and as an escape hatch.
    pub queue: QueueKind,
    /// Master RNG seed.
    pub seed: u64,
}

/// Budgets for the quiescence watchdog. A run exceeding either budget is
/// declared wedged and reported with a structured diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogBudget {
    /// Maximum events processed before the run is declared wedged
    /// (`None` = unlimited).
    pub max_events: Option<u64>,
    /// Maximum virtual time before the run is declared wedged
    /// (`None` = unlimited).
    pub max_virtual_time: Option<Duration>,
}

impl WatchdogBudget {
    /// A budget on processed events only.
    pub fn events(max: u64) -> Self {
        WatchdogBudget {
            max_events: Some(max),
            max_virtual_time: None,
        }
    }

    /// A budget on virtual time only.
    pub fn virtual_time(max: Duration) -> Self {
        WatchdogBudget {
            max_events: None,
            max_virtual_time: Some(max),
        }
    }
}

impl SystemConfig {
    /// The paper's target system for the given protocol / size / bandwidth.
    pub fn paper_default(protocol: ProtocolKind, nodes: u16, link_mbps: u64) -> Self {
        SystemConfig {
            protocol,
            nodes,
            link_mbps,
            topology: TopologyKind::Crossbar,
            traversal: Duration::from_ns(50),
            dram_latency: Duration::from_ns(80),
            cache_provide_latency: Duration::from_ns(25),
            cache_geometry: CacheGeometry {
                sets: 1024,
                ways: 4,
            },
            broadcast_cost_multiplier: 1,
            adaptor: AdaptorConfig::paper_default(),
            hierarchy: None,
            serialize_dram: false,
            retry_capacity: 64,
            coverage: false,
            capture_ops: false,
            capture_completions: false,
            jitter: Jitter::None,
            fault: None,
            fault_plane: None,
            watchdog: None,
            queue: QueueKind::default(),
            seed: 0xBA5E,
        }
    }

    /// Overrides the cache geometry.
    pub fn with_cache(mut self, geometry: CacheGeometry) -> Self {
        self.cache_geometry = geometry;
        self
    }

    /// Overrides the interconnect topology.
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Overrides the adaptive mechanism configuration.
    pub fn with_adaptor(mut self, adaptor: AdaptorConfig) -> Self {
        self.adaptor = adaptor;
        self
    }

    /// Enables two-level hierarchical coherence (snooping clusters under
    /// a sharded directory spine).
    pub fn with_hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.hierarchy = Some(hierarchy);
        self
    }

    /// Sets the broadcast cost multiplier (Figure 11 uses 4).
    pub fn with_broadcast_cost(mut self, multiplier: u32) -> Self {
        self.broadcast_cost_multiplier = multiplier;
        self
    }

    /// Sets the RNG seed (perturbation methodology: run several seeds and
    /// aggregate).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables transition-coverage recording.
    pub fn with_coverage(mut self) -> Self {
        self.coverage = true;
        self
    }

    /// Enables op capture: the run records every issued processor op into
    /// a replayable trace.
    pub fn with_capture(mut self) -> Self {
        self.capture_ops = true;
        self
    }

    /// Enables op capture *with* completion events: every captured op is
    /// stamped with the issue→complete latency the run observed.
    pub fn with_capture_completions(mut self) -> Self {
        self.capture_ops = true;
        self.capture_completions = true;
        self
    }

    /// Enables message-latency jitter.
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.jitter = jitter;
        self
    }

    /// Enables deliberate fault injection (harness self-tests).
    pub fn with_fault(mut self, fault: FaultInjection) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Attaches a deterministic interconnect fault plane (requires a
    /// fabric topology; see [`Self::with_topology`]).
    pub fn with_fault_plane(mut self, plane: FaultPlaneConfig) -> Self {
        self.fault_plane = Some(plane);
        self
    }

    /// Arms the quiescence watchdog.
    pub fn with_watchdog(mut self, budget: WatchdogBudget) -> Self {
        self.watchdog = Some(budget);
        self
    }

    /// Selects the event-queue engine (A/B benchmarking; the calendar
    /// default and the heap pop in identical order).
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Checks every configuration rule: the one place a configuration is
    /// validated. [`System::new`](crate::System::new) runs it and panics
    /// on an error; the facade's builder maps the error into its own
    /// error type so a bad sweep point is rejected before it runs.
    ///
    /// The cost is independent of the node count.
    ///
    /// # Errors
    ///
    /// The first rule the configuration breaks, as a [`ConfigError`].
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 || usize::from(self.nodes) > MAX_NODES {
            return Err(ConfigError::NodeCount(self.nodes));
        }
        if self.link_mbps == 0 {
            return Err(ConfigError::ZeroBandwidth);
        }
        if self.broadcast_cost_multiplier == 0 {
            return Err(ConfigError::ZeroBroadcastCost);
        }
        if self.retry_capacity == 0 {
            return Err(ConfigError::ZeroRetryCapacity);
        }
        let CacheGeometry { sets, ways } = self.cache_geometry;
        if sets == 0 || ways == 0 {
            return Err(ConfigError::BadCacheGeometry { sets, ways });
        }
        if let Some(h) = &self.hierarchy {
            check_hierarchy(h, self.nodes)?;
        }
        let adaptor = &self.adaptor;
        if !(1..100).contains(&adaptor.threshold_percent) {
            return Err(ConfigError::ThresholdOutOfRange(adaptor.threshold_percent));
        }
        if !(1..=16).contains(&adaptor.policy_bits) {
            return Err(ConfigError::PolicyBitsOutOfRange(adaptor.policy_bits));
        }
        if adaptor.sampling_interval_cycles == 0 {
            return Err(ConfigError::ZeroSamplingInterval);
        }
        match self.fault {
            Some(
                FaultInjection::CorruptLoads { period: 0 }
                | FaultInjection::DropInvalidations { period: 0 }
                | FaultInjection::DuplicateDeliveries { period: 0 }
                | FaultInjection::StaleSharerMask { period: 0 },
            ) => return Err(ConfigError::ZeroFaultPeriod),
            Some(FaultInjection::ReorderOrdered { window }) if window < 2 => {
                return Err(ConfigError::ReorderWindowTooSmall(window));
            }
            _ => {}
        }
        if let Some(plane) = &self.fault_plane {
            if self.topology == TopologyKind::Crossbar {
                return Err(ConfigError::FaultPlaneNeedsFabric);
            }
            plane.check().map_err(ConfigError::FaultPlane)?;
        }
        if self.capture_completions && !self.capture_ops {
            return Err(ConfigError::CompletionsWithoutCapture);
        }
        Ok(())
    }
}

/// The hierarchy-shape rules of [`SystemConfig::check`].
fn check_hierarchy(h: &HierarchyConfig, nodes: u16) -> Result<(), ConfigError> {
    if h.cluster_size == 0 {
        return Err(ConfigError::ZeroClusterSize);
    }
    if h.banks == 0 {
        return Err(ConfigError::ZeroHierarchyBanks);
    }
    if !nodes.is_multiple_of(h.cluster_size) {
        return Err(ConfigError::ClusterSizeMismatch {
            cluster_size: h.cluster_size,
            nodes,
        });
    }
    if !nodes.is_multiple_of(h.banks) {
        return Err(ConfigError::BankCountMismatch {
            banks: h.banks,
            nodes,
        });
    }
    Ok(())
}

/// Why [`SystemConfig::check`] rejected a configuration. One variant per
/// rule; each rule is written once, in `check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The node count lies outside `1..=MAX_NODES` (4096).
    NodeCount(u16),
    /// Endpoint links need positive bandwidth.
    ZeroBandwidth,
    /// The broadcast cost multiplier must be at least 1.
    ZeroBroadcastCost,
    /// The BASH retry buffer needs at least one entry.
    ZeroRetryCapacity,
    /// The cache needs at least one set and one way.
    BadCacheGeometry {
        /// Configured sets.
        sets: usize,
        /// Configured ways.
        ways: usize,
    },
    /// The hierarchy's cluster size is zero.
    ZeroClusterSize,
    /// The hierarchy has zero directory-spine banks.
    ZeroHierarchyBanks,
    /// The hierarchy's cluster size does not divide the node count.
    ClusterSizeMismatch {
        /// Configured nodes per cluster.
        cluster_size: u16,
        /// Configured node count.
        nodes: u16,
    },
    /// The hierarchy's bank count does not divide the node count.
    BankCountMismatch {
        /// Configured directory-spine banks.
        banks: u16,
        /// Configured node count.
        nodes: u16,
    },
    /// The adaptor's utilization threshold lies outside `1..=99` percent.
    ThresholdOutOfRange(u32),
    /// The adaptor's policy counter width lies outside `1..=16` bits.
    PolicyBitsOutOfRange(u32),
    /// The adaptor's sampling interval is zero cycles (the sampler would
    /// reschedule itself at the same instant forever).
    ZeroSamplingInterval,
    /// A periodic fault injection has period 0.
    ZeroFaultPeriod,
    /// [`FaultInjection::ReorderOrdered`] needs a window of at least 2.
    ReorderWindowTooSmall(u64),
    /// A fault plane was configured on the crossbar, which has no links
    /// to inject faults on.
    FaultPlaneNeedsFabric,
    /// The fault plane itself is invalid.
    FaultPlane(FaultPlaneError),
    /// Completion capture was enabled without op capture.
    CompletionsWithoutCapture,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NodeCount(nodes) => {
                write!(f, "node count {nodes} is outside 1..={MAX_NODES}")
            }
            ConfigError::ZeroBandwidth => f.write_str("bandwidth must be positive"),
            ConfigError::ZeroBroadcastCost => f.write_str("broadcast cost multiplier must be >= 1"),
            ConfigError::ZeroRetryCapacity => f.write_str("BASH needs at least one retry buffer"),
            ConfigError::BadCacheGeometry { sets, ways } => write!(
                f,
                "cache needs at least one set and one way (got {sets} sets x {ways} ways)"
            ),
            ConfigError::ZeroClusterSize => {
                f.write_str("hierarchy cluster size must be at least 1")
            }
            ConfigError::ZeroHierarchyBanks => {
                f.write_str("hierarchy bank count must be at least 1")
            }
            ConfigError::ClusterSizeMismatch {
                cluster_size,
                nodes,
            } => write!(
                f,
                "hierarchy cluster size {cluster_size} does not divide the node count {nodes}"
            ),
            ConfigError::BankCountMismatch { banks, nodes } => write!(
                f,
                "hierarchy bank count {banks} does not divide the node count {nodes}"
            ),
            ConfigError::ThresholdOutOfRange(percent) => {
                write!(f, "adaptor threshold {percent}% is outside 1..=99")
            }
            ConfigError::PolicyBitsOutOfRange(bits) => write!(
                f,
                "adaptor policy counter width {bits} is outside 1..=16 bits"
            ),
            ConfigError::ZeroSamplingInterval => {
                f.write_str("adaptor sampling interval must be at least 1 cycle")
            }
            ConfigError::ZeroFaultPeriod => f.write_str("fault period must be at least 1"),
            ConfigError::ReorderWindowTooSmall(window) => {
                write!(f, "reorder window {window} must be at least 2")
            }
            ConfigError::FaultPlaneNeedsFabric => {
                f.write_str("the fault plane needs a fabric topology (the crossbar has no links)")
            }
            ConfigError::FaultPlane(e) => write!(f, "invalid fault plane: {e}"),
            ConfigError::CompletionsWithoutCapture => {
                f.write_str("completion capture requires op capture")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::System;
    use bash_workloads::LockingMicrobench;

    #[test]
    fn paper_latencies() {
        let c = SystemConfig::paper_default(ProtocolKind::Bash, 16, 1600);
        // 50 + 80 + 50 = 180 ns memory fetch.
        assert_eq!((c.traversal + c.dram_latency + c.traversal).as_ns(), 180);
        // 50 + 25 + 50 = 125 ns snooping cache-to-cache.
        assert_eq!(
            (c.traversal + c.cache_provide_latency + c.traversal).as_ns(),
            125
        );
        // 50 + 80 + 50 + 25 + 50 = 255 ns directory cache-to-cache.
        assert_eq!(
            (c.traversal + c.dram_latency + c.traversal + c.cache_provide_latency + c.traversal)
                .as_ns(),
            255
        );
    }

    #[test]
    fn builders_apply() {
        let c = SystemConfig::paper_default(ProtocolKind::Snooping, 4, 800)
            .with_broadcast_cost(4)
            .with_seed(7)
            .with_coverage();
        assert_eq!(c.broadcast_cost_multiplier, 4);
        assert_eq!(c.seed, 7);
        assert!(c.coverage);
        assert_eq!(c.check(), Ok(()));
    }

    fn run(cfg: SystemConfig) {
        let nodes = cfg.nodes.max(1);
        System::new(cfg, LockingMicrobench::new(nodes, 16, Duration::ZERO, 1));
    }

    #[test]
    #[should_panic(expected = "cluster size 3 does not divide the node count 8")]
    fn misfit_hierarchy_rejected() {
        run(SystemConfig::paper_default(ProtocolKind::Bash, 8, 800)
            .with_hierarchy(HierarchyConfig::new(3, 2)));
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let mut c = SystemConfig::paper_default(ProtocolKind::Snooping, 4, 800);
        c.link_mbps = 0;
        run(c);
    }

    #[test]
    fn hierarchy_misfits_are_typed_errors() {
        let shape = |nodes, cluster_size, banks| {
            SystemConfig::paper_default(ProtocolKind::Bash, nodes, 800)
                .with_hierarchy(HierarchyConfig::new(cluster_size, banks))
                .check()
        };
        assert_eq!(shape(8, 0, 1), Err(ConfigError::ZeroClusterSize));
        assert_eq!(shape(8, 4, 0), Err(ConfigError::ZeroHierarchyBanks));
        assert_eq!(
            shape(8, 3, 1),
            Err(ConfigError::ClusterSizeMismatch {
                cluster_size: 3,
                nodes: 8
            })
        );
        assert_eq!(
            shape(8, 4, 3),
            Err(ConfigError::BankCountMismatch { banks: 3, nodes: 8 })
        );
        assert_eq!(shape(8, 4, 2), Ok(()));
        assert_eq!(shape(8, 8, 8), Ok(()));
        assert_eq!(shape(64, 16, 4), Ok(()));
    }

    #[test]
    fn every_rule_has_a_typed_error() {
        let base = || SystemConfig::paper_default(ProtocolKind::Bash, 16, 1600);
        let with = |f: &dyn Fn(&mut SystemConfig)| {
            let mut c = base();
            f(&mut c);
            c.check()
        };
        assert_eq!(base().check(), Ok(()));
        assert_eq!(with(&|c| c.nodes = 0), Err(ConfigError::NodeCount(0)));
        assert_eq!(with(&|c| c.nodes = 4096), Ok(()));
        assert_eq!(with(&|c| c.nodes = 4097), Err(ConfigError::NodeCount(4097)));
        assert_eq!(
            with(&|c| c.broadcast_cost_multiplier = 0),
            Err(ConfigError::ZeroBroadcastCost)
        );
        assert_eq!(
            with(&|c| c.retry_capacity = 0),
            Err(ConfigError::ZeroRetryCapacity)
        );
        assert_eq!(
            with(&|c| c.cache_geometry.ways = 0),
            Err(ConfigError::BadCacheGeometry {
                sets: 1024,
                ways: 0
            })
        );
        for percent in [0, 100] {
            assert_eq!(
                with(&|c| c.adaptor.threshold_percent = percent),
                Err(ConfigError::ThresholdOutOfRange(percent))
            );
        }
        for bits in [0, 17] {
            assert_eq!(
                with(&|c| c.adaptor.policy_bits = bits),
                Err(ConfigError::PolicyBitsOutOfRange(bits))
            );
        }
        assert_eq!(
            with(&|c| c.adaptor.sampling_interval_cycles = 0),
            Err(ConfigError::ZeroSamplingInterval)
        );
        assert_eq!(
            with(&|c| c.fault = Some(FaultInjection::DropInvalidations { period: 0 })),
            Err(ConfigError::ZeroFaultPeriod)
        );
        assert_eq!(
            with(&|c| c.fault = Some(FaultInjection::ReorderOrdered { window: 1 })),
            Err(ConfigError::ReorderWindowTooSmall(1))
        );
        assert_eq!(
            with(&|c| c.fault = Some(FaultInjection::ReorderOrdered { window: 2 })),
            Ok(())
        );
        let plane = FaultPlaneConfig::lossy(1, 1.5);
        assert_eq!(
            with(&|c| c.fault_plane = Some(plane.clone())),
            Err(ConfigError::FaultPlaneNeedsFabric)
        );
        assert_eq!(
            with(&|c| {
                c.topology = TopologyKind::Ring;
                c.fault_plane = Some(plane.clone());
            }),
            Err(ConfigError::FaultPlane(
                FaultPlaneError::ProbabilityOutOfRange { link: None }
            ))
        );
        assert_eq!(
            with(&|c| c.capture_completions = true),
            Err(ConfigError::CompletionsWithoutCapture)
        );
        assert_eq!(base().with_capture_completions().check(), Ok(()));
    }
}
