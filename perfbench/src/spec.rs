//! The benchmark's workloads: one system configuration and one op stream
//! each, both derived from the run's seed.

use bash_coherence::{CacheGeometry, HierarchyConfig, ProtocolKind};
use bash_kernel::Duration;
use bash_net::{FaultPlaneConfig, TopologyKind};
use bash_sim::SystemConfig;
use bash_workloads::{catalog, LockingMicrobench, Workload};

/// Simulated length of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Simulated time before the measure window opens.
    pub warmup: Duration,
    /// Simulated length of the measure window.
    pub measure: Duration,
    /// Equal simulated-time slices the measure window is cut into for the
    /// host-cost-per-simulated-µs percentiles.
    pub slices: u32,
}

/// One named workload.
pub struct Spec {
    pub name: &'static str,
    pub shape: Shape,
    config: fn(u64) -> SystemConfig,
    workload: fn(u64) -> Box<dyn Workload>,
}

impl Spec {
    pub fn config(&self, seed: u64) -> SystemConfig {
        (self.config)(seed)
    }

    pub fn workload(&self, seed: u64) -> Box<dyn Workload> {
        (self.workload)(seed)
    }
}

fn bash16_config(seed: u64) -> SystemConfig {
    SystemConfig::paper_default(ProtocolKind::Bash, 16, 200).with_seed(seed)
}

fn bash16_workload(seed: u64) -> Box<dyn Workload> {
    catalog::build("locking", 16, seed).expect("`locking` is a catalog scenario")
}

const HIER_NODES: u16 = 4096;

fn hier4096_config(seed: u64) -> SystemConfig {
    SystemConfig::paper_default(ProtocolKind::Bash, HIER_NODES, 1600)
        .with_cache(CacheGeometry { sets: 64, ways: 4 })
        .with_hierarchy(HierarchyConfig::new(64, 32))
        .with_seed(seed)
}

fn hier4096_workload(seed: u64) -> Box<dyn Workload> {
    Box::new(LockingMicrobench::new(
        HIER_NODES,
        HIER_NODES as u64 * 4,
        Duration::ZERO,
        seed,
    ))
}

fn dir64_config(seed: u64) -> SystemConfig {
    SystemConfig::paper_default(ProtocolKind::Directory, 64, 1600)
        .with_topology(TopologyKind::Mesh2D)
        .with_fault_plane(FaultPlaneConfig::lossy(seed ^ 0xC0A5_F00D, 0.01))
        .with_seed(seed)
}

fn dir64_workload(seed: u64) -> Box<dyn Workload> {
    catalog::build("zipf", 64, seed).expect("`zipf` is a catalog scenario")
}

/// Every workload, in the order the documentation lists them.
pub const SPECS: &[Spec] = &[
    // The paper's regime where BASH really adapts: the 200 MB/s links are
    // scarce, so the policy counter settles between the extremes and the
    // retry path runs hot.
    Spec {
        name: "bash16-adapt",
        shape: Shape {
            warmup: Duration::from_ns(20_000),
            measure: Duration::from_ns(2_000_000),
            slices: 100,
        },
        config: bash16_config,
        workload: bash16_workload,
    },
    // The largest supported system: 64 snooping clusters of 64 nodes under
    // a 32-bank directory spine. The event queue holds a quarter-million
    // live events, so this is the workload where the kernel and memory
    // footprint show.
    Spec {
        name: "hier4096",
        shape: Shape {
            warmup: Duration::from_ns(2_000),
            measure: Duration::from_ns(10_000),
            slices: 100,
        },
        config: hier4096_config,
        workload: hier4096_workload,
    },
    // Routed, lossy unicast traffic: the fabric's per-link queues and
    // resequencing plus the transport's retransmit timers, with no
    // broadcasts and no adaptive sampler.
    Spec {
        name: "dir64-lossy-mesh",
        shape: Shape {
            warmup: Duration::from_ns(10_000),
            measure: Duration::from_ns(1_000_000),
            slices: 100,
        },
        config: dir64_config,
        workload: dir64_workload,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}
