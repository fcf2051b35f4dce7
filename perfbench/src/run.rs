//! One run of one workload: build, warm up, measure in slices, tear down.
//!
//! Every step goes through the simulator's watchdog-guarded `try_` API,
//! and the caller isolates panics, so a wedged or crashing run becomes a
//! failed run instead of a hung or aborted benchmark.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use bash_kernel::Time;
use bash_sim::{RunStats, System, WatchdogBudget};

use crate::clock::{cpu_secs_since, thread_cpu_ns};
use crate::probe::{Probe, Tracer};
use crate::spec::{Shape, Spec};

/// Watchdog event budget for a whole run: a run that needs more events
/// than this is livelocked, not slow.
const MAX_EVENTS: u64 = 40_000_000;

/// Host-side and simulated results of one run. The phase times are thread
/// CPU time (see [`crate::clock`]); `wall_s` is wall time.
pub struct Outcome {
    pub setup_s: f64,
    pub warmup_s: f64,
    pub measure_s: f64,
    pub teardown_s: f64,
    /// Build + warmup + measure + drop, in wall time.
    pub wall_s: f64,
    /// Host CPU ms per simulated µs of each measure-window slice, in order.
    pub slice_ms_per_sim_us: Vec<f64>,
    /// Statistics of the measure window.
    pub stats: RunStats,
    /// Statistics of the warmup (used to split whole-run fault counters).
    pub warmup_stats: RunStats,
    pub fingerprint: u64,
    /// Simulated op latencies in ns over the measure window (traced runs).
    pub latencies: Vec<u32>,
}

/// FNV-1a over the simulated statistics a simulator-only change must
/// leave identical.
pub fn fingerprint(stats: &RunStats) -> u64 {
    let fault = stats.fault.unwrap_or_default();
    let hier = stats.hierarchy.as_ref();
    let words = [
        stats.duration.as_ps(),
        stats.ops_completed,
        stats.misses,
        stats.hits,
        stats.sharing_misses,
        stats.events_processed,
        stats.link_bytes,
        stats.broadcasts,
        stats.unicasts,
        stats.writebacks,
        stats.retries,
        stats.broadcast_escalations,
        stats.nacks,
        stats.peak_queue_len,
        fault.dropped,
        fault.corrupted,
        fault.retransmits,
        fault.undeliverable,
        hier.map_or(0, |h| h.intra_cluster_bytes),
        hier.map_or(0, |h| h.inter_cluster_bytes),
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn at(ps: u64) -> Time {
    Time::from_ps(ps)
}

fn open(t: &mut Option<&mut Tracer>, name: &'static str, parent: Option<u32>) -> Option<u32> {
    t.as_mut().map(|t| t.open(name, parent))
}

fn close(t: &mut Option<&mut Tracer>, id: Option<u32>) {
    if let (Some(t), Some(id)) = (t.as_mut(), id) {
        t.close(id);
    }
}

/// Runs `spec` once at `shape`, recording spans into `tracer` when given.
/// Panics inside the simulator are caught and reported as errors.
pub fn run(
    spec: &Spec,
    shape: Shape,
    seed: u64,
    tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    panic::catch_unwind(AssertUnwindSafe(|| run_inner(spec, shape, seed, tracer))).unwrap_or_else(
        |payload| {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("panicked: {msg}"))
        },
    )
}

fn run_inner(
    spec: &Spec,
    shape: Shape,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let warmup_ps = shape.warmup.as_ps();
    let measure_ps = shape.measure.as_ps();
    let end_ps = warmup_ps + measure_ps;
    let cfg = spec.config(seed).with_watchdog(WatchdogBudget {
        max_events: Some(MAX_EVENTS),
        max_virtual_time: Some(shape.warmup + shape.measure),
    });
    let nodes = cfg.nodes;
    let probe = Probe::new(spec.workload(seed), nodes, tracer.is_some());
    let err = |e: bash_sim::RunError| e.to_string();

    let run_span = open(&mut tracer, "core.run", None);

    let span = open(&mut tracer, "core.setup", run_span);
    let wall = Instant::now();
    let t = thread_cpu_ns();
    let mut sys = System::new(cfg, probe);
    let setup_s = cpu_secs_since(t);
    close(&mut tracer, span);

    // The warmup is itself a measurement window, so its statistics (the
    // fault plane's whole-run counters at the window boundary) are known.
    let span = open(&mut tracer, "core.warmup", run_span);
    let t = thread_cpu_ns();
    sys.begin_measurement();
    let warmup_stats = sys.try_finish(at(warmup_ps)).map_err(err)?;
    let warmup_s = cpu_secs_since(t);
    close(&mut tracer, span);

    let measure_span = open(&mut tracer, "core.measure", run_span);
    let completed_before = sys.workload().completed();
    sys.begin_measurement();
    sys.workload_mut().begin_measurement();
    sys.workload_mut().take_callback_time();
    let mut slice_ms_per_sim_us = Vec::with_capacity(shape.slices as usize);
    let slice_sim_us = measure_ps as f64 / shape.slices as f64 / 1e6;
    let t_measure = thread_cpu_ns();
    let mut stats = None;
    for k in 1..=shape.slices as u64 {
        let span = open(&mut tracer, "core.slice", measure_span);
        let t = thread_cpu_ns();
        let slice_end = at(warmup_ps + measure_ps * k / shape.slices as u64);
        if k == shape.slices as u64 {
            stats = Some(sys.try_finish(slice_end).map_err(err)?);
        } else {
            sys.try_run_until(slice_end).map_err(err)?;
        }
        slice_ms_per_sim_us.push(cpu_secs_since(t) * 1e3 / slice_sim_us);
        close(&mut tracer, span);
        if let (Some(tr), Some(id)) = (tracer.as_mut(), span) {
            let cb = sys.workload_mut().take_callback_time();
            tr.aggregate(
                "workloads.next_item",
                id,
                cb.next_item_ns,
                cb.next_item_calls,
            );
            tr.aggregate(
                "workloads.on_complete",
                id,
                cb.on_complete_ns,
                cb.on_complete_calls,
            );
        }
    }
    let measure_s = cpu_secs_since(t_measure);
    close(&mut tracer, measure_span);
    let stats = stats.expect("the measure window has at least one slice");
    debug_assert_eq!(sys.now(), at(end_ps));

    let completed = sys.workload().completed() - completed_before;
    if completed != stats.ops_completed {
        return Err(format!(
            "workload saw {completed} completions, simulator counted {}",
            stats.ops_completed
        ));
    }
    let latencies = sys.workload_mut().take_latencies();

    let span = open(&mut tracer, "core.teardown", run_span);
    let t = thread_cpu_ns();
    drop(sys);
    let teardown_s = cpu_secs_since(t);
    let wall_s = wall.elapsed().as_secs_f64();
    close(&mut tracer, span);
    close(&mut tracer, run_span);

    Ok(Outcome {
        setup_s,
        warmup_s,
        measure_s,
        teardown_s,
        wall_s,
        slice_ms_per_sim_us,
        fingerprint: fingerprint(&stats),
        stats,
        warmup_stats,
        latencies,
    })
}
