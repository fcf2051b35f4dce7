//! Component microbenchmarks for the traced run: each drives one layer through its
//! public API, alone, at the shape the measured run gave it, and times it.
//! Their per-call costs, scaled by the run's own call counts, estimate each
//! layer's share of the measure window from outside the simulator. Like
//! the window itself, they are timed in thread CPU time; each is timed
//! [`REPEATS`] times and the fastest kept, since another tenant's load can
//! only slow a timing down.

use std::hint::black_box;

use bash_adaptive::BandwidthAdaptor;
use bash_coherence::{ProtoMsg, ProtocolKind};
use bash_kernel::{DetRng, Duration, EventQueue, Time};
use bash_net::{
    Interconnect, Message, MsgArena, NetConfig, NetEvent, NetStep, NodeId, NodeSet, VnetId,
};
use bash_sim::{RunStats, SystemConfig};

use crate::clock::thread_cpu_ns;

/// Timings taken of each microbenchmark.
const REPEATS: usize = 3;

/// A stand-in event as large as the simulator's own (whose largest
/// variant carries a network event), so queue moves copy as many bytes.
type QueueEvent = [u64; QUEUE_EVENT_WORDS];
const QUEUE_EVENT_WORDS: usize = std::mem::size_of::<NetEvent<ProtoMsg>>() / 8 + 1;

/// A stand-in payload as large as a protocol message.
type Payload = [u64; PAYLOAD_WORDS];
const PAYLOAD_WORDS: usize = std::mem::size_of::<ProtoMsg>() / 8;

/// An event queue built as `System::new` builds its own: the same kind,
/// capacity and horizon.
fn system_queue<E>(cfg: &SystemConfig) -> EventQueue<E> {
    // Mirrors the queue sizing in `System::new`
    // (crates/core/src/system.rs, `fault_timer_load`, `queue_cap` and
    // `horizon`): the simulator exposes no accessor for it, so a change
    // there must be copied here.
    let fault_timer_load =
        cfg.fault_plane
            .as_ref()
            .map_or(0, |fp| if fp.transport.is_some() { 8 } else { 2 });
    let cap = (cfg.nodes as usize * (16 + fault_timer_load)).max(64);
    let horizon = cfg.traversal + Duration::transmission(72, cfg.link_mbps);
    EventQueue::with_kind(cfg.queue, cap, horizon)
}

/// Host ns per event-queue operation (a schedule or a pop) with `live`
/// events queued, in a queue built as the run's. Each step mirrors one
/// event of the guarded run loop: peek, pop, then schedule a successor.
/// The successors' delays cycle through `delays`, the scheduling delays
/// the network microbenchmark observed at the run's shape, in the order
/// it observed them, so fan-out bursts of equal delays stay together. The
/// population first turns over once untimed, so the timed steps see its
/// steady-state spread of times.
pub fn queue_ns_per_op(cfg: &SystemConfig, live: usize, delays: &[Duration], steps: u64) -> f64 {
    let mut q: EventQueue<QueueEvent> = system_queue(cfg);
    let mut next = 0;
    let mut delay = || {
        next = (next + 1) % delays.len();
        delays[next]
    };
    // The population enters at an even rate over one mean delay, as it
    // would have been scheduled in a steady state, not all at time zero.
    let live = live.max(1);
    let mean_ps = delays.iter().map(|d| d.as_ps()).sum::<u64>() / delays.len() as u64;
    for i in 0..live {
        let enter = Time::from_ps(i as u64 * mean_ps / live as u64);
        q.schedule(enter + delay(), [i as u64; QUEUE_EVENT_WORDS]);
    }
    let mut step = || {
        let ts = q.peek_time().expect("the population never drains");
        let (now, ev) = q.pop().expect("peeked");
        debug_assert_eq!(now, ts);
        let ev = black_box(ev);
        q.schedule(now + delay(), ev);
    };
    for _ in 0..live {
        step();
    }
    let ns = fastest(|| {
        let t = thread_cpu_ns();
        for _ in 0..steps {
            step();
        }
        thread_cpu_ns() - t
    });
    ns as f64 / (2 * steps) as f64
}

/// What the network microbenchmark measured.
pub struct NetCost {
    /// Host ns per injected message, through delivery, queue time excluded.
    pub ns_per_send: f64,
    /// Host ns per byte crossing a link, queue time excluded.
    pub ns_per_link_byte: f64,
    /// How far ahead of the handled event each network event was
    /// scheduled, in order: the delay mix the kernel microbenchmark
    /// replays.
    pub delays: Vec<Duration>,
    /// Host ns per queue operation of the replay: the run's kind of queue
    /// carrying exactly the network's event traffic.
    pub queue_ns_per_op: f64,
    /// Peak population of the replay's queue.
    pub queue_len: usize,
}

enum NetBenchEvent {
    Send(Message<Payload>),
    Net(NetEvent<Payload>),
}

/// A stand-in for [`NetBenchEvent`] of the same size, for the replay.
type ReplayEvent = [u64; REPLAY_WORDS];
const REPLAY_WORDS: usize = std::mem::size_of::<NetBenchEvent>().div_ceil(8);

/// Drives a stand-alone interconnect built like the run's (topology,
/// bandwidth, fault plane) with the run's cast mix: requests broadcast
/// (cluster-cast under a hierarchy) or sent to the home (a {home,
/// requestor} dualcast under BASH) in the run's proportions, home retries
/// at the run's rate, and one data response per request. Requests arrive
/// at the run's request rate.
pub fn net_cost(cfg: &SystemConfig, stats: &RunStats, requests: u64) -> NetCost {
    let nodes = cfg.nodes;
    let run_requests = (stats.broadcasts + stats.unicasts).max(1);
    let p_broadcast = stats.broadcasts as f64 / run_requests as f64;
    let p_retry = stats.retries as f64 / run_requests as f64;
    let gap_ps = (stats.duration.as_ps() / run_requests).max(1);
    let broadcast = |src: NodeId, home: NodeId| match cfg.hierarchy {
        Some(h) => h.cluster_set(src).union(&NodeSet::singleton(home)),
        None => NodeSet::all(nodes as usize),
    };
    let sends = || {
        let mut rng = DetRng::seed_from(0xB0B);
        let mut sends = Vec::new();
        for i in 0..requests {
            let at = Time::from_ps(i * gap_ps);
            let src = NodeId(rng.below(nodes as u64) as u16);
            let home = match cfg.hierarchy {
                Some(h) => h.bank_node(rng.below(h.banks as u64) as u16, nodes),
                None => NodeId(rng.below(nodes as u64) as u16),
            };
            let request = if rng.chance(p_broadcast) {
                Message::ordered(src, broadcast(src, home), 8, [0; PAYLOAD_WORDS])
            } else if cfg.protocol == ProtocolKind::Bash {
                Message::ordered(src, NodeSet::from_nodes([src, home]), 8, [0; PAYLOAD_WORDS])
            } else {
                Message::unordered(src, home, VnetId::DIR_REQUEST, 8, [0; PAYLOAD_WORDS])
            };
            sends.push((at, request));
            if rng.chance(p_retry) {
                sends.push((
                    at,
                    Message::ordered(home, broadcast(src, home), 8, [0; PAYLOAD_WORDS]),
                ));
            }
            sends.push((
                at,
                Message::unordered(home, src, VnetId::DATA, 72, [0; PAYLOAD_WORDS]),
            ));
        }
        sends
    };

    // Pass 1 runs the network and logs when each handled event schedules
    // its successors. Pass 2 replays exactly that queue traffic without
    // the network, so the difference is the network's own cost. Both are
    // deterministic, so each is timed REPEATS times and the fastest kept.
    let mut full_ns = u64::MAX;
    let mut log = None;
    for _ in 0..REPEATS {
        let (ns, pass_log) = network_pass(cfg, sends());
        full_ns = full_ns.min(ns);
        log = Some(pass_log);
    }
    let log = log.expect("REPEATS > 0");
    let mut replay = (u64::MAX, 0, 0);
    for _ in 0..REPEATS {
        let pass = replay_pass(cfg, &log);
        if pass.0 < replay.0 {
            replay = pass;
        }
    }
    let (replay_ns, popped, queue_len) = replay;

    let net_ns = full_ns.saturating_sub(replay_ns) as f64;
    NetCost {
        ns_per_send: net_ns / log.sends.max(1) as f64,
        ns_per_link_byte: net_ns / log.link_bytes.max(1) as f64,
        delays: log.delays,
        queue_ns_per_op: replay_ns as f64 / (2 * popped.max(1)) as f64,
        queue_len,
    }
}

/// What the network pass did, for the replay.
struct NetLog {
    /// Successors each handled event scheduled, in pop order.
    children: Vec<u32>,
    /// When each successor was scheduled for, in schedule order.
    times: Vec<Time>,
    /// How far ahead each network successor was scheduled.
    delays: Vec<Duration>,
    sends: u64,
    link_bytes: u64,
}

/// Host ns to carry `sends` through a fresh interconnect and queue built
/// as the run's, and the log of the queue traffic. Requests enter one at a
/// time, each scheduled when the one before it is sent, as a closed
/// loop's would.
fn network_pass(cfg: &SystemConfig, sends: Vec<(Time, Message<Payload>)>) -> (u64, NetLog) {
    let nodes = cfg.nodes;
    let mut net_cfg = NetConfig::new(nodes, cfg.link_mbps);
    net_cfg.traversal = cfg.traversal;
    net_cfg.broadcast_cost_multiplier = cfg.broadcast_cost_multiplier;
    net_cfg.topology = cfg.topology;
    net_cfg.fault = cfg.fault_plane.clone();
    let mut net: Interconnect<Payload> = Interconnect::new(net_cfg);
    let mut log = NetLog {
        children: Vec::new(),
        times: Vec::new(),
        delays: Vec::new(),
        sends: sends.len() as u64,
        link_bytes: 0,
    };
    let mut q: EventQueue<NetBenchEvent> = system_queue(cfg);
    let mut sends = sends.into_iter();
    let (first_at, first) = sends.next().expect("at least one request");
    q.schedule(first_at, NetBenchEvent::Send(first));
    let mut arena = MsgArena::new();
    let mut step = NetStep::new();
    let t = thread_cpu_ns();
    while let Some((now, ev)) = q.pop() {
        let mut next_send = None;
        match ev {
            NetBenchEvent::Send(m) => {
                net.send(now, m, &mut arena, &mut step);
                next_send = sends.next();
            }
            NetBenchEvent::Net(e) => net.handle(now, e, &mut arena, &mut step),
        }
        log.children
            .push((step.schedule.len() + next_send.is_some() as usize) as u32);
        for (at, e) in step.schedule.drain(..) {
            log.times.push(at);
            log.delays.push(at.since(now));
            q.schedule(at, NetBenchEvent::Net(e));
        }
        if let Some((at, m)) = next_send {
            log.times.push(at);
            q.schedule(at, NetBenchEvent::Send(m));
        }
        for d in step.deliveries.drain(..) {
            arena.release(d.msg);
        }
    }
    let ns = thread_cpu_ns() - t;
    log.link_bytes = match &net {
        Interconnect::Crossbar(xb) => (0..nodes).map(|i| xb.link_bytes(NodeId(i))).sum(),
        Interconnect::Fabric(f) => (0..f.link_count()).map(|i| f.link_bytes(i)).sum(),
    };
    (ns, log)
}

/// Host ns to replay the logged queue traffic through a queue built as
/// the run's, the events popped, and the queue's peak population.
fn replay_pass(cfg: &SystemConfig, log: &NetLog) -> (u64, usize, usize) {
    let mut replay: EventQueue<ReplayEvent> = system_queue(cfg);
    // The first request, sent at time zero.
    replay.schedule(Time::ZERO, [0; REPLAY_WORDS]);
    let t = thread_cpu_ns();
    let mut next_time = 0;
    let mut popped = 0;
    while let Some((_, ev)) = replay.pop() {
        black_box(ev);
        for _ in 0..log.children[popped] {
            replay.schedule(log.times[next_time], [next_time as u64; REPLAY_WORDS]);
            next_time += 1;
        }
        popped += 1;
    }
    (thread_cpu_ns() - t, popped, replay.peak_len())
}

/// Host ns per broadcast/unicast decision, with the policy counter set to
/// the run's unicast fraction.
pub fn ns_per_decide(cfg: &SystemConfig, unicast_fraction: f64, decisions: u64) -> f64 {
    let mut adaptor_cfg = cfg.adaptor.clone();
    let max = (1u32 << adaptor_cfg.policy_bits) - 1;
    adaptor_cfg.initial_policy = ((unicast_fraction * (max + 1) as f64) as u32).min(max);
    let mut adaptor = BandwidthAdaptor::new(&adaptor_cfg, 1);
    let ns = fastest(|| {
        let t = thread_cpu_ns();
        for _ in 0..decisions {
            black_box(adaptor.decide());
        }
        thread_cpu_ns() - t
    });
    ns as f64 / decisions.max(1) as f64
}

/// The fastest of REPEATS timings of `time_once`, in ns.
fn fastest(mut time_once: impl FnMut() -> u64) -> u64 {
    (0..REPEATS)
        .map(|_| time_once())
        .min()
        .expect("REPEATS > 0")
}
