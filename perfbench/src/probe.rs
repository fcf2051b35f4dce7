//! The benchmark's two observation points: a [`Workload`] wrapper that
//! sees every op's issue and completion, and an in-memory span table.
//!
//! Both observe host time only; neither feeds anything back into the
//! simulation, so a traced run's simulated statistics equal an untraced
//! run's (the self-test checks this).

use std::io::Write;
use std::time::Instant;

use bash_coherence::ProcOp;
use bash_kernel::Time;
use bash_net::NodeId;
use bash_workloads::{WorkItem, Workload};

/// One recorded span. Spans around the workload callbacks are aggregated
/// per slice: `dur_ns` is then the summed duration of `calls` calls.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub calls: u64,
}

/// Spans of one traced run, kept in memory and written out at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            dur_ns: 0,
            calls: 1,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.dur_ns = end - span.start_ns;
    }

    /// Records an aggregate of `calls` calls under `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: u32, dur_ns: u64, calls: u64) {
        let id = self.spans.len() as u32;
        let start_ns = self.spans[parent as usize].start_ns;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            start_ns,
            dur_ns,
            calls,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration and calls of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(d, c), s| (d + s.dur_ns, c + s.calls))
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"calls\":{}}}",
                s.id, parent, s.name, s.start_ns, s.dur_ns, s.calls
            )?;
        }
        Ok(())
    }
}

/// Host time spent in the wrapped workload's callbacks since the last
/// [`Probe::take_callback_time`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CallbackTime {
    pub next_item_ns: u64,
    pub next_item_calls: u64,
    pub on_complete_ns: u64,
    pub on_complete_calls: u64,
}

/// Wraps the workload under test. Always: counts completed ops. When
/// traced: times every callback and records each op's simulated
/// issue→completion latency during the measure window.
pub struct Probe {
    inner: Box<dyn Workload>,
    /// Simulated issue time of each node's outstanding op (the processor
    /// issues `think` after it fetched the item).
    issued_at: Vec<Time>,
    completed: u64,
    traced: bool,
    callbacks: CallbackTime,
    /// Latencies in ns of ops completed in the measure window (traced
    /// runs only).
    latencies: Option<Vec<u32>>,
}

impl Probe {
    pub fn new(inner: Box<dyn Workload>, nodes: u16, traced: bool) -> Self {
        Probe {
            inner,
            issued_at: vec![Time::ZERO; nodes as usize],
            completed: 0,
            traced,
            callbacks: CallbackTime::default(),
            latencies: None,
        }
    }

    /// Opens the latency record (traced runs only).
    pub fn begin_measurement(&mut self) {
        if self.traced {
            self.latencies = Some(Vec::new());
        }
    }

    /// Ops completed so far, counted independently of the simulator's
    /// own statistics.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    pub fn take_callback_time(&mut self) -> CallbackTime {
        std::mem::take(&mut self.callbacks)
    }

    pub fn take_latencies(&mut self) -> Vec<u32> {
        self.latencies.take().unwrap_or_default()
    }
}

impl Workload for Probe {
    fn next_item(&mut self, node: NodeId, now: Time) -> Option<WorkItem> {
        let item = if self.traced {
            let t0 = Instant::now();
            let item = self.inner.next_item(node, now);
            self.callbacks.next_item_ns += t0.elapsed().as_nanos() as u64;
            self.callbacks.next_item_calls += 1;
            item
        } else {
            self.inner.next_item(node, now)
        };
        if let Some(it) = &item {
            self.issued_at[node.index()] = now + it.think;
        }
        item
    }

    fn on_complete(&mut self, node: NodeId, now: Time, op: &ProcOp, value: u64) {
        self.completed += 1;
        if !self.traced {
            self.inner.on_complete(node, now, op, value);
            return;
        }
        let t0 = Instant::now();
        self.inner.on_complete(node, now, op, value);
        self.callbacks.on_complete_ns += t0.elapsed().as_nanos() as u64;
        self.callbacks.on_complete_calls += 1;
        if let Some(lat) = &mut self.latencies {
            let ns = now.since(self.issued_at[node.index()]).as_ps() / 1000;
            lat.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
