//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span has a layer name, a start, an end, a parent span and a trace
//! id shared by every span of one workload pass. Spans stay in memory
//! and are written out when the run ends. The untraced run uses
//! [`NoTrace`], whose calls compile to nothing, so the timed run carries
//! no tracing cost at all.

use std::io::{self, Write};
use std::ops::Range;
use std::time::Instant;

/// The layer boundary a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One replay of one cell: the root of a pass trace.
    Pass,
    /// One round's set-up: the root of a set-up trace.
    Setup,
    /// `vod_workload::{generate, with_vcr_actions, multi_movie}`.
    WorkloadGen,
    /// `vod_core::SizeTable::build` — the cold BS_k table.
    TableBuild,
    /// `vod_sim::DiskEngine::with_observer`.
    SimBuild,
    /// `vod_sim::DiskEngine::advance_to`.
    SimAdvance,
    /// `vod_sim::DiskEngine::offer`.
    SimOffer,
    /// `vod_sim::DiskEngine::finish`.
    SimFinish,
    /// `vod_cluster::Cluster::with_observer`.
    ClusterBuild,
    /// `vod_chaos::run_chaos_on` — dispatch, failover and every node
    /// engine, down to `Cluster::finish_run(1)`.
    ChaosRun,
}

impl Layer {
    /// Stable name written to the span file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Pass => "bench.pass",
            Layer::Setup => "bench.setup",
            Layer::WorkloadGen => "workload.generate",
            Layer::TableBuild => "core.table_build",
            Layer::SimBuild => "sim.build",
            Layer::SimAdvance => "sim.advance_to",
            Layer::SimOffer => "sim.offer",
            Layer::SimFinish => "sim.finish",
            Layer::ClusterBuild => "cluster.build",
            Layer::ChaosRun => "chaos.run",
        }
    }
}

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// Records spans, or nothing.
pub trait Tracer {
    /// Opens a span of `layer` under `parent` in trace `trace`; returns
    /// its id.
    fn open(&mut self, layer: Layer, parent: u32, trace: u32) -> u32;
    /// Closes span `id`.
    fn close(&mut self, id: u32);
    /// Spans recorded so far.
    fn recorded(&self) -> usize;
}

/// The untraced run's tracer: records nothing.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn open(&mut self, _: Layer, _: u32, _: u32) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: u32) {}
    fn recorded(&self) -> usize {
        0
    }
}

/// One recorded span; times are nanoseconds since the log's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Trace id shared by every span of one pass (or one set-up).
    pub trace: u32,
    /// Parent span id, or [`ROOT`].
    pub parent: u32,
    /// The layer boundary.
    pub layer: Layer,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The traced run's in-memory span log. A span id is its index.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Every span recorded so far, in open order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans with an index in one of `keep` as tab-separated
    /// lines: id, trace, parent, layer, start_ns, end_ns, self_ns. A
    /// span's self time is its duration minus the part of it its
    /// children cover.
    ///
    /// # Errors
    ///
    /// Returns the first write error.
    pub fn write_tsv<W: Write>(&self, mut out: W, keep: &[Range<usize>]) -> io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        writeln!(out, "id\ttrace\tparent\tlayer\tstart_ns\tend_ns\tself_ns")?;
        for id in keep.iter().flat_map(Clone::clone) {
            let s = &self.spans[id];
            let parent = if s.parent == ROOT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.trace,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.dur_ns().saturating_sub(child_ns[id])
            )?;
        }
        out.flush()
    }
}

impl Tracer for SpanLog {
    fn open(&mut self, layer: Layer, parent: u32, trace: u32) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trace,
            parent,
            layer,
            start_ns,
            end_ns: 0,
        });
        id
    }

    fn close(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    fn recorded(&self) -> usize {
        self.spans.len()
    }
}
