//! In-memory span recorder used by the traced run.
//!
//! Spans are taken from outside the program: one per timed call into a
//! public function (`ClusterBuilder::build`, `Cluster::run_for`, ...), each
//! with its parent, so a layer's self time is its duration minus the part
//! its children cover. Counts are read at every `run_for` boundary. With
//! the probe off, `span` is a plain call and nothing is recorded.

use ipipe::rt::Cluster;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index into the probe's span list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `rt.run_for`.
    pub name: &'static str,
    /// Host nanoseconds since the probe was created.
    pub start_ns: u64,
    /// Host nanoseconds since the probe was created.
    pub end_ns: u64,
}

impl Span {
    /// Host duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Counts read at one `run_for` boundary.
#[derive(Debug, Clone)]
pub struct Boundary {
    /// The `rt.run_for` span that ended here.
    pub span: usize,
    /// Simulated time at the boundary.
    pub sim_ns: u64,
    /// Events processed so far, summed over shards (`shard_events`).
    pub events: u64,
    /// Lockstep epochs so far (`epoch_stats`).
    pub epochs: u64,
    /// Client requests issued so far (`completions`).
    pub issued: u64,
    /// Client requests completed so far (`completions`).
    pub completed: u64,
    /// Client requests shed so far (`completions`).
    pub shed: u64,
    /// Client retransmissions so far (`counter_total`).
    pub retries: u64,
}

/// Span and count recorder; records nothing when off.
pub struct Probe {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: usize,
    boundaries: Vec<Boundary>,
}

impl Probe {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Probe {
        Probe {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: 0,
            boundaries: Vec::new(),
        }
    }

    /// Turn recording on or off between scenario runs.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "probe toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses later spans; close it with [`Probe::end`].
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close a span opened by [`Probe::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = self.now_ns();
            self.last_closed = id;
        }
    }

    /// Time one call as a leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Record the counts at the `run_for` boundary that just ended; call it
    /// right after the `rt.run_for` span closes.
    ///
    /// Only cheap reads happen here. The merged `snapshot` clones every
    /// histogram, so it is read once, after the last boundary; and only
    /// counters the runtime always registers are read, because reading an
    /// unregistered counter registers it and would change the export.
    pub fn boundary(&mut self, c: &Cluster) {
        if !self.on {
            return;
        }
        let span = self.last_closed;
        debug_assert_eq!(self.spans[span].name, "rt.run_for");
        let done = c.completions();
        self.boundaries.push(Boundary {
            span,
            sim_ns: c.now().as_ns(),
            events: c.shard_events().iter().sum(),
            epochs: c.epoch_stats().epochs,
            issued: done.issued(),
            completed: done.completed(),
            shed: done.shed(),
            retries: c.counter_total("client.retry.sent"),
        });
    }

    /// Number of spans recorded so far; slice [`Probe::spans`] from here to
    /// read one scenario run's spans.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total host nanoseconds of the spans named `name` in `spans`.
    pub fn total_ns(spans: &[Span], name: &str) -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Every span and boundary as JSON lines, each span with its self time.
    pub fn to_jsonl(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                parent,
                s.name,
                s.start_ns,
                s.end_ns,
                s.dur_ns() - child_ns[s.id]
            );
        }
        for b in &self.boundaries {
            let _ = writeln!(
                out,
                "{{\"type\":\"boundary\",\"span\":{},\"sim_ns\":{},\"events\":{},\"epochs\":{},\"issued\":{},\"completed\":{},\"shed\":{},\"retries\":{}}}",
                b.span, b.sim_ns, b.events, b.epochs, b.issued, b.completed, b.shed, b.retries
            );
        }
        out
    }
}
