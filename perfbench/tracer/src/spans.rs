//! In-memory span recording: one [`Recorder`] per worker thread, merged
//! and written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// The request (cell or served request) this span belongs to.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans for one thread. Ids are unique across recorders
/// because each request gets its own id block.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
    next_id: u64,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
            next_id: 1,
        }
    }

    /// Start attributing new spans to request `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
        self.next_id = (req << 24) | 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let parent = self.stack.last().map(|&i| self.spans[i].id).unwrap_or(0);
        let id = self.next_id;
        self.next_id += 1;
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            req: self.req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }
}

/// Per-name totals over a set of spans.
#[derive(Default, Clone, Copy, Debug)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Total and self time per span name. Children of one span run on the
/// same thread one after another, so the part of a span they cover is
/// the sum of their durations.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Share of each root span's duration covered by its direct children.
pub fn root_coverage(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| {
            let c = child_ns.get(&s.id).copied().unwrap_or(0) as f64;
            (
                s.req,
                if s.dur_ns() == 0 {
                    1.0
                } else {
                    c / s.dur_ns() as f64
                },
            )
        })
        .collect()
}

/// Write every span as one JSON object per line.
pub fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}
