//! In-memory spans around the benchmark's calls into each layer's public
//! functions. Each measuring thread owns a [`Tracer`]; the spans are
//! merged and written out once the run ends, never during it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: which layer function, for which request, inside which
/// enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. While off it records nothing, so the same
/// code path runs traced and untraced.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span opened by [`Tracer::enter`]; `None` while tracing is off.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder whose timestamps count from `origin` (share one origin
    /// across the threads of a run so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Tracer::enter`] (innermost first).
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end = self.ns(Instant::now());
            self.spans[id].end_ns = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, req);
        let out = f();
        self.exit(open);
        out
    }

    /// Append this thread's spans to `into`, re-basing parent indices.
    pub fn drain_into(self, into: &mut Vec<Span>) {
        let base = into.len();
        into.extend(self.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span in microseconds, grouped by span name: the
/// span's duration minus the part its child spans cover.
pub fn self_times_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        out.entry(s.name)
            .or_default()
            .push(s.dur_ns().saturating_sub(*child) as f64 / 1e3);
    }
    out
}

/// At most this many spans are written per run; a closed-loop replay
/// records millions, and the file is for inspection, not for the metrics
/// (which come from every span in memory).
pub const MAX_WRITTEN: usize = 200_000;

/// Write a traced run's spans to `.bench_out/spans-<workload>-seed<n>.tsv`
/// under the working directory; a write failure is logged, not fatal.
pub fn write_run(workload: &str, seed: u64, spans: &[Span]) {
    let path = std::path::PathBuf::from(format!(".bench_out/spans-{workload}-seed{seed}.tsv"));
    if let Err(e) = write_tsv(&path, spans) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Write the first [`MAX_WRITTEN`] spans as tab-separated lines: id,
/// name, request id, parent id (`-` for a root), start and end in ns.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\treq\tparent\tstart_ns\tend_ns")?;
    for (id, s) in spans.iter().enumerate().take(MAX_WRITTEN) {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{id}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    if spans.len() > MAX_WRITTEN {
        writeln!(
            out,
            "# {} more spans not written",
            spans.len() - MAX_WRITTEN
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "root",
                req: 1,
                parent: None,
                start_ns: 0,
                end_ns: 10_000,
            },
            Span {
                name: "child",
                req: 1,
                parent: Some(0),
                start_ns: 1_000,
                end_ns: 4_000,
            },
        ];
        let t = self_times_us(&spans);
        assert_eq!(t["root"], vec![7.0]);
        assert_eq!(t["child"], vec![3.0]);
    }

    #[test]
    fn off_tracer_records_nothing_and_nesting_links_parents() {
        let mut t = Tracer::new(Instant::now());
        t.span("x", 0, || ());
        t.set_on(true);
        let root = t.enter("root", 7);
        t.span("leaf", 7, || ());
        t.exit(root);
        let mut spans = vec![];
        t.drain_into(&mut spans);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
    }
}
