//! Spans recorded from the benchmark's own code, around each call a
//! workload makes into a Motor layer. Spans stay in memory and are written
//! out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::Durations;

/// Most spans a run keeps for the written file; aggregates cover every
/// span regardless.
const KEEP: usize = 20_000;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    id: u32,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    pub layer: &'static str,
    pub root: bool,
    pub durs: Durations,
    pub self_ns: u64,
}

/// Aggregated spans, mergeable across ranks and segments.
#[derive(Debug, Clone, Default)]
pub struct SpanAgg {
    pub by_name: BTreeMap<&'static str, NameStats>,
    pub kept: Vec<(usize, Span)>,
    pub dropped: u64,
}

impl SpanAgg {
    pub fn merge(&mut self, other: SpanAgg) {
        for (name, s) in other.by_name {
            let e = self.by_name.entry(name).or_default();
            e.layer = s.layer;
            e.root = s.root;
            e.durs.merge(&s.durs);
            e.self_ns += s.self_ns;
        }
        let room = KEEP.saturating_sub(self.kept.len());
        self.dropped += other.dropped + other.kept.len().saturating_sub(room) as u64;
        self.kept.extend(other.kept.into_iter().take(room));
    }

    /// Summed duration of the root spans, in nanoseconds.
    pub fn root_ns(&self) -> f64 {
        self.by_name
            .values()
            .filter(|s| s.root)
            .map(|s| s.durs.sum_ns() as f64)
            .sum()
    }

    /// Share of the root spans' time covered by their descendants' self
    /// time, i.e. one minus the roots' own self share.
    pub fn coverage(&self) -> f64 {
        let root_self: u64 = self
            .by_name
            .values()
            .filter(|s| s.root)
            .map(|s| s.self_ns)
            .sum();
        let root = self.root_ns();
        if root == 0.0 {
            0.0
        } else {
            1.0 - root_self as f64 / root
        }
    }

    /// Share of the root spans' time that `layer`'s spans spent in their
    /// own code (not in a child span).
    pub fn self_share(&self, layer: &str) -> f64 {
        let ns: u64 = self
            .by_name
            .values()
            .filter(|s| !s.root && s.layer == layer)
            .map(|s| s.self_ns)
            .sum();
        crate::stats::ratio(ns as f64, self.root_ns())
    }

    /// Write the kept spans as tab-separated lines.
    pub fn write(&self, path: &std::path::Path, stamp: &str) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "# {stamp} dropped={}", self.dropped)?;
        writeln!(f, "rank\tid\tparent\top\tlayer\tname\tstart_ns\tend_ns")?;
        for (rank, s) in &self.kept {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{rank}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.op, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

/// A per-rank span recorder. When off, [`Tracer::span`] only calls its
/// closure.
pub struct Tracer {
    on: bool,
    rank: usize,
    epoch: Instant,
    stack: Vec<Open>,
    next_id: u32,
    op: u64,
    agg: SpanAgg,
}

impl Tracer {
    pub fn new(on: bool, rank: usize, epoch: Instant) -> Tracer {
        Tracer {
            on,
            rank,
            epoch,
            stack: Vec::new(),
            next_id: 0,
            op: 0,
            agg: SpanAgg::default(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next operation; spans opened from here share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` inside a span named `name` of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.enter(layer, name);
        let r = f();
        self.exit();
        r
    }

    pub fn enter(&mut self, layer: &'static str, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now();
        self.stack.push(Open {
            id,
            layer,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let open = self.stack.pop().expect("span exit without enter");
        let dur = end_ns - open.start_ns;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let e = self.agg.by_name.entry(open.name).or_default();
        e.layer = open.layer;
        e.root = parent.is_none();
        e.durs.record_ns(dur);
        e.self_ns += dur.saturating_sub(open.child_ns);
        let span = Span {
            id: open.id,
            parent,
            op: self.op,
            layer: open.layer,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        };
        if self.agg.kept.len() < KEEP {
            self.agg.kept.push((self.rank, span));
        } else {
            self.agg.dropped += 1;
        }
    }

    /// The recorded spans; the tracer starts over empty.
    pub fn take(&mut self) -> SpanAgg {
        assert!(self.stack.is_empty(), "spans still open");
        std::mem::take(&mut self.agg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(root_ns: u64, children: &[(&'static str, &'static str, u64)]) -> SpanAgg {
        // Build an aggregate by hand: one root with the given children.
        let mut agg = SpanAgg::default();
        let child_total: u64 = children.iter().map(|c| c.2).sum();
        for &(layer, name, ns) in children {
            let e = agg.by_name.entry(name).or_default();
            e.layer = layer;
            e.durs.record_ns(ns);
            e.self_ns += ns;
        }
        let r = agg.by_name.entry("op").or_default();
        r.layer = "op";
        r.root = true;
        r.durs.record_ns(root_ns);
        r.self_ns = root_ns - child_total;
        agg
    }

    #[test]
    fn self_shares_and_coverage_partition_the_root() {
        let agg = closed(1000, &[("api", "allreduce", 300), ("app", "spmv", 650)]);
        assert!((agg.self_share("api") - 0.3).abs() < 1e-12);
        assert!((agg.self_share("app") - 0.65).abs() < 1e-12);
        assert!((agg.coverage() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_subtract_children_from_self_time() {
        let mut t = Tracer::new(true, 0, Instant::now());
        t.next_op();
        t.enter("op", "iter");
        t.span("api", "outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.exit();
        let agg = t.take();
        let root = &agg.by_name["iter"];
        let child = &agg.by_name["outer"];
        assert!(root.root && !child.root);
        let root_ns = root.durs.sum_ns() as u64;
        assert_eq!(root.self_ns, root_ns - child.self_ns);
        assert_eq!(agg.kept.len(), 2);
        assert_eq!(agg.kept[0].1.parent, Some(agg.kept[1].1.id));
        assert!(agg.kept.iter().all(|(_, s)| s.op == 1));
    }

    #[test]
    fn merged_spans_stay_within_the_cap() {
        let mut t = Tracer::new(true, 0, Instant::now());
        for _ in 0..KEEP / 2 + 1 {
            t.span("core", "send", || ());
        }
        let one = t.take();
        let mut all = SpanAgg::default();
        all.merge(one.clone());
        all.merge(one);
        assert_eq!(all.kept.len(), KEEP);
        assert_eq!(all.dropped, 2);
        assert_eq!(all.by_name["send"].durs.count(), (KEEP + 2) as u64);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0, Instant::now());
        assert_eq!(t.span("core", "send", || 7), 7);
        assert!(t.take().by_name.is_empty());
    }
}
