//! Traced-run plumbing: spans recorded around calls into each layer.
//!
//! The benchmark's own driver loops are generic over [`Probe`]. Untraced
//! runs use [`NoTrace`], whose calls compile away, so the loop measured
//! for end-to-end numbers carries no tracing code. Traced runs use
//! [`Tracer`], which keeps spans in memory; they are written out only
//! after all timing is done.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Marks the start and end of a span around one call into a layer.
pub trait Probe {
    /// Opens a span named `name` as a child of the innermost open span.
    fn begin(&mut self, name: &'static str) -> u32;
    /// Closes span `id`, which must be the innermost open span.
    fn end(&mut self, id: u32);
}

/// The untraced probe: every call is a no-op.
pub struct NoTrace;

impl Probe for NoTrace {
    #[inline(always)]
    fn begin(&mut self, _name: &'static str) -> u32 {
        0
    }

    #[inline(always)]
    fn end(&mut self, _id: u32) {}
}

const NO_PARENT: u32 = u32::MAX;

/// Spans kept verbatim per traced run (the first ones recorded); totals
/// and self times cover every span regardless.
pub const KEPT_SPANS: usize = 200_000;

/// One recorded span. Times are nanoseconds since the tracer started;
/// `parent` indexes the kept spans.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub iteration: u32,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Span time not covered by child spans.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean span duration in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Milliseconds of self time (or, with `total`, span time) summed over
/// the span names starting with `prefix`.
pub fn sum_ms(layers: &BTreeMap<&'static str, LayerTime>, prefix: &str, total: bool) -> f64 {
    let ns: u64 = layers
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, t)| if total { t.total_ns } else { t.self_ns })
        .sum();
    ns as f64 * 1e-6
}

/// Prints each span name's count, mean and self time.
pub fn print(layers: &BTreeMap<&'static str, LayerTime>) {
    println!("  spans (name: count, mean, total self):");
    for (name, t) in layers {
        println!(
            "    {name:<18} {:>10} {:>12.3} us {:>12.3} ms",
            t.count,
            t.mean_ns() * 1e-3,
            t.self_ns as f64 * 1e-6
        );
    }
}

/// A span still open: where it started and how much of it children took.
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Index into the kept spans, or `NO_PARENT` once the cap is reached.
    kept: u32,
}

/// The in-memory span recorder of a traced run. Per-name totals and
/// self times are accumulated as spans close, so they cover the whole
/// run; the first [`KEPT_SPANS`] spans are also kept verbatim for
/// [`to_tsv`](Tracer::to_tsv).
pub struct Tracer {
    origin: Instant,
    kept: Vec<Span>,
    open: Vec<Open>,
    /// Totals per span name, in first-seen order.
    layers: Vec<(&'static str, LayerTime)>,
    recorded: u64,
    iteration: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            kept: Vec::new(),
            open: Vec::new(),
            layers: Vec::new(),
            recorded: 0,
            iteration: 0,
        }
    }

    /// Tags spans opened from now on with iteration `id`.
    pub fn set_iteration(&mut self, id: u32) {
        self.iteration = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Totals and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        self.layers.iter().copied().collect()
    }

    /// Spans recorded, kept or not.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The kept spans as tab-separated `name start_ns end_ns parent
    /// iteration` lines (parent `-1` for roots).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\titeration\n");
        for s in &self.kept {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.iteration
            );
        }
        out
    }
}

impl Probe for Tracer {
    fn begin(&mut self, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        let kept = if self.kept.len() < KEPT_SPANS {
            let parent = self.open.last().map_or(NO_PARENT, |o| o.kept);
            self.kept.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                iteration: self.iteration,
            });
            (self.kept.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
        (self.open.len() - 1) as u32
    }

    fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.len(),
            id as usize + 1,
            "spans must close innermost first"
        );
        let span = self.open.pop().expect("an open span");
        let dur = end_ns - span.start_ns;
        if span.kept != NO_PARENT {
            self.kept[span.kept as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        // A linear scan: a run has a dozen span names, and literals of
        // one name usually share an address.
        let name = span.name;
        let i = match self
            .layers
            .iter()
            .position(|(n, _)| std::ptr::eq(*n, name) || *n == name)
        {
            Some(i) => i,
            None => {
                self.layers.push((name, LayerTime::default()));
                self.layers.len() - 1
            }
        };
        let t = &mut self.layers[i].1;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(span.child_ns);
        self.recorded += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("root");
        let child = t.begin("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let layers = t.layers();
        let (root, child) = (layers["root"], layers["child"]);
        assert_eq!(root.self_ns, root.total_ns - child.total_ns);
        assert_eq!(child.self_ns, child.total_ns);
    }
}
