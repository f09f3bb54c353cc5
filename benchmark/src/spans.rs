//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written out when the run ends, and the per-layer self
//! times they imply.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one operation share `op`; `parent` indexes
/// the enclosing span in the same [`Tracer`]. Children of one parent either
/// all run on the calling thread (`lane: None`) or all on parallel lanes
/// (`lane: Some(device)`), never a mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub lane: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span store on one shared clock.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new() }
    }

    /// Nanoseconds since the shared origin.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.record(Span { name, layer, op, parent, lane: None, start_ns, end_ns: start_ns })
    }

    /// End a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Store a span whose times were measured elsewhere.
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another tracer's spans (same origin) into this one.
    pub fn append(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"op\":{},\"parent\":{},\"lane\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.layer,
                s.op,
                opt(s.parent.map(|p| p.to_string())),
                opt(s.lane.map(|l| l.to_string())),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every layer, in ns, plus the summed duration of the root
/// spans. A span's self time is its duration minus the part its children
/// cover. Children on `n` parallel lanes cover the mean of their lanes'
/// coverage, and each lane's spans count `1/n` of their self time, so the
/// self times of all layers add up to the root total. Parents must precede
/// their children, as [`Tracer::open`] guarantees.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            assert!(p < i, "span {i} precedes its parent {p}");
            children[p].push(i);
        }
    }
    let mut weight = vec![1.0f64; spans.len()];
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut root_total = 0.0;
    for (i, s) in spans.iter().enumerate() {
        let (lo, hi) = (s.start_ns, s.end_ns.max(s.start_ns));
        let mut serial = Vec::new();
        let mut lanes: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for &c in &children[i] {
            let iv = (spans[c].start_ns, spans[c].end_ns);
            match spans[c].lane {
                None => serial.push(iv),
                Some(lane) => lanes.entry(lane).or_default().push(iv),
            }
        }
        let mut covered = union_len(serial, lo, hi) as f64;
        if !lanes.is_empty() {
            let n = lanes.len() as f64;
            for &c in &children[i] {
                weight[c] = weight[i] / if spans[c].lane.is_some() { n } else { 1.0 };
            }
            covered += lanes.into_values().map(|iv| union_len(iv, lo, hi) as f64).sum::<f64>() / n;
        } else {
            for &c in &children[i] {
                weight[c] = weight[i];
            }
        }
        *by_layer.entry(s.layer).or_default() +=
            weight[i] * (s.duration() as f64 - covered).max(0.0);
        if s.parent.is_none() {
            root_total += s.duration() as f64;
        }
    }
    (by_layer, root_total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, lane: Option<u32>, s: u64, e: u64) -> Span {
        Span { name: layer, layer, op: 0, parent, lane, start_ns: s, end_ns: e }
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = vec![
            span("bench", None, None, 0, 100),
            span("runtime", Some(0), None, 10, 90),
            // Two lanes under the runtime span: lane 0 computes 40ns,
            // lane 1 computes 20ns, so they cover 30ns on average.
            span("tensor", Some(1), Some(0), 20, 60),
            span("tensor", Some(1), Some(1), 30, 50),
            span("ckpt", Some(0), None, 90, 95),
        ];
        let (layers, root) = self_times(&spans);
        assert_eq!(root, 100.0);
        assert_eq!(layers["bench"], 15.0);
        assert_eq!(layers["runtime"], 50.0);
        assert_eq!(layers["tensor"], 30.0);
        assert_eq!(layers["ckpt"], 5.0);
        assert_eq!(layers.values().sum::<f64>(), root);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("bench", None, None, 0, 100),
            span("sim", Some(0), None, 0, 60),
            span("sim", Some(0), None, 40, 80),
        ];
        let (layers, _) = self_times(&spans);
        assert_eq!(layers["bench"], 20.0);
    }
}
