//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into the simulator: one span per job (its id is the job index) with
//! child spans for generation, build, run and check, and one span per
//! layer-driver loop. They stay in memory and are written out as Chrome
//! `trace_event` JSON when the run ends (hand-rolled: the vendored `serde`
//! is a marker-only stub). With tracing off every call is a branch on a
//! flag and records nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open span; `NONE` when tracing is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The parent of a root span, and the handle returned when off.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    id: u64,
    parent: SpanId,
    thread: usize,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder of one benchmark run.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span named `name` for object `id` (job index, or 0 for a
    /// driver) under `parent`, on worker `thread`.
    pub fn begin(&self, name: &'static str, id: u64, parent: SpanId, thread: usize) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            id,
            parent,
            thread,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(spans.len() - 1)
    }

    /// Close span `s`.
    pub fn end(&self, s: SpanId) {
        if s == SpanId::NONE {
            return;
        }
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span recorder poisoned")[s.0].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: SpanId,
        thread: usize,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let s = self.begin(name, id, parent, thread);
        let out = f(s);
        self.end(s);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span recorder poisoned").len()
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part of its interval that its child spans cover, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if s.parent != SpanId::NONE {
                children[s.parent.0].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let covered = union_len(&mut children[i], s.start_ns, s.end_ns);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Chrome `trace_event` JSON of every span (complete events, µs;
    /// `tid` is the worker, `args` carry the object id and parent index).
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, sp) in spans.iter().enumerate() {
            let parent = if sp.parent == SpanId::NONE {
                -1
            } else {
                sp.parent.0 as i64
            };
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"span\":{},\"parent\":{}}}}}{}\n",
                sp.name,
                sp.thread,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.id,
                i,
                parent,
                if i + 1 < spans.len() { "," } else { "" },
            ));
        }
        s.push_str("]}\n");
        s
    }
}

/// Length of the union of `ivs` clipped to `[lo, hi)`.
fn union_len(ivs: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    ivs.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in ivs.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(&mut [(0, 5), (3, 8), (10, 12)], 0, 100), 10);
        assert_eq!(union_len(&mut [(0, 50)], 10, 20), 10);
        assert_eq!(union_len(&mut [], 0, 10), 0);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        let s = t.begin("job", 0, SpanId::NONE, 0);
        t.end(s);
        assert_eq!(t.len(), 0);
        assert!(t.self_times().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.scope("job", 3, SpanId::NONE, 0, |job| {
            t.scope("run", 3, job, 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let st = t.self_times();
        assert!(st["run"] >= 0.019);
        assert!(st["job"] < st["run"]);
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"run\"") && json.contains("\"parent\":0"));
    }
}
