//! The traced run's instruments: harness-side spans kept in memory, and
//! per-item deltas of the program's own `rewire-obs` counters and spans.

use rewire_obs::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One harness span: a call into a layer, timed from outside.
struct Span {
    name: &'static str,
    item: Option<String>,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span recorder. When disabled every call is a no-op, so the
/// untraced run pays nothing for it.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans and counter deltas are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, item: Option<&str>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, item);
        let out = f();
        self.close(id);
        out
    }

    /// Opens a span that [`Tracer::close`] ends, for regions whose body
    /// needs `&mut self` (spans opened inside it nest under this one).
    pub fn open(&mut self, name: &'static str, item: Option<&str>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            item: item.map(str::to_string),
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Ends a span begun with [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].end_ns = self.origin.elapsed().as_nanos();
        }
    }

    /// The spans as JSON lines: id, parent, name, item, start and end in
    /// microseconds since the recorder was made.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let item = s
                .item
                .as_deref()
                .map_or("null".to_string(), |i| format!("\"{i}\""));
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"item\":{item},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            );
        }
        out
    }
}

/// What the program recorded between two snapshots, summed over scopes:
/// counters by name and span time by the span's last path component.
#[derive(Clone, Debug, Default)]
pub struct Work {
    /// Counter increments by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Span nanoseconds by leaf name (`"run/attempt/amend"` → `"amend"`).
    pub span_ns: BTreeMap<String, u64>,
}

impl Work {
    /// The work recorded between `before` and `after`.
    pub fn between(before: &Snapshot, after: &Snapshot) -> Self {
        let mut work = Work::default();
        for (scope, snap) in &after.scopes {
            let prev = before.scopes.get(scope);
            for (name, &v) in &snap.counters {
                let old = prev
                    .and_then(|p| p.counters.get(name))
                    .copied()
                    .unwrap_or(0);
                *work.counters.entry(name.clone()).or_default() += v.saturating_sub(old);
            }
            for (path, span) in &snap.spans {
                let old = prev
                    .and_then(|p| p.spans.get(path))
                    .map_or(0, |s| s.total_ns);
                let leaf = path.rsplit('/').next().unwrap_or(path);
                *work.span_ns.entry(leaf.to_string()).or_default() +=
                    span.total_ns.saturating_sub(old);
            }
        }
        work
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &Work) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.span_ns {
            *self.span_ns.entry(k.clone()).or_default() += v;
        }
    }

    /// A counter's total (0 when never recorded).
    pub fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A span leaf's total, in seconds.
    pub fn secs(&self, leaf: &str) -> f64 {
        self.span_ns.get(leaf).copied().unwrap_or(0) as f64 / 1e9
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_obs::Registry;

    #[test]
    fn work_is_the_difference_summed_over_scopes() {
        let reg = Registry::new();
        {
            let _s = reg.scope("a");
            reg.counter("router.expansions").add(5);
        }
        let before = reg.snapshot();
        {
            let _s = reg.scope("a");
            reg.counter("router.expansions").add(2);
            let _t = reg.span("run");
            let _u = reg.span("amend");
        }
        {
            let _s = reg.scope("b");
            reg.counter("router.expansions").add(3);
        }
        let work = Work::between(&before, &reg.snapshot());
        assert_eq!(work.count("router.expansions"), 5);
        assert_eq!(work.count("missing"), 0);
        assert!(work.span_ns.contains_key("amend"), "{:?}", work.span_ns);
    }

    #[test]
    fn spans_nest_and_serialise() {
        let mut t = Tracer::new(true);
        let outer = t.open("pass", None);
        t.span("map", Some("fir@paper_4x4_r4"), || ());
        t.close(outer);
        let lines = t.to_jsonl();
        let lines: Vec<&str> = lines.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"pass\"") && lines[0].contains("\"parent\":null"));
        assert!(
            lines[1].contains("\"parent\":0") && lines[1].contains("\"item\":\"fir@paper_4x4_r4\"")
        );

        let mut off = Tracer::new(false);
        assert_eq!(off.span("map", None, || 7), 7);
        assert!(off.to_jsonl().is_empty());
    }
}
