//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), the span that caused it, and the op it served. Self time is a
//! span's duration minus the time its child spans cover. Totals are kept
//! for every span; the span records themselves are kept for one op in
//! [`KEEP_EVERY`], for the main thread's spans not tied to an op, and for
//! one in [`KEEP_EVERY`] of the generator's, so the written trace stays
//! small at full run length.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One in this many ops (and generator spans not tied to an op) keeps its
/// span records.
pub const KEEP_EVERY: u64 = 16;

/// Marks a span not tied to one op.
pub const NO_OP: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u64,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    op: u64,
    child_ns: u64,
}

/// One thread's tracer: a stack of open spans plus the finished records.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    pub spans: Vec<Span>,
    pub totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// `thread` keeps span ids of different threads apart.
    pub fn new(epoch: Instant, thread: u64) -> Self {
        Tracer {
            epoch,
            next_id: (thread << 48) + 1,
            stack: Vec::new(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            name,
            start_ns,
            op,
            child_ns: 0,
        });
    }

    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("end() matches a begin()");
        let dur = end_ns - open.start_ns;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        let keep = if open.op == NO_OP {
            open.id >> 48 == 0 || open.id.is_multiple_of(KEEP_EVERY)
        } else {
            open.op.is_multiple_of(KEEP_EVERY)
        };
        if keep {
            self.spans.push(Span {
                id: open.id,
                parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                op: open.op,
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.begin(name, op);
        let out = f(self);
        self.end();
        out
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
    }

    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// One JSON object per line per kept span.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        for s in &spans {
            let op = if s.op == NO_OP {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"op\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, op
            );
        }
        out
    }

    /// Per-name totals as a JSON object.
    pub fn totals_json(&self) -> String {
        let rows: Vec<String> = self
            .totals
            .iter()
            .map(|(name, t)| {
                format!(
                    "    \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    t.count, t.total_ns, t.self_ns
                )
            })
            .collect();
        format!("{{\n{}\n  }}", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.span("outer", 0, |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let (outer, inner) = (t.totals("outer"), t.totals("inner"));
        assert_eq!(inner.total_ns, inner.self_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        let child = t.spans.iter().find(|s| s.name == "inner").unwrap();
        let parent = t.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(child.parent, parent.id);
        assert_eq!(parent.parent, 0);
    }
}
