//! In-memory span recorder. The benchmark opens a span around every call it
//! makes into a simulator layer (it adds no code inside the simulator), so a
//! layer's host time, its self time, and a Chrome trace all come from the
//! same intervals.

use std::time::Instant;

use m2ndp::sim::json::Json;

use crate::stats::union_len;

/// One timed interval. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer metric the span feeds (e.g. `core.device.run_s`).
    pub name: &'static str,
    /// Start (s).
    pub start: f64,
    /// End (s).
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition number, or request id for per-request spans.
    pub id: u64,
    /// Trace lane: 0 for the benchmark's own thread, 1 + device for
    /// per-request spans stamped on a shard thread.
    pub lane: u32,
}

/// Records spans in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant all span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Seconds since the epoch.
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str, id: u64) -> usize {
        let start = self.now();
        let idx = self.push(name, id, 0, start, start, self.open.last().copied());
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end = self.now();
    }

    /// Times `f` as a span nested in the innermost open one.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name, id);
        let out = f();
        self.close(idx);
        out
    }

    /// Adds a closed span measured elsewhere (a shard thread).
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        lane: u32,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id,
            lane,
        });
        self.spans.len() - 1
    }

    /// The span at `idx`.
    pub fn span(&self, idx: usize) -> &Span {
        &self.spans[idx]
    }

    /// Number of spans recorded so far (a mark for [`Self::totals_since`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration per span name over the spans recorded since `mark`.
    pub fn totals_since(&self, mark: usize) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for s in &self.spans[mark..] {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += s.end - s.start,
                None => out.push((s.name, s.end - s.start)),
            }
        }
        out
    }

    /// Drops the spans recorded since `mark`, open ones included (untraced
    /// repetitions keep only their totals, so span storage never inflates
    /// peak memory; a repetition that panicked leaves its spans open).
    pub fn truncate(&mut self, mark: usize) {
        self.open.retain(|&i| i < mark);
        self.spans.truncate(mark);
    }

    /// Per-name `(name, count, total s, self s)` in first-seen order. A
    /// span's self time is its duration minus the union of its children's
    /// intervals (children on other threads may overlap each other).
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let total = s.end - s.start;
            let own = total - union_len(kids, s.start, s.end);
            match out.iter_mut().find(|(n, ..)| *n == s.name) {
                Some((_, c, t, o)) => {
                    *c += 1;
                    *t += total;
                    *o += own;
                }
                None => out.push((s.name, 1, total, own)),
            }
        }
        out
    }

    /// The spans as a Chrome trace-event document (`ph: "X"` complete
    /// events, microsecond timestamps), loadable in Perfetto.
    pub fn chrome_trace(&self) -> Json {
        let us = |s: f64| Json::F64(s * 1e6);
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("cat".into(), Json::Str("simbench".into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), us(s.start)),
                    ("dur".into(), us(s.end - s.start)),
                    ("pid".into(), Json::U64(0)),
                    ("tid".into(), Json::U64(u64::from(s.lane))),
                    (
                        "args".into(),
                        Json::obj(vec![
                            ("id".into(), Json::U64(s.id)),
                            (
                                "parent".into(),
                                s.parent
                                    .map_or(Json::Null, |p| Json::Str(self.spans[p].name.into())),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![("traceEvents".into(), Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Recorder::new();
        let root = rec.push("root", 0, 1, 0.0, 10.0, None);
        // Two overlapping children (parallel shards) and one disjoint.
        rec.push("child", 1, 1, 1.0, 4.0, Some(root));
        rec.push("child", 2, 2, 3.0, 5.0, Some(root));
        rec.push("child", 3, 1, 8.0, 9.0, Some(root));
        let table = rec.self_times();
        let row = |name| table.iter().find(|r| r.0 == name).copied().unwrap();
        let (_, n, total, own) = row("root");
        assert_eq!((n, total), (1, 10.0));
        assert!((own - (10.0 - 4.0 - 1.0)).abs() < 1e-12);
        let (_, n, total, own) = row("child");
        assert_eq!(n, 3);
        assert!((total - 6.0).abs() < 1e-12 && (own - total).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_total_per_name_and_truncate() {
        let mut rec = Recorder::new();
        let mark = rec.len();
        let outer = rec.open("outer", 0);
        rec.time("inner", 0, || ());
        rec.time("inner", 0, || ());
        rec.close(outer);
        let totals = rec.totals_since(mark);
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].0, "outer");
        assert!(totals[0].1 >= totals[1].1);
        assert_eq!(rec.self_times()[1].1, 2);
        rec.truncate(mark);
        assert_eq!(rec.len(), 0);
    }
}
