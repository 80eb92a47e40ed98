//! In-memory spans for the traced pass.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (a root span around every call into the program, child spans from
//! the wrappers in [`crate::wrap`]), kept in memory, and written out
//! once when the run ends. A span's self time is its duration minus
//! the part of that interval its children cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::{obj, Value};

/// Raw spans written per trace file; the rest are in the aggregate.
/// (`fleet_reject` records a million `workload.next_plan` spans.)
const MAX_RAW_SPANS: usize = 20_000;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-(name, parent name) totals over every recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The clock every span of this trace is stamped against.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        let at = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| {
                self.names.push(name);
                self.names.len() - 1
            });
        u16::try_from(at).expect("a trace has a handful of span names")
    }

    /// Runs `f` inside a root span and returns the span's id with `f`'s
    /// result.
    pub fn root<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (u32, R) {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        (self.root_at(name, start_ns, end_ns), r)
    }

    /// Records a root span the caller timed against [`Self::epoch`].
    pub fn root_at(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let name = self.name_id(name);
        self.spans.push(Span {
            name,
            parent: NO_PARENT,
            start_ns,
            end_ns,
        });
        self.spans.len() as u32 - 1
    }

    /// Records the child spans a wrapper collected during root `parent`.
    pub fn children(
        &mut self,
        parent: u32,
        name: &'static str,
        intervals: impl IntoIterator<Item = (u64, u64)>,
    ) {
        let name = self.name_id(name);
        self.spans
            .extend(intervals.into_iter().map(|(start_ns, end_ns)| Span {
                name,
                parent,
                start_ns,
                end_ns,
            }));
    }

    /// `(start, end)` of every span called `name`, in recording order.
    pub fn intervals(&self, name: &str) -> Vec<(u64, u64)> {
        self.spans
            .iter()
            .filter(|s| self.names[s.name as usize] == name)
            .map(|s| (s.start_ns, s.end_ns))
            .collect()
    }

    /// `(start, end)` of every root span, in recording order.
    pub fn roots(&self) -> Vec<(u64, u64)> {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| (s.start_ns, s.end_ns))
            .collect()
    }

    /// Total time inside root spans.
    pub fn root_ns(&self) -> u64 {
        self.roots().iter().map(|(start, end)| end - start).sum()
    }

    /// Totals per (name, parent name), in first-seen order.
    pub fn aggregate(&self) -> Vec<Aggregate> {
        let mut kids: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent != NO_PARENT) {
            kids.entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: Vec<Aggregate> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let name = self.names[s.name as usize];
            let parent = (s.parent != NO_PARENT)
                .then(|| self.names[self.spans[s.parent as usize].name as usize]);
            let busy = s.end_ns - s.start_ns;
            let covered = kids
                .get_mut(&(i as u32))
                .map_or(0, |k| covered_ns((s.start_ns, s.end_ns), k));
            let at = out
                .iter()
                .position(|a| a.name == name && a.parent == parent)
                .unwrap_or_else(|| {
                    out.push(Aggregate {
                        name,
                        parent,
                        count: 0,
                        busy_ns: 0,
                        self_ns: 0,
                    });
                    out.len() - 1
                });
            out[at].count += 1;
            out[at].busy_ns += busy;
            out[at].self_ns += busy - covered;
        }
        out
    }

    /// Writes `trace-<workload>.json` into `dir`: the totals in
    /// `aggregate` (from [`Self::aggregate`]) and the first raw spans.
    pub fn write(&self, dir: &Path, aggregate: &[Aggregate]) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let num = |n: u64| Value::Num(n as f64);
        let aggregate = aggregate.iter().map(|a| {
            obj([
                ("name", Value::Str(a.name.into())),
                (
                    "parent",
                    a.parent.map_or(Value::Null, |p| Value::Str(p.into())),
                ),
                ("count", num(a.count)),
                ("busy_ns", num(a.busy_ns)),
                ("self_ns", num(a.self_ns)),
            ])
        });
        let spans = self.spans.iter().take(MAX_RAW_SPANS).map(|s| {
            obj([
                ("name", Value::Str(self.names[s.name as usize].into())),
                ("start_ns", num(s.start_ns)),
                ("end_ns", num(s.end_ns)),
                (
                    "parent",
                    if s.parent == NO_PARENT {
                        Value::Null
                    } else {
                        num(u64::from(s.parent))
                    },
                ),
            ])
        });
        let doc = obj([
            ("workload", Value::Str(self.workload.into())),
            ("spans_recorded", num(self.spans.len() as u64)),
            ("aggregate", Value::Arr(aggregate.collect())),
            ("spans", Value::Arr(spans.collect())),
        ]);
        std::fs::write(
            dir.join(format!("trace-{}.json", self.workload)),
            doc.render_pretty(),
        )
    }
}

/// `(count, busy_ns, self_ns)` summed over every aggregate row called
/// `name`, whatever its parent.
pub fn totals(aggregate: &[Aggregate], name: &str) -> (u64, u64, u64) {
    aggregate
        .iter()
        .filter(|a| a.name == name)
        .fold((0, 0, 0), |(c, b, s), a| {
            (c + a.count, b + a.busy_ns, s + a.self_ns)
        })
}

/// How much of `parent` its `children` cover: the length of the union
/// of the child intervals, each clipped to the parent. Sorts
/// `children` in place.
pub fn covered_ns(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut frontier = parent.0;
    for &(start, end) in children.iter() {
        let (start, end) = (start.max(frontier), end.min(parent.1));
        if end > start {
            covered += end - start;
            frontier = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_is_the_union_of_children_clipped_to_the_parent() {
        // Disjoint children.
        assert_eq!(covered_ns((0, 100), &mut [(10, 20), (30, 50)]), 30);
        // Overlapping and nested children count once.
        assert_eq!(
            covered_ns((0, 100), &mut [(10, 40), (30, 50), (35, 38)]),
            40
        );
        // Children poking out of the parent are clipped.
        assert_eq!(covered_ns((10, 60), &mut [(0, 20), (50, 90), (95, 99)]), 20);
        // Order does not matter; empty children cover nothing.
        assert_eq!(covered_ns((0, 100), &mut [(30, 50), (10, 20)]), 30);
        assert_eq!(covered_ns((0, 100), &mut []), 0);
    }

    #[test]
    fn self_time_is_span_minus_child_cover() {
        let mut t = Tracer::new("unit");
        let (root, ()) = t.root("outer", || ());
        // Pin the root to a known interval, then hang children off it.
        t.spans[root as usize].start_ns = 1_000;
        t.spans[root as usize].end_ns = 2_000;
        t.children(
            root,
            "inner",
            [(1_100, 1_300), (1_250, 1_400), (1_900, 2_500)],
        );
        let agg = t.aggregate();
        let outer = agg.iter().find(|a| a.name == "outer").unwrap();
        assert_eq!((outer.count, outer.busy_ns, outer.self_ns), (1, 1_000, 600));
        let inner = agg.iter().find(|a| a.name == "inner").unwrap();
        assert_eq!(inner.parent, Some("outer"));
        assert_eq!((inner.count, inner.busy_ns, inner.self_ns), (3, 950, 950));
        assert_eq!(t.root_ns(), 1_000);
        assert_eq!(totals(&agg, "inner"), (3, 950, 950));
    }
}
