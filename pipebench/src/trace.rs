//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! library crate; the library itself is not instrumented. A disabled
//! [`Tracer`] records nothing and reads no clock, so the untraced runs
//! that produce the end-to-end numbers pay one branch per span.

use cs_core::json::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span: times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, `<layer>.<operation>` (`run` and `setup` are roots).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list, if any.
    pub parent: Option<usize>,
    /// The pipeline run (or set-up) this span belongs to.
    pub run: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on a single thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Tracer {
    /// A tracer that records when `enabled` and is a no-op otherwise.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Sets the run id stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Runs `work` inside a span named `name`; nested spans opened by
    /// `work` through the tracer it receives become its children.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return work(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = work(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span in nanoseconds: its duration minus the part of
/// its interval covered by its direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per run id: the summed self time in milliseconds of each span name.
pub fn self_ms_by_run(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
    let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.run).or_default().entry(s.name).or_default() += self_ns as f64 / 1e6;
    }
    out
}

/// Share of run `run`'s root span (`name`, no parent) that none of its
/// children cover; NaN when the run has no such root.
pub fn root_self_share(spans: &[Span], self_ns: &[u64], name: &str, run: u64) -> f64 {
    spans
        .iter()
        .position(|s| s.run == run && s.name == name && s.parent.is_none())
        .map_or(f64::NAN, |i| {
            self_ns[i] as f64 / spans[i].duration_ns().max(1) as f64
        })
}

/// The spans as a JSON array (times in microseconds).
pub fn spans_json(spans: &[Span]) -> JsonValue {
    JsonValue::Array(
        spans
            .iter()
            .map(|s| {
                JsonValue::object(vec![
                    ("name", JsonValue::String(s.name.to_string())),
                    ("start_us", JsonValue::Number(s.start_ns as f64 / 1e3)),
                    ("end_us", JsonValue::Number(s.end_ns as f64 / 1e3)),
                    (
                        "parent",
                        s.parent
                            .map_or(JsonValue::Null, |p| JsonValue::Number(p as f64)),
                    ),
                    ("run", JsonValue::Number(s.run as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start * MS,
            end_ns: end * MS,
            parent,
            run: 7,
        }
    }

    #[test]
    fn parent_self_time_excludes_children() {
        // A 10 ms parent with 3 ms and 4 ms children keeps 3 ms of its own.
        let spans = vec![
            span("run", 0, 10, None),
            span("core.fit", 1, 4, Some(0)),
            span("core.assess", 5, 9, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![3 * MS, 3 * MS, 4 * MS]);
        let by_run = self_ms_by_run(&spans);
        assert_eq!(by_run[&7]["run"], 3.0);
    }

    #[test]
    fn root_share_exposes_an_untimed_step() {
        // 2 ms of the 10 ms root fall in no child: a 20% untimed share.
        let spans = vec![
            span("run", 0, 10, None),
            span("embed.encode", 0, 4, Some(0)),
            span("core.scope", 6, 10, Some(0)),
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(root_self_share(&spans, &self_ns, "run", 7), 0.2);
        assert!(root_self_share(&spans, &self_ns, "run", 8).is_nan());
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span("run", 0, 10, None),
            span("core.scope", 0, 6, Some(0)),
            span("core.fit", 1, 5, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![4 * MS, 2 * MS, 4 * MS]);
    }

    #[test]
    fn same_name_spans_sum_per_run() {
        let mut spans = vec![
            span("run", 0, 10, None),
            span("core.assess", 0, 2, Some(0)),
            span("core.assess", 2, 5, Some(0)),
        ];
        spans.push(Span {
            run: 8,
            ..span("core.assess", 20, 21, None)
        });
        let by_run = self_ms_by_run(&spans);
        assert_eq!(by_run[&7]["core.assess"], 5.0);
        assert_eq!(by_run[&8]["core.assess"], 1.0);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut on = Tracer::new(true);
        on.set_run(3);
        let v = on.span("run", |t| t.span("embed.encode", |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("run", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
