//! Harness-side spans: the benchmark times its own calls into each layer's
//! public entry points (spans inside the program are a later change).
//! Spans live in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;
use crate::stats::median;

pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The span that caused this one: the enclosing layer's call for the
    /// same request.
    pub parent: Option<SpanId>,
    /// Spans of one request (or one batch of requests) share this.
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls covered: nanosecond-scale entry points are timed in batches
    /// (one clock read costs as much as the call), so per-call time is
    /// `duration / calls`.
    pub calls: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Times `f` as one span covering `calls` calls into layer `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<SpanId>,
        calls: u32,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = std::hint::black_box(f());
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
            calls,
        });
        (out, (self.spans.len() - 1) as SpanId)
    }

    /// Per-call durations (ns) of every span named `name`.
    pub fn per_call(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / f64::from(s.calls.max(1)))
            .collect()
    }

    /// Median per-call duration of `name` in ns (0 when never recorded).
    pub fn median_ns(&self, name: &str) -> f64 {
        median(&self.per_call(name))
    }

    /// Self time per span: its duration minus what its child spans cover,
    /// floored at zero (children are timed by separate calls, so their sum
    /// can exceed the parent by noise). Grouped by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p as usize] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_sum) {
            out.entry(s.name)
                .or_default()
                .push(s.duration().saturating_sub(kids));
        }
        out
    }

    /// `{summary: {name: {spans, median_ns, median_self_ns}}, spans: [...]}`.
    pub fn json(&self) -> Value {
        let selfs = self.self_times();
        let summary = selfs
            .iter()
            .map(|(name, v)| {
                let own: Vec<f64> = v.iter().map(|&x| x as f64).collect();
                let total: Vec<f64> = self
                    .spans
                    .iter()
                    .filter(|s| s.name == *name)
                    .map(|s| s.duration() as f64)
                    .collect();
                (
                    name.to_string(),
                    Value::obj(vec![
                        ("spans", Value::Num(v.len() as f64)),
                        ("median_ns", Value::Num(median(&total))),
                        ("median_self_ns", Value::Num(median(&own))),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Arr(vec![
                    Value::Num(id as f64),
                    Value::Str(s.name.into()),
                    s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                    Value::Num(f64::from(s.request)),
                    Value::Num(s.start_ns as f64),
                    Value::Num(s.end_ns as f64),
                    Value::Num(f64::from(s.calls)),
                ])
            })
            .collect();
        Value::obj(vec![
            (
                "columns",
                Value::Arr(
                    [
                        "id", "name", "parent", "request", "start_ns", "end_ns", "calls",
                    ]
                    .map(|c| Value::Str(c.into()))
                    .to_vec(),
                ),
            ),
            ("summary", Value::Obj(summary)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_ns: start,
            end_ns: end,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_floors_at_zero() {
        let t = Tracer {
            t0: Instant::now(),
            spans: vec![
                span("tcp.call", None, 0, 450),
                span("front.call", Some(0), 500, 560), // timed by its own call: not inside 0..450
                span("serve.classify", Some(1), 600, 640),
                span("core.pin", Some(2), 700, 715),
                span("core.classify", Some(2), 720, 750), // 15 + 30 > 40: noise
            ],
        };
        let s = t.self_times();
        assert_eq!(s["tcp.call"], vec![390]);
        assert_eq!(s["front.call"], vec![20]);
        assert_eq!(s["serve.classify"], vec![0]);
        assert_eq!(s["core.pin"], vec![15]);
        assert_eq!(s["core.classify"], vec![30]);
    }

    #[test]
    fn batched_spans_report_per_call_time() {
        let mut t = Tracer::default();
        let (v, id) = t.span("x", 3, None, 256, || 7);
        assert_eq!((v, id), (7, 0));
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 25_600;
        assert_eq!(t.median_ns("x"), 100.0);
        assert_eq!(t.median_ns("absent"), 0.0);
        let j = t.json();
        assert_eq!(
            j.get("summary")
                .unwrap()
                .get("x")
                .unwrap()
                .get("spans")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert!(crate::json::parse(&j.to_pretty()).is_ok());
    }
}
