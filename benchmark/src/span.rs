//! The traced run's span recorder. Spans are recorded from the benchmark's
//! side of each call into a layer, kept in memory, and written out once at
//! the end (`trace-<workload>.json`).

use crate::json::J;
use std::time::Instant;

/// One recorded interval. Times are microseconds since the recorder began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Calls into the layer made inside this span.
    pub calls: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Recorder {
    workload: String,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent,
            calls: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now, noting how many layer calls it covered.
    pub fn close(&mut self, id: usize, calls: u64) {
        let now = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = now;
        span.calls = calls;
    }

    /// Time `f` as one child span of `parent` covering `calls` layer calls;
    /// returns the span's duration in microseconds.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let out = f();
        self.close(id, calls);
        (out, self.spans[id].duration_us())
    }

    /// Self time of a span: its duration minus the part of it its child
    /// spans cover (overlapping children are not counted twice).
    pub fn self_time_us(&self, id: usize) -> f64 {
        self_time_us(&self.spans, id)
    }

    pub fn to_json(&self) -> J {
        J::obj(vec![
            ("workload", J::str(&self.workload)),
            ("unit", J::str("us since trace start")),
            (
                "spans",
                J::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            J::obj(vec![
                                ("id", J::Num(id as f64)),
                                ("name", J::str(&s.name)),
                                ("start", J::Num(s.start_us)),
                                ("end", J::Num(s.end_us)),
                                (
                                    "parent",
                                    s.parent.map_or(J::Raw("null".into()), |p| J::Num(p as f64)),
                                ),
                                ("calls", J::Num(s.calls as f64)),
                                ("workload", J::str(&self.workload)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// See [`Recorder::self_time_us`].
pub fn self_time_us(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::MIN;
    for (a, b) in children {
        let from = a.max(reach);
        if b > from {
            covered += b - from;
            reach = b;
        }
    }
    me.duration_us() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_us: start,
            end_us: end,
            parent,
            calls: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 30.0, Some(0)),
            span(20.0, 50.0, Some(0)), // overlaps the first child by 10
            span(60.0, 70.0, Some(0)),
            span(62.0, 65.0, Some(3)),  // grandchild: not the root's child
            span(90.0, 120.0, Some(0)), // clipped to the parent's end
        ];
        // Children cover [10,50] + [60,70] + [90,100] = 60.
        assert_eq!(self_time_us(&spans, 0), 40.0);
        assert_eq!(self_time_us(&spans, 3), 7.0);
        assert_eq!(self_time_us(&spans, 1), 20.0);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut r = Recorder::new("chain");
        let root = r.open("trace", None);
        let (v, us) = r.time("layer", Some(root), 1024, || 7);
        r.close(root, 0);
        assert_eq!(v, 7);
        assert!(us >= 0.0 && r.self_time_us(root) >= 0.0);
        let text = r.to_json().to_text();
        let back = streamloader::obs::json::parse(&text).expect("valid JSON");
        let spans = back.as_obj().unwrap()["spans"].as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        let child = spans[1].as_obj().unwrap();
        assert_eq!(child["parent"].as_u64(), Some(0));
        assert_eq!(child["calls"].as_u64(), Some(1024));
        assert_eq!(child["workload"].as_str(), Some("chain"));
    }
}
