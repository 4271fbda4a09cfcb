//! The traced run's span recorder.
//!
//! One span per call the benchmark makes into a layer: name, start, end,
//! parent, and a group id shared by the spans of one build or one drain.
//! Builder phases reported through `BuildObserver::on_span` become child
//! spans of the build call. Spans stay in memory and are written out as a
//! Chrome trace-event file when the run ends.

use goldfinger_obs::Json;
use std::path::Path;
use std::time::{Duration, Instant};

pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    group: u64,
    start: Instant,
    end: Instant,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            group,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let me = &self.spans[id];
        let mut children: Vec<(Instant, Instant)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(me.start), s.end.min(me.end)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort();
        let mut covered = Duration::ZERO;
        let mut reach: Option<Instant> = None;
        for (a, b) in children {
            let a = reach.map_or(a, |r| a.max(r));
            if b > a {
                covered += b - a;
                reach = Some(b);
            }
        }
        me.duration().saturating_sub(covered)
    }

    /// Writes every span as a Chrome trace-event ("X" complete event) file.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let micros = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(micros(s.start))),
                    ("dur", Json::Num(s.duration().as_secs_f64() * 1e6)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("group", Json::Num(s.group as f64)),
                            ("self_us", Json::Num(self.self_time(id).as_secs_f64() * 1e6)),
                        ]),
                    ),
                ])
            })
            .collect();
        std::fs::write(
            path,
            Json::obj(vec![("traceEvents", Json::Arr(events))]).render(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new();
        let root = tr.record("build", None, 0, at(0), at(100));
        tr.record("a", Some(root), 0, at(10), at(30));
        tr.record("b", Some(root), 0, at(20), at(50)); // overlaps a
        tr.record("c", Some(root), 0, at(90), at(120)); // clipped at 100
        assert_eq!(tr.self_time(root), Duration::from_millis(100 - 40 - 10));
    }
}
