//! Benchmark-side spans around each call into a layer.
//!
//! Spans are kept in memory and written once, at exit, so recording them
//! costs two clock reads and a push. A span's self time is its duration
//! minus the part of that interval its child spans cover.

use std::time::Instant;

use crate::record::{json_str, Json};

/// One closed or open span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    /// `None` while open.
    end_ns: Option<u64>,
    parent: Option<usize>,
    workload: Option<&'static str>,
    round: Option<usize>,
}

/// Where a span sits: its parent span, workload and round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    pub parent: Option<usize>,
    pub workload: Option<&'static str>,
    pub round: Option<usize>,
}

/// The span log of one benchmark process.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id.
    pub fn open(&mut self, name: &'static str, ctx: Ctx) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: None,
            parent: ctx.parent,
            workload: ctx.workload,
            round: ctx.round,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`; returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = Some(end);
        (end - s.start_ns) as f64 * 1e-9
    }

    /// A child context of span `id`.
    pub fn child(&self, id: usize) -> Ctx {
        let s = &self.spans[id];
        Ctx {
            parent: Some(id),
            workload: s.workload,
            round: s.round,
        }
    }

    /// Times `f` as span `name` under `ctx`; returns its result and the
    /// span's duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, ctx: Ctx, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(name, ctx);
        let r = f();
        (r, self.close(id))
    }

    /// Self time of every closed span: its duration minus the union of its
    /// closed children's intervals (children never overlap here, since the
    /// benchmark runs on one thread, so the union is a sum).
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), Some(end)) = (s.parent, s.end_ns) {
                child_ns[p] += end - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.end_ns.map_or(0, |e| (e - s.start_ns).saturating_sub(c)))
            .collect()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> Json {
        let self_ns = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.end_ns.is_some())
                .map(|(id, s)| {
                    let opt = |v: Option<usize>| v.map_or(Json::Null, |x| Json::Num(x as f64));
                    Json::Obj(vec![
                        ("id".into(), Json::Num(id as f64)),
                        ("name".into(), json_str(s.name)),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns.unwrap_or(0) as f64)),
                        ("self_ns".into(), Json::Num(self_ns[id] as f64)),
                        ("parent".into(), opt(s.parent)),
                        ("workload".into(), s.workload.map_or(Json::Null, json_str)),
                        ("round".into(), opt(s.round)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new();
        let root = sp.open("round", Ctx::default());
        let ctx = sp.child(root);
        sp.time("run", ctx, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.close(root);
        let dur = |s: &Span| s.end_ns.unwrap() - s.start_ns;
        let self_ns = sp.self_ns();
        assert_eq!(self_ns[0], dur(&sp.spans[0]) - dur(&sp.spans[1]));
        assert_eq!(self_ns[1], dur(&sp.spans[1]));
        assert_eq!(sp.spans[1].parent, Some(0));
    }
}
