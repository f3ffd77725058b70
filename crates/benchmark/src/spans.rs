//! Host-time spans the benchmark records around its calls into each
//! layer (config build, run, report serialisation, output check).
//!
//! Spans stay in memory and are written once, at the end, to
//! `target/benchmark/<workload>.trace.json`. Each carries a name, start
//! and end in nanoseconds since the recorder was created, the index of
//! its parent span, and the id of the run (one job execution) it belongs
//! to. A disabled recorder records nothing, so untraced passes pay one
//! branch per call.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ompss_json::Json;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u64,
}

/// A shared span recorder; clones record into the same list.
#[derive(Clone)]
pub struct Spans {
    inner: Option<Arc<(Instant, Mutex<Vec<Span>>)>>,
}

/// An open span; pass it to [`Spans::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Spans {
    /// A recorder that records.
    pub fn new() -> Self {
        Spans { inner: Some(Arc::new((Instant::now(), Mutex::new(Vec::new())))) }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans { inner: None }
    }

    fn now_ns(t0: Instant) -> u64 {
        t0.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under `parent` for run `run`.
    pub fn open(&self, name: &'static str, parent: Open, run: u64) -> Open {
        let Some(inner) = &self.inner else { return Open(None) };
        let start_ns = Self::now_ns(inner.0);
        let mut spans = inner.1.lock().expect("span list lock poisoned");
        spans.push(Span { name, start_ns, end_ns: start_ns, parent: parent.0, run });
        Open(Some(spans.len() - 1))
    }

    /// Close a span opened by [`Spans::open`].
    pub fn close(&self, span: Open) {
        if let (Some(inner), Some(i)) = (&self.inner, span.0) {
            let end = Self::now_ns(inner.0);
            inner.1.lock().expect("span list lock poisoned")[i].end_ns = end;
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&self, name: &'static str, parent: Open, run: u64, f: impl FnOnce() -> R) -> R {
        let s = self.open(name, parent, run);
        let r = f();
        self.close(s);
        r
    }

    /// Self time per span name in seconds: each span's duration minus
    /// the part its direct children cover. Zero for a disabled recorder.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let Some(inner) = &self.inner else { return out };
        let spans = inner.1.lock().expect("span list lock poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, c) in spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Every recorded span as a JSON array.
    pub fn to_json(&self) -> Json {
        let mut out = Json::array();
        let Some(inner) = &self.inner else { return out };
        for s in inner.1.lock().expect("span list lock poisoned").iter() {
            let parent = s.parent.map_or(Json::Null, |p| Json::U64(p as u64));
            out.push(
                Json::object()
                    .field("name", s.name)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
                    .field("parent", parent)
                    .field("run", s.run),
            );
        }
        out
    }
}

/// The root of a span tree.
pub const ROOT: Open = Open(None);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::new();
        let job = spans.open("job", ROOT, 7);
        spans.time("run", job, 7, || std::thread::sleep(std::time::Duration::from_millis(5)));
        spans.close(job);
        let own = spans.self_seconds();
        assert!(own["run"] >= 0.005);
        assert!(own["job"] < own["run"], "the child's time is not the parent's own");
        let j = spans.to_json();
        let Json::Arr(items) = &j else { panic!("array") };
        assert_eq!(items[1].get("parent"), Some(&Json::U64(0)));
        assert_eq!(items[1].get("run"), Some(&Json::U64(7)));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let spans = Spans::off();
        let s = spans.open("job", ROOT, 1);
        spans.close(s);
        assert!(spans.self_seconds().is_empty());
        assert_eq!(spans.to_json(), Json::array());
    }
}
