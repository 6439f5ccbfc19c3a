//! In-memory spans recorded by the benchmark around each call into a
//! layer of the program.
//!
//! A span is `(id, parent, op, name, start, end, attrs)`; spans of one
//! benchmark operation share its `op` id. With tracing off every call
//! is a no-op (the id allocator still counts, so call sites need no
//! branches). Spans are written out as one JSON document when the run
//! ends and summarized into the per-layer table by name.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    /// The named attribute, if recorded.
    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// The span store. Shared by reference across client threads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Allocates a span id (also used as the op id of a root span).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span; a no-op with tracing off.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, f64)>,
    ) {
        if !self.on {
            return;
        }
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            op,
            name,
            start,
            end,
            attrs,
        });
    }

    /// Records a child span of `parent` with a fresh id.
    pub fn child(
        &self,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, f64)>,
    ) {
        if self.on {
            let id = self.id();
            self.record(id, Some(parent), op, name, start, end, attrs);
        }
    }

    /// Runs `f` over the spans named `name`.
    pub fn with_named<R>(&self, name: &str, f: impl FnOnce(Vec<&Span>) -> R) -> R {
        let spans = self.spans.lock().expect("span store poisoned");
        f(spans.iter().filter(|s| s.name == name).collect())
    }

    /// Durations (ms) of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.with_named(name, |v| v.iter().map(|s| s.ms()).collect())
    }

    /// Values of attribute `key` on the spans named `name`.
    pub fn attr_values(&self, name: &str, key: &str) -> Vec<f64> {
        self.with_named(name, |v| v.iter().filter_map(|s| s.attr(key)).collect())
    }

    /// Sum of attribute `key` over the spans named `name`.
    pub fn attr_sum(&self, name: &str, key: &str) -> f64 {
        self.attr_values(name, key).iter().sum()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// The spans as JSON: `{"spans":[{"id","parent","op","name",
    /// "start_us","end_us","attrs":{…}}, …]}`, times relative to the
    /// tracer's creation.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned");
        let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
        let mut out = String::from("{\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"attrs\":{{",
                s.id,
                s.op,
                s.name,
                us(s.start),
                us(s.end)
            );
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{}", json_num(*v));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// A finite JSON number (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_nests() {
        let off = Tracer::new(false);
        let t = Instant::now();
        off.child(1, 1, "x", t, t, vec![]);
        assert_eq!(off.len(), 0);
        let on = Tracer::new(true);
        let root = on.id();
        on.child(root, root, "filter", t, t, vec![("cells", 3.0)]);
        on.record(root, None, root, "op.search", t, t, vec![]);
        assert_eq!(on.attr_sum("filter", "cells"), 3.0);
        let json = on.to_json();
        assert!(json.contains("\"parent\":1"), "{json}");
        assert!(json.contains("\"name\":\"op.search\""), "{json}");
    }
}
