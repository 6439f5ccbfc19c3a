//! End-to-end tests of the per-query tracing layer over the wire:
//! client-requested span trees (protocol v4), the queue/service
//! timing split, the slow-query ring, and the Prometheus metrics
//! exposition (framed op and plain-HTTP endpoint).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use warptree_core::categorize::Alphabet;
use warptree_core::sequence::SequenceStore;
use warptree_disk::{build_dir_with, real_vfs, TreeKind};
use warptree_server::client::{encode_query, ingest_request};
use warptree_server::json::{self, Json};
use warptree_server::{Client, Server, ServerConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("warptree-trace-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn build_index(dir: &Path) -> SequenceStore {
    let mut values = Vec::new();
    for s in 0..8u32 {
        let len = 14 + (s as usize * 5) % 12;
        let seq: Vec<f64> = (0..len)
            .map(|j| ((s as usize * 7 + j * 3) % 19) as f64 * 0.5)
            .collect();
        values.push(seq);
    }
    let store = SequenceStore::from_values(values);
    let alphabet = Alphabet::equal_length(&store, 5).unwrap();
    build_dir_with(
        real_vfs(),
        &store,
        &alphabet,
        TreeKind::Full,
        1,
        1,
        None,
        dir,
    )
    .unwrap();
    store
}

fn search_body_v(query: &[f64], epsilon: f64, version: u32, trace: &str) -> String {
    format!(
        "{{\"op\":\"search\",\"version\":{version},\"query\":{},\"epsilon\":{epsilon}{trace}}}",
        encode_query(query)
    )
}

fn span_names(trace: &Json) -> Vec<String> {
    trace
        .get("spans")
        .and_then(|s| s.as_arr())
        .unwrap()
        .iter()
        .map(|s| s.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect()
}

/// The tentpole acceptance path: a v4 client asks for a trace and gets
/// the whole funnel back — per-segment filter fan-out, postprocess,
/// pager I/O attribution, the server service span — while the result
/// bytes stay identical to the untraced (and v3) response.
#[test]
fn traced_search_returns_funnel_span_tree_with_identical_results() {
    let dir = tmpdir("funnel");
    let store = build_index(&dir);
    let query: Vec<f64> = store.iter().next().unwrap().1.values()[2..8].to_vec();

    let config = ServerConfig {
        trace_sample: 0, // only client-requested traces
        slow_ms: 0,
        ..ServerConfig::default()
    };
    let handle = Server::start(&dir, config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Ingest a tail segment so the filter fans out over base + segment
    // and the trace can attribute work per segment.
    let seg: Vec<Vec<f64>> = vec![store.iter().nth(1).unwrap().1.values().to_vec()];
    let resp = client.request(&ingest_request(&seg)).unwrap();
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));

    let v3 = client
        .request_raw(&search_body_v(&query, 1.5, 3, ""))
        .unwrap();
    let v4_plain = client
        .request_raw(&search_body_v(&query, 1.5, 4, ""))
        .unwrap();
    let v4_traced = client
        .request_raw(&search_body_v(
            &query,
            1.5,
            4,
            ",\"trace\":true,\"trace_id\":\"e2e-1\"",
        ))
        .unwrap();

    // v3 responses are byte-identical to the pre-tracing protocol: no
    // timings, no trace.
    assert!(!v3.contains("\"timings\""), "{v3}");
    assert!(!v3.contains("\"trace\""), "{v3}");
    // v4 gets the timing split on every ok response; the trace only on
    // request. The result prefix (generation/count/matches) is shared
    // by all three, byte for byte.
    let prefix = v3.strip_suffix('}').unwrap();
    assert!(v4_plain.starts_with(prefix), "{v4_plain}");
    assert!(
        v4_plain.contains("\"timings\":{\"queue_ns\":"),
        "{v4_plain}"
    );
    assert!(!v4_plain.contains("\"trace\""), "{v4_plain}");
    assert!(v4_traced.starts_with(prefix), "{v4_traced}");

    let parsed = json::parse(&v4_traced).unwrap();
    let timings = parsed.get("timings").unwrap();
    assert!(timings.get("queue_ns").and_then(|v| v.as_u64()).is_some());
    assert!(timings.get("service_ns").and_then(|v| v.as_u64()).is_some());
    let trace = parsed
        .get("trace")
        .expect("traced response carries a trace");
    assert_eq!(
        trace.get("trace_id").and_then(|v| v.as_str()),
        Some("e2e-1")
    );
    let names = span_names(trace);
    for want in [
        "server.service",
        "filter",
        "filter.segment",
        "postprocess",
        "pager.io",
    ] {
        assert!(
            names.iter().any(|n| n == want),
            "span {want:?} missing from {names:?}"
        );
    }
    // The segment fan-out is attributed: base tree + one ingested
    // segment → two filter.segment spans.
    assert_eq!(names.iter().filter(|n| *n == "filter.segment").count(), 2);

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sampling traces 1-in-N requests without the client asking, and the
/// completed traces land in the slow-query ring behind `{"op":"slowlog"}`.
#[test]
fn sampled_traces_land_in_the_slowlog_ring() {
    let dir = tmpdir("slowlog");
    let store = build_index(&dir);
    let query: Vec<f64> = store.iter().next().unwrap().1.values()[0..5].to_vec();

    let config = ServerConfig {
        trace_sample: 1, // trace every request
        slow_ms: 0,      // threshold capture off: entries come from sampling alone
        slowlog_capacity: 8,
        ..ServerConfig::default()
    };
    let handle = Server::start(&dir, config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    for _ in 0..3 {
        let resp = client
            .request_raw(&search_body_v(&query, 1.0, 4, ""))
            .unwrap();
        assert!(resp.contains("\"ok\":true"), "{resp}");
        // Sampler-only traces stay server-side: the response is not
        // burdened with a trace the client never asked for.
        assert!(!resp.contains("\"trace\""), "{resp}");
    }

    let resp = client.request(r#"{"op":"slowlog","version":4}"#).unwrap();
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    let entries = resp.get("entries").and_then(|e| e.as_arr()).unwrap();
    assert!(
        entries.len() >= 3,
        "expected >=3 entries, got {}",
        entries.len()
    );
    let newest = &entries[0];
    assert_eq!(newest.get("op").and_then(|v| v.as_str()), Some("search"));
    assert!(newest.get("dur_ns").and_then(|v| v.as_u64()).is_some());
    assert!(newest.get("queue_ns").and_then(|v| v.as_u64()).is_some());
    assert!(newest.get("unix_ms").and_then(|v| v.as_u64()).unwrap() > 0);
    let trace = newest.get("trace").expect("sampled entry keeps its trace");
    assert!(span_names(trace).iter().any(|n| n == "filter"));

    // The ring size satellite: stats exposes server.slowlog_entries.
    let stats = client.stats().unwrap();
    let gauge = stats
        .get("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.get("server.slowlog_entries"))
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(gauge >= 3.0, "gauge {gauge}");

    // v3 clients cannot reach the v4 ops.
    let resp = client
        .request_raw(r#"{"op":"slowlog","version":3}"#)
        .unwrap();
    assert!(resp.contains("\"code\":\"unsupported_version\""), "{resp}");

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The span in `trace` named `name`; panics if absent.
fn span<'a>(trace: &'a Json, name: &str) -> &'a Json {
    trace
        .get("spans")
        .and_then(|s| s.as_arr())
        .unwrap()
        .iter()
        .find(|s| s.get("name").and_then(|n| n.as_str()) == Some(name))
        .unwrap_or_else(|| panic!("span {name:?} missing from {}", trace.render()))
}

/// The wire path decomposes: a traced request records `encode` (the
/// response rendering) and `write` (the frame write) spans under its
/// `server.service` span, the ring entry is completed after the write
/// so it carries both, and `server.response_bytes` counts every
/// response payload byte.
#[test]
fn encode_and_write_spans_and_response_bytes() {
    let dir = tmpdir("wire");
    let store = build_index(&dir);
    let query: Vec<f64> = store.iter().next().unwrap().1.values()[0..5].to_vec();
    let config = ServerConfig {
        trace_sample: 1,
        slow_ms: 0,
        ..ServerConfig::default()
    };
    let handle = Server::start(&dir, config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let mut sent_bytes = 0u64;
    let mut last = String::new();
    for eps in [0.5, 1.5] {
        last = client
            .request_raw(&search_body_v(&query, eps, 4, ""))
            .unwrap();
        assert!(last.contains("\"ok\":true"), "{last}");
        sent_bytes += last.len() as u64;
    }

    // Same connection: the previous request's entry is in the ring
    // before this frame is read.
    let resp = client
        .request_raw(r#"{"op":"slowlog","version":4}"#)
        .unwrap();
    sent_bytes += resp.len() as u64;
    let parsed = json::parse(&resp).unwrap();
    let newest = &parsed.get("entries").and_then(|e| e.as_arr()).unwrap()[0];
    let trace = newest.get("trace").expect("sampled entry keeps its trace");
    let service = span(trace, "server.service").get("id").cloned();
    for name in ["encode", "write"] {
        assert_eq!(
            span(trace, name).get("parent").cloned(),
            service,
            "{name} is a child of server.service"
        );
    }
    let write = span(trace, "write");
    assert_eq!(
        write
            .get("attrs")
            .and_then(|a| a.get("bytes"))
            .and_then(|b| b.as_u64()),
        Some(last.len() as u64)
    );
    assert!(write.get("dur_ns").and_then(|d| d.as_u64()).unwrap() > 0);

    let stats = client.stats().unwrap();
    let counted = stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("server.response_bytes"))
        .and_then(|v| v.as_u64());
    assert_eq!(counted, Some(sent_bytes));

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The metrics exposition satellite: the same Prometheus text is
/// served over the framed `{"op":"metrics"}` op and the plain-HTTP
/// `GET /metrics` endpoint, with `# TYPE` lines and no duplicates.
#[test]
fn metrics_exposition_over_frame_and_http() {
    let dir = tmpdir("expo");
    let store = build_index(&dir);
    let query: Vec<f64> = store.iter().next().unwrap().1.values()[0..5].to_vec();

    let config = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let handle = Server::start(&dir, config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client
        .request_raw(&search_body_v(&query, 1.0, 4, ""))
        .unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");

    let framed = client.request(r#"{"op":"metrics","version":4}"#).unwrap();
    assert_eq!(framed.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        framed.get("format").and_then(|v| v.as_str()),
        Some("prometheus-0.0.4")
    );
    let exposition = framed
        .get("exposition")
        .and_then(|v| v.as_str())
        .unwrap()
        .to_string();
    assert!(
        exposition.contains("# TYPE server_requests_ok counter"),
        "{exposition}"
    );
    assert!(
        exposition.contains("server_request_ns_count"),
        "{exposition}"
    );

    // No duplicate metric names in the exposition (Prometheus rejects
    // a scrape with repeated TYPE/name groups).
    let mut names: Vec<&str> = exposition
        .lines()
        .filter(|l| l.starts_with("# TYPE "))
        .map(|l| l.split_whitespace().nth(2).unwrap())
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(total, names.len(), "duplicate # TYPE lines");

    // The HTTP endpoint serves the same registry.
    let addr = handle.metrics_addr().expect("metrics_addr configured");
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut http = String::new();
    s.read_to_string(&mut http).unwrap();
    assert!(http.starts_with("HTTP/1.1 200 OK"), "{http}");
    assert!(http.contains("text/plain; version=0.0.4"), "{http}");
    assert!(http.contains("# TYPE server_requests_ok counter"), "{http}");

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
