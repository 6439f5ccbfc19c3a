//! A minimal plain-HTTP exposition endpoint: `GET /metrics` returns the
//! server's [`MetricsRegistry`] in the Prometheus text exposition
//! format (version 0.0.4).
//!
//! This is deliberately not a web framework: one accept thread, one
//! request per connection, request line parsed just far enough to route
//! `GET /metrics`. Anything else gets `404`. The endpoint serves
//! scrapers only — the query protocol stays on the framed TCP port
//! (which also exposes the same text via `{"op":"metrics"}` for clients
//! that already speak it).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use warptree_obs::MetricsRegistry;

use crate::worker::Worker;

/// The background thread serving `GET /metrics`.
pub struct MetricsHttp {
    addr: SocketAddr,
    worker: Worker,
}

impl MetricsHttp {
    /// Binds `addr` (port 0 picks a free port) and starts serving.
    pub fn spawn(addr: &str, registry: MetricsRegistry) -> io::Result<MetricsHttp> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let worker = Worker::spawn("warptree-metrics-http", move |stop| {
            serve_loop(listener, &registry, stop)
        })?;
        Ok(MetricsHttp {
            addr: bound,
            worker,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn stop(self) {
        self.worker.stop();
    }
}

fn serve_loop(listener: TcpListener, registry: &MetricsRegistry, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => serve_request(stream, registry),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Handles one HTTP exchange: read the request head (bounded), answer,
/// close. Scrapers open a fresh connection per scrape, so keep-alive is
/// not worth its complexity here.
fn serve_request(mut stream: TcpStream, registry: &MetricsRegistry) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(2000)));
    let Some(request_line) = read_request_line(&mut stream) else {
        return;
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method == "GET" && (path == "/metrics" || path.starts_with("/metrics?")) {
        let body = registry.snapshot().to_prometheus();
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        let body = "not found; try GET /metrics\n";
        format!(
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Reads up to the first CRLF (the request line), bounding total bytes
/// consumed so a hostile peer cannot feed an endless head. Headers past
/// the request line are read and discarded only as a side effect of the
/// buffer; the response does not depend on them.
fn read_request_line(stream: &mut TcpStream) -> Option<String> {
    let mut buf = [0u8; 1024];
    let mut head = Vec::new();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => break,
        };
        head.extend_from_slice(&buf[..n]);
        if head.windows(2).any(|w| w == b"\r\n") || head.len() >= 8192 {
            break;
        }
    }
    let line_end = head
        .windows(2)
        .position(|w| w == b"\r\n")
        .unwrap_or(head.len());
    if line_end == 0 {
        return None;
    }
    String::from_utf8(head[..line_end].to_vec()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn metrics_endpoint_serves_exposition() {
        let registry = MetricsRegistry::new();
        registry.counter("server.requests_ok").add(7);
        registry.histogram("server.request_ns").record(1000);
        let http = MetricsHttp::spawn("127.0.0.1:0", registry).unwrap();
        let resp = http_get(http.addr(), "/metrics");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("# TYPE server_requests_ok counter"), "{resp}");
        assert!(resp.contains("server_requests_ok 7"), "{resp}");
        assert!(resp.contains("server_request_ns_count 1"), "{resp}");
        // Anything but GET /metrics is a 404, and the server survives it.
        let resp = http_get(http.addr(), "/other");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        let resp = http_get(http.addr(), "/metrics");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        http.stop();
    }
}
