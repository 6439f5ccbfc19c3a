//! End-to-end test of the serving CLI: `gen` → `build` → `warptree
//! serve` in the background → `warptree bench-client` burst against it
//! → protocol shutdown → clean exit, with the committed benchmark JSON
//! validated against its schema.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use warptree::server::json::{self, Json};
use warptree::server::Client;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_warptree"))
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "command {:?} failed:\n{}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn serve_and_bench_client_round_trip() {
    let dir = std::env::temp_dir().join(format!("warptree-serve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("data.csv");
    let idx = dir.join("idx");
    let bench_out = dir.join("bench.json");

    run_ok(&[
        "gen",
        "--kind",
        "walk",
        "--sequences",
        "20",
        "--len",
        "60",
        "--seed",
        "7",
        "--out",
        csv.to_str().unwrap(),
    ]);
    run_ok(&[
        "build",
        "--input",
        csv.to_str().unwrap(),
        "--categories",
        "10",
        "--out-dir",
        idx.to_str().unwrap(),
    ]);

    // Serve in the background on an ephemeral port; the first stdout
    // line advertises the bound address.
    let mut server = bin()
        .args([
            "serve",
            idx.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve starts");
    let mut first_line = String::new();
    BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut first_line)
        .unwrap();
    let addr = first_line
        .trim()
        .rsplit(" on ")
        .next()
        .expect("serve announces its address")
        .to_string();
    assert!(
        first_line.starts_with("serving "),
        "unexpected banner: {first_line}"
    );

    // A closed-loop burst, committed to JSON.
    let out = run_ok(&[
        "bench-client",
        "--addr",
        &addr,
        "--input",
        csv.to_str().unwrap(),
        "--queries",
        "8",
        "--connections",
        "4",
        "--requests",
        "60",
        "--out",
        bench_out.to_str().unwrap(),
    ]);
    assert!(out.contains("throughput"), "bench summary:\n{out}");

    // The emitted report honors the BENCH_serve.json schema.
    let report = json::parse(&std::fs::read_to_string(&bench_out).unwrap()).unwrap();
    assert_eq!(report.get("sent").and_then(Json::as_u64), Some(60));
    assert_eq!(report.get("connections").and_then(Json::as_u64), Some(4));
    assert_eq!(report.get("errors").and_then(Json::as_u64), Some(0));
    assert!(report.get("ok").and_then(Json::as_u64).unwrap_or(0) > 0);
    let latency = report.get("latency_us").expect("latency block");
    for q in ["p50", "p95", "p99", "max"] {
        assert!(
            latency.get(q).and_then(Json::as_u64).is_some(),
            "missing {q}"
        );
    }
    assert!(
        report
            .get("throughput_rps")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0
    );
    // Server-side split (from the v4 per-response timings block):
    // queue wait and service percentiles, plus the connection-failure
    // counter, are part of the committed schema.
    assert_eq!(report.get("conn_failures").and_then(Json::as_u64), Some(0));
    for block in ["queue_wait_us", "service_us"] {
        let split = report.get(block).expect(block);
        for q in ["p50", "p95", "p99"] {
            assert!(
                split.get(q).and_then(Json::as_u64).is_some(),
                "missing {block}.{q}"
            );
        }
    }

    // Protocol shutdown drains the server and the process exits cleanly.
    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    let status = server.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Connects to `addr`, retrying while the server starts.
fn connect_when_up(addr: &str) -> Client {
    let started = Instant::now();
    loop {
        match Client::connect(addr) {
            Ok(c) => return c,
            Err(_) if started.elapsed() < Duration::from_secs(30) => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("server at {addr} never came up: {e}"),
        }
    }
}

/// Regression: a reader that takes the banner and closes its end of the
/// pipe (as `serve_and_bench_client_round_trip` does) must not kill the
/// server. `serve` used to write its start-up lines with `println!`,
/// which panics on a closed stdout, so the server died mid-run whenever
/// the reader hung up before the last of those lines. Here stdout is
/// closed before the first line, which makes the race certain.
#[test]
fn serve_and_coordinator_survive_a_closed_stdout() {
    let dir = std::env::temp_dir().join(format!("warptree-serve-epipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("data.csv");
    let cluster = dir.join("cluster");
    run_ok(&[
        "gen",
        "--kind",
        "walk",
        "--sequences",
        "8",
        "--len",
        "30",
        "--seed",
        "3",
        "--out",
        csv.to_str().unwrap(),
    ]);
    run_ok(&[
        "shard-init",
        "--input",
        csv.to_str().unwrap(),
        "--out-dir",
        cluster.to_str().unwrap(),
        "--shards",
        "1",
        "--categories",
        "8",
    ]);
    // A free port, so the address is known without reading stdout.
    let free_port = || {
        std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string()
    };
    let spawn_closed_stdout = |args: &[&str]| {
        let mut child = bin()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("command starts");
        drop(child.stdout.take()); // the reader hangs up at once
        child
    };

    let shard_addr = free_port();
    let shard_dir = cluster.join("shard-0000");
    let mut shard =
        spawn_closed_stdout(&["serve", shard_dir.to_str().unwrap(), "--addr", &shard_addr]);
    let health = connect_when_up(&shard_addr).health().unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("serving"));

    let coord_addr = free_port();
    let mut coord = spawn_closed_stdout(&[
        "shard-coordinator",
        cluster.to_str().unwrap(),
        "--shards",
        &shard_addr,
        "--addr",
        &coord_addr,
    ]);
    let mut client = connect_when_up(&coord_addr);
    let v = client.search(&[0.0, 0.5, 1.0], 2.0, None).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));

    client.shutdown().unwrap();
    assert!(coord.wait().unwrap().success(), "coordinator exit status");
    connect_when_up(&shard_addr).shutdown().unwrap();
    assert!(shard.wait().unwrap().success(), "serve exit status");
    std::fs::remove_dir_all(&dir).unwrap();
}
