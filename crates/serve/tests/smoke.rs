//! End-to-end smoke of `repro serve`, in-process: bind an ephemeral
//! port, drive the JSON API with a raw `TcpStream` HTTP/1.1 client,
//! and hold the service to the same oracle as the CLI — a job's table
//! must be byte-identical to a direct supervised sweep with the same
//! parameters, and a resubmitted job must be served entirely warm.

use dct_bench::sweep::{json_num, render_sweep, run_sweep_supervised, SweepConfig};
use dct_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let d = std::env::temp_dir().join(format!(
            "dct-serve-smoke-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        Scratch(d)
    }

    fn path(&self, sub: &str) -> PathBuf {
        self.0.join(sub)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One HTTP/1.1 exchange; returns (status code, body).
fn http(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).expect("send request");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read response");
    let status = resp
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {resp:?}"));
    let body = resp.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn submit(port: u16, body: &str) -> u64 {
    let (status, resp) = http(port, "POST", "/api/sweep", body);
    assert_eq!(status, 200, "submit failed: {resp}");
    assert!(resp.contains("\"cells\":4"), "stencil must expand to 4 cells: {resp}");
    json_num(&resp, "job").expect("job id in submit response") as u64
}

fn wait_done(port: u16, job: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(port, "GET", &format!("/api/job/{job}"), "");
        assert_eq!(status, 200, "poll failed: {body}");
        if body.contains("\"state\":\"done\"") {
            return;
        }
        assert!(Instant::now() < deadline, "job {job} never finished: {body}");
        std::thread::sleep(Duration::from_millis(30));
    }
}

#[test]
fn serve_smoke_end_to_end() {
    let dir = Scratch::new();
    let server = Server::start(&ServeConfig {
        port: 0,
        cache_dir: dir.path("cache"),
        max_cache_bytes: None,
        out_dir: dir.path("serve"),
        workers: 2,
    })
    .expect("server start");
    let port = server.port;
    assert_ne!(port, 0, "ephemeral bind must report the real port");

    // The index page is alive.
    let (status, html) = http(port, "GET", "/", "");
    assert_eq!(status, 200);
    assert!(html.contains("repro serve"), "index page: {html}");

    // Unknown resources 404; unknown benchmarks 400.
    assert_eq!(http(port, "GET", "/api/job/999", "").0, 404);
    assert_eq!(http(port, "GET", "/nope", "").0, 404);
    assert_eq!(http(port, "POST", "/api/sweep", "{\"bench\":\"nonesuch\"}").0, 400);

    // Submit a small sweep and poll it to completion.
    let job = submit(port, "{\"bench\":\"stencil\",\"scale_milli\":50,\"procs\":4}");
    wait_done(port, job);
    let (status, table) = http(port, "GET", &format!("/api/job/{job}/table"), "");
    assert_eq!(status, 200);

    // The oracle: a direct supervised sweep with the same parameters
    // must render the exact same bytes.
    let mut cfg = SweepConfig::new(4, 0.05, dir.path("direct"));
    cfg.only = Some(vec!["stencil".to_string()]);
    let direct = run_sweep_supervised(&cfg).expect("direct sweep");
    assert_eq!(
        table,
        render_sweep(&direct.cells, 4, 0.05),
        "served table diverges from a direct sweep"
    );

    // First run was cold...
    let (_, stats) = http(port, "GET", "/api/stats", "");
    assert!(stats.contains("\"executed\":4"), "cold job must execute all cells: {stats}");
    assert!(stats.contains("\"cache_hits\":0"), "cold job cannot hit: {stats}");

    // ...and an identical resubmission is served entirely from the store.
    let rejob = submit(port, "{\"bench\":\"stencil\",\"scale_milli\":50,\"procs\":4}");
    assert_ne!(rejob, job);
    wait_done(port, rejob);
    let (_, retable) = http(port, "GET", &format!("/api/job/{rejob}/table"), "");
    assert_eq!(retable, table, "warm table must be byte-identical");
    let (_, stats) = http(port, "GET", "/api/stats", "");
    assert!(stats.contains("\"executed\":4"), "warm job must execute nothing: {stats}");
    assert!(stats.contains("\"cache_hits\":4"), "warm job must hit every cell: {stats}");

    // A race-checked job (distinct cache keys) yields a certificate.
    let racy = submit(port, "{\"bench\":\"stencil\",\"scale_milli\":50,\"procs\":4,\"race_check\":true}");
    wait_done(port, racy);
    let (status, cert) = http(port, "GET", &format!("/api/job/{racy}/races"), "");
    assert_eq!(status, 200);
    assert!(cert.contains("certificate: all 4 cells race-free"), "certificate: {cert}");
    // The non-racy job has no certificate to give.
    assert_eq!(http(port, "GET", &format!("/api/job/{job}/races"), "").0, 400);

    // Explain is served (and cached) synchronously.
    let (status, text) = http(port, "GET", "/api/explain/stencil?scale_milli=50&procs=4", "");
    assert_eq!(status, 200);
    assert!(text.contains("stencil"), "explain text: {text}");
    let (status, json) =
        http(port, "GET", "/api/explain/stencil?scale_milli=50&procs=4&format=json", "");
    assert_eq!(status, 200);
    assert!(json.trim_start().starts_with('{'), "explain json: {json}");
    assert_eq!(http(port, "GET", "/api/explain/nonesuch", "").0, 404);

    // Clean shutdown: the endpoint answers, then wait() drains and joins.
    let (status, _) = http(port, "POST", "/api/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
}

/// Request bodies as clients write them: whitespace around `:` (Python's
/// `json.dumps` default) must mean exactly what the compact form means —
/// the same cells, the same cache keys, the same table. A body field or
/// query parameter that is present but unparseable is a 400, never a
/// silent fall-back to its default (for `scale_milli`, the paper scale).
#[test]
fn spaced_json_matches_compact_and_bad_values_are_400() {
    let dir = Scratch::new();
    let server = Server::start(&ServeConfig {
        port: 0,
        cache_dir: dir.path("cache"),
        max_cache_bytes: None,
        out_dir: dir.path("serve"),
        workers: 2,
    })
    .expect("server start");
    let port = server.port;

    for bad in [
        "{\"bench\":\"stencil\",\"scale_milli\":\"50\"}",
        "{\"bench\":\"stencil\",\"scale_milli\": 0.05}",
        "{\"bench\":\"stencil\",\"procs\": four}",
        "{\"bench\": 7}",
        "{\"bench\":\"stencil\",\"race_check\": 1}",
    ] {
        let (status, resp) = http(port, "POST", "/api/sweep", bad);
        assert_eq!(status, 400, "{bad} must be rejected: {resp}");
        assert!(resp.contains("\"error\""), "{bad}: {resp}");
    }
    let (_, stats) = http(port, "GET", "/api/stats", "");
    assert!(stats.contains("\"jobs\":0"), "rejected bodies must not create jobs: {stats}");
    for bad in [
        "/api/explain/stencil?scale_milli=abc",
        "/api/explain/stencil?scale_milli=50&procs=four",
        "/api/figure/fig8?scale_milli=50&procs=1,x",
        "/api/figure/fig8?scale_milli=0.05&procs=1",
    ] {
        let (status, resp) = http(port, "GET", bad, "");
        assert_eq!(status, 400, "{bad} must be rejected: {resp}");
    }

    let compact = submit(port, "{\"bench\":\"stencil\",\"scale_milli\":50,\"procs\":4}");
    wait_done(port, compact);
    let (_, table) = http(port, "GET", &format!("/api/job/{compact}/table"), "");

    let spaced =
        submit(port, "{ \"bench\" : \"stencil\", \"scale_milli\": 50, \"procs\" :4, \"race_check\": false }");
    wait_done(port, spaced);
    let (_, spaced_table) = http(port, "GET", &format!("/api/job/{spaced}/table"), "");
    assert_eq!(spaced_table, table, "spaced JSON must render the compact job's table");
    let (_, stats) = http(port, "GET", "/api/stats", "");
    assert!(stats.contains("\"executed\":4"), "spaced job must reuse the compact job's cells: {stats}");
    assert!(stats.contains("\"cache_hits\":4"), "spaced job must hit every cell: {stats}");

    let (status, _) = http(port, "POST", "/api/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
}
