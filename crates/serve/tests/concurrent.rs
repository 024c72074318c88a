//! The concurrency contract of the sweep service: N clients hammering
//! the same cells concurrently cause **exactly one execution per unique
//! cache key** — every other request is deduplicated onto the in-flight
//! slot or served from the store — and every client reads bit-identical
//! bytes.

use dct_bench::sweep::json_num;
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
            "dct-serve-conc-{}-{}",
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

/// One client: submit the shared spec, poll to done, fetch the table.
fn client(port: u16) -> String {
    let (status, resp) =
        http(port, "POST", "/api/sweep", "{\"bench\":\"stencil\",\"scale_milli\":50,\"procs\":3}");
    assert_eq!(status, 200, "submit failed: {resp}");
    let job = json_num(&resp, "job").expect("job id") as u64;
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let (status, body) = http(port, "GET", &format!("/api/job/{job}"), "");
        assert_eq!(status, 200, "poll failed: {body}");
        if body.contains("\"state\":\"done\"") {
            break;
        }
        assert!(Instant::now() < deadline, "job {job} never finished: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }
    let (status, table) = http(port, "GET", &format!("/api/job/{job}/table"), "");
    assert_eq!(status, 200, "table fetch failed: {table}");
    table
}

#[test]
fn concurrent_clients_execute_each_cell_exactly_once() {
    const CLIENTS: usize = 6;
    let dir = Scratch::new();
    let server = Server::start(&ServeConfig {
        port: 0,
        cache_dir: dir.path("cache"),
        max_cache_bytes: None,
        out_dir: dir.path("serve"),
        workers: 3,
    })
    .expect("server start");
    let port = server.port;

    let handles: Vec<_> =
        (0..CLIENTS).map(|_| std::thread::spawn(move || client(port))).collect();
    let tables: Vec<String> = handles.into_iter().map(|h| h.join().expect("client")).collect();

    // Every client read the exact same bytes.
    for t in &tables[1..] {
        assert_eq!(t, &tables[0], "clients saw diverging tables");
    }

    // Exactly one execution per unique cell: 4 kinds of one benchmark.
    // Everything else was deduplicated in flight or served warm.
    let (status, stats) = http(port, "GET", "/api/stats", "");
    assert_eq!(status, 200);
    let executed = json_num(&stats, "executed").expect("executed counter");
    let cache_hits = json_num(&stats, "cache_hits").expect("cache_hits counter");
    let deduped = json_num(&stats, "deduped").expect("deduped counter");
    assert_eq!(executed, 4, "each unique cell must execute exactly once: {stats}");
    assert_eq!(
        (executed + cache_hits + deduped) as usize,
        CLIENTS * 4,
        "every submitted cell is accounted for: {stats}"
    );
    assert_eq!(json_num(&stats, "inflight"), Some(0), "inflight map must drain: {stats}");
    assert_eq!(json_num(&stats, "jobs"), Some(CLIENTS as i64), "one job per client: {stats}");

    let (status, _) = http(port, "POST", "/api/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
}
