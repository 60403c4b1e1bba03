//! Socket-level integration tests for `pc serve`: the snapshot-isolation
//! guarantee under concurrent mutation, the slow-loris damage bound, the
//! per-connection protocol bounds, one write per wire message at both
//! ends, and the FIN close — all through real TCP connections against a
//! running [`Server`] (or, for the client's framing, a stand-in
//! listener).

use pc_core::{dsl, PcSet, QueryBudget, Session, SessionOptions};
use pc_predicate::{AttrType, Schema};
use pc_serve::{Connection, ServeConfig, Server};
use pc_storage::{parse_query, table_from_csv, Table};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn fixture_table() -> Table {
    let schema = Schema::new(vec![
        ("utc", AttrType::Int),
        ("branch", AttrType::Cat),
        ("price", AttrType::Float),
    ]);
    table_from_csv(
        schema,
        "utc,branch,price\n\
         1,Chicago,3.02\n\
         2,New York,6.71\n\
         3,Chicago,18.99\n",
    )
    .unwrap()
}

fn base_set(table: &Table) -> PcSet {
    dsl::parse_pcset(table, "TRUE => price BETWEEN 0 AND 149.99, (0, 100)\n").unwrap()
}

/// Exact-only options: admission stays off so every response is the
/// engine's exact range and can be compared against the oracle verbatim.
fn exact_options() -> SessionOptions {
    SessionOptions {
        admission: false,
        ..SessionOptions::default()
    }
}

fn start_server(
    config: ServeConfig,
) -> (SocketAddr, pc_serve::ServerHandle, thread::JoinHandle<()>) {
    let table = fixture_table();
    let base = base_set(&table);
    let server = Server::bind("127.0.0.1:0", table, base, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

/// The mutation stream the snapshot test plays against the `default`
/// tenant, in wire notation. All predicates are `TRUE`, so the exact
/// COUNT range is `[max kl, min ku]` over the live constraints — every
/// step moves at least one side of the interval (a retire may fall back
/// to an earlier interval; the oracle is keyed by epoch, not by value).
const MUTATIONS: &[&str] = &[
    "+ TRUE => price BETWEEN 0 AND 149.99, (10, 90)",
    "+ TRUE => price BETWEEN 0 AND 149.99, (20, 80)",
    "- c1",
    "replace c2 TRUE => price BETWEEN 0 AND 149.99, (30, 70)",
    "+ TRUE => price BETWEEN 0 AND 149.99, (40, 60)",
    "- c0",
];

/// Replay [`MUTATIONS`] against a local shadow session and record the
/// exact COUNT range at every epoch. The server's `default` tenant sees
/// the same ops in the same order, so epoch `e` there has the same
/// catalog — and the engine is deterministic, so the same range.
fn oracle_by_epoch() -> HashMap<u64, (f64, f64)> {
    let table = fixture_table();
    let session = Session::with_options(base_set(&table), exact_options());
    let query = parse_query(&table, "SELECT COUNT(*)").unwrap();
    let budget = QueryBudget::unlimited();
    let mut oracle = HashMap::new();
    oracle.insert(session.epoch(), range_of(&session, &query));
    for line in MUTATIONS {
        if let Some(rest) = line.strip_prefix("+ ") {
            let pc = dsl::parse_constraint(&table, rest).unwrap();
            session.add_constraint_stamped(pc, &budget);
        } else if let Some(rest) = line.strip_prefix("- ") {
            session
                .retire_constraint_stamped(rest.parse().unwrap())
                .unwrap();
        } else if let Some(rest) = line.strip_prefix("replace ") {
            let (id, text) = rest.split_once(' ').unwrap();
            let pc = dsl::parse_constraint(&table, text).unwrap();
            session
                .replace_constraint_stamped(id.parse().unwrap(), pc, &budget)
                .unwrap();
        } else {
            panic!("unhandled mutation line {line}");
        }
        oracle.insert(session.epoch(), range_of(&session, &query));
    }
    oracle
}

fn range_of(session: &Session, query: &pc_storage::AggQuery) -> (f64, f64) {
    let report = session.bound(query).unwrap();
    (report.range.lo, report.range.hi)
}

fn close_to(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * b.abs().max(1.0)
}

/// Satellite 1 — snapshot isolation over the socket: reader threads
/// stream `bound` queries while one connection mutates the catalog;
/// every response's range must match the oracle *for its stamped epoch*,
/// proving a racing query answers from exactly one consistent catalog.
#[test]
fn snapshot_isolation_under_concurrent_mutation() {
    let config = ServeConfig {
        options: exact_options(),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = start_server(config);
    let oracle = oracle_by_epoch();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut conn = Connection::connect(addr).unwrap();
                let mut seen: Vec<(u64, f64, f64)> = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    let resp = conn.send("bound SELECT COUNT(*)").unwrap();
                    assert!(resp.is_ok(), "reader got {}", resp.header);
                    let (lo, hi) = resp.range().unwrap();
                    seen.push((resp.epoch().unwrap(), lo, hi));
                }
                seen
            })
        })
        .collect();

    let mut mutator = Connection::connect(addr).unwrap();
    for (i, line) in MUTATIONS.iter().enumerate() {
        thread::sleep(Duration::from_millis(40));
        let resp = mutator.send(line).unwrap();
        assert!(resp.is_ok(), "`{line}` got {}", resp.header);
        // One mutator, no other writers: epochs advance densely.
        assert_eq!(resp.epoch(), Some(i as u64 + 1), "`{line}`");
    }
    thread::sleep(Duration::from_millis(40));
    stop.store(true, Ordering::SeqCst);

    let mut distinct = std::collections::HashSet::new();
    for reader in readers {
        for (epoch, lo, hi) in reader.join().unwrap() {
            let (want_lo, want_hi) = *oracle
                .get(&epoch)
                .unwrap_or_else(|| panic!("response stamped unknown epoch {epoch}"));
            assert!(
                close_to(lo, want_lo) && close_to(hi, want_hi),
                "epoch {epoch}: got [{lo},{hi}], oracle says [{want_lo},{want_hi}]"
            );
            distinct.insert(epoch);
        }
    }
    // The race was real: the readers observed the catalog both before
    // and after mutations landed, not one quiescent snapshot.
    assert!(
        distinct.len() >= 2,
        "readers only ever saw epochs {distinct:?}; the interleaving test was vacuous"
    );

    // A multi-row response carries one stamp for all its rows: both
    // batch answers come from the same pinned epoch.
    let resp = mutator
        .send("batch SELECT COUNT(*) ;; SELECT COUNT(*)")
        .unwrap();
    assert!(resp.is_ok());
    assert_eq!(resp.epoch(), Some(MUTATIONS.len() as u64));
    assert_eq!(resp.rows.len(), 2);
    let (want_lo, want_hi) = oracle[&(MUTATIONS.len() as u64)];
    for row in &resp.rows {
        let (lo, hi) = pc_serve::proto::parse_range(row).unwrap();
        assert!(close_to(lo, want_lo) && close_to(hi, want_hi), "{row}");
    }

    handle.shutdown();
    join.join().unwrap();
}

/// Satellite 2 — the slow-loris bound: a connection that goes silent
/// mid-line neither blocks other tenants' queries nor holds shutdown
/// past the drain deadline.
#[test]
fn stalled_connection_cannot_stall_other_tenants_or_shutdown() {
    let config = ServeConfig {
        options: exact_options(),
        read_timeout: Duration::from_millis(400),
        poll_interval: Duration::from_millis(5),
        drain: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let (addr, _handle, join) = start_server(config);

    // The slow loris: half a request, then silence with the socket open.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"bound SELECT CO").unwrap();
    loris.flush().unwrap();

    // Another tenant's traffic proceeds while the loris holds its line.
    let mut conn = Connection::connect(addr).unwrap();
    conn.set_response_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let resp = conn.send("tenant create other").unwrap();
    assert!(resp.is_ok(), "{}", resp.header);
    assert!(conn.send("use other").unwrap().is_ok());
    let started = Instant::now();
    let resp = conn.send("bound SELECT COUNT(*)").unwrap();
    assert!(resp.is_ok(), "{}", resp.header);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a stalled peer delayed an unrelated query by {:?}",
        started.elapsed()
    );

    // Graceful shutdown completes within the drain deadline (plus server
    // poll slack) even with the stalled connection still open.
    let started = Instant::now();
    assert!(conn.send("shutdown").unwrap().is_ok());
    join.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "shutdown took {:?} despite a 500ms drain deadline",
        started.elapsed()
    );

    // The loris's connection thread notices the drain and closes its end.
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut sink = [0u8; 64];
    loop {
        match loris.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) => panic!("expected server-side close, got {e}"),
        }
    }
}

/// Per-connection damage bounds: empty lines, malformed lines, bad
/// budget directives, and over-long lines each answer one `ERR line N:`
/// and the connection keeps serving. Response pairing never slips.
#[test]
fn malformed_lines_answer_err_without_killing_the_connection() {
    let config = ServeConfig {
        options: exact_options(),
        max_line_bytes: 64,
        ..ServeConfig::default()
    };
    let (addr, handle, join) = start_server(config);
    let mut conn = Connection::connect(addr).unwrap();

    let resp = conn.send("").unwrap();
    assert_eq!(resp.header, "ERR line 1: empty request");
    let resp = conn.send("frobnicate the catalog").unwrap();
    assert!(
        resp.header.starts_with("ERR line 2: unknown verb"),
        "{}",
        resp.header
    );
    let resp = conn.send("bound @timeout-ms=0 SELECT COUNT(*)").unwrap();
    assert!(
        resp.header.contains("the minimum cap is 1"),
        "{}",
        resp.header
    );
    let resp = conn.send("bound SELECT FROB(*)").unwrap();
    assert!(resp.header.starts_with("ERR line 4:"), "{}", resp.header);
    let resp = conn.send("- c99").unwrap();
    assert!(resp.header.starts_with("ERR line 5:"), "{}", resp.header);

    // Over-long line, streamed without its newline so the buffer bound
    // (not the line splitter) has to catch it: one ERR, rest discarded.
    let resp = conn.send("use nosuchtenant").unwrap();
    assert!(resp.header.starts_with("ERR line 6:"), "{}", resp.header);
    {
        // Reach under the helper: write 100 bytes, stall, then the rest.
        let raw = conn.raw_stream();
        raw.write_all(&[b'x'; 100]).unwrap();
        raw.flush().unwrap();
        thread::sleep(Duration::from_millis(100));
        raw.write_all(b"tail\n").unwrap();
        raw.flush().unwrap();
    }
    let resp = conn.read_response().unwrap();
    assert_eq!(resp.header, "ERR line 7: request exceeds 64 bytes");

    // The connection still works after every one of those.
    let resp = conn.send("ping").unwrap();
    assert_eq!(resp.header, "OK pong");
    let resp = conn.send("bound SELECT COUNT(*)").unwrap();
    assert!(resp.is_ok(), "{}", resp.header);
    assert_eq!(resp.epoch(), Some(0));

    assert!(conn.send("quit").unwrap().is_ok());
    handle.shutdown();
    join.join().unwrap();
}

/// Draining servers refuse new queries with an `ERR`, not a hang or a
/// dropped connection.
#[test]
fn draining_server_rejects_new_queries() {
    let config = ServeConfig {
        options: exact_options(),
        drain: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let (addr, _handle, join) = start_server(config);
    let mut conn = Connection::connect(addr).unwrap();
    let mut other = Connection::connect(addr).unwrap();
    assert!(conn.send("shutdown").unwrap().is_ok());
    join.join().unwrap();
    // `other` connected before the drain; its pending request either
    // answers "draining" or the socket closes — both are bounded-damage.
    other
        .set_response_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match other.send("bound SELECT COUNT(*)") {
        Ok(resp) => assert!(
            resp.header.contains("draining"),
            "expected a draining rejection, got {}",
            resp.header
        ),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
            ),
            "unexpected error {e}"
        ),
    }
}

/// Read from `stream` until `buf` ends a line, returning how many reads
/// that took (1 when the response arrived in one piece).
fn read_through_newline(stream: &mut TcpStream, buf: &mut Vec<u8>) -> usize {
    let mut chunk = [0u8; 4096];
    let mut reads = 0;
    while !buf.ends_with(b"\n") {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed mid-response after {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
        reads += 1;
    }
    reads
}

/// A connection that ends while the peer's bytes sit unread closes with
/// a FIN: the peer reads the last response and then a clean EOF, not a
/// reset. Here the filler after `quit` is more than the server reads in
/// one chunk, so it is still unread when the connection thread returns.
#[test]
fn quit_with_unread_bytes_closes_with_fin_not_reset() {
    let config = ServeConfig {
        options: exact_options(),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = start_server(config);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut request = b"quit\n".to_vec();
    request.resize(request.len() + 8 * 1024, b'x');
    stream.write_all(&request).unwrap();

    let mut response = Vec::new();
    read_through_newline(&mut stream, &mut response);
    assert_eq!(response, b"OK bye\n");
    let mut sink = [0u8; 64];
    match stream.read(&mut sink) {
        Ok(0) => {}
        Ok(n) => panic!("expected EOF after `OK bye`, got {n} more bytes"),
        Err(e) => panic!("expected a clean close after `OK bye`, got {e}"),
    }
    handle.shutdown();
    join.join().unwrap();
}

/// The server writes each response, header and rows, as one piece: a
/// client that writes each request whole gets the whole response from
/// its first read, for single-line and multi-row responses alike.
#[test]
fn each_response_arrives_in_one_read() {
    let config = ServeConfig {
        options: exact_options(),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = start_server(config);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for request in ["ping\n", "bound SELECT SUM(price)\n"] {
        for i in 0..200 {
            stream.write_all(request.as_bytes()).unwrap();
            let mut response = Vec::new();
            let reads = read_through_newline(&mut stream, &mut response);
            assert_eq!(
                reads,
                1,
                "request {i} `{}` was answered in {reads} reads",
                request.trim_end()
            );
            assert!(response.starts_with(b"OK "), "{response:?}");
        }
    }

    stream
        .write_all(b"batch SELECT COUNT(*) ;; SELECT SUM(price) ;; SELECT MAX(price)\n")
        .unwrap();
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk).unwrap();
    let text = std::str::from_utf8(&chunk[..n]).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        text.ends_with('\n'),
        "the first read ended mid-line: {text:?}"
    );
    assert_eq!(lines.len(), 4, "the first read held {text:?}");
    assert!(lines[0].starts_with("OK batch epoch=0 n=3"), "{text:?}");
    assert!(
        lines[1..].iter().all(|row| row.starts_with("RES ")),
        "{text:?}"
    );

    handle.shutdown();
    join.join().unwrap();
}

/// [`Connection::send`] writes each request line whole: a stand-in
/// server's first read after each send holds exactly the line.
#[test]
fn client_sends_each_request_in_one_piece() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut split = Vec::new();
        for i in 0..200 {
            let mut request = Vec::new();
            if read_through_newline(&mut stream, &mut request) != 1 {
                split.push(i);
            }
            assert_eq!(request, b"ping\n");
            stream.write_all(b"OK pong\n").unwrap();
        }
        split
    });
    let mut conn = Connection::connect(addr).unwrap();
    conn.set_response_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for _ in 0..200 {
        assert_eq!(conn.send("ping").unwrap().header, "OK pong");
    }
    let split = server.join().unwrap();
    assert!(split.is_empty(), "requests {split:?} arrived in pieces");
}
