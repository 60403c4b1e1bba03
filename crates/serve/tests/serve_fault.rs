//! Fault-injected serving tests (the `fault` cargo feature): arm the
//! `serve::read_stall` site and prove a connection stalled *inside the
//! server's read path* cannot stall other tenants' queries or hold
//! shutdown past the drain deadline; arm `sat::probe` inside a mutation
//! and prove the connection and the tenant both survive it. Lives in its
//! own test binary, and its tests serialize on one lock: the fault
//! registry is global, and an armed plan must not be consumed by an
//! unrelated test's connection.
#![cfg(feature = "fault")]

use pc_core::budget::fault;
use pc_core::{dsl, SessionOptions};
use pc_predicate::{AttrType, Schema};
use pc_serve::{Connection, ServeConfig, Server};
use pc_storage::{table_from_csv, Table};
use std::io::Write;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fixture_table() -> Table {
    let schema = Schema::new(vec![("utc", AttrType::Int), ("price", AttrType::Float)]);
    table_from_csv(schema, "utc,price\n1,3.02\n2,6.71\n").unwrap()
}

struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        fault::disarm_all();
    }
}

/// Serialize on the global registry, with a clean slate on both ends.
fn fault_section() -> (MutexGuard<'static, ()>, Disarm) {
    let lock = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fault::disarm_all();
    (lock, Disarm)
}

#[test]
fn read_stall_is_contained_to_its_connection() {
    let (_lock, _disarm) = fault_section();
    let table = fixture_table();
    let base = dsl::parse_pcset(&table, "TRUE => price BETWEEN 0 AND 10, (0, 50)\n").unwrap();
    let config = ServeConfig {
        options: SessionOptions {
            admission: false,
            ..SessionOptions::default()
        },
        poll_interval: Duration::from_millis(5),
        drain: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", table, base, config).unwrap();
    let addr = server.local_addr().unwrap();
    let join = thread::spawn(move || server.run().unwrap());

    // The victim connects first; the stall is armed only once its bytes
    // are the next thing any connection thread will read, so the plan
    // fires inside *its* read path.
    let mut victim = Connection::connect(addr).unwrap();
    fault::arm(
        "serve::read_stall",
        fault::Plan::StallAfter(0, Duration::from_secs(3)),
    );
    victim.raw_stream().write_all(b"ping\n").unwrap();
    victim.raw_stream().flush().unwrap();
    // Give the victim's connection thread time to read and enter the
    // injected sleep (poll tick is 5ms), so the plan is consumed.
    thread::sleep(Duration::from_millis(200));

    // An unrelated connection is served while the victim's thread sleeps.
    let mut other = Connection::connect(addr).unwrap();
    other
        .set_response_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let resp = other.send("bound SELECT COUNT(*)").unwrap();
    assert!(resp.is_ok(), "{}", resp.header);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "a read-stalled peer delayed an unrelated query by {:?}",
        started.elapsed()
    );

    // Shutdown completes within the drain deadline even though the
    // victim's connection thread is still asleep inside its read path.
    let started = Instant::now();
    assert!(other.send("shutdown").unwrap().is_ok());
    join.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown took {:?} despite a 300ms drain deadline",
        started.elapsed()
    );
}

#[test]
fn panicked_retire_answers_err_and_the_next_add_lands() {
    let (_lock, _disarm) = fault_section();
    let table = fixture_table();
    let base = dsl::parse_pcset(&table, "TRUE => price BETWEEN 0 AND 10, (0, 50)\n").unwrap();
    let config = ServeConfig {
        poll_interval: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", table, base, config).unwrap();
    let addr = server.local_addr().unwrap();
    let join = thread::spawn(move || server.run().unwrap());
    let mut conn = Connection::connect(addr).unwrap();
    conn.set_response_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Build epoch 0's cells and derive epoch 1 from them, so the retire
    // below derives too: retiring the closed catalog's cover re-checks
    // closure inside the retired box with a SAT probe.
    assert!(conn.send("bound SELECT COUNT(*)").unwrap().is_ok());
    let added = conn
        .send("+ utc BETWEEN 1 AND 2 => price BETWEEN 0 AND 5, (0, 3)")
        .unwrap();
    assert!(added.is_ok(), "{}", added.header);

    fault::arm("sat::probe", fault::Plan::PanicAfter(0));
    let retired = conn
        .send("- c0")
        .expect("a panicked retire still answers on its connection");
    assert!(!retired.is_ok(), "{}", retired.header);
    assert!(
        retired.header.contains("mutation panicked"),
        "{}",
        retired.header
    );
    fault::disarm_all();

    // The unwound retire installed nothing and wedged nothing: the same
    // connection's next mutation lands on the next epoch.
    let readded = conn
        .send("+ TRUE => price BETWEEN 0 AND 10, (0, 40)")
        .unwrap();
    assert!(readded.is_ok(), "{}", readded.header);
    assert!(readded.header.contains("epoch=2"), "{}", readded.header);

    assert!(conn.send("shutdown").unwrap().is_ok());
    join.join().unwrap();
}
