//! The listener: thread-per-connection over a non-blocking accept loop,
//! a shared [`SessionRegistry`], and the graceful-drain protocol. See
//! the crate docs for the wire reference and the shutdown guarantees.

use crate::proto::{self, Request};
use pc_budget::caps::BudgetCaps;
use pc_budget::QueryBudget;
use pc_core::{dsl, BoundError, PcSet, Session, SessionOptions, SessionRegistry};
use pc_storage::{parse_query, Table};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The tenant every connection starts scoped to, seeded from the
/// server's base catalog at bind.
pub const DEFAULT_TENANT: &str = "default";

/// Server configuration: engine/session knobs, server-wide budget caps,
/// and the per-connection damage bounds.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Session/engine knobs applied to every tenant's catalog.
    pub options: SessionOptions,
    /// Server-wide budget caps; per-request `@` directives override
    /// field-wise.
    pub caps: BudgetCaps,
    /// How long a connection may stall **mid-line** before it is closed
    /// (the slow-loris bound). Idle connections between requests are not
    /// subject to it.
    pub read_timeout: Duration,
    /// Accept/read poll tick — also how quickly connections notice a
    /// drain.
    pub poll_interval: Duration,
    /// Maximum request line length; longer lines answer `ERR` and the
    /// remainder is discarded.
    pub max_line_bytes: usize,
    /// Graceful-shutdown drain deadline: how long [`Server::run`] waits
    /// for in-flight queries (cancelled at drain start) and connection
    /// threads before detaching stragglers.
    pub drain: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            options: SessionOptions::default(),
            caps: BudgetCaps::default(),
            read_timeout: Duration::from_secs(5),
            poll_interval: Duration::from_millis(10),
            max_line_bytes: 64 * 1024,
            drain: Duration::from_secs(5),
        }
    }
}

/// Everything the connection handlers share.
struct Shared {
    table: Table,
    base: PcSet,
    config: ServeConfig,
    registry: SessionRegistry,
    shutdown: AtomicBool,
}

/// A bound, not-yet-running server. [`Server::run`] blocks serving until
/// shutdown; grab a [`ServerHandle`] first to trigger shutdown from
/// another thread (the wire `shutdown` verb does the same).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Start the graceful drain: stop accepting, reject new queries,
    /// cancel in-flight ones. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been triggered.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Bind the listener and seed the registry with the `default` tenant
    /// built from `base` (later `tenant create` verbs seed from the same
    /// base — one schema per server, many catalogs).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        table: Table,
        base: PcSet,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let registry = SessionRegistry::new();
        registry
            .create(
                DEFAULT_TENANT,
                Session::with_options(base.clone(), config.options),
            )
            .expect("empty registry cannot collide");
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                table,
                base,
                config,
                registry,
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle, cloneable across threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until shutdown, then drain: reject new queries, cancel
    /// in-flight ones via their registered [`pc_core::CancelToken`]s,
    /// and wait up to the drain deadline for connections to finish
    /// writing their (degraded but sound) responses. Returns even if a
    /// stalled connection never exits — stragglers are detached, which
    /// is exactly the bounded-damage guarantee the slow-loris test pins.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, shared } = self;
        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        while !shared.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&shared);
                    conns.push(thread::spawn(move || {
                        // Connection-level io errors tear down that
                        // connection only.
                        let _ = serve_connection(&stream, &shared);
                        // Send FIN before the socket closes: closing with
                        // the peer's bytes still unread makes the kernel
                        // reset the connection, which can drop the last
                        // response. With the FIN already out, the peer
                        // reads every response and then a clean EOF.
                        let _ = stream.shutdown(Shutdown::Write);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(shared.config.poll_interval);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            conns.retain(|h| !h.is_finished());
        }
        shared.registry.begin_drain();
        let deadline = Instant::now() + shared.config.drain;
        let drained = shared.registry.drained_within(shared.config.drain);
        while !conns.is_empty() && Instant::now() < deadline {
            conns.retain(|h| !h.is_finished());
            if conns.is_empty() {
                break;
            }
            thread::sleep(shared.config.poll_interval);
        }
        // Anything still running is a stalled read or a straggling write;
        // its thread is detached and dies with the process. The drain
        // outcome is observable through the registry, not an error —
        // shutdown must complete either way.
        let _ = drained;
        Ok(())
    }
}

/// Per-connection state: the read loop with its damage bounds, then one
/// response per received line, each written whole with one `write_all`
/// (with `TCP_NODELAY` on, a separate `\n` write would be a second
/// segment, and the peer would wake on a partial line).
fn serve_connection(stream: &TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(Some(shared.config.poll_interval))?;
    stream.set_nodelay(true).ok();
    let mut reader = stream;
    let mut writer = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut lineno: u64 = 0;
    let mut tenant = String::from(DEFAULT_TENANT);
    // Set once the current line overflowed `max_line_bytes`: the ERR was
    // already written, the rest of the line drops silently.
    let mut discarding = false;
    let mut partial_since: Option<Instant> = None;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Draining: in-flight responses were already written by the
            // time we get back here; pending partial lines are dead.
            return Ok(());
        }
        let n = match reader.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if let Some(since) = partial_since {
                    if since.elapsed() > shared.config.read_timeout {
                        // Slow loris: a half-sent line held past the
                        // read timeout. Close this connection; nothing
                        // else is affected.
                        return Ok(());
                    }
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        #[cfg(feature = "fault")]
        pc_budget::fault::point("serve::read_stall");
        let mut rest = &chunk[..n];
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(pos);
            rest = &tail[1..];
            if discarding {
                // The terminating newline of an over-long line: its ERR
                // already went out when it overflowed.
                discarding = false;
                buf.clear();
                continue;
            }
            buf.extend_from_slice(head);
            let line = String::from_utf8_lossy(&buf).into_owned();
            buf.clear();
            lineno += 1;
            let (mut response, action) = respond(shared, &mut tenant, lineno, &line);
            response.push('\n');
            writer.write_all(response.as_bytes())?;
            match action {
                Action::Continue => {}
                Action::Close => return Ok(()),
                Action::Drain => {
                    shared.shutdown.store(true, Ordering::SeqCst);
                    return Ok(());
                }
            }
        }
        if discarding {
            // Still inside the over-long line; drop the bytes.
        } else {
            buf.extend_from_slice(rest);
            if buf.len() > shared.config.max_line_bytes {
                lineno += 1;
                let response = format!(
                    "ERR line {lineno}: request exceeds {} bytes\n",
                    shared.config.max_line_bytes
                );
                writer.write_all(response.as_bytes())?;
                buf.clear();
                discarding = true;
            }
        }
        partial_since = if buf.is_empty() && !discarding {
            None
        } else {
            Some(partial_since.unwrap_or_else(Instant::now))
        };
    }
}

/// What the connection loop does after writing a response.
enum Action {
    Continue,
    Close,
    Drain,
}

/// Answer one received line. Never panics the connection: query panics
/// are caught per request, parse errors answer `ERR line N:`.
fn respond(shared: &Shared, tenant: &mut String, lineno: u64, line: &str) -> (String, Action) {
    let line = line.trim();
    if line.is_empty() {
        return (
            format!("ERR line {lineno}: empty request"),
            Action::Continue,
        );
    }
    match proto::parse_request(line) {
        Err(e) => (format!("ERR line {lineno}: {e}"), Action::Continue),
        Ok(request) => execute(shared, tenant, lineno, request),
    }
}

/// Look up the connection's tenant; sessions are fetched per request so
/// a dropped tenant fails the *next* request, not in-flight ones.
fn tenant_session(
    shared: &Shared,
    tenant: &str,
    lineno: u64,
) -> Result<Arc<Session>, (String, Action)> {
    shared.registry.get(tenant).ok_or_else(|| {
        (
            format!("ERR line {lineno}: unknown tenant `{tenant}`"),
            Action::Continue,
        )
    })
}

fn execute(
    shared: &Shared,
    tenant: &mut String,
    lineno: u64,
    request: Request,
) -> (String, Action) {
    let registry = &shared.registry;
    let err = |msg: String| (format!("ERR line {lineno}: {msg}"), Action::Continue);
    match request {
        Request::Ping => ("OK pong".to_string(), Action::Continue),
        Request::Quit => ("OK bye".to_string(), Action::Close),
        Request::Shutdown => ("OK draining".to_string(), Action::Drain),
        Request::TenantCreate(name) => {
            if registry.is_draining() {
                return err("server is draining".into());
            }
            match registry.create(
                &name,
                Session::with_options(shared.base.clone(), shared.config.options),
            ) {
                Ok(_) => (
                    format!("OK created tenant={name} epoch=0"),
                    Action::Continue,
                ),
                Err(e) => err(e.to_string()),
            }
        }
        Request::TenantDrop(name) => {
            if registry.drop_tenant(&name) {
                (format!("OK dropped tenant={name}"), Action::Continue)
            } else {
                err(format!("unknown tenant `{name}`"))
            }
        }
        Request::TenantList => {
            let names = registry.names();
            let mut out = format!("OK tenants n={}", names.len());
            for name in names {
                let epoch = registry.get(&name).map(|s| s.epoch()).unwrap_or(0);
                out.push_str(&format!("\nTENANT {name} epoch={epoch}"));
            }
            (out, Action::Continue)
        }
        Request::Use(name) => match registry.get(&name) {
            Some(session) => {
                *tenant = name.clone();
                (
                    format!("OK using={name} epoch={}", session.epoch()),
                    Action::Continue,
                )
            }
            None => err(format!("unknown tenant `{name}`")),
        },
        Request::Stats(name) => {
            let name = name.unwrap_or_else(|| tenant.clone());
            let session = match tenant_session(shared, &name, lineno) {
                Ok(s) => s,
                Err(r) => return r,
            };
            let pressure = session.pressure().stats();
            let memo = session.memo_stats();
            (
                format!(
                    "OK stats tenant={name} epoch={} exact={} degraded={} shed={} \
                     shed-cache-hits={} shed-cache-misses={} memo-hits={} memo-misses={} \
                     backlog-us={} inflight={} draining={}",
                    session.epoch(),
                    pressure.admitted_exact,
                    pressure.admitted_degraded,
                    pressure.shed,
                    memo.shed_hits,
                    memo.shed_misses,
                    memo.hits,
                    memo.misses,
                    session.pressure().backlog().as_micros(),
                    registry.inflight(),
                    registry.is_draining(),
                ),
                Action::Continue,
            )
        }
        Request::Bound { caps, sql } => {
            let session = match tenant_session(shared, tenant, lineno) {
                Ok(s) => s,
                Err(r) => return r,
            };
            let budget = shared.config.caps.overridden_by(caps).armed_budget();
            let Some(_guard) = registry.begin_query(&budget) else {
                return err("server is draining".into());
            };
            let query = match parse_query(&shared.table, &sql) {
                Ok(q) => q,
                Err(e) => return err(e.to_string()),
            };
            let ticket = session.admit(&query, &budget);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                session.bound_ticketed_stamped(&query, &budget, ticket)
            }));
            match outcome {
                Ok((epoch, Ok(report))) => (
                    format!("OK bound epoch={epoch} {}", proto::report_fields(&report)),
                    Action::Continue,
                ),
                Ok((epoch, Err(BoundError::EmptyAggregate))) => {
                    (format!("OK bound epoch={epoch} empty"), Action::Continue)
                }
                Ok((_, Err(e))) => err(e.to_string()),
                Err(_) => err("query panicked (tenant state isolated, connection kept)".into()),
            }
        }
        Request::Batch { caps, sqls } => {
            let session = match tenant_session(shared, tenant, lineno) {
                Ok(s) => s,
                Err(r) => return r,
            };
            let budget = shared.config.caps.overridden_by(caps).armed_budget();
            let Some(_guard) = registry.begin_query(&budget) else {
                return err("server is draining".into());
            };
            let mut queries = Vec::with_capacity(sqls.len());
            for sql in &sqls {
                match parse_query(&shared.table, sql) {
                    Ok(q) => queries.push(q),
                    Err(e) => return err(format!("`{sql}`: {e}")),
                }
            }
            // `bound_many_stamped` already panics one query at a time
            // (`BoundError::Panicked`); the outer boundary catches
            // epoch-build panics so the connection always answers.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                session.bound_many_stamped(&queries, &budget)
            }));
            let (epoch, reports) = match outcome {
                Ok(pair) => pair,
                Err(_) => {
                    return err("batch panicked (tenant state isolated, connection kept)".into())
                }
            };
            let mut out = format!("OK batch epoch={epoch} n={}", reports.len());
            for (i, report) in reports.iter().enumerate() {
                match report {
                    Ok(r) => out.push_str(&format!("\nRES {i} {}", proto::report_fields(r))),
                    Err(BoundError::EmptyAggregate) => out.push_str(&format!("\nRES {i} empty")),
                    Err(e) => out.push_str(&format!("\nRES {i} error: {e}")),
                }
            }
            (out, Action::Continue)
        }
        Request::GroupBy { caps, column, sql } => {
            let session = match tenant_session(shared, tenant, lineno) {
                Ok(s) => s,
                Err(r) => return r,
            };
            let budget = shared.config.caps.overridden_by(caps).armed_budget();
            let Some(_guard) = registry.begin_query(&budget) else {
                return err("server is draining".into());
            };
            let query = match parse_query(&shared.table, &sql) {
                Ok(q) => q,
                Err(e) => return err(e.to_string()),
            };
            let Some(attr) = shared.table.schema().index_of(&column) else {
                return err(format!("group-by: no column named `{column}`"));
            };
            let keys = shared.table.group_keys(attr);
            if keys.is_empty() {
                return err("group-by: no group keys found in the data".into());
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                session.bound_group_by_stamped(&query, attr, keys, &budget)
            }));
            let (epoch, groups) = match outcome {
                Ok(pair) => pair,
                Err(_) => {
                    return err("group-by panicked (tenant state isolated, connection kept)".into())
                }
            };
            let mut out = format!("OK group-by epoch={epoch} n={}", groups.len());
            for group in &groups {
                let label = shared.table.key_label(attr, group.key);
                match &group.report {
                    Ok(r) => {
                        out.push_str(&format!("\nRES key={label} {}", proto::report_fields(r)))
                    }
                    Err(BoundError::EmptyAggregate) => {
                        out.push_str(&format!("\nRES key={label} empty"))
                    }
                    Err(e) => out.push_str(&format!("\nRES key={label} error: {e}")),
                }
            }
            (out, Action::Continue)
        }
        Request::Add(text) => {
            let session = match tenant_session(shared, tenant, lineno) {
                Ok(s) => s,
                Err(r) => return r,
            };
            let budget = shared.config.caps.armed_budget();
            let Some(_guard) = registry.begin_query(&budget) else {
                return err("server is draining".into());
            };
            let pc = match dsl::parse_constraint(&shared.table, &text) {
                Ok(pc) => pc,
                Err(e) => return err(e.to_string()),
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                session.add_constraint_stamped(pc, &budget)
            }));
            match outcome {
                Ok((id, epoch)) => (format!("OK added={id} epoch={epoch}"), Action::Continue),
                Err(_) => err("mutation panicked (tenant state isolated)".into()),
            }
        }
        Request::Retire(id) => {
            let session = match tenant_session(shared, tenant, lineno) {
                Ok(s) => s,
                Err(r) => return r,
            };
            let budget = QueryBudget::armed();
            let Some(_guard) = registry.begin_query(&budget) else {
                return err("server is draining".into());
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| session.retire_constraint_stamped(id)));
            match outcome {
                Ok(Ok(epoch)) => (format!("OK retired={id} epoch={epoch}"), Action::Continue),
                Ok(Err(e)) => err(e.to_string()),
                Err(_) => err("mutation panicked (tenant state isolated)".into()),
            }
        }
        Request::Replace(id, text) => {
            let session = match tenant_session(shared, tenant, lineno) {
                Ok(s) => s,
                Err(r) => return r,
            };
            let budget = shared.config.caps.armed_budget();
            let Some(_guard) = registry.begin_query(&budget) else {
                return err("server is draining".into());
            };
            let pc = match dsl::parse_constraint(&shared.table, &text) {
                Ok(pc) => pc,
                Err(e) => return err(e.to_string()),
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                session.replace_constraint_stamped(id, pc, &budget)
            }));
            match outcome {
                Ok(Ok((new_id, epoch))) => (
                    format!("OK replaced={id} added={new_id} epoch={epoch}"),
                    Action::Continue,
                ),
                Ok(Err(e)) => err(e.to_string()),
                Err(_) => err("mutation panicked (tenant state isolated)".into()),
            }
        }
    }
}
