//! `pc serve` — the network serving front-end over versioned sessions:
//! a std-only TCP listener speaking a line-oriented text protocol in
//! front of a multi-tenant [`pc_core::SessionRegistry`]. One versioned
//! [`pc_core::Session`] catalog per tenant; stable `cN` constraint ids
//! are the wire API; mutations interleave with in-flight reads under the
//! epoch MVCC the session layer already provides, and **every data
//! response stamps the epoch it answered from**.
//!
//! The crate has three modules: [`proto`] (the request grammar and the
//! response field helpers — the *one* place the wire format lives),
//! [`server`] (listener, connection handlers, graceful drain), and
//! [`client`] (a line client plus a scripted session runner, used by
//! `pc client`, the integration tests, and the CI smoke job).
//!
//! # Wire protocol reference
//!
//! Requests are single lines, UTF-8, `\n`-terminated. Every received
//! line gets **exactly one response**: a single `OK …` / `ERR …` line,
//! except the multi-row responses (`tenant list`, `batch`, `group-by`)
//! whose `OK` header declares `n=<k>` and is followed by exactly `k`
//! `TENANT …` / `RES …` rows. A malformed line answers
//! `ERR line <N>: <reason>` — `N` is the 1-based request count on this
//! connection — and the connection stays up.
//!
//! Both ends run with `TCP_NODELAY`, so every write is its own segment.
//! The server writes each response — header and rows together — with
//! one write, so a reader gets it in one piece rather than waking on a
//! partial line. A client should write each request line whole, `\n`
//! included, as [`client::Connection::send`] does. When a connection
//! ends (`quit`, drain, slow-loris close or a read error), the server
//! shuts down its write side after its last response, so the peer reads
//! that response and then a clean EOF (a FIN), even if the peer's own
//! bytes were still unread and the kernel resets the socket after it.
//!
//! ## Admin verbs
//!
//! ```text
//! ping                      -> OK pong
//! tenant create <name>      -> OK created tenant=<name> epoch=0
//! tenant drop <name>        -> OK dropped tenant=<name>
//! tenant list               -> OK tenants n=<k>
//!                              TENANT <name> epoch=<e>     (k rows, sorted)
//! use <name>                -> OK using=<name> epoch=<e>
//! stats [<name>]            -> OK stats tenant=<t> epoch=<e> exact=<n>
//!                                 degraded=<n> shed=<n> shed-cache-hits=<n>
//!                                 shed-cache-misses=<n> backlog-us=<n>
//!                                 inflight=<n> draining=<true|false>
//! quit                      -> OK bye                       (closes the connection)
//! shutdown                  -> OK draining                  (starts graceful shutdown)
//! ```
//!
//! New tenants seed from the server's base constraint file (shared
//! schema, ids `c0..`); `use` scopes the connection's later query and
//! mutation verbs. `stats` surfaces the tenant's admission-gauge
//! counters and the session's cumulative shed-rejection-cache hit/miss
//! counters ([`pc_core::ShedCacheStats`]).
//!
//! ## Query verbs
//!
//! Each may carry per-request budget directives — `@timeout-ms=N`,
//! `@sat-cap=N`, `@node-cap=N` — between the verb and its argument;
//! they override the server-wide caps field-wise, validated by the same
//! shared parser as `pc batch` ([`pc_budget::caps`]): zero, negative,
//! and overflowing values are rejected at parse time.
//!
//! ```text
//! bound [@dirs] <sql>       -> OK bound epoch=<e> range=[<lo>,<hi>] closed=<b>
//!                                 degraded=<b> trip=<reason|-> verdict=<v>
//!                                 queue-us=<n> backlog-us=<n> est-us=<n>
//!                           -> OK bound epoch=<e> empty      (no missing row can match)
//! batch [@dirs] <sql> ;; <sql> …
//!                           -> OK batch epoch=<e> n=<k>
//!                              RES <i> range=[…] …           (one row per query, in order;
//!                              RES <i> empty                  a panicked or errored query
//!                              RES <i> error: <msg>           answers in its row, siblings
//!                                                             unaffected)
//! group-by [@dirs] <column> <sql>
//!                           -> OK group-by epoch=<e> n=<k>
//!                              RES key=<label> range=[…] …   (one row per group key)
//! ```
//!
//! `verdict` is the admission outcome (`exact` / `degraded` / `shed`)
//! and `queue-us`/`backlog-us`/`est-us` serialize the
//! [`pc_core::SchedReport`]; `trip` names the tripped budget cap (`-`
//! when untripped). Degraded and shed answers are **sound**: their range
//! contains the exact range. Queries fan onto the work-stealing pool
//! through the tenant's own admission gauge, so one tenant's overload
//! sheds its queries, not its neighbors'.
//!
//! ## Mutation verbs
//!
//! ```text
//! + <constraint in pc_core::dsl notation>
//!                           -> OK added=<cN> epoch=<e>
//! - <cN>                    -> OK retired=<cN> epoch=<e>
//! replace <cN> <constraint> -> OK replaced=<cN> added=<cM> epoch=<e>
//! ```
//!
//! Mutations serialize per tenant and produce a new epoch; queries
//! already in flight keep answering from the epoch they pinned
//! (snapshot isolation — property-tested end-to-end over the socket in
//! `tests/serve_net.rs`). The stamped epoch is captured inside the
//! mutation lock, so concurrent mutations can never misattribute it.
//!
//! ## Connection bounds and shutdown
//!
//! Connections are damage-bounded: a line longer than the configured
//! maximum answers `ERR` (rest of the line discarded), a read stalled
//! mid-line longer than the read timeout closes that connection only
//! (the slow-loris bound — see the `serve::read_stall` fault site), and
//! a query panic answers `ERR` on its own connection while every other
//! tenant and connection keeps serving. `shutdown` (or
//! [`server::ServerHandle::shutdown`]) starts the graceful drain: new
//! work is rejected with `ERR … draining`, every in-flight query's
//! [`pc_core::CancelToken`] fires (they finish early with sound degraded
//! answers), and [`server::Server::run`] returns once drained — or once
//! the drain deadline expires, stalled connections notwithstanding.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{run_script, Connection, Response, ScriptOutcome};
pub use proto::Request;
pub use server::{ServeConfig, Server, ServerHandle};
