//! The line client: one request in, one response (header + declared
//! rows) out. Used by `pc client`, the integration tests, and the CI
//! smoke script runner ([`run_script`]).

use crate::proto;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One protocol connection. Requests and responses are strictly paired,
/// so a `send` always returns this request's response.
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One response: the `OK …` / `ERR …` header plus the `TENANT …` /
/// `RES …` rows its `n=<k>` field declared (empty for single-line
/// responses).
#[derive(Debug, Clone)]
pub struct Response {
    /// The header line.
    pub header: String,
    /// The declared follow-up rows, in order.
    pub rows: Vec<String>,
}

impl Response {
    /// Whether the header is an `OK`.
    pub fn is_ok(&self) -> bool {
        self.header.starts_with("OK")
    }

    /// A `key=value` field of the header (see [`proto::field`]).
    pub fn field(&self, key: &str) -> Option<&str> {
        proto::field(&self.header, key)
    }

    /// The stamped epoch, when the header carries one.
    pub fn epoch(&self) -> Option<u64> {
        self.field("epoch").and_then(|e| e.parse().ok())
    }

    /// The header's `range=[lo,hi]` field.
    pub fn range(&self) -> Option<(f64, f64)> {
        proto::parse_range(&self.header)
    }
}

impl Connection {
    /// Connect to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Connection> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Connection { writer, reader })
    }

    /// Bound how long [`Connection::send`] may wait for a response line
    /// (e.g. so a test against a draining server fails fast instead of
    /// hanging).
    pub fn set_response_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Send one request line, read its response (header + declared
    /// rows). An empty `line` sends an empty request — the server
    /// answers `ERR … empty request`, keeping the pairing.
    ///
    /// The line and its `\n` go out whole, in one write, so the server
    /// reads the request in one piece rather than waking on a partial
    /// line (the socket runs with `TCP_NODELAY`, so every write is its
    /// own segment). Other clients should frame their requests the same
    /// way.
    pub fn send(&mut self, line: &str) -> io::Result<Response> {
        self.writer.write_all([line, "\n"].concat().as_bytes())?;
        self.read_response()
    }

    /// The underlying stream (write half) — for tests that push raw
    /// bytes below the line protocol (half lines, over-long lines).
    pub fn raw_stream(&mut self) -> &mut TcpStream {
        &mut self.writer
    }

    /// Read one response without sending a request first — pairs with
    /// bytes pushed through [`Connection::raw_stream`].
    pub fn read_response(&mut self) -> io::Result<Response> {
        let header = self.read_line()?;
        let mut rows = Vec::new();
        for _ in 0..proto::declared_rows(&header) {
            rows.push(self.read_line()?);
        }
        Ok(Response { header, rows })
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

/// What a scripted session observed (exit-code material for `pc
/// client --script` and the CI smoke job).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScriptOutcome {
    /// Requests sent.
    pub requests: usize,
    /// Expectation mismatches: an `OK` where the script expected `ERR`
    /// (`!`-prefixed line) or an `ERR` where it expected `OK`.
    pub mismatches: usize,
}

impl ScriptOutcome {
    /// Whether every expectation held.
    pub fn passed(&self) -> bool {
        self.mismatches == 0
    }
}

/// Run a scripted session: each non-blank, non-`#` line is sent as one
/// request and its response echoed to `out`. A line prefixed `!` is a
/// **negative expectation** — the request must answer `ERR` (this is
/// how the smoke script proves malformed lines don't kill the
/// connection); every other line must answer `OK`. Mismatches are
/// counted, echoed as `MISMATCH …`, and reflected in the outcome. The
/// script stops after `quit` or `shutdown` (the server side closes).
pub fn run_script<A: ToSocketAddrs>(
    addr: A,
    script: &str,
    out: &mut dyn Write,
) -> io::Result<ScriptOutcome> {
    let mut conn = Connection::connect(addr)?;
    let mut outcome = ScriptOutcome::default();
    for raw in script.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (expect_err, request) = match line.strip_prefix('!') {
            Some(rest) => (true, rest.trim()),
            None => (false, line),
        };
        let response = conn.send(request)?;
        outcome.requests += 1;
        writeln!(out, "{}", response.header)?;
        for row in &response.rows {
            writeln!(out, "{row}")?;
        }
        if response.is_ok() == expect_err {
            outcome.mismatches += 1;
            let want = if expect_err { "ERR" } else { "OK" };
            writeln!(out, "MISMATCH line expected {want}: {request}")?;
        }
        if request == "quit" || request == "shutdown" {
            break;
        }
    }
    Ok(outcome)
}
