#!/usr/bin/env bash
# End-to-end smoke for the serving front-end: start `pc serve` on an
# ephemeral port, check on a raw socket that a connection closed with
# unread bytes ends in a clean EOF, drive ci/serve_smoke.session through
# `pc client --script` (queries, mutations, malformed lines, graceful
# shutdown), and assert both exit codes. A hung server or a dropped
# connection fails the job via the timeouts, not by wedging CI.
set -euo pipefail

PC="${PC_BIN:-target/release/pc}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

printf 'utc,branch,price\n1,a,3.02\n2,b,6.71\n3,a,4.50\n' > "$WORK/data.csv"
printf 'TRUE => price BETWEEN 0 AND 149.99, (0, 100)\n' > "$WORK/constraints.txt"

"$PC" serve \
  --data "$WORK/data.csv" \
  --schema utc:int,branch:cat,price:float \
  --constraints "$WORK/constraints.txt" \
  --listen 127.0.0.1:0 \
  --drain-ms 2000 > "$WORK/serve.out" 2>&1 &
SERVE_PID=$!
# A check that fails while the server runs must not leave it behind.
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# The banner `listening on <addr>` is flushed before the accept loop.
ADDR=""
for _ in $(seq 1 50); do
  ADDR="$(sed -n 's/^listening on //p' "$WORK/serve.out" | head -1)"
  [ -n "$ADDR" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve.out"; echo "server died before listening"; exit 1; }
  sleep 0.1
done
[ -n "$ADDR" ] || { cat "$WORK/serve.out"; echo "no listen banner"; exit 1; }
echo "serving on $ADDR"

# Raw-socket close check: `ping`, `quit` and 8 KiB of filler in one
# write. The server answers both requests and closes with the filler
# still unread; it must send a FIN first, so the reader sees both
# responses and then a clean EOF (`cat` exits 0), not a reset.
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
{ printf 'ping\nquit\n'; head -c 8192 /dev/zero | tr '\0' x; } \
  | dd bs=16384 count=1 iflag=fullblock status=none >&3
CLOSE_RC=0
timeout 10 cat <&3 > "$WORK/close.out" || CLOSE_RC=$?
exec 3<&-
[ "$CLOSE_RC" -eq 0 ] || { echo "raw connection did not close cleanly (cat exit $CLOSE_RC)"; exit 1; }
[ "$(cat "$WORK/close.out")" = "$(printf 'OK pong\nOK bye')" ] \
  || { cat "$WORK/close.out"; echo "raw connection: expected OK pong, OK bye"; exit 1; }

CLIENT_RC=0
timeout 60 "$PC" client --addr "$ADDR" --script ci/serve_smoke.session | tee "$WORK/session.out" || CLIENT_RC=$?

# `shutdown` drains the server; it must exit 0 on its own.
SERVE_RC=0
if ! timeout 30 tail --pid="$SERVE_PID" -f /dev/null 2>/dev/null; then
  kill "$SERVE_PID" 2>/dev/null || true
  echo "server did not exit after shutdown"; exit 1
fi
wait "$SERVE_PID" || SERVE_RC=$?

echo "client exit=$CLIENT_RC server exit=$SERVE_RC"
[ "$CLIENT_RC" -eq 0 ] || { echo "scripted session had expectation mismatches"; exit 1; }
[ "$SERVE_RC" -eq 0 ] || { cat "$WORK/serve.out"; echo "server exited non-zero"; exit 1; }

# Spot-check the session transcript: epoch stamps moved and the
# malformed lines really answered ERR without killing the connection.
grep -q '^OK pong' "$WORK/session.out"
grep -q '^OK added=c1 epoch=1' "$WORK/session.out"
grep -q '^OK replaced=c1 added=c2 epoch=2' "$WORK/session.out"
grep -q '^OK retired=c2 epoch=3' "$WORK/session.out"
grep -q 'shed-cache-hits=' "$WORK/session.out"
# the repeated `bound` line is the session's one memo hit
grep -q ' memo-hits=1 ' "$WORK/session.out"
grep -q '^OK draining' "$WORK/session.out"
! grep -q '^MISMATCH' "$WORK/session.out"
echo "serve smoke passed"
