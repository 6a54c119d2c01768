#!/usr/bin/env bash
# Streaming smoke: generate a time-ordered append stream, serve a durable
# corpus, register a standing co-location query pointed at a local webhook
# sink, replay the stream, and require (a) the server's streaming alerts to
# exactly equal an independent offline re-evaluation at the same theta,
# (b) every alert to reach the webhook sink, (c) the streaming metrics
# families to be live, (d) the derived-state caches to hold at most one
# entry per corpus record, and (e) the watchlist and the appended corpus
# to survive kill -9 + restart.
#
#   N=20 ./scripts/stream_smoke.sh            # stream trajectories (default 20)
#   THETA=0.2 ...                             # standing-query threshold
#   SHARDS=4 ...                              # engine partitions (default 4)
set -euo pipefail
cd "$(dirname "$0")/.."

N="${N:-20}"
THETA="${THETA:-0.2}"
SHARDS="${SHARDS:-4}"
ADDR="${ADDR:-127.0.0.1:18096}"
WORK="$(mktemp -d)"
SRV=""
trap '[ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null; rm -rf "$WORK"' EXIT

go build -o "$WORK/" ./cmd/stsgen ./cmd/stsserved ./cmd/stsstream
"$WORK/stsgen" -kind synth -n "$N" -stream -o "$WORK/stream.jsonl"

boot() {
  "$WORK/stsserved" -addr "$ADDR" -data-dir "$WORK/data" -shards "$SHARDS" \
    -grid 50 -sigma 25 2>>"$WORK/serve.log" &
  SRV=$!
  for _ in $(seq 1 300); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$SRV" 2>/dev/null; then
      echo "stream_smoke: server exited during boot" >&2
      tail -5 "$WORK/serve.log" >&2
      exit 1
    fi
    sleep 0.2
  done
  echo "stream_smoke: server did not come up" >&2
  exit 1
}

echo "stream_smoke: replaying $N mirrored trajectories, theta=$THETA"
boot
# stsstream registers the watch, replays the stream, and fails hard unless
# streamed alerts == offline re-evaluation == webhook deliveries.
"$WORK/stsstream" -addr "http://$ADDR" -file "$WORK/stream.jsonl" \
  -grid 50 -sigma 25 -watch smoke -theta "$THETA" -members 3 -mirror

curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.txt"
grep -q '^sts_append_total [1-9]' "$WORK/metrics.txt"
grep -q '^sts_standing_evals_total [1-9]' "$WORK/metrics.txt"
grep -q '^sts_alerts_total{watch="smoke"} [1-9]' "$WORK/metrics.txt"
grep -q '^sts_alert_delivered_total [1-9]' "$WORK/metrics.txt"
grep -q '^sts_standing_eval_seconds_count [1-9]' "$WORK/metrics.txt"
grep -q '^sts_watches 1$' "$WORK/metrics.txt"

# One cached copy per record: appends forget the grown record's previous
# generation, and by-ID requests resolve the record's own entries, so
# neither cache may outgrow the corpus.
stats="$(curl -fsS "http://$ADDR/v1/stats")"
first_int() { printf '%s' "$stats" | grep -o "$1" | head -1 | grep -o '[0-9]*$'; }
corpus="$(first_int '"corpus_size":[0-9]*')"
prepared="$(first_int '"prepared_cache":{[^}]*"size":[0-9]*')"
profiles="$(first_int '"profile_cache":{[^}]*"size":[0-9]*')"
echo "stream_smoke: $prepared prepared and $profiles profile cache entries for $corpus records"
if [ -z "$corpus" ] || [ -z "$prepared" ] || [ -z "$profiles" ] ||
  [ "$prepared" -gt "$corpus" ] || [ "$profiles" -gt "$corpus" ]; then
  echo "stream_smoke: derived-state caches exceed one entry per record" >&2
  exit 1
fi

# A grown trajectory must be resident in full (put batch + every append).
curl -fsS "http://$ADDR/v1/watch" >"$WORK/watch_pre.json"
grep -q '"name":"smoke"' "$WORK/watch_pre.json"
curl -fsS "http://$ADDR/v1/trajectories/synth-0000" >"$WORK/tr_pre.json"

echo "stream_smoke: kill -9"
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true

echo "stream_smoke: restart from $WORK/data"
boot
# The watchlist persists next to the corpus; the appended samples were
# WAL-framed, so the grown trajectory recovers bit-identically (modulo the
# store's documented quantization, disabled here).
curl -fsS "http://$ADDR/v1/watch" >"$WORK/watch_post.json"
grep -q '"name":"smoke"' "$WORK/watch_post.json"
if ! diff "$WORK/tr_pre.json" <(curl -fsS "http://$ADDR/v1/trajectories/synth-0000"); then
  echo "stream_smoke: appended trajectory changed across kill -9 + recovery" >&2
  exit 1
fi

kill -TERM "$SRV"
wait "$SRV" 2>/dev/null || true
SRV=""
echo "stream_smoke: ok — streaming alerts match offline re-eval; watchlist and appends survived kill -9"
