#!/usr/bin/env bash
# bench_diff.sh — throughput delta between two `pba-run bench` JSON files.
#
#   usage: scripts/bench_diff.sh OLD.json NEW.json
#          scripts/bench_diff.sh --tier TIER [--gate PCT]
#
# Matches engine entries on (protocol, executor) and stream entries on
# (policy, ingest), printing old/new balls-per-second and the relative
# delta. Cluster entries (keyed on mode/wire/shards/n) get a second,
# never-gated table of wire bytes per wave, so codec work shows its
# byte-volume delta without throughput noise tripping CI. `pba-run
# bench` writes binary rows only; JSON-codec rows in an older baseline
# print as "gone". Relies only on POSIX tools: the bench JSON is the
# compact hand-rolled format written by the runner, so a sed split plus
# awk field scraping is enough — no jq in the container.
#
# In `--tier` mode the script runs a fresh `pba-run bench --tier TIER`
# into a temp file and diffs it against the committed BENCH_TIER.json
# baseline. With `--gate PCT` it additionally exits 1 if any matched
# entry regressed by more than PCT percent — the CI throughput gate
# (check.sh runs the small tier; medium+ stay manual, they take minutes).
set -eu

gate=""
if [ "${1:-}" = "--tier" ]; then
  [ $# -ge 2 ] || { echo "--tier needs a value" >&2; exit 2; }
  tier=$2
  shift 2
  if [ "${1:-}" = "--gate" ]; then
    [ $# -ge 2 ] || { echo "--gate needs a value" >&2; exit 2; }
    gate=$2
    shift 2
  fi
  [ $# -eq 0 ] || { echo "unexpected arguments after --tier: $*" >&2; exit 2; }
  old="BENCH_${tier}.json"
  [ -f "$old" ] || { echo "no committed baseline $old" >&2; exit 2; }
  new=$(mktemp --suffix .json)
  fresh=$new
  echo "==> cargo run --release -q -p pba-runner --bin pba-run -- bench --tier $tier --out $new" >&2
  cargo run --release -q -p pba-runner --bin pba-run -- bench --tier "$tier" --out "$new" >/dev/null
elif [ $# -eq 2 ]; then
  old=$1
  new=$2
else
  echo "usage: $0 OLD.json NEW.json | $0 --tier TIER [--gate PCT]" >&2
  exit 2
fi
[ -f "$old" ] || { echo "no such file: $old" >&2; exit 2; }
[ -f "$new" ] || { echo "no such file: $new" >&2; exit 2; }

# Emit "key<TAB>balls_per_sec" rows: one per engine entry
# (protocol/executor) and one per stream entry (stream:policy/ingest).
rows() {
  sed 's/},{/}\n{/g' "$1" | awk '
    function field(s, k,   m) {
      m = match(s, "\"" k "\":\"[^\"]*\"")
      if (m == 0) return ""
      return substr(s, RSTART + length(k) + 4, RLENGTH - length(k) - 5)
    }
    function num(s, k,   m) {
      m = match(s, "\"" k "\":[-0-9.eE+]+")
      if (m == 0) return "-"
      return substr(s, RSTART + length(k) + 3, RLENGTH - length(k) - 3)
    }
    {
      proto = field($0, "protocol"); ex = field($0, "executor")
      pol = field($0, "policy"); ing = field($0, "ingest")
      bps = num($0, "balls_per_sec")
      if (proto != "" && ex != "")
        printf "%s/%s\t%s\n", proto, ex, bps
      else if (pol != "" && ing != "")
        printf "stream:%s/%s\t%s\n", pol, ing, bps
    }
  '
}

# Emit "key<TAB>wire_bytes_per_wave" rows for cluster entries, keyed on
# (mode, wire, shards, n). The wire key is always "binary" in fresh
# runs; keeping it in the key lets them match the committed baselines.
wire_rows() {
  sed 's/},{/}\n{/g' "$1" | awk '
    function field(s, k,   m) {
      m = match(s, "\"" k "\":\"[^\"]*\"")
      if (m == 0) return ""
      return substr(s, RSTART + length(k) + 4, RLENGTH - length(k) - 5)
    }
    function num(s, k,   m) {
      m = match(s, "\"" k "\":[-0-9.eE+]+")
      if (m == 0) return ""
      return substr(s, RSTART + length(k) + 3, RLENGTH - length(k) - 3)
    }
    {
      mode = field($0, "mode"); wire = field($0, "wire")
      bpw = num($0, "wire_bytes_per_wave")
      if (mode != "" && wire != "" && bpw != "")
        printf "cluster:%s/%s/s%s/n%s\t%s\n", \
          mode, wire, num($0, "shards"), num($0, "n"), bpw
    }
  '
}

tmp_old=$(mktemp)
tmp_new=$(mktemp)
trap 'rm -f "$tmp_old" "$tmp_new" ${fresh:+"$fresh"}' EXIT
rows "$old" >"$tmp_old"
rows "$new" >"$tmp_new"

printf '%-44s %14s %14s %10s\n' "entry (balls/s)" "old" "new" "delta"
awk -F'\t' -v gate="${gate:-}" '
  NR == FNR { ob[$1] = $2; next }
  {
    key = $1; nb = $2
    if (!(key in ob)) {
      printf "%-44s %14s %14.0f %10s\n", key, "-", nb, "new"
      next
    }
    seen[key] = 1
    if (ob[key] + 0 > 0) {
      delta = 100 * (nb - ob[key]) / ob[key]
      printf "%-44s %14.0f %14.0f %+9.1f%%\n", key, ob[key], nb, delta
      if (gate != "" && delta < -(gate + 0)) {
        printf "REGRESSION: %s dropped %.1f%% (gate %s%%)\n", key, -delta, gate
        bad = 1
      }
    } else
      printf "%-44s %14.0f %14.0f %10s\n", key, ob[key], nb, "-"
  }
  END {
    for (k in ob)
      if (!(k in seen))
        printf "%-44s %14.0f %14s %10s\n", k, ob[k], "-", "gone"
    exit bad
  }
' "$tmp_old" "$tmp_new"

# Byte-volume table: informational only (wire bytes are deterministic,
# so deltas here mean the codec or the conversation changed, not noise —
# but they are not a throughput regression, hence never gated).
wire_rows "$old" >"$tmp_old"
wire_rows "$new" >"$tmp_new"
if [ -s "$tmp_old" ] || [ -s "$tmp_new" ]; then
  echo
  printf '%-44s %14s %14s %10s\n' "entry (wire bytes/wave)" "old" "new" "delta"
  # FILENAME (not NR == FNR): either side may be empty when the
  # baseline predates the wire keys.
  awk -F'\t' '
    FILENAME == ARGV[1] { ob[$1] = $2; next }
    {
      key = $1; nb = $2
      if (!(key in ob)) {
        printf "%-44s %14s %14.0f %10s\n", key, "-", nb, "new"
        next
      }
      seen[key] = 1
      if (ob[key] + 0 > 0)
        printf "%-44s %14.0f %14.0f %+9.1f%%\n", key, ob[key], nb, \
          100 * (nb - ob[key]) / ob[key]
      else
        printf "%-44s %14.0f %14.0f %10s\n", key, ob[key], nb, "-"
    }
    END {
      for (k in ob)
        if (!(k in seen))
          printf "%-44s %14.0f %14s %10s\n", k, ob[k], "-", "gone"
    }
  ' "$tmp_old" "$tmp_new"
fi
