# lib.sh — what every multi-process script shares: a scratch directory,
# built binaries, free loopback ports, polynode start/stop, the control
# client, and failure reporting.  Sourced (after `set -euo pipefail`) by
# cluster_demo.sh, chaos_demo.sh, telemetry_smoke.sh and bench_procs.sh.

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/polynode.XXXXXX")"
BIN="$WORK/polynode"

declare -A PID=() CTRL=()
PEERS=""

cleanup() {
    for site in "${!PID[@]}"; do
        kill -9 "${PID[$site]}" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

say()  { printf '\033[1m== %s\033[0m\n' "$*"; }
fail() {
    printf 'FAIL: %s\n' "$*" >&2
    for f in "$WORK"/*.log; do echo "--- $f"; cat "$f"; done >&2
    # DEMO_LOG_DIR: CI sets this so node logs and span dumps survive the
    # mktemp cleanup and can be uploaded as a build artifact.
    if [[ -n "${DEMO_LOG_DIR:-}" ]]; then
        mkdir -p "$DEMO_LOG_DIR"
        cp "$WORK"/*.log "$WORK"/span-*.json "$DEMO_LOG_DIR"/ 2>/dev/null || true
    fi
    exit 1
}

build() { # tool... -> $WORK/<tool>
    say "building $*"
    for tool in "$@"; do (cd "$ROOT" && go build -o "$WORK/$tool" "./cmd/$tool"); done
}

free_ports() { # n -> n free loopback ports on one line
    python3 -c '
import socket, sys
socks = [socket.socket() for _ in range(int(sys.argv[1]))]
for s in socks: s.bind(("127.0.0.1", 0))
print(" ".join(str(s.getsockname()[1]) for s in socks))' "$1"
}

cluster_init() { # site... -> PEERS and CTRL[site], on free ports
    local ports; read -ra ports < <(free_ports $((2 * $#)))
    local i=0
    for site in "$@"; do
        PEERS+="${PEERS:+,}$site=127.0.0.1:${ports[i]}"
        CTRL[$site]="127.0.0.1:${ports[i + 1]}"
        i=$((i + 2))
    done
    mkdir -p "$WORK/wal"
}

start_node() { # site [polynode flags...]
    local site="$1"; shift
    "$BIN" -site "$site" -peers "$PEERS" -control "${CTRL[$site]}" "$@" \
        >>"$WORK/$site.log" 2>&1 &
    PID[$site]=$!
    disown
}

kill_node() { # site: kill -9, as a crash would
    kill -9 "${PID[$1]}"
    wait "${PID[$1]}" 2>/dev/null || true
    unset "PID[$1]"
}

call() { # site command...
    local site="$1"; shift
    "$BIN" -call "${CTRL[$site]}" "$@"
}

wait_ready() { # site...
    for site in "$@"; do
        for _ in $(seq 1 100); do
            if call "$site" PING >/dev/null 2>&1; then continue 2; fi
            sleep 0.1
        done
        fail "node $site never answered PING"
    done
}
