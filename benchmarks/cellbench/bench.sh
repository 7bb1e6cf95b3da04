#!/usr/bin/env bash
# What BENCHMARK.json's `command` runs: build `cellbench`, then
# `cellbench run` with the arguments given (`--workload W --seed N
# --seconds S --trace 0|1`).
#
# The build is against the published crates the workspace names (rand,
# rand_chacha, rayon, serde, serde_json) whenever cargo can resolve
# them. Only where it cannot — a sandbox with no registry — is it
# repeated offline with standins/offline.toml, which patches in the
# stand-ins of standins/; such a binary writes `"deps": "standins"` into
# every record, and `cellbench compare` refuses to set it against a
# crates.io build. CELLBENCH_DEPS=crates.io|standins forces one or the
# other; unset, the choice made by the first build in a target
# directory is kept for the later ones.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
chosen="$target/cellbench.deps"

build() {
    # The two sets resolve to different lock files; one left by the
    # other would pin packages this build cannot reach.
    if [ "$(cat "$chosen" 2>/dev/null)" != "$1" ]; then
        rm -f "$here/Cargo.lock"
    fi
    local flags=()
    if [ "$1" = standins ]; then
        flags=(--offline --config "$here/standins/offline.toml")
    fi
    cargo build --release --quiet --manifest-path "$here/Cargo.toml" --bin cellbench \
        ${flags[@]+"${flags[@]}"} || return
    mkdir -p "$target"
    echo "$1" >"$chosen"
}

case "${CELLBENCH_DEPS:-$(cat "$chosen" 2>/dev/null || true)}" in
crates.io) build crates.io ;;
standins) build standins ;;
"")
    if ! build crates.io 2>/dev/null; then
        echo "cellbench: cargo cannot resolve the published crates here;" \
            "building against the stand-ins (records will say deps=standins)" >&2
        build standins
    fi
    ;;
*)
    echo "cellbench: CELLBENCH_DEPS must be crates.io or standins" >&2
    exit 2
    ;;
esac

exec "$target/release/cellbench" run "$@"
