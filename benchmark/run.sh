#!/usr/bin/env bash
# The benchmark's one command: builds the benchmark package offline, then
# runs it. See README.md.
#
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--trace [0|1]]
#                    [--selfcheck]
#
# Without --workload: every workload, each in a process of its own, in
# interleaved rounds, every metric printed by name with its unit.
# With --workload: that workload once, in one process; the last line of
# stdout is the result as one JSON object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "benchmark: $root is not the bobw repository (no Cargo.toml / crates/):" \
         "the benchmark builds against the repo's crates and cannot run without them" >&2
    exit 1
fi

# The numbers are only comparable with the shipped binaries if both are
# built with the same codegen settings.
release_profile() {
    awk '/^\[profile\.release\]/ { on = 1; next }
         /^\[/                   { on = 0 }
         on && NF && $0 !~ /^[[:space:]]*#/ { gsub(/[[:space:]]/, ""); print }' "$1" | sort
}
if [ "$(release_profile "$root/Cargo.toml")" != "$(release_profile "$here/Cargo.toml")" ]; then
    echo "benchmark: [profile.release] differs between $root/Cargo.toml and" \
         "$here/Cargo.toml; mirror the root profile before measuring" >&2
    exit 1
fi

# A relative CARGO_TARGET_DIR is relative to the caller's directory for
# cargo and for the path below alike.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/bobw-benchmark" "$@"
