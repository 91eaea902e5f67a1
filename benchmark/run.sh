#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload serve-attack --seed 3 --seconds 17 --trace 0
#
# The benchmark is a cargo workspace of its own, so the repository's
# workspace and lock file stay untouched. Cargo reads profiles only from the
# manifest at the root of the workspace it builds, so the repository's
# Cargo.toml is also passed as a configuration file: its [profile.*] tables,
# the settings the program ships with, are then the ones the benchmark is
# compiled with. Its other tables are no configuration keys and cargo
# ignores them.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
if [ ! -f "$root/Cargo.toml" ]; then
    echo "error: $root holds no Cargo.toml; run from a checkout of the repository" >&2
    exit 1
fi
exec cargo --config "$root/Cargo.toml" run --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" -- "$@"
