#!/usr/bin/env bash
# Local CI gate, and the one list of what CI checks: the `fast` job of
# .github/workflows/ci.yml runs `--fast`, its `full` job the full tier.
#
#   scripts/check.sh --fast   # the PR loop: release build, `cargo test -q`
#                             # (every package's unit, integration and doc
#                             # tests), fmt, clippy -D warnings (also the
#                             # panic ban and `unreachable_pub`), rustdoc
#                             # -D warnings (the root and every library crate)
#   scripts/check.sh          # the fast tier, then:
#     - no durable scratch dir leaked under $TMPDIR;
#     - the panic-ban guard: no clippy.toml outside the root, no
#       `disallowed_methods`;
#     - the sl-lint gate over examples/dsn (standalone, deployed, JSON);
#     - the owner greps, each explained where it runs below: checkpoint
#       (no whole-window `.checkpoint()` in the engine), one text cursor and
#       JSON escaper, cube keys rendered in `CellMap::update` only, the CQ
#       load path, the removed engine switches, count once, the streamed
#       merge, one frame writer, restart replays (no `SegmentLog::open` in
#       crates/durable/src outside log.rs), one frame reader (no `fs::read(`
#       and no `fn walk_frames` in non-test crates/durable/src), one glob
#       matcher, no experiment crate, one-index hot queries, declared
#       instruments, counters live with what they count (no name-keyed
#       counter slots in crates/engine/src or src/), each crate names its
#       API (a `pub mod` in a crate's lib.rs is one of the 16 that another
#       crate, a test, an example or benchmark/ reaches by path);
#     - the chaos_recovery, durable_edw and continuous_dashboard examples;
#     - benchmark/: build, `run.sh --smoke` and its own tests
#       (benchmark/Cargo.lock restored), then the smoke's five run digests
#       against the pins at the end of this file.
#
# The build is offline by construction (crates.io is unreachable; all
# third-party deps are vendored shims under vendor/) — see README "Building".
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        *) echo "usage: scripts/check.sh [--fast]" >&2; exit 2 ;;
    esac
done

# ---------------------------------------------------------------- fast tier
cargo build --release
# `default-members` in the root Cargo.toml makes this the whole workspace:
# the root package's integration suites, every crate's unit, integration and
# doc tests (storage, views, the engine's chaos / durable_recovery /
# parallel_equivalence / overload / cq_equivalence suites) and the vendored
# shims'.
cargo test -q
cargo fmt --check
# clippy -D warnings is also the panic ban: `[workspace.lints.clippy]` in
# the root Cargo.toml denies `unwrap_used` and `expect_used` in every
# first-party library package, and the root clippy.toml lets tests through.
cargo clippy --workspace --all-targets -- -D warnings
# The root package on its own: its `sl-lint` binary and the `sl_lint`
# library would otherwise write the same doc directory in one run. Then the
# library crates, whose docs may link only to what they export.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p streamloader
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps $(printf -- '-p sl-%s ' $(ls crates))

if [ "$FAST" = 1 ]; then
    echo "check.sh: fast tier green"
    exit 0
fi

# ---------------------------------------------------------------- full tier
# The durable tests (fast tier) create scratch dirs under $TMPDIR; a
# leftover one means a TempDir leaked (Drop did not run or failed to clean
# up).
stray=$(find "${TMPDIR:-/tmp}" -maxdepth 1 -name 'sl-durable-*' -print -quit)
if [ -n "$stray" ]; then
    echo "check.sh: stray durable scratch dir left behind: $stray" >&2
    exit 1
fi

# The panic ban is declared once. A per-crate clippy.toml would silently
# replace the root one, and with it the test allowance; a
# `disallowed_methods` attribute is a leftover of the per-crate bans.
stray=$(find . -name clippy.toml -not -path ./clippy.toml -not -path './target/*' \
    -not -path './benchmark/*' -print -quit)
if [ -n "$stray" ]; then
    echo "check.sh: a clippy.toml outside the repository root: $stray" >&2
    exit 1
fi
if grep -rln disallowed_methods --include='*.rs' --include='*.toml' \
    --exclude-dir=target --exclude-dir=benchmark .; then
    echo "check.sh: disallowed_methods in the files above; the ban is [workspace.lints]" >&2
    exit 1
fi

# Static analysis gate: every example DSN document must lint clean
# (infos allowed, warnings and errors are not) — first standalone, then
# as a full deployment (SL050-SL092) against the CI engine config and
# chaos schedule, and once through the machine-readable JSON output.
cargo run --release -q --bin sl-lint -- --deny-warnings examples/dsn/*.dsn
cargo run --release -q --bin sl-lint -- --deny-warnings --nict \
    --config examples/deploy/ci.conf --fault-plan examples/deploy/ci.plan \
    examples/dsn/*.dsn
cargo run --release -q --bin sl-lint -- --deny-warnings --format json \
    --config examples/deploy/ci.conf --fault-plan examples/deploy/ci.plan \
    examples/dsn/*.dsn >/dev/null

# Owner grep: the engine logs a blocking operator's window as base + deltas
# (`storage.rs::checkpoint` drains `Operator::checkpoint_delta`). The
# whole-window `Operator::checkpoint()` is the specification that log is
# tested against; called from engine code it costs O(window) per call.
for f in crates/engine/src/*.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n '\.checkpoint()'; then
        echo "check.sh: whole-window .checkpoint() call in non-test $f" >&2
        exit 1
    fi
done

# Owner grep: text the system reads back goes through the one
# `sl_obs::text::Cursor`, and JSON strings are escaped by the one
# `sl_obs::json::write_str`. A cursor, whitespace skipper or `\u` escaper in
# non-test code anywhere else is a copy to fold back into `crates/obs/src`.
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/obs/src/*'); do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'struct Cursor|fn skip_ws|\\u\{:04x\}'; then
        echo "check.sh: a second text scanner or JSON escaper in non-test $f" >&2
        exit 1
    fi
done

# Owner grep: roll-up cells are keyed by value, and only the answer's
# order renders them. The view (`crates/cq/src/view.rs`) renders nothing,
# and the cube (`crates/warehouse/src/cube.rs`) renders in one function,
# `CellMap::update`, once per column it opens: a second renderer is a
# per-event `String` creeping back onto the roll-up path.
if sed '/#\[cfg(test)\]/,$d' crates/cq/src/view.rs | grep -nE 'to_string\(\)|format!'; then
    echo "check.sh: non-test crates/cq/src/view.rs renders a string" >&2
    exit 1
fi
renderers=$(sed '/#\[cfg(test)\]/,$d' crates/warehouse/src/cube.rs |
    awk '/^ *(pub(\([a-z]+\))? )?fn /{f=$0} /to_string\(\)|format!/{print f}' | sort -u)
if [ "$(printf '%s\n' "$renderers" | grep -c 'pub fn update(')" != 1 ] ||
    [ "$(printf '%s\n' "$renderers" | grep -c .)" != 1 ]; then
    echo "check.sh: crates/warehouse/src/cube.rs must render cell keys in CellMap::update alone; renderers:" >&2
    printf '%s\n' "$renderers" >&2
    exit 1
fi

# Owner grep: the continuous-query load path pays for what changed. The hub
# matches an event once per distinct query (its query groups), never once
# per subscription; the engine hands the hub the ingest batch by reference;
# and the monitor tick renders no key for a row it already has.
if sed '/#\[cfg(test)\]/,$d' crates/cq/src/hub.rs | grep -n 'sub\.query\.matches'; then
    echo "check.sh: per-subscription sub.query.matches in non-test crates/cq/src/hub.rs" >&2
    exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/engine/src/storage.rs | grep -n 'events\.clone()'; then
    echo "check.sh: the ingest batch is cloned in non-test crates/engine/src/storage.rs" >&2
    exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/engine/src/storage.rs |
    awk '/fn refresh_cq_monitor/{f=1} f && /^    }$/{f=0} f' | grep -n 'to_string()'; then
    echo "check.sh: refresh_cq_monitor renders a row key with to_string()" >&2
    exit 1
fi

# Owner grep: options only go down. Liveness, retrying and checkpointing
# have no engine switch (retrying is off at `retry.max_attempts = 0`), and
# SL070, which warned about the checkpoint switch, is retired.
if grep -rnE 'liveness_enabled|retry_enabled|checkpoint_enabled|UncheckpointedState' \
    crates src examples tests; then
    echo "check.sh: a removed engine switch or SL070 is named above" >&2
    exit 1
fi

# Owner grep: count each thing once. An operator call is timed only in
# `op/<dep>/<op>/proc_us` (there is no span tracer), and a dead letter is
# tallied only in the monitor's `DeadLetterQueue`, whose counters the
# `engine/dlq/*` keys and the report are read off.
if grep -rnE 'Tracer|SpanKey|SpanSlot|SpanRecord|spans_completed|\.dead_letters|counter\(&format!\("dlq/' \
    crates src examples tests; then
    echo "check.sh: a span tracer or a second dead-letter tally is named above" >&2
    exit 1
fi

# Owner grep: a merge streams its run. Compaction walks the run twice
# through one block buffer (`SegmentLog::scan_range`) and writes the
# product through a bounded buffer (`ProductWriter`); no reader hands it
# the whole run as a vector again.
if grep -rn 'fn read_range' crates/durable/src; then
    echo "check.sh: compaction reads its whole run into memory again (fn read_range)" >&2
    exit 1
fi

# Owner grep: the log has one frame writer. Every frame the segment log
# writes, live append or compaction product, is built by
# `codec::frame_into` in a buffer its writer reuses, which refuses a
# payload the reader would reject; no per-record payload or frame `Vec`
# and no unchecked second framer come back.
if grep -rnE 'fn (encode_event|encode_checkpoint|write_frame|append_payload)' crates/durable/src; then
    echo "check.sh: a second frame writer or per-record payload encoder in crates/durable/src" >&2
    exit 1
fi

# Owner grep: restart never materializes the log. `DurableWarehouse::open`
# applies each record as `SegmentLog::replay` walks its frame; the
# collecting `SegmentLog::open` (a vector of every record) is for tools and
# tests, so no non-test code of crates/durable/src outside log.rs calls it.
for f in crates/durable/src/*.rs; do
    if [ "$f" = crates/durable/src/log.rs ]; then continue; fi
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'SegmentLog::open('; then
        echo "check.sh: $f materializes the log with SegmentLog::open" >&2
        exit 1
    fi
done

# Owner greps: the log has one frame reader. Recovery, shadow checks and
# the cold and compaction scans walk a segment through `BlockReader::walk`,
# one bounded buffer read a chunk at a time, so no non-test code of
# crates/durable/src reads a whole file into memory or walks the frames of
# one (the slice walk is the specification in log.rs's tests).
for f in crates/durable/src/*.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'fs::read('; then
        echo "check.sh: $f reads a whole file into memory" >&2
        exit 1
    fi
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'fn walk_frames'; then
        echo "check.sh: $f walks the frames of a whole file read into memory" >&2
        exit 1
    fi
done

# Owner grep: one `*`/`?` glob matcher, `sl_obs::text::glob_match`, for the
# expression language's `matches` and the broker's sensor-name filter.
if grep -rnE 'fn glob_match\b' crates src examples tests | grep -v '^crates/obs/src/'; then
    echo "check.sh: a glob matcher outside crates/obs/src" >&2
    exit 1
fi

# Owner grep: tier-1 tests check the paper's artifacts (tests/paper_artifacts.rs
# names them all); the experiment crate and the two knobs only it turned are gone.
if grep -rnE 'sl-bench|sl_bench|crates/bench|set_force_nested_loop|PlacementPolicy::Random' \
    Cargo.toml crates src examples tests; then
    echo "check.sh: the deleted experiment crate or one of its knobs is named above" >&2
    exit 1
fi

# Owner grep: a hot query reads one index. Each index lists an event once
# (one time granule, one theme, one grid cell), so the planner's candidates
# need sorting only: a `.dedup()` there is a pass over every candidate
# that can remove nothing.
if sed '/#\[cfg(test)\]/,$d' crates/warehouse/src/query.rs | grep -n '\.dedup()'; then
    echo "check.sh: .dedup() in non-test crates/warehouse/src/query.rs" >&2
    exit 1
fi

# Owner grep: instruments are declared, not looked up. Each subsystem's
# instruments are the plain fields of one struct, updated by field access
# and written under their keys by its `snapshot()`; the by-name
# `sl_obs::Metrics` serves the benchmark and tests only, and its handle API
# is gone.
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/obs/src/*'); do
    if sed '/#\[cfg(test)\]/,$d' "$f" |
        grep -nE '\.(counter|gauge|hist)(_id|_at)?\(|Metrics::new'; then
        echo "check.sh: an instrument looked up by name or handle in non-test $f" >&2
        exit 1
    fi
done
if grep -rnE 'CounterId|GaugeId|HistId' crates src examples tests; then
    echo "check.sh: an instrument handle type is named above" >&2
    exit 1
fi

# Owner grep: counters live with what they count. An operator's
# `OpCounters` (with its ingress queue) and a sink's `e2e` histogram sit on
# its endpoint record, a namesake takes them over when it is minted, and a
# sink's total is that histogram's count: no name-keyed slot store, no
# slot binding and no second sink counter.
for f in $(find crates/engine/src src -name '*.rs'); do
    if sed '/#\[cfg(test)\]/,$d' "$f" |
        grep -nE 'struct Slots|fn bind_op|fn bind_sink|count_sink_at|sources_slot'; then
        echo "check.sh: a name-keyed counter slot in non-test $f" >&2
        exit 1
    fi
done

# Owner grep: each crate names its API. A crate's lib.rs keeps its modules
# private and re-exports what the system uses, so `unreachable_pub` (root
# Cargo.toml) flags a `pub` item no exported path reaches and `dead_code`
# sees it unused. The modules below stay public because another crate, a
# test, an example or benchmark/ reaches into them by path; a new one
# needs that reason.
public_mods="dsn/ast dsn/printer dsn/validate durable/codec durable/compact engine/shard
expr/functions expr/lexer lint/deployfile obs/json obs/text pubsub/enrich pubsub/registry
sensors/gen sensors/physical sensors/scenario"
for lib in crates/*/src/lib.rs; do
    crate=$(basename "$(dirname "$(dirname "$lib")")")
    for m in $(sed -nE 's/^[[:space:]]*pub mod ([a-z0-9_]+).*/\1/p' "$lib"); do
        case " $(echo $public_mods) " in
            *" $crate/$m "*) ;;
            *) echo "check.sh: $lib: pub mod $m is not one of the exported modules" >&2
               exit 1 ;;
        esac
    done
done

# Recovery end to end, each asserting what it restored: a node crash
# mid-window re-seeds the aggregate from the folded checkpoint log, and a
# killed process restores its warehouse and window from the durable log.
cargo run --release -q --example chaos_recovery >/dev/null
cargo run --release -q --example durable_edw >/dev/null

# The live-dashboard example runs end to end (view == rescan itself is the
# engine's cq_equivalence suite, run in the fast tier's `cargo test`).
cargo run --release -q --example continuous_dashboard >/dev/null

# The measure of record: benchmark/ is a standalone package over the public
# API that the driver builds from a PR's checkout unmodified, so an API
# break must fail here first. Its smoke runs all five workloads with every
# output check on (<1 s each); its own tests (not workspace members, so the
# fast tier's `cargo test` never sees them) hold BENCHMARK.json to the
# binary. cargo refreshes benchmark/Cargo.lock in place
# (the `sl-cq -> sl-faults` edge); a PR must not touch benchmark/, so the
# committed lock is put back whatever happens.
lock_backup=$(mktemp)
cp benchmark/Cargo.lock "$lock_backup"
trap 'cp "$lock_backup" benchmark/Cargo.lock; rm -f "$lock_backup"' EXIT
bash benchmark/run.sh --smoke >/dev/null
(cd benchmark && CARGO_TARGET_DIR=../target cargo test --offline --release -q)

# Output pins: the smoke's run digest of every workload (warehouse, sinks,
# operator counters, console, DLQ) must equal the one recorded here, and
# `chain_par` must equal `chain`. A change that alters outputs on purpose
# updates these pins in the same commit and says why.
pinned="osaka 7264fb1fd04d34d3
chain 35131ccd06bed8bd
chain_par 35131ccd06bed8bd
edw_load 840b01e952102a5f
edw_query bfbd858acfb372ce"
digests=$(grep -oE '"(workload|digest)": *"[^"]*"' benchmark/out/results.json |
    sed -E 's/.*: *"(.*)"/\1/' | paste -d' ' - -)
if [ "$digests" != "$pinned" ]; then
    echo "check.sh: benchmark smoke digests differ from the pins" >&2
    diff <(echo "$pinned") <(echo "$digests") >&2 || true
    exit 1
fi

echo "check.sh: all green"
