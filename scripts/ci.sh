#!/usr/bin/env bash
# Offline CI gate for the simdize workspace.
#
# Everything runs with `--offline`: the repo has no external
# dependencies, and CI must never reach for the network. The workspace
# build is followed at once by a format check (`cargo fmt` with
# rustfmt's defaults over the workspace; `cargo fmt` takes no
# `--offline` and needs none) and a build of the BENCHMARK.json package
# (`benchmark/`, outside the workspace and frozen between benchmark
# PRs), so an API break against it fails in the first minutes. The root
# `cargo build`/`cargo test` pair is the tier-1 gate (the root package
# and, as default members, the cli, engine, reorg and server crates);
# the other crates' own tests follow in debug, and the rest of the
# script widens it to the full workspace in release (bench is in the
# root package's dependency graph only as the dev-dependency of
# tests/paper.rs, and the engine's speed floors only exist in release),
# lints with clippy at -D warnings,
# builds rustdoc with warnings denied (every crate warns on
# missing_docs), re-runs the engine's differential tier matrix forced
# to the v2 and scalar tiers, runs the doctests, builds the examples,
# checks that the paper reproduction's generated tables are current
# (the worked-example docs are checked by tier-1's tests/explain.rs),
# and finishes with an end-to-end smoke sweep through the CLI binary:
# eight seeds of Figure 1 baked, run on the detected ISA tier and
# verified against the scalar oracle on four worker threads (with
# telemetry collection on), a request-scoped `simdize trace` export
# (text with the attributes and span tree, JSON, Chrome trace events),
# the disabled-instrumentation overhead gate, checked 1 s runs of all
# four BENCHMARK.json workloads (kernel-steady, bake-cold, compile-cold
# and serve-hot), a server smoke that checks trace-id echoing,
# the flight recorder's dump verb, the server's thread count (no pool)
# and the Prometheus /metrics endpoint, the 1200-connection stress
# test, and the bounded-equivalence prover: a quick proof of every
# sample loop plus the mutate-and-catch meta-test (an injected
# off-by-one must be caught and shrunk to counterexamples whose replay
# lines run).

set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch space for smoke artifacts (serve log, chrome trace, mutate
# log and its replay lines). A failing server-smoke check exits with
# the server still running, and it holds the script's stderr open, so
# a caller reading that through a pipe would wait forever: the exit
# trap stops it.
BENCH_TMP=$(mktemp -d)
serve_pid=
trap 'if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; fi; rm -rf "$BENCH_TMP"' EXIT

echo "== build (release, workspace) =="
cargo build --release --offline --workspace

echo "== format (rustfmt's defaults, workspace) =="
cargo fmt --all -- --check

echo "== build (release, BENCHMARK.json package) =="
# Outside the workspace, so nothing else compiles it; it spells the
# engine's public API by name and may not be edited to follow a rename.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "== test (tier-1: root package, cli, engine, reorg and server crates) =="
cargo test -q --offline

echo "== test (codegen, verify, explain, vm and telemetry crates, debug) =="
# Tier-1 tests the root package and, as default members, the cli
# crate, the engine crate (its tier check, trace fusion, lowering and
# the strip driver, with the dense loop-entry fixpoint every sparse one
# is compared with), the reorg crate (the graph, placement,
# reassociation) and the server crate (the gate, the wire protocol, the
# template memo), so none of those is listed again here. The release
# run below has debug assertions off: this is where the other crates'
# own unit tests run with the debug-only reference checks on — the
# generator's (every emitted program already numbered, every pass's
# output well formed) and the vm's (the column oracle's
# statement-independence assertion) — and the only place the vm's
# typed-loop-versus-checked-walk comparisons and the JSON parser's
# tests run at all.
cargo test -q --offline -p simdize-codegen \
    -p simdize-verify -p simdize-explain -p simdize-vm -p simdize-telemetry

echo "== test (release, workspace) =="
# Also the second profile for two root tests the tier-1 run above just
# ran in debug, and which can pass in one profile and fail in the other:
# tests/alloc.rs (the optimizer may elide or merge allocations, so a
# count that holds in debug must be shown to hold here) and
# tests/oracle.rs (the typed oracle loop's index arithmetic panics on
# overflow only in debug and wraps here, where only the byte comparison
# against the checked walk would notice).
cargo test -q --release --offline --workspace

echo "== emitted-program and baked-plan identity, wide corpus (release) =="
# tests/identity.rs pins the fingerprint of every program the driver
# emits, and every plan the engine bakes from them; tier-1 covers the
# samples and a 60-loop grid, and these ignored twins 4 seeds x 512
# loops — under all 60 driver configurations (~10 s), and bake-cold's
# corpus baked fused and unfused on two layouts (~2 s).
cargo test -q --release --offline --test identity -- --ignored

echo "== engine tier matrix, forced to the v2 and scalar tiers =="
# The host probably dispatches AVX2, so the plain test runs above cover
# that tier; forcing SIMDIZE_ISA=v2 re-runs the full policy x
# alignment x trip matrix on the x86-64-v2 tier (the same 128-bit
# operations the AVX2 tier uses, with every superinstruction 128 bits
# wide), and SIMDIZE_ISA=scalar re-runs it with
# the portable tier as the *dispatched* one — every tier shares the one
# generic strip driver, so each forced run is that driver at another
# instantiation. The carried-register strip-boundary matrix (rotations'
# seed lanes, reductions' partial-accumulator fill and fold) lives in
# simd_native too, so both runs pick it up unchanged. On an AVX2 host
# the AVX2 tier runs every paired superinstruction (an unrolled pair's
# two halves) 256 bits wide, so these two forced runs are the only ones
# that dispatch the 128-bit lane loops on paired superinstructions.
# (The override can only lower the tier, so this is safe on any host.)
SIMDIZE_ISA=v2 cargo test -q --release --offline --test simd_native
SIMDIZE_ISA=scalar cargo test -q --release --offline --test simd_native

echo "== unsafe sites in the engine (x86: 4 + 2 in tests) =="
# The AVX2 tier's 256-bit form adds none: LLVM merges its 16-byte loads
# and stores of adjacent vectors into single vmovdqu ymm.
[ "$(grep -rc 'unsafe {' crates/engine/src | grep -v ':0$' | sort | tr '\n' ' ')" = "crates/engine/src/native/x86.rs:6 " ] \
    || { echo "the engine's unsafe sites changed" >&2; exit 1; }

echo "== .text budget (release simdize binary, 2.05 MB) =="
# peak_rss_mb follows .text almost page for page (the binary's pages sit
# in the page cache and fault in 64 KB at a time), so code growth is an
# end-to-end cost: the tier runners below are where it has come from.
# The budget is the 1.86 MB .text of one compiled 128-bit runner set
# and one portable driver, plus about 10 %.
text=$(size -A target/release/simdize | awk '$1 == ".text" { print $2 }')
echo ".text: $text bytes"
nm -S --size-sort -C target/release/simdize | grep -E 'simdize_engine::native::(x86|portable|exec)' | tail -n 10
[ "$text" -le 2050000 ] \
    || { echo ".text of target/release/simdize is $text bytes, over the 2.05 MB budget" >&2; exit 1; }

echo "== clippy (-D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== docs (rustdoc builds cleanly, doctests pass) =="
# Every crate carries #![warn(missing_docs)]; promote rustdoc warnings
# to errors so public items cannot ship undocumented.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace
cargo test -q --offline --doc --workspace

echo "== examples build =="
cargo build -q --release --offline --examples

echo "== paper reproduction tables are current (E2-E13, E16) =="
# Re-runs every experiment of EXPERIMENTS.md and the greedy-vs-optimal
# study at full size (deterministic, seed 2004, ~15 s; every simdized
# run is verified against the scalar oracle on the way) and diffs each
# rendered table against its generated block in EXPERIMENTS.md and
# docs/POLICIES.md; drift fails CI and names the experiment (see
# crates/bench/src/bin/repro.rs).
target/release/repro --check-docs

echo "== optimal placement proves on every sample loop =="
# The full verify matrix below already includes optimal among its
# policies; this focused pass pins the domain to the exact search so a
# regression in it cannot hide behind the greedy configs.
for loop in loops/*.loop; do
    target/release/simdize verify "$loop" --quick --policy optimal \
        | grep -q '^PROVED:' \
        || { echo "verify --policy optimal: $loop did not prove" >&2; exit 1; }
done

echo "== smoke sweep (detected ISA tier, 8 seeds, telemetry on) =="
target/release/simdize sweep loops/figure1.loop --smoke --jobs 4 --telemetry

echo "== trace smoke (request-scoped export + chrome trace events) =="
# The byte-exact normalized form is pinned by the tier-1 golden
# (tests/trace.rs, regenerate with UPDATE_GOLDEN=1); this smoke drives
# the release binary: the text form with the request scope's
# attributes (its kernel-cache hits among them), a strided loop (whose
# bound is the strided cost model's, not §5.3's), schema-versioned
# JSON on stdout and a loadable chrome://tracing file via --chrome-out.
target/release/simdize trace loops/figure1.loop > "$BENCH_TMP/trace.txt"
grep -q '^== attributes ==$' "$BENCH_TMP/trace.txt"
grep -q '^cache.hits ' "$BENCH_TMP/trace.txt"
target/release/simdize trace loops/deinterleave.loop | grep -q 'verified=true'
target/release/simdize trace loops/figure1.loop --json \
    | grep -q '"schema":"simdize-trace/v1"'
target/release/simdize trace loops/figure1.loop \
    --chrome-out "$BENCH_TMP/chrome-trace.json" > /dev/null
grep -q '"traceEvents":\[' "$BENCH_TMP/chrome-trace.json"
grep -q '"ph":"X"' "$BENCH_TMP/chrome-trace.json"

echo "== one collector (the session collector and its schema stay gone) =="
# Bracketed so the patterns do not match this line.
if grep -rnE 'simdize-telemetry/v[1]|drain_span[s]|telemetry::sessio[n]' crates/ src/ tests/ scripts/ README.md docs/; then exit 1; fi

echo "== one writer (every JSON document goes through telemetry::json::Writer) =="
# Bracketed so the pattern does not match this line.
if grep -rn 'escap[e](' crates/*/src | grep -v '^crates/telemetry/src/json\.rs:'; then exit 1; fi

echo "== telemetry disabled-overhead gate (<2% of a kernel run) =="
# Run the timing-sensitive gate alone (--exact): the concurrent
# request-scope stress test in the same binary would otherwise enable
# collection mid-measurement.
TELEMETRY_OVERHEAD=1 cargo test -q --release --offline --test telemetry \
    -- --exact disabled_instrumentation_overhead_under_two_percent

echo "== regression benchmark checks out (kernel-steady, bake-cold, compile-cold and serve-hot, 1 s each) =="
# One short untraced run of the workload that lives in the strip
# driver: the last line is the contract's JSON, and it must say every
# op matched the scalar oracle — set-up builds each reference image
# with `MemoryImage::with_seed` + `run_scalar`, so a wrong seed fill or
# oracle fails here too. (The timings of a 1 s run mean nothing;
# the gate is "runs, correct" — the package was built at the top.)
benchmark/target/release/simdize-benchmark --workload kernel-steady --seed 1 --seconds 1 --trace 0 \
    | tail -n 1 | grep -q '"correct":true' \
    || { echo "benchmark: kernel-steady did not check out" >&2; exit 1; }
# And the workload that lives in the bake: 512 programs checked
# (`PredecodedKernel::new`, borrowing the program), baked straight from
# their VIR, lowered and cached, every op diffed against the scalar
# oracle. `--trace 1` alternates plain and traced rounds, so both of
# the benchmark's op paths (`get_or_bake_simd`, and its traced copy
# that calls `bake` and `SimdKernel::lower` itself) run.
benchmark/target/release/simdize-benchmark --workload bake-cold --seed 1 --seconds 1 --trace 1 \
    | tail -n 1 | grep -q '"correct":true' \
    || { echo "benchmark: bake-cold did not check out" >&2; exit 1; }
# And the front half: 512 distinct loops from source text to vector
# code, every op's program fingerprint checked against the one set-up
# computed with `Simdizer::compile` — the only workload that checks
# each op's output. `--trace 1` alternates the untraced op with the
# benchmark's per-layer copy of the pipeline, so both must agree.
benchmark/target/release/simdize-benchmark --workload compile-cold --seed 1 --seconds 1 --trace 1 \
    | tail -n 1 | grep -q '"correct":true' \
    || { echo "benchmark: compile-cold did not check out" >&2; exit 1; }
# And the end-to-end one: `run` requests on two closed-loop connections
# to an in-process `simdize serve`, every reply compared byte for byte
# with the one set-up recorded (the server's own diff against the
# scalar oracle says `verified` in each).
benchmark/target/release/simdize-benchmark --workload serve-hot --seed 1 --seconds 1 --trace 0 \
    | tail -n 1 | grep -q '"correct":true' \
    || { echo "benchmark: serve-hot did not check out" >&2; exit 1; }

echo "== server smoke (serve round-trip, trace ids, dump, /metrics) =="
# Boots `simdize serve` on port 0 with the metrics endpoint on a second
# ephemeral port, drives a compile/run/run/sweep/stats/trace/dump
# round-trip over /dev/tcp (every response must echo a trace id; the
# repeated `run` line is a template-memo hit), counts the
# server's threads, scrapes the Prometheus exposition, sends a source
# nested too deep and a ping after it, then requests shutdown and
# insists on a clean exit. The loop source is quote-free so it embeds in the JSON request
# lines without escaping.
target/release/simdize serve 127.0.0.1:0 --metrics-addr 127.0.0.1:0 \
    > "$BENCH_TMP/serve.log" &
serve_pid=$!
for _ in $(seq 1 200); do
    grep -q '^metrics on ' "$BENCH_TMP/serve.log" && break
    sleep 0.05
done
addr=$(sed -n 's/^listening on //p' "$BENCH_TMP/serve.log")
port=${addr##*:}
maddr=$(sed -n 's/^metrics on //p' "$BENCH_TMP/serve.log")
mport=${maddr##*:}
src='arrays { a: i32[64] @ 0; b: i32[64] @ 4; } for i in 0..40 { a[i+1] = b[i]; }'
exec 3<>"/dev/tcp/127.0.0.1/$port"
{
    printf '{"v":1,"id":1,"cmd":"compile","source":"%s"}\n' "$src"
    printf '{"v":1,"id":2,"cmd":"run","source":"%s","seed":7}\n' "$src"
    printf '{"v":1,"id":2,"cmd":"run","source":"%s","seed":7}\n' "$src"
    printf '{"v":1,"id":3,"cmd":"sweep","source":"%s","count":4}\n' "$src"
    printf '{"v":1,"id":4,"cmd":"trace","source":"%s"}\n' "$src"
    printf '{"v":1,"id":5,"cmd":"stats"}\n'
    printf '{"v":1,"id":6,"cmd":"dump"}\n'
} >&3
for id in 1 2 2 3 4 5 6; do
    IFS= read -r line <&3
    echo "$line" | grep -q "\"id\":$id,\"trace\":\"c" \
        || { echo "server smoke: request $id carries no trace id: $line" >&2; exit 1; }
    echo "$line" | grep -q '"ok":true' \
        || { echo "server smoke: request $id failed: $line" >&2; exit 1; }
    case $id in
        4) echo "$line" | grep -q '"schema":"simdize-trace/v1"' \
            || { echo "server smoke: trace verb missing schema: $line" >&2; exit 1; } ;;
        6) echo "$line" | grep -q '"schema":"simdize-flight/v1"' \
            || { echo "server smoke: dump verb missing schema: $line" >&2; exit 1; } ;;
    esac
done
# A request is a function call on the connection's own thread: the
# process is the accept loop, the /metrics listener and this one
# connection. A fourth thread means a pool came back.
threads=$(awk '/^Threads:/ {print $2}' "/proc/$serve_pid/status")
[ "$threads" = 3 ] \
    || { echo "server smoke: expected 3 threads, found $threads" >&2; exit 1; }
# Prometheus scrape over /dev/tcp (no curl in the CI image): the
# request counter, the kernel cache's (read from the cache itself, as
# `stats` reads it) and the template memo's (the repeated `run` line
# hit it) must expose with live values.
exec 4<>"/dev/tcp/127.0.0.1/$mport"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&4
metrics=$(cat <&4)
exec 4<&- 4>&-
echo "$metrics" | grep -q '# TYPE simdize_server_requests_total counter' \
    || { echo "server smoke: /metrics missing requests counter" >&2; exit 1; }
echo "$metrics" | grep -Eq 'simdize_server_requests_total [1-9][0-9]*' \
    || { echo "server smoke: /metrics requests counter not live" >&2; exit 1; }
echo "$metrics" | grep -Eq 'simdize_server_cache_hits_total [1-9][0-9]*' \
    || { echo "server smoke: /metrics kernel-cache counter not live" >&2; exit 1; }
echo "$metrics" | grep -Eq 'simdize_server_template_hits_total [1-9][0-9]*' \
    || { echo "server smoke: /metrics template-memo counter not live" >&2; exit 1; }
# A source nested past the parser's depth limit (5 000 parentheses)
# is refused with an error reply, and the connection still answers a
# ping: before the limit such a `run` overflowed the connection
# thread's stack and aborted the server.
deep="$(printf '(%.0s' $(seq 5000))b[i]$(printf ')%.0s' $(seq 5000))"
printf '{"v":1,"id":8,"cmd":"run","source":"arrays { a: i32[64] @ 0; b: i32[64] @ 4; } for i in 0..40 { a[i] = %s; }"}\n' "$deep" >&3
IFS= read -r line <&3
echo "$line" | grep -q '"ok":false' && echo "$line" | grep -q 'nests deeper than' \
    || { echo "server smoke: a too-deep source was not refused: ${line:0:300}" >&2; exit 1; }
printf '{"v":1,"id":9,"cmd":"ping"}\n' >&3
IFS= read -r line <&3
echo "$line" | grep -q '"pong":true' \
    || { echo "server smoke: no ping answer after a too-deep source: $line" >&2; exit 1; }
printf '{"v":1,"id":7,"cmd":"shutdown"}\n' >&3
IFS= read -r line <&3
echo "$line" | grep -q '"stopping":true' \
    || { echo "server smoke: shutdown failed: $line" >&2; exit 1; }
exec 3<&- 3>&-
wait "$serve_pid"
serve_pid=
grep -Eq 'served [0-9]+ request' "$BENCH_TMP/serve.log" \
    || { echo "server smoke: missing serve summary" >&2; exit 1; }

echo "== connection-count stress (1200 connections, release) =="
# The tier-1 run of tests/server.rs holds 64 connections; this is the
# same function at 1200 (about 4800 descriptors in one process). It
# asserts answers, not latency.
cargo test -q --release --offline --test server -- --ignored

echo "== static analysis (all sample loops) =="
for loop in loops/*.loop; do
    target/release/simdize analyze "$loop"
done
target/release/simdize analyze loops/figure1.loop --reuse pc --policy lazy --json

echo "== explain smoke (decision traces render in all three formats) =="
target/release/simdize explain loops/figure1.loop > /dev/null
target/release/simdize explain loops/figure1.loop --policy zero --json > /dev/null
target/release/simdize explain loops/runtime.loop --policy eager --markdown > /dev/null
# explain honours every pipeline flag, and the unaligned target has no
# reorganization to explain.
target/release/simdize explain loops/figure1.loop --reassoc --no-unroll --json \
    | grep -q '"mode":"stream"'
target/release/simdize explain loops/figure1.loop --target unaligned --json \
    | grep -q '"mode":"inapplicable"'

echo "== bounded verification (quick proofs over every sample loop) =="
# The --quick domain still crosses alignments x policies x trip
# regimes; a non-PROVED verdict (violation or 0 compiled units) means
# the prover or the pipeline regressed. Every proof must include the
# intrinsics backend (harness_native_equiv with a non-zero run count),
# so a silently skipped detected-tier harness also fails CI.
for loop in loops/*.loop; do
    report=$(target/release/simdize verify "$loop" --quick)
    echo "$report" | grep -q '^PROVED:' \
        || { echo "verify: $loop did not prove" >&2; exit 1; }
    echo "$report" | grep -q 'harness_native_equiv: [1-9][0-9]* runs' \
        || { echo "verify: $loop proof skipped the intrinsics backend" >&2; exit 1; }
done
# A strided loop is proved under every configuration a stride-one loop
# is (its packs and scatters are graph nodes, not a second generator).
target/release/simdize verify loops/deinterleave.loop --quick | grep -q ', 6 configs$' \
    || { echo "verify: deinterleave was not proved under 6 configs" >&2; exit 1; }
target/release/simdize verify loops/figure1.loop --quick --json \
    | grep -q '"schema":"simdize-verify/v1"'

echo "== mutate-and-catch (an injected fault must fail with a replay) =="
# Meta-test of the prover itself: a seeded off-by-one in the generated
# code must produce a non-zero exit and shrunk counterexamples with
# replayable `simdize run` command lines — one per harness, each of
# which the CLI must accept as printed (without the mutation the
# replayed loop verifies, so every line exits zero).
if target/release/simdize verify loops/figure1.loop --quick --mutate splice \
    > "$BENCH_TMP/mutate.log" 2>&1; then
    echo "mutate-and-catch: injected mutation went uncaught" >&2; exit 1
fi
sed -n 's/^ *shrunk; replay via: //p' "$BENCH_TMP/mutate.log" > "$BENCH_TMP/replays.sh"
[ "$(wc -l < "$BENCH_TMP/replays.sh")" -ge 2 ] \
    || { echo "mutate-and-catch: no replayable counterexample" >&2
         cat "$BENCH_TMP/mutate.log" >&2; exit 1; }
if grep -q -e '--engine native' "$BENCH_TMP/replays.sh"; then
    echo "mutate-and-catch: a replay names the removed native engine" >&2; exit 1
fi
PATH="$PWD/target/release:$PATH" bash -e "$BENCH_TMP/replays.sh" > /dev/null \
    || { echo "mutate-and-catch: a replay line did not run" >&2
         cat "$BENCH_TMP/replays.sh" >&2; exit 1; }

echo "== ci OK =="
