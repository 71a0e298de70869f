#!/usr/bin/env bash
# Repo-local lint: bans patterns that break simulator reproducibility
# or let the protocol drift out of sync with its own metadata. Run
# from anywhere; exits non-zero with a file:line listing per offense.
set -u
cd "$(dirname "$0")/.."

fail=0
complain() {
    echo "lint: $1" >&2
    shift
    printf '  %s\n' "$@" >&2
    fail=1
}

src_files() {
    find src tests bench examples -name '*.cc' -o -name '*.hh' | sort
}

# --- 1. Unseeded randomness outside sim/random.* ----------------------
# Every stochastic decision must flow through the seeded Rng so runs
# (and fault campaigns) replay deterministically.
hits=$(src_files | grep -v 'src/sim/random' |
       xargs grep -nE '\b(rand|srand|random)\(\)|std::random_device|time\(NULL\)|time\(0\)' 2>/dev/null)
if [ -n "$hits" ]; then
    complain "unseeded randomness (use sim/random.hh Rng):" "$hits"
fi

# --- 2. Wall-clock time in simulation code ----------------------------
# Simulated time is EventQueue ticks; wall-clock reads make runs
# nondeterministic. (bench/ may time itself; the harness does it.)
hits=$(find src -name '*.cc' -o -name '*.hh' | sort |
       xargs grep -nE 'std::chrono::(system|steady|high_resolution)_clock::now' 2>/dev/null)
if [ -n "$hits" ]; then
    complain "wall-clock reads in src/ (use EventQueue ticks):" "$hits"
fi

# --- 3. msgTypeName exhaustiveness ------------------------------------
# Every MsgType enumerator must have a case in msgTypeName(); a missing
# one silently prints "?" in traces and violation reports.
enums=$(sed -n '/^enum class MsgType/,/^};/p' src/proto/message.hh |
        grep -oE '^    [A-Z][A-Za-z]+' | tr -d ' ')
missing=""
for e in $enums; do
    grep -qE "case MsgType::$e:" src/proto/message.cc ||
        missing="$missing $e"
done
if [ -n "$missing" ]; then
    complain "MsgType enumerators missing from msgTypeName():" "$missing"
fi

# --- 3b. Protocol-spec declaration exhaustiveness ---------------------
# Every MsgType enumerator must be declared in the protocol spec
# (src/proto/spec.cc); an undeclared one has no class/routing/network
# metadata and protocheck would reject any transition that uses it.
missing=""
for e in $enums; do
    grep -qE "declareMsg\((MsgType|MT)::$e," src/proto/spec.cc ||
        missing="$missing $e"
done
if [ -n "$missing" ]; then
    complain "MsgType enumerators missing a declareMsg() in src/proto/spec.cc:" "$missing"
fi

# --- 4. Naked new/delete ----------------------------------------------
hits=$(src_files |
       xargs grep -nE '=\s*new\s|[^_a-zA-Z]delete\s+[a-z]' 2>/dev/null |
       grep -v 'unique_ptr\|make_unique\|= delete')
if [ -n "$hits" ]; then
    complain "naked new/delete (use std::unique_ptr):" "$hits"
fi

# --- 5. printf-family in the library ----------------------------------
# src/ reports through Trace/warn/panic/StatSet; stray stdout writes
# corrupt machine-readable experiment output.
hits=$(find src -name '*.cc' -o -name '*.hh' | sort |
       grep -v 'src/sim/log' |
       xargs grep -nE '\b(printf|fprintf|puts)\(' 2>/dev/null)
if [ -n "$hits" ]; then
    complain "printf-family in src/ (use Trace/warn/panic):" "$hits"
fi

# --- 6. Hot-path container/callback discipline ------------------------
# The kernel overhaul moved src/sim, src/net, and src/proto hot paths
# to InlineCallback / FunctionRef / FlatMap; src/mem (the tag arrays
# every access probes) is held to the same rule. New std::function members
# and node-based maps reintroduce per-event allocations; use
# sim/inline_callback.hh (owning), sim/function_ref.hh (borrowing
# visitor parameters), or sim/flat_map.hh instead. The allowlist
# covers cold paths: the user-facing completion-callback API, CIM
# completion plumbing, reconfig-time scratch maps, the sorted stats
# report, and the spec static analyzer.
hits=$(find src/sim src/net src/proto src/mem -name '*.cc' -o -name '*.hh' |
       sort |
       xargs grep -nE 'std::function<|std::map<|std::unordered_map<' \
           2>/dev/null |
       grep -vE '^\s*[^:]+:[0-9]+:\s*(//|\*|/\*)' |
       grep -v 'compute_base.hh:.*CompletionFn' |
       grep -v 'compute_base.hh:.*std::function<void(Tick)>' |
       grep -v 'compute_base.hh:.*cimCallbacks_' |
       grep -v 'compute_base.hh:.*flushDone_' |
       grep -v 'compute_base.hh:.*flushAll' |
       grep -v 'compute_base.cc:.*std::function<void(Tick)> cb' |
       grep -v 'compute_base.cc:.*flushAll' |
       grep -v 'agg_dnode.cc:.*page_heat' |
       grep -v 'stats.hh:.*std::map<std::string, double>' |
       grep -v 'spec_check.cc:.*std::function<bool(int)> dfs')
if [ -n "$hits" ]; then
    complain "std::function / node-based map in a hot path (use sim/inline_callback.hh, sim/function_ref.hh, or sim/flat_map.hh):" "$hits"
fi

# --- 6a. No std::deque in per-line / per-transaction values -----------
# libstdc++'s std::deque allocates a 64 B map plus a 512 B node when it
# is constructed and again when it is moved from: 576 B of heap per
# construct or move, even while empty. Directory entries, MSHRs and
# every other FlatMap value in src/proto are created, moved (robin-hood
# displacement, rehash) and destroyed at simulation rate, so their
# queues use sim/fifo.hh instead. Single long-lived members (e.g.
# Mesh::blocked_, ComputeBase::blocked_) may stay std::deque.
proto_files=$(find src/proto -name '*.cc' -o -name '*.hh' | sort)
flat_values=$(echo "$proto_files" | xargs grep -ohE 'FlatMap<.*>' |
              sed -E 's/.*, *([A-Za-z_]+)>$/\1/' |
              grep -xE '[A-Za-z_]+' | sort -u)
hits=$(echo "$proto_files" |
       xargs grep -nE 'FlatMap<[^;]*std::deque<' 2>/dev/null)
for v in DirEntry Mshr $flat_values; do
    hits="$hits$(echo "$proto_files" | xargs awk -v name="$v" '
        !inside && $0 ~ ("^[ \t]*struct[ \t]+" name "([ \t]|$)") &&
            $0 !~ /;[ \t]*$/ { inside = 1; depth = 0; opened = 0 }
        inside {
            if ($0 ~ /std::deque</ && $0 !~ /^[ \t]*(\/\/|\*|\/\*)/)
                printf "\n%s:%d:%s", FILENAME, FNR, $0
            o = gsub(/\{/, "{"); c = gsub(/\}/, "}")
            depth += o - c
            if (o > 0) opened = 1
            if (opened && depth <= 0) inside = 0
        }')"
done
hits=$(echo "$hits" | sed '/^$/d' | sort -u)
if [ -n "$hits" ]; then
    complain "std::deque in a per-line/per-transaction value in src/proto (576 B of heap per construct/move; use sim/fifo.hh):" "$hits"
fi

# --- 6b. Transition-table construction discipline ---------------------
# The declarative protocol spec is single-source: transition tables are
# built ONLY in src/proto/spec.cc (the real spec) and consumed — never
# rebuilt — everywhere else (the abstract model checker copies
# ProtocolSpec::instance() to seed its mutation self-tests).
# tests/test_protocheck.cc corrupts built copies to prove the static
# analyzer catches each violation kind; that is deliberate. Any other
# builder call (declareMsg / on / ignore / impossible /
# ProtocolSpec::build) forks the protocol definition and will silently
# drift from the checked spec.
hits=$(src_files | cat - <(find tools -name '*.cc' | sort) |
       grep -vE 'src/proto/spec\.(cc|hh)' |
       grep -v 'tests/test_protocheck.cc' |
       xargs grep -nE '\bdeclareMsg\([^)]|\.on\((spec::)?(Role|R)::|\.ignore\((spec::)?(Role|R)::|\.impossible\((spec::)?(Role|R)::|ProtocolSpec::build\(' \
           2>/dev/null)
if [ -n "$hits" ]; then
    complain "transition-table construction outside src/proto/spec.cc (single-source spec):" "$hits"
fi

# --- 7. Fault enum exhaustiveness -------------------------------------
# Every FaultAction / FaultDomain enumerator must have a case in its
# name function (src/sim/fault.cc), and every FaultDomain must be
# handled by the chaos generator (tools/chaos/chaos.cc) — a domain the
# fuzzer cannot draw is a fault path with zero randomized coverage.
for enum_name in FaultAction FaultDomain; do
    enums=$(sed -n "/^enum class $enum_name/,/^};/p" src/sim/fault.hh |
            grep -oE '^    [A-Z][A-Za-z]+' | tr -d ' ')
    missing=""
    for e in $enums; do
        grep -qE "case $enum_name::$e:" src/sim/fault.cc ||
            missing="$missing $e"
    done
    if [ -n "$missing" ]; then
        complain "$enum_name enumerators missing from src/sim/fault.cc name function:" "$missing"
    fi
    if [ "$enum_name" = FaultDomain ]; then
        missing=""
        for e in $enums; do
            grep -qE "case $enum_name::$e:" tools/chaos/chaos.cc ||
                missing="$missing $e"
        done
        if [ -n "$missing" ]; then
            complain "FaultDomain enumerators unhandled by tools/chaos/chaos.cc (generator/apply/writer):" "$missing"
        fi
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "lint: FAILED" >&2
    exit 1
fi
echo "lint: OK"
