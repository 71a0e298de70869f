/**
 * @file
 * Spec-level exhaustive model checker.
 *
 * Explores an *abstract* operational model of the coherence protocols
 * — per-line node states, in-flight message multisets, and
 * directory/owner metadata, with no caches, timing, or mesh — and
 * checks every reachable state against the declarative ProtocolSpec
 * (src/proto/spec.cc): a handler step whose row is Impossible (or
 * missing), whose emitted messages are not in the row's send list, or
 * whose resulting stable state is not in the row's next-state list is
 * a violation, as are SWMR, version-monotonicity, lost-owner,
 * directory-integrity, and stuck-state (deadlock) failures.
 *
 * The search is graph exploration, not stateless tree re-execution:
 * states are canonicalized under compute-node permutations (symmetry
 * reduction), fingerprinted to 64 bits, and deduplicated through a
 * FlatMap-backed visited set. Partial-order reduction exploits the
 * model's per-line independence: only the lowest-numbered line with
 * enabled transitions is expanded at each state (an ample set; see
 * docs/model-checking.md for the commutation argument). Single-fault
 * injection (drop/dup, per the fault taxonomy classes) is folded
 * into the transition relation under a per-line budget.
 *
 * A conformance-sampling mode replays a random sample of explored
 * terminal traces through the real Machine on the schedule harness
 * the Explorer also runs on (check/explorer.hh: send interception +
 * direct delivery), with the coherence oracle armed, tying the
 * abstract model back to the implementation.
 */

#ifndef PIMDSM_CHECK_SPEC_EXPLORER_HH
#define PIMDSM_CHECK_SPEC_EXPLORER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "proto/message.hh"
#include "sim/config.hh"

namespace pimdsm
{

/**
 * Spec-level mutations for the checker's self-tests: each one must be
 * caught with a counterexample trace (ProtoMutation's cousins, but
 * applied to the abstract model / spec copy instead of the simulator).
 */
enum class SpecMutation : std::uint8_t
{
    None,
    /** Home omits the invalidation to one sharer on a write (and does
     *  not count it in ackCount): classic lost-invalidation bug. */
    DropInvalSend,
    /** Home treats a Dirty line as Uncached when a second writer
     *  arrives, granting exclusivity twice (mirror of
     *  ProtoMutation::DoubleOwner). */
    DoubleOwner,
    /** Swap a next-state entry in the spec copy itself (write install
     *  lands in Shared instead of Dirty), so the *conformance checks*
     *  — not the safety invariants — must catch the model/spec
     *  disagreement. */
    SwapNextState,
};

const char *specMutationName(SpecMutation m);

struct SpecExplorerConfig
{
    ArchKind arch = ArchKind::Agg;
    /** Compute nodes (COMA/NUMA: homes are co-located, line l's home
     *  on node l % nodes). At most 4. */
    int nodes = 3;
    /** Independent cache lines. At most 2. */
    int lines = 2;
    /** Per-node, per-line spontaneous-event budgets. */
    int reads = 1;
    int writes = 1;
    int evicts = 1;
    /** Forced-retry budget per node per line (only enabled when the
     *  line is stalled: a transaction pending with nothing in
     *  flight). */
    int retries = 2;
    /** Drop/dup fault events per line (0 = fault-free). */
    int faults = 1;
    SpecMutation mutation = SpecMutation::None;
    /** Breadth-first search: shortest counterexamples (mutation
     *  self-tests); default depth-first: least memory. */
    bool bfs = false;
    /** Hard cap on distinct states; exceeding it sets truncated. */
    std::uint64_t maxStates = 1ull << 25;
    /** Reservoir-sample this many terminal traces (conformance). */
    int sampleTraces = 0;
};

/** One event of a sampled or counterexample trace. */
struct SpecTraceStep
{
    enum class Kind : std::uint8_t
    {
        Read,
        Write,
        Evict,
        Deliver,
        Drop,
        Dup,
        Retry,
    };
    Kind kind = Kind::Read;
    int line = 0;
    /** Issuing/evicting/retrying compute node (-1 for deliveries). */
    int node = -1;
    /** Deliver/Drop/Dup: the message type acted on. */
    MsgType msg = MsgType::ReadReq;
    /** Human-readable rendering ("deliver ReadReply home->n1 ..."). */
    std::string text;
};

using SpecTrace = std::vector<SpecTraceStep>;

struct SpecExplorerResult
{
    std::uint64_t states = 0;      ///< distinct canonical states
    std::uint64_t transitions = 0; ///< edges executed
    std::uint64_t revisits = 0;    ///< edges into already-seen states
    std::uint64_t porPruned = 0;   ///< enabled transitions deferred by POR
    std::uint64_t faultTransitions = 0; ///< drop/dup edges
    std::uint64_t terminals = 0;   ///< quiescent budget-exhausted states
    std::uint64_t rowChecks = 0;   ///< spec-row contract checks performed
    std::uint64_t maxDepth = 0;    ///< deepest path explored
    bool truncated = false;        ///< hit maxStates
    bool violation = false;
    std::string violationText;
    /** Minimal (BFS) or first-found (DFS) counterexample. */
    SpecTrace counterexample;
    /** Reservoir-sampled terminal traces (sampleTraces > 0). */
    std::vector<SpecTrace> sampled;
};

class SpecExplorer
{
  public:
    /** Validates the config (throws FatalError on nonsense). */
    explicit SpecExplorer(SpecExplorerConfig cfg);

    /** Explore to fixpoint (or maxStates); never throws on a safety
     *  violation — it is reported in the result. */
    SpecExplorerResult run();

  private:
    SpecExplorerConfig cfg_;
};

/** Conformance-sampling summary (all traces must replay cleanly; any
 *  oracle/invariant/quiescence failure panics, as in the Explorer). */
struct SpecConformanceResult
{
    int replayed = 0;               ///< traces driven to quiescence
    std::uint64_t guidedSteps = 0;  ///< trace events matched to queues
    std::uint64_t missedSteps = 0;  ///< trace events with no live match
    std::uint64_t deliveries = 0;   ///< messages delivered in total
};

/**
 * Replay @p traces through a real Machine of @p cfg's organization on
 * the schedule harness (check/explorer.hh): scripted accesses are
 * issued in trace order, and each delivery (or injected drop/dup)
 * takes the first live queue head matching its (type, line). After
 * the trace, the run takes the Explorer's default path — choice 0,
 * forced retries when stalled — to quiescence and must pass the
 * harness's terminal checks; any failure panics. Traces with
 * evictions are rejected (the real machine's evictions are
 * capacity-driven and cannot be scripted) — sample from an
 * evicts == 0 exploration.
 */
SpecConformanceResult
replaySpecTraces(const SpecExplorerConfig &cfg,
                 const std::vector<SpecTrace> &traces);

} // namespace pimdsm

#endif // PIMDSM_CHECK_SPEC_EXPLORER_HH
