/**
 * @file
 * Real-Machine schedule checking: one harness, two drivers.
 *
 * The schedule harness (explorer.cc) drives a tiny real Machine one
 * message at a time. Every outgoing message is captured at the
 * Machine::send interception point into per-(src, dst) FIFO queues —
 * the mesh never reorders messages within a pair (XY routing + FIFO
 * links), so the legal delivery choices at any instant are exactly the
 * queue heads, plus, under a fault mode, a drop or duplicate of a head
 * (by fault class) or one D-node fail-stop. A run that stalls short of
 * quiescence with nothing in flight gets the recovery its pushed-out
 * timeouts would have driven: bounded forced-retry rounds.
 *
 * Every run ends in the same terminal checks: every issued access
 * completed, the machine invariants and the quiescent coherence scan
 * hold, each touched line's committed version equals the sequential
 * reference (its write count — no write lost, none applied twice), and
 * the coherence oracle counted zero violations.
 *
 * Two drivers sit on the harness:
 *  - Explorer (below) is stateless DFS with choice-prefix replay: each
 *    schedule is a fresh harness that issues the script up front,
 *    replays a recorded prefix of choice indices and then defaults to
 *    choice 0, recording the branching factor at each decision so the
 *    driver can backtrack to the deepest unexplored sibling.
 *  - replaySpecTraces (declared in check/spec_explorer.hh) is
 *    trace-guided: each abstract step takes the first live queue head
 *    matching its (type, line), and the tail runs the Explorer's
 *    default path.
 *
 * Any failure panics with the run's full choice trace.
 */

#ifndef PIMDSM_CHECK_EXPLORER_HH
#define PIMDSM_CHECK_EXPLORER_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace pimdsm
{

/** One scripted access of the model-check workload. */
struct ScriptedAccess
{
    NodeId node = 0;
    Addr addr = 0;
    bool isWrite = false;
};

/** What a harness run may inject on top of delivery reordering. */
enum class ExplorerFaultMode
{
    None,    ///< pure delivery-order exploration
    DropDup, ///< plus drops or duplicates of recoverable messages
    Death,   ///< plus one D-node fail-stop + failover (AGG only)
};

/** The tiny machine the real-Machine checkers run on: @p p P-nodes
 *  with one thread each, @p d D-nodes (AGG only), 64 KB memories and
 *  direct-mapped 1 KB L1 / 4 KB L2 caches. */
MachineConfig tinyCheckMachine(ArchKind arch, int p, int d);

/** Address of line @p li of a checker script: one line per page. */
constexpr Addr
tinyCheckLine(int li)
{
    return (Addr{1} << 16) + static_cast<Addr>(li) * 4096;
}

struct ExplorerConfig
{
    /** Tiny machine shape (2-4 nodes; validated by the Explorer). The
     *  Explorer forces check.enabled and, for fault modes, arms the
     *  recovery machinery with timeouts pushed past the horizon. */
    MachineConfig machine;
    std::vector<ScriptedAccess> accesses;
    ExplorerFaultMode faultMode = ExplorerFaultMode::None;
    /** Faults injectable per schedule (DropDup only; Death always
     *  kills at most one node). Higher budgets explore fault *pairs* —
     *  e.g. dropping both a reply and the retried request. */
    int faultBudget = 1;
    /** Stop after this many complete schedules (the frontier may be
     *  unexhausted; ExplorerResult::truncated reports that). */
    std::uint64_t maxSchedules = 100000;
};

struct ExplorerResult
{
    std::uint64_t schedules = 0;      ///< distinct complete schedules
    std::uint64_t decisions = 0;      ///< total choices taken
    std::uint64_t faultSchedules = 0; ///< schedules containing a fault
    /** Decision-tree nodes first reached this run (decisions minus the
     *  replay overhead: decisions == visited + reExecuted). */
    std::uint64_t visited = 0;
    /** Decisions replayed from a backtrack prefix — the inherent
     *  re-execution cost of stateless DFS (contrast the spec-level
     *  checker, which deduplicates states instead; see
     *  docs/model-checking.md). */
    std::uint64_t reExecuted = 0;
    bool truncated = false;           ///< hit maxSchedules early
};

class Explorer
{
  public:
    /** Throws FatalError on a nonsensical configuration. */
    explicit Explorer(ExplorerConfig cfg);

    /**
     * Explore until the choice tree is exhausted or maxSchedules is
     * reached. Throws PanicError (with the offending schedule's choice
     * trace appended) on any coherence violation, lost access,
     * deadlock, or sequential-reference mismatch.
     */
    ExplorerResult run();

  private:
    ExplorerConfig cfg_;
};

} // namespace pimdsm

#endif // PIMDSM_CHECK_EXPLORER_HH
