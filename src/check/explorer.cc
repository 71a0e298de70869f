/**
 * @file
 * The real-Machine schedule harness and its two drivers, Explorer::run
 * and replaySpecTraces (see explorer.hh).
 */

#include "check/explorer.hh"

#include <deque>
#include <map>
#include <sstream>
#include <utility>

#include "check/spec_explorer.hh"
#include "machine/machine.hh"
#include "machine/reconfig.hh"
#include "sim/log.hh"

namespace pimdsm
{

namespace
{

/** Ticks per settle step: far beyond any handler/disk latency chain,
 *  far below the pushed-out fault timeouts. */
constexpr Tick kSettleWindow = 1u << 20;

/** Timeout/sweep horizon the harness pushes past: it drives recovery
 *  explicitly via retryStalledTransactions instead of simulated time. */
constexpr Tick kFarFuture = Tick{1} << 50;

/** Forced-retry rounds before a stalled run is declared wedged. */
constexpr int kMaxRetryRounds = 16;

/** Arm @p mc for checking and validate it: oracle on and, for a fault
 *  mode, the recovery bookkeeping with its timers pushed past the
 *  horizon (the harness injects faults and drives recovery itself). */
void
armForCheck(MachineConfig &mc, ExplorerFaultMode mode)
{
    mc.check.enabled = true;
    if (mode != ExplorerFaultMode::None) {
        mc.faults.armRecovery = true;
        mc.faults.timeoutTicks = kFarFuture;
        mc.faults.sweepInterval = kFarFuture;
    }
    mc.validate();
}

/** One fresh real Machine whose messages are delivered by choice. */
class ScheduleHarness
{
  public:
    /** One executable option at a decision point. */
    struct Choice
    {
        enum class Kind
        {
            Deliver,
            Drop,
            Dup,
            Kill,
        };
        Kind kind = Kind::Deliver;
        /** Deliver/Drop/Dup: which pair queue's head. */
        std::pair<NodeId, NodeId> queue{kInvalidNode, kInvalidNode};
        /** Kill: the D-node to fail-stop. */
        NodeId victim = kInvalidNode;
    };

    /** @p mc must be armed for @p mode. Drop/dup choices are offered
     *  while fewer than @p faultBudget faults were taken. */
    ScheduleHarness(const MachineConfig &mc, ExplorerFaultMode mode,
                    int faultBudget)
        : mode_(mode), faultBudget_(faultBudget), m_(mc)
    {
        m_.setSendInterceptor([this](const Message &msg) {
            queues_[{msg.src, msg.dst}].push_back(msg);
            return true;
        });
    }
    // The machine's callbacks hold this harness's address.
    ScheduleHarness(const ScheduleHarness &) = delete;
    ScheduleHarness &operator=(const ScheduleHarness &) = delete;

    /** Choice indices taken by runToQuiescence, in order. */
    const std::vector<int> &taken() const { return taken_; }
    /** Branching factor at each of those decisions. */
    const std::vector<int> &counts() const { return counts_; }
    bool faultUsed() const { return faultsUsed_ > 0; }
    /** Messages handed to their destination, duplicates included. */
    std::uint64_t deliveries() const { return deliveries_; }

    /** Issue @p a at @p delay ticks from now (not yet settled). */
    void
    issue(const ScriptedAccess &a, Tick delay)
    {
        issued_.push_back(a);
        m_.eq().scheduleIn(delay, [this, a] {
            m_.compute(a.node)->access(
                a.addr, a.isWrite,
                [this](Tick, ReadService) { ++completions_; });
        });
    }

    void
    settle()
    {
        m_.eq().runUntil(m_.eq().curTick() + kSettleWindow);
    }

    /** Take @p c, note it in the trace, and settle. */
    void
    apply(const Choice &c)
    {
        trace_.push_back(describe(c));
        switch (c.kind) {
          case Choice::Kind::Deliver: {
            auto &q = queues_[c.queue];
            const Message msg = q.front();
            q.pop_front();
            m_.deliverDirect(msg);
            ++deliveries_;
            break;
          }
          case Choice::Kind::Drop:
            queues_[c.queue].pop_front();
            m_.stats().add("mc.dropped");
            ++faultsUsed_;
            break;
          case Choice::Kind::Dup:
            // The duplicate rides right behind the original in the
            // pair's FIFO: deliver the head once and leave the copy at
            // the head, so its delivery is a later choice that can
            // interleave with other pairs' traffic.
            m_.deliverDirect(queues_[c.queue].front());
            ++deliveries_;
            m_.stats().add("mc.duplicated");
            ++faultsUsed_;
            break;
          case Choice::Kind::Kill:
            failOverDNode(m_, c.victim);
            // In-flight traffic to the dead node would be dropped at
            // delivery anyway; purge it so it stops generating
            // meaningless delivery choices. Traffic it already sent
            // is on the wire and stays deliverable.
            for (auto &[key, q] : queues_) {
                if (key.second == c.victim)
                    q.clear();
            }
            ++faultsUsed_;
            break;
        }
        settle();
    }

    /** Take a @p kind choice on the first live queue head (pair order)
     *  carrying @p type for @p line; false when no head matches. */
    bool
    applyMatching(Choice::Kind kind, MsgType type, Addr line)
    {
        for (const auto &[key, q] : queues_) {
            if (!q.empty() && q.front().type == type &&
                q.front().lineAddr == line) {
                apply({kind, key, kInvalidNode});
                return true;
            }
        }
        return false;
    }

    /** Compute node @p n resends its stalled transactions; settle. */
    void
    retry(NodeId n)
    {
        m_.compute(n)->retryStalledTransactions(true);
        settle();
    }

    /** Settle, then take choice prefix[i] at decision i and choice 0
     *  past the prefix until none remain, forcing retry rounds while
     *  the run is stalled short of quiescence. */
    void
    runToQuiescence(const std::vector<int> &prefix)
    {
        settle();
        while (true) {
            const std::vector<Choice> options = choices();
            if (options.empty()) {
                if (allQuiescent())
                    return;
                forceRetries();
                continue;
            }
            const std::size_t depth = taken_.size();
            const int pick = depth < prefix.size() ? prefix[depth] : 0;
            if (pick >= static_cast<int>(options.size()))
                panic("model-check replay prefix names choice " +
                      std::to_string(pick) + " of " +
                      std::to_string(options.size()) +
                      " (nondeterministic run?)");
            counts_.push_back(static_cast<int>(options.size()));
            taken_.push_back(pick);
            apply(options[pick]);
        }
    }

    /** The end-of-run checks (see explorer.hh); panics on a failure. */
    void
    checkTerminal()
    {
        if (completions_ != issued_.size())
            panic("model-check run lost accesses: " +
                  std::to_string(completions_) + "/" +
                  std::to_string(issued_.size()) + " completed\n" +
                  m_.stuckDiagnostic());
        m_.checkInvariants();
        m_.checkCoherenceQuiescent();

        // Sequential reference: every issued write must have committed
        // exactly once, so each touched line's final version is its
        // write count (dedup must stop retried or duplicated requests
        // from committing twice).
        std::map<Addr, Version> expect;
        const auto lineBytes =
            static_cast<std::uint64_t>(m_.config().mem.lineBytes);
        for (const ScriptedAccess &a : issued_)
            expect[blockAlign(a.addr, lineBytes)] += a.isWrite ? 1 : 0;
        // A write whose grant was lost and whose cached reply was then
        // scrubbed by a later invalidation gets re-served, serializing
        // the same store twice; the home counts those, and the final
        // versions may legitimately run ahead by exactly that many.
        Version extra = 0;
        for (const auto &[line, v] : expect) {
            const Version got = m_.latestVersion(line);
            if (got < v) {
                std::ostringstream os;
                os << "sequential reference mismatch on line 0x"
                   << std::hex << line << std::dec << ": committed v"
                   << got << ", script wrote " << v << " times";
                panic(os.str() + m_.oracle().lineHistory(line));
            }
            extra += got - v;
        }
        const auto reserved =
            m_.stats().get("home.extra_write_serializations");
        if (extra != static_cast<Version>(reserved))
            panic("sequential reference mismatch: final versions run " +
                  std::to_string(extra) +
                  " ahead of the script's write count but the homes "
                  "re-serialized " +
                  std::to_string(reserved) + " scrubbed write retries");

        if (m_.oracle().violations() != 0)
            panic("model-check run ended with " +
                  std::to_string(m_.oracle().violations()) +
                  " coherence violations (degraded mode)");
    }

    /** @p e with this run's choice trace appended. */
    PanicError
    withTrace(const PanicError &e) const
    {
        std::ostringstream os;
        os << e.what() << "\n  model-check schedule (" << trace_.size()
           << " choices):";
        for (const std::string &s : trace_)
            os << "\n    " << s;
        return PanicError(os.str());
    }

  private:
    bool
    allQuiescent() const
    {
        if (completions_ != issued_.size())
            return false;
        for (NodeId n : m_.computeNodes()) {
            if (!m_.compute(n)->quiescent())
                return false;
        }
        return true;
    }

    /** The live queue heads' deliveries in pair order, then the drops
     *  and duplicates their fault classes allow (budget left), then
     *  one kill per D-node (Death, none yet, run not quiescent). */
    std::vector<Choice>
    choices() const
    {
        using Kind = Choice::Kind;
        std::vector<Choice> out;
        for (const auto &[key, q] : queues_) {
            if (!q.empty())
                out.push_back({Kind::Deliver, key, kInvalidNode});
        }
        if (mode_ == ExplorerFaultMode::DropDup &&
            faultsUsed_ < faultBudget_) {
            for (const auto &[key, q] : queues_) {
                if (q.empty())
                    continue;
                const MsgClass cls = msgClassOf(q.front().type);
                if (msgClassDroppable(cls))
                    out.push_back({Kind::Drop, key, kInvalidNode});
                if (msgClassDupSafe(cls))
                    out.push_back({Kind::Dup, key, kInvalidNode});
            }
        }
        // Death mode has a failover survivor (the Explorer checks).
        if (mode_ == ExplorerFaultMode::Death && faultsUsed_ == 0 &&
            !allQuiescent()) {
            for (NodeId d : m_.directoryNodes())
                out.push_back({Kind::Kill, {}, d});
        }
        return out;
    }

    std::string
    describe(const Choice &c) const
    {
        if (c.kind == Choice::Kind::Kill)
            return "kill D-node " + std::to_string(c.victim);
        const char *verb = c.kind == Choice::Kind::Deliver ? "deliver "
                           : c.kind == Choice::Kind::Drop  ? "drop "
                                                           : "dup ";
        return verb + queues_.at(c.queue).front().toString();
    }

    /** The run stalled with no message in flight: drive the recovery
     *  paths the pushed-out timeouts would have driven. */
    void
    forceRetries()
    {
        if (mode_ == ExplorerFaultMode::None)
            panic("model-check deadlock without any injected fault\n" +
                  m_.stuckDiagnostic());
        if (++retryRounds_ > kMaxRetryRounds)
            panic("model-check run wedged: " +
                  std::to_string(kMaxRetryRounds) +
                  " forced-retry rounds made no progress\n" +
                  m_.stuckDiagnostic());
        int sent = 0;
        for (NodeId n : m_.computeNodes())
            sent += m_.compute(n)->retryStalledTransactions(true);
        trace_.push_back("force-retry round " +
                         std::to_string(retryRounds_) + " (" +
                         std::to_string(sent) + " resends)");
        settle();
    }

    ExplorerFaultMode mode_;
    int faultBudget_;
    Machine m_;
    std::map<std::pair<NodeId, NodeId>, std::deque<Message>> queues_;
    std::vector<ScriptedAccess> issued_;
    std::vector<int> taken_;
    std::vector<int> counts_;
    std::vector<std::string> trace_;
    std::size_t completions_ = 0;
    std::uint64_t deliveries_ = 0;
    int faultsUsed_ = 0;
    int retryRounds_ = 0;
};

} // namespace

MachineConfig
tinyCheckMachine(ArchKind arch, int p, int d)
{
    MachineConfig cfg = makeBaseConfig(arch);
    cfg.numPNodes = p;
    cfg.numThreads = p;
    cfg.numDNodes = arch == ArchKind::Agg ? d : 0;
    cfg.pNodeMemBytes = 64 * 1024;
    cfg.dNodeMemBytes = 64 * 1024;
    cfg.l1 = CacheParams{1024, 1, 64, 3};
    cfg.l2 = CacheParams{4096, 1, 64, 6};
    fitMesh(cfg.net, cfg.totalNodes());
    cfg.validate();
    return cfg;
}

// ----------------------------------------------------------------------
// Explorer: stateless DFS over the harness's choice tree.
// ----------------------------------------------------------------------

Explorer::Explorer(ExplorerConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.accesses.empty())
        fatal("explorer needs at least one scripted access");
    if (cfg_.faultMode != ExplorerFaultMode::None && cfg_.faultBudget < 1)
        fatal("fault exploration needs a positive fault budget");
    MachineConfig &mc = cfg_.machine;
    if (cfg_.faultMode == ExplorerFaultMode::Death) {
        if (mc.arch != ArchKind::Agg)
            fatal("D-node death exploration requires an AGG machine");
        if (mc.numDNodes < 2)
            fatal("D-node death exploration needs a failover survivor");
    }
    armForCheck(mc, cfg_.faultMode);
    for (const ScriptedAccess &a : cfg_.accesses) {
        if (a.node < 0 || a.node >= mc.totalNodes())
            fatal("scripted access names a node outside the machine");
    }
}

ExplorerResult
Explorer::run()
{
    ExplorerResult res;
    std::vector<int> prefix;
    while (true) {
        ScheduleHarness h(cfg_.machine, cfg_.faultMode, cfg_.faultBudget);
        try {
            // Stagger issues by one tick for a deterministic order.
            for (std::size_t i = 0; i < cfg_.accesses.size(); ++i)
                h.issue(cfg_.accesses[i], static_cast<Tick>(i));
            h.runToQuiescence(prefix);
            h.checkTerminal();
        } catch (const PanicError &e) {
            throw h.withTrace(e);
        }
        const std::vector<int> &taken = h.taken();
        const std::vector<int> &counts = h.counts();
        ++res.schedules;
        res.decisions += taken.size();
        res.reExecuted += prefix.size();
        res.visited += taken.size() - prefix.size();
        if (h.faultUsed())
            ++res.faultSchedules;

        // Backtrack to the deepest decision with an unexplored sibling.
        int i = static_cast<int>(counts.size()) - 1;
        while (i >= 0 && taken[i] + 1 >= counts[i])
            --i;
        if (i < 0)
            break; // choice tree exhausted
        if (res.schedules >= cfg_.maxSchedules) {
            res.truncated = true;
            break;
        }
        prefix.assign(taken.begin(), taken.begin() + i);
        prefix.push_back(taken[i] + 1);
    }
    return res;
}

// ----------------------------------------------------------------------
// Conformance sampling: spec traces guide the harness.
// ----------------------------------------------------------------------

SpecConformanceResult
replaySpecTraces(const SpecExplorerConfig &cfg,
                 const std::vector<SpecTrace> &traces)
{
    if (cfg.mutation != SpecMutation::None)
        fatal("conformance replay is for unmutated specs");
    const ExplorerFaultMode mode = cfg.faults > 0
                                       ? ExplorerFaultMode::DropDup
                                       : ExplorerFaultMode::None;
    MachineConfig mc = tinyCheckMachine(cfg.arch, cfg.nodes, 1);
    armForCheck(mc, mode);
    using Kind = ScheduleHarness::Choice::Kind;
    SpecConformanceResult sum;
    for (const SpecTrace &tr : traces) {
        ScheduleHarness h(mc, mode, cfg.faults);
        try {
            for (const SpecTraceStep &s : tr) {
                // The tiny machine's compute nodes are 0 .. nodes-1,
                // the model's own numbering.
                const Addr line = tinyCheckLine(s.line);
                switch (s.kind) {
                  case SpecTraceStep::Kind::Read:
                  case SpecTraceStep::Kind::Write:
                    h.issue({s.node, line,
                             s.kind == SpecTraceStep::Kind::Write},
                            Tick{0});
                    h.settle();
                    break;
                  case SpecTraceStep::Kind::Retry:
                    h.retry(s.node);
                    break;
                  case SpecTraceStep::Kind::Evict:
                    panic("conformance replay got an Evict step; sample "
                          "traces from an evicts == 0 exploration");
                  case SpecTraceStep::Kind::Deliver:
                  case SpecTraceStep::Kind::Drop:
                  case SpecTraceStep::Kind::Dup: {
                    // The real machine's traffic is a superset of the
                    // model's and fault recovery can diverge in
                    // detail, so an unmatched step is skipped and
                    // counted: the terminal checks are the bar.
                    const Kind k =
                        s.kind == SpecTraceStep::Kind::Deliver ? Kind::Deliver
                        : s.kind == SpecTraceStep::Kind::Drop  ? Kind::Drop
                                                               : Kind::Dup;
                    if (h.applyMatching(k, s.msg, line))
                        ++sum.guidedSteps;
                    else
                        ++sum.missedSteps;
                    break;
                  }
                }
            }
            // The trace's own tail plus any recovery traffic.
            h.runToQuiescence({});
            h.checkTerminal();
        } catch (const PanicError &e) {
            throw h.withTrace(e);
        }
        sum.deliveries += h.deliveries();
        ++sum.replayed;
    }
    return sum;
}

} // namespace pimdsm
