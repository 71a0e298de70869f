/**
 * @file
 * Spec-level exhaustive model checker (see spec_explorer.hh).
 *
 * The abstract model is a miniature operational re-implementation of
 * the three coherence protocols, faithful to compute_base.cc /
 * home_base.cc / coma_node.cc at the granularity the ProtocolSpec
 * describes: per-line MESI-ish node states, the home directory entry,
 * MSHR/writeback-buffer/deferred-forward transaction state, and the
 * in-flight message multiset. No caches, no timing, no mesh — a
 * message is deliverable whenever it is the oldest in flight for its
 * (src, dst) pair on its line (point-to-point FIFO, which the real
 * mesh's deterministic routing provides and several protocol races
 * rely on).
 *
 * Every message delivery is checked against the declarative spec as a
 * contract: the (role, state, message) row must exist and not be
 * Impossible, every message the handler emits must appear in the
 * row's send list (with a matching compute/home destination), and the
 * post-handler stable state must be the pre-state (transaction still
 * in flight) or a member of the row's next list. Deliveries the
 * protocol absorbs as fault echoes (orphan/stale/duplicate replies
 * and acks, dedup replays) skip the row contract — they are recovery
 * plumbing below the spec's abstraction level. Deferred forwards are
 * contract-checked when replayed, as their own top-level step, and
 * the home's pending-queue drain runs as top-level steps after the
 * unblocking delivery's own row check completes.
 *
 * Known, deliberate abstractions (documented in
 * docs/model-checking.md): the AGG D-node FreeList never runs out
 * (canAbsorbCheaply() == true), the COMA provider choice is the
 * lowest eligible node id instead of a seeded RNG draw, and
 * spontaneous evictions subsume capacity evictions.
 */

#include "check/spec_explorer.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <utility>

#include "proto/spec.hh"
#include "sim/flat_map.hh"
#include "sim/log.hh"

namespace pimdsm
{

const char *
specMutationName(SpecMutation m)
{
    switch (m) {
      case SpecMutation::None:
        return "none";
      case SpecMutation::DropInvalSend:
        return "drop-inval-send";
      case SpecMutation::DoubleOwner:
        return "double-owner";
      case SpecMutation::SwapNextState:
        return "swap-next-state";
    }
    return "?";
}

namespace
{

// ----------------------------------------------------------------------
// Abstract state. Everything is a trivially-copyable POD with all
// dead fields zeroed on clear, so a byte-wise serialization is a
// canonical encoding (stale don't-care values would otherwise
// fragment the visited set).
// ----------------------------------------------------------------------

constexpr int kMaxN = 4;       ///< compute nodes
constexpr int kMaxLines = 2;   ///< independent lines
constexpr int kMaxMsgs = 28;   ///< in-flight messages per line
constexpr int kMaxPend = 10;   ///< home pending-queue slots
constexpr int kMaxDefer = 3;   ///< deferred forwards per node
constexpr std::uint8_t kHomeEp = 0x7f; ///< the home endpoint "node id"
constexpr std::uint8_t kNil = 0xff;

// Compute line states.
constexpr std::uint8_t kI = 0, kS = 1, kSM = 2, kD = 3;
// Home line states.
constexpr std::uint8_t kHU = 0, kHS = 1, kHD = 2;

// Message flag bits.
constexpr std::uint8_t fGrantsMaster = 1;
constexpr std::uint8_t fNeedsTxnDone = 2;
constexpr std::uint8_t fMasterClean = 4;
constexpr std::uint8_t fFwdEx = 8;
constexpr std::uint8_t fRetry = 16; ///< timeout resend (Message::isRetry)

inline bool
cohValid(std::uint8_t st)
{
    return st != kI;
}

inline bool
cohOwned(std::uint8_t st)
{
    return st == kSM || st == kD;
}

/** One in-flight abstract message (8 bytes). */
struct AMsg
{
    std::uint8_t type = 0;  ///< MsgType
    std::uint8_t src = 0;   ///< node id or kHomeEp
    std::uint8_t dst = 0;
    std::uint8_t req = 0;   ///< original requester (kNil if none)
    std::uint8_t ver = 0;
    std::uint8_t ack = 0;   ///< pending-invalidation count
    std::uint8_t flags = 0;
    std::uint8_t seq = 0;   ///< requester's transaction sequence
};
static_assert(sizeof(AMsg) == 8, "AMsg must stay packed");

/** Compute-side miss status handling register (one per node-line). */
struct Mshr
{
    std::uint8_t valid = 0;
    std::uint8_t isWrite = 0;
    std::uint8_t upgrade = 0;
    std::uint8_t reqType = 0; ///< MsgType re-sent on retry
    std::uint8_t seq = 0;
    std::uint8_t replyArrived = 0;
    std::uint8_t replyHasData = 0;
    std::uint8_t grantsMaster = 0;
    std::uint8_t needsTxnDone = 0;
    std::int8_t acksExpected = 0; ///< -1 until the reply arrives
    std::uint8_t acksReceived = 0;
    std::uint8_t ackFrom = 0; ///< bitmask: dedup duplicate acks
    std::uint8_t ver = 0;
    std::uint8_t supVer = 0; ///< grants <= this are dead (supersededVer)
};

/** Per-node, per-line compute state. */
struct NodeLine
{
    std::uint8_t st = kI;
    std::uint8_t ver = 0;
    Mshr mshr{};
    std::uint8_t wbValid = 0;
    std::uint8_t wbMasterClean = 0;
    std::uint8_t wbVer = 0;
    std::uint8_t wbSeq = 0; ///< pending writeback's dedup seq
    std::uint8_t nDefer = 0;
    AMsg defer[kMaxDefer]{};
    std::uint8_t reads = 0;   ///< remaining spontaneous-read budget
    std::uint8_t writes = 0;
    std::uint8_t evicts = 0;
    std::uint8_t retries = 0;
    std::uint8_t nextSeq = 0;
};

/** Home request-dedup record (mirrors HomeBase::ServedTxn). */
struct Served
{
    std::uint8_t seq = 0;
    std::uint8_t hasReply = 0;
    AMsg reply{};
    /** Highest WriteBack seq processed (ServedTxn::wbSeq). */
    std::uint8_t wbSeq = 0;
};

/** The home directory entry plus COMA injection machinery. */
struct HomeLine
{
    std::uint8_t st = kHU;
    std::uint8_t owner = kNil;
    std::uint8_t sharers = 0; ///< bitmask
    std::uint8_t masterOut = 0;
    std::uint8_t busy = 0;
    std::uint8_t busyFor = kNil;
    std::uint8_t fwdTo = kNil;
    std::uint8_t hasData = 0;
    std::uint8_t pagedOut = 0;
    std::uint8_t ver = 0;
    std::uint8_t nPending = 0;
    AMsg pending[kMaxPend]{};
    Served served[kMaxN]{};
    // COMA injection (all zero when inactive).
    std::uint8_t injActive = 0;
    std::uint8_t injGrantMode = 0;
    std::uint8_t injMasterClean = 0;
    std::uint8_t injVer = 0;
    std::uint8_t injEvictor = 0;
    std::uint8_t injLastTried = 0;
    std::uint8_t injTries = 0;
    std::uint8_t injCandidates = 0; ///< bitmask, highest id tried first
};

/** One line's complete abstract state. */
struct LineSt
{
    NodeLine n[kMaxN]{};
    HomeLine home{};
    std::uint8_t nMsgs = 0;
    AMsg msgs[kMaxMsgs]{}; ///< append order = per-(src,dst) FIFO order
    std::uint8_t gver = 0; ///< write grants serialized by the home
    std::uint8_t wIssued = 0; ///< write-miss transactions started
    std::uint8_t regrants = 0; ///< scrubbed write retries re-serialized
    std::uint8_t faultsLeft = 0;
};

/** The whole explored state (lines are mutually independent). */
struct World
{
    LineSt line[kMaxLines]{};
};

/** Safety/contract violation, carrying the report text. */
struct ViolationEx
{
    std::string text;
};

// ----------------------------------------------------------------------
// Transition (act) encoding.
// ----------------------------------------------------------------------

enum : std::uint8_t
{
    kActRead,
    kActWrite,
    kActEvict,
    kActRetry,
    kActDeliver,
    kActDrop,
    kActDup,
};

struct Act
{
    std::uint8_t kind = kActRead;
    std::uint8_t line = 0;
    std::uint8_t a = 0; ///< node (issue/evict/retry) or message index
};

std::string
nodeName(std::uint8_t id)
{
    if (id == kHomeEp)
        return "home";
    if (id == kNil)
        return "-";
    // Appended rather than `"n" + std::to_string(...)`: GCC 12 raises
    // a false -Wrestrict from that operator+ once Release inlines it.
    std::string name = "n";
    name += std::to_string(static_cast<int>(id));
    return name;
}

std::string
renderMsg(const AMsg &m)
{
    std::string s = msgTypeName(static_cast<MsgType>(m.type));
    // Appended piecewise: `" " + nodeName(...)` raises the same false
    // GCC 12 Release -Wrestrict as nodeName() above.
    s += ' ';
    s += nodeName(m.src);
    s += "->";
    s += nodeName(m.dst);
    s += " ver" + std::to_string(static_cast<int>(m.ver));
    if (m.ack)
        s += " ack" + std::to_string(static_cast<int>(m.ack));
    if (m.seq)
        s += " seq" + std::to_string(static_cast<int>(m.seq));
    if (m.req != kNil && m.req != m.dst)
        s += " req=" + nodeName(m.req);
    if (m.flags & fGrantsMaster)
        s += " +master";
    if (m.flags & fMasterClean)
        s += " clean";
    if (m.flags & fFwdEx)
        s += " ex";
    return s;
}

// ----------------------------------------------------------------------
// The model: operational handlers checked row-by-row against the
// declarative spec.
// ----------------------------------------------------------------------

class Model
{
  public:
    explicit Model(const SpecExplorerConfig &cfg)
        : cfg_(cfg), spec_(spec::ProtocolSpec::instance())
    {
        switch (cfg_.arch) {
          case ArchKind::Agg:
            computeRole_ = spec::Role::AggCompute;
            homeRole_ = spec::Role::AggHome;
            gmor_ = true;
            masters_ = true;
            sharingWb_ = true;
            backsLines_ = true;
            homeInitHasData_ = false;
            coma_ = false;
            break;
          case ArchKind::Coma:
            computeRole_ = spec::Role::ComaCompute;
            homeRole_ = spec::Role::ComaHome;
            gmor_ = true;
            masters_ = true;
            sharingWb_ = false;
            backsLines_ = false;
            homeInitHasData_ = false;
            coma_ = true;
            break;
          case ArchKind::Numa:
            computeRole_ = spec::Role::NumaCompute;
            homeRole_ = spec::Role::NumaHome;
            gmor_ = false;
            masters_ = false;
            sharingWb_ = true;
            backsLines_ = true;
            homeInitHasData_ = true;
            coma_ = false;
            break;
        }
        if (cfg_.mutation == SpecMutation::SwapNextState) {
            // Corrupt the spec copy itself: a write-miss grant is
            // declared to install Shared. The model still installs
            // Dirty, so the next-state contract check must fire.
            spec::Transition *t = spec_.find(
                computeRole_, spec::LineState::Invalid,
                MsgType::ReadExReply);
            if (t == nullptr)
                panic("speccheck: mutation target row missing");
            t->next.clear();
            t->next.push_back(spec::LineState::Shared);
        }
        buildPerms();
    }

    const SpecExplorerConfig &cfg() const { return cfg_; }

    // Contract / search statistics, bumped by the handlers.
    std::uint64_t rowChecks = 0;
    std::uint64_t absorbed = 0; ///< fault-echo deliveries (no row check)

    // ------------------------------------------------------------------
    // Spec-contract step machinery. A "step" brackets one handler
    // invocation: beginStep resolves and validates the row, emits are
    // checked for send-list membership while a step is active, and
    // endStep validates the resulting stable state. Steps never nest:
    // deferred-forward replay and home-queue drain run as their own
    // top-level steps after the outer step ends.
    // ------------------------------------------------------------------

    void
    beginStep(bool home, std::uint8_t pre, MsgType t)
    {
        if (stepActive_)
            panic("speccheck: nested contract steps");
        const spec::Role role = home ? homeRole_ : computeRole_;
        const spec::LineState ls = home ? homeLs(pre) : computeLs(pre);
        const spec::Transition *row = spec_.find(role, ls, t);
        if (row == nullptr) {
            fail(std::string("no spec row for (") +
                 spec::roleName(role) + ", " + spec::lineStateName(ls) +
                 ", " + msgTypeName(t) + ")");
        }
        if (row->outcome == spec::Outcome::Impossible) {
            fail(std::string("reached an Impossible spec row (") +
                 spec::roleName(role) + ", " + spec::lineStateName(ls) +
                 ", " + msgTypeName(t) + "): " + row->note);
        }
        stepActive_ = true;
        stepHome_ = home;
        stepPre_ = pre;
        stepMsg_ = t;
        stepRow_ = row;
        ++rowChecks;
    }

    void
    endStep(std::uint8_t post)
    {
        if (!stepActive_)
            panic("speccheck: endStep without beginStep");
        stepActive_ = false;
        if (post == stepPre_)
            return; // transaction still in flight: state unchanged
        const spec::LineState ls =
            stepHome_ ? homeLs(post) : computeLs(post);
        for (spec::LineState s : stepRow_->next) {
            if (s == ls)
                return;
        }
        fail(std::string("handler left (") +
             spec::roleName(stepHome_ ? homeRole_ : computeRole_) +
             ", " +
             spec::lineStateName(stepHome_ ? homeLs(stepPre_)
                                           : computeLs(stepPre_)) +
             ", " + msgTypeName(stepMsg_) + ") in " +
             spec::lineStateName(ls) +
             ", which is not in the row's next-state list");
    }

    /** Append a message to the line's in-flight set, enforcing the
     *  active row's send list. */
    void
    emit(LineSt &L, const AMsg &m)
    {
        if (stepActive_) {
            bool listed = false;
            for (const spec::SendSpec &s : stepRow_->sends) {
                if (s.type != static_cast<MsgType>(m.type))
                    continue;
                const bool toCompute = spec::roleIsCompute(s.to);
                if (toCompute == (m.dst != kHomeEp)) {
                    listed = true;
                    break;
                }
            }
            if (!listed) {
                fail(std::string("handler for (") +
                     spec::roleName(stepHome_ ? homeRole_
                                              : computeRole_) +
                     ", " +
                     spec::lineStateName(
                         stepHome_ ? homeLs(stepPre_)
                                   : computeLs(stepPre_)) +
                     ", " + msgTypeName(stepMsg_) + ") sent " +
                     renderMsg(m) +
                     ", which is not in the row's send list");
            }
        }
        if (L.nMsgs >= kMaxMsgs)
            fail("model in-flight message capacity exceeded");
        L.msgs[L.nMsgs++] = m;
    }

    [[noreturn]] void
    fail(const std::string &text)
    {
        stepActive_ = false;
        throw ViolationEx{text};
    }

    static spec::LineState
    computeLs(std::uint8_t s)
    {
        switch (s) {
          case kI:
            return spec::LineState::Invalid;
          case kS:
            return spec::LineState::Shared;
          case kSM:
            return spec::LineState::SharedMaster;
          default:
            return spec::LineState::Dirty;
        }
    }

    static spec::LineState
    homeLs(std::uint8_t s)
    {
        switch (s) {
          case kHU:
            return spec::LineState::HomeUncached;
          case kHS:
            return spec::LineState::HomeShared;
          default:
            return spec::LineState::HomeDirty;
        }
    }

    /** COMA: the home for line l is co-located with compute node
     *  l % nodes; the "home copy" is that node's own AM copy. */
    int
    comaHomeNode(int li) const
    {
        return li % cfg_.nodes;
    }

    bool
    homeHasData(const LineSt &L, int li) const
    {
        if (!coma_)
            return L.home.hasData != 0;
        const int hn = comaHomeNode(li);
        return ((L.home.sharers >> hn) & 1) != 0 &&
               cohValid(L.n[hn].st);
    }

  protected:
    SpecExplorerConfig cfg_;
    spec::ProtocolSpec spec_;
    spec::Role computeRole_ = spec::Role::AggCompute;
    spec::Role homeRole_ = spec::Role::AggHome;
    bool gmor_ = true;    ///< home grants mastership on reads
    bool masters_ = true; ///< compute nodes can hold SharedMaster
    bool sharingWb_ = true;
    bool backsLines_ = true;
    bool homeInitHasData_ = false;
    bool coma_ = false;

    // Compute-node permutations the fingerprint minimizes over. Full
    // S_N for AGG and NUMA (the home is a separate endpoint and no
    // handler depends on a compute node's numeric id); identity only
    // for COMA, whose co-located home copy and deterministic provider
    // order are not permutation-equivariant.
    struct Perm
    {
        std::array<std::uint8_t, kMaxN> fwd{};
        std::array<std::uint8_t, kMaxN> inv{};
    };
    std::vector<Perm> perms_;

    void
    buildPerms()
    {
        const int n = cfg_.nodes;
        std::array<std::uint8_t, kMaxN> p{};
        for (int i = 0; i < n; ++i)
            p[i] = static_cast<std::uint8_t>(i);
        do {
            if (coma_) {
                bool identity = true;
                for (int i = 0; i < n; ++i)
                    identity = identity && p[i] == i;
                if (!identity)
                    continue;
            }
            Perm q;
            q.fwd = p;
            for (int i = 0; i < n; ++i)
                q.inv[p[i]] = static_cast<std::uint8_t>(i);
            perms_.push_back(q);
        } while (std::next_permutation(p.begin(), p.begin() + n));
    }

    bool stepActive_ = false;
    bool stepHome_ = false;
    std::uint8_t stepPre_ = 0;
    MsgType stepMsg_ = MsgType::ReadReq;
    const spec::Transition *stepRow_ = nullptr;
};

inline std::uint8_t
bitOf(int n)
{
    return static_cast<std::uint8_t>(1u << n);
}

inline int
popcount8(std::uint8_t v)
{
    int n = 0;
    for (; v; v &= static_cast<std::uint8_t>(v - 1))
        ++n;
    return n;
}

/**
 * The operational protocol handlers, mirroring compute_base.cc,
 * home_base.cc, agg_dnode.cc, and coma_node.cc. Comments call out
 * each mirrored decision point; fidelity here is what makes a
 * reported violation meaningful.
 */
class Proto : public Model
{
  public:
    using Model::Model;

    World
    initial() const
    {
        World w{};
        for (int li = 0; li < cfg_.lines; ++li) {
            LineSt &L = w.line[li];
            for (int n = 0; n < cfg_.nodes; ++n) {
                NodeLine &c = L.n[n];
                c.reads = static_cast<std::uint8_t>(cfg_.reads);
                c.writes = static_cast<std::uint8_t>(cfg_.writes);
                c.evicts = static_cast<std::uint8_t>(cfg_.evicts);
                c.retries = static_cast<std::uint8_t>(cfg_.retries);
            }
            L.home.owner = kNil;
            L.home.busyFor = kNil;
            L.home.fwdTo = kNil;
            L.home.hasData = homeInitHasData_ ? 1 : 0;
            L.faultsLeft = static_cast<std::uint8_t>(cfg_.faults);
        }
        return w;
    }

    static AMsg
    mk(MsgType t, std::uint8_t src, std::uint8_t dst)
    {
        AMsg m{};
        m.type = static_cast<std::uint8_t>(t);
        m.src = src;
        m.dst = dst;
        m.req = kNil;
        return m;
    }

    // ------------------------------------------------------------------
    // Spontaneous compute events (no spec row governs event issue, so
    // no contract step brackets them).
    // ------------------------------------------------------------------

    void
    issueAccess(World &w, int li, int n, bool isWrite)
    {
        LineSt &L = w.line[li];
        NodeLine &c = L.n[n];
        if (isWrite)
            --c.writes;
        else
            --c.reads;
        // Hit check mirrors startAccess: writes need Dirty, reads any
        // coherent copy. A write hit completes locally and does NOT
        // serialize at the home (gver counts home write grants only).
        const bool hit = isWrite ? c.st == kD : cohValid(c.st);
        if (hit)
            return;
        c.mshr = Mshr{};
        c.mshr.valid = 1;
        c.mshr.isWrite = isWrite ? 1 : 0;
        c.mshr.acksExpected = -1;
        MsgType rt;
        if (isWrite && (c.st == kS || c.st == kSM)) {
            rt = MsgType::UpgradeReq;
            c.mshr.upgrade = 1;
        } else {
            rt = isWrite ? MsgType::ReadExReq : MsgType::ReadReq;
        }
        c.mshr.reqType = static_cast<std::uint8_t>(rt);
        c.mshr.seq = ++c.nextSeq;
        if (isWrite)
            ++L.wIssued;
        AMsg m = mk(rt, static_cast<std::uint8_t>(n), kHomeEp);
        m.req = static_cast<std::uint8_t>(n);
        m.seq = c.mshr.seq;
        emit(L, m);
    }

    void
    evictNode(World &w, int li, int n)
    {
        LineSt &L = w.line[li];
        NodeLine &c = L.n[n];
        --c.evicts;
        if (cohOwned(c.st)) {
            // Owned copies go through the writeback buffer; the buffer
            // blocks new accesses until the home acks.
            c.wbValid = 1;
            c.wbMasterClean = c.st == kSM ? 1 : 0;
            c.wbVer = c.ver;
            c.wbSeq = ++c.nextSeq;
            AMsg m = mk(MsgType::WriteBack,
                        static_cast<std::uint8_t>(n), kHomeEp);
            m.ver = c.ver;
            m.seq = c.wbSeq;
            if (c.st == kSM)
                m.flags |= fMasterClean;
            emit(L, m);
        }
        // Shared copies are dropped silently (stale sharer bit stays
        // at the home; upgrade-after-displacement remains possible).
        c.st = kI;
        c.ver = 0;
    }

    void
    retryNode(World &w, int li, int n)
    {
        LineSt &L = w.line[li];
        NodeLine &c = L.n[n];
        --c.retries;
        if (c.mshr.valid && !c.mshr.replyArrived) {
            // Same transaction sequence: the home dedups and replays
            // its cached reply if the original was served already.
            AMsg m = mk(static_cast<MsgType>(c.mshr.reqType),
                        static_cast<std::uint8_t>(n), kHomeEp);
            m.req = static_cast<std::uint8_t>(n);
            m.seq = c.mshr.seq;
            m.flags |= fRetry; // Message::isRetry
            m.ver = c.mshr.supVer; // dead-grant floor
            emit(L, m);
        }
        if (c.wbValid) {
            AMsg m = mk(MsgType::WriteBack,
                        static_cast<std::uint8_t>(n), kHomeEp);
            m.ver = c.wbVer;
            m.seq = c.wbSeq;
            if (c.wbMasterClean)
                m.flags |= fMasterClean;
            emit(L, m);
        }
    }

    // ------------------------------------------------------------------
    // Delivery plumbing.
    // ------------------------------------------------------------------

    static void
    removeMsg(LineSt &L, int idx)
    {
        for (int i = idx; i + 1 < L.nMsgs; ++i)
            L.msgs[i] = L.msgs[i + 1];
        L.msgs[--L.nMsgs] = AMsg{};
    }

    /** Deliver message @p idx (removing it unless @p dup, which
     *  applies the delivery but leaves the copy in place). */
    void
    deliver(World &w, int li, int idx, bool dup)
    {
        LineSt &L = w.line[li];
        const AMsg m = L.msgs[idx];
        if (!dup)
            removeMsg(L, idx);
        if (m.dst == kHomeEp)
            homeDeliver(w, li, m);
        else
            computeDeliver(w, li, m);
    }

    void
    computeDeliver(World &w, int li, const AMsg &m)
    {
        const int n = m.dst;
        switch (static_cast<MsgType>(m.type)) {
          case MsgType::ReadReply:
          case MsgType::ReadExReply:
          case MsgType::UpgradeReply:
          case MsgType::FwdReply:
            handleReply(w, li, n, m);
            break;
          case MsgType::Inval:
            handleInval(w, li, n, m);
            break;
          case MsgType::InvalAck:
            handleInvalAck(w, li, n, m);
            break;
          case MsgType::WriteBackAck:
            handleWbAck(w, li, n, m);
            break;
          case MsgType::Fwd:
            handleFwd(w, li, n, m);
            break;
          case MsgType::Inject:
            handleInject(w, li, n, m);
            break;
          case MsgType::MasterGrant:
            handleMasterGrant(w, li, n, m);
            break;
          default:
            // Resolving the row reports the Impossible/missing entry.
            beginStep(false, w.line[li].n[n].st,
                      static_cast<MsgType>(m.type));
            endStep(w.line[li].n[n].st);
            break;
        }
    }

    // ------------------------------------------------------------------
    // Compute handlers.
    // ------------------------------------------------------------------

    void
    handleReply(World &w, int li, int n, const AMsg &m)
    {
        LineSt &L = w.line[li];
        NodeLine &c = L.n[n];
        Mshr &ms = c.mshr;
        // Orphan (no transaction), stale (older sequence), and
        // duplicate replies are absorbed silently — fault-recovery
        // plumbing below the spec row's abstraction. An orphan/stale
        // reply that carries needsTxnDone still owes the home its
        // unblock (mirrors ackStaleBlockingReply): the home may be
        // blocked serving the abandoned transaction it belongs to.
        if (!ms.valid || m.seq != ms.seq) {
            if (m.flags & fNeedsTxnDone) {
                AMsg d = mk(MsgType::TxnDone,
                            static_cast<std::uint8_t>(n), kHomeEp);
                d.seq = m.seq;
                emit(L, d);
            }
            ++absorbed;
            return;
        }
        if (ms.replyArrived) {
            ++absorbed; // duplicate of the live reply: completion's
            return;     // own TxnDone covers the home
        }
        if (ms.supVer != 0 && m.ver <= ms.supVer) {
            // Dead grant: we served a superseding exclusive forward
            // after it was issued (mirrors superseded_reply_dropped).
            if (m.flags & fNeedsTxnDone) {
                AMsg d = mk(MsgType::TxnDone,
                            static_cast<std::uint8_t>(n), kHomeEp);
                d.seq = m.seq;
                emit(L, d);
            }
            ++absorbed;
            return;
        }
        beginStep(false, c.st, static_cast<MsgType>(m.type));
        ms.replyArrived = 1;
        ms.replyHasData =
            static_cast<MsgType>(m.type) != MsgType::UpgradeReply ? 1
                                                                  : 0;
        ms.acksExpected = static_cast<std::int8_t>(m.ack);
        ms.ver = m.ver;
        ms.grantsMaster = (m.flags & fGrantsMaster) ? 1 : 0;
        ms.needsTxnDone = (m.flags & fNeedsTxnDone) ? 1 : 0;
        tryComplete(w, li, n);
        endStep(c.st);
        replayDeferred(w, li, n);
    }

    void
    handleInvalAck(World &w, int li, int n, const AMsg &m)
    {
        LineSt &L = w.line[li];
        NodeLine &c = L.n[n];
        Mshr &ms = c.mshr;
        const std::uint8_t bit = bitOf(m.src);
        if (!ms.valid || (ms.ackFrom & bit)) {
            ++absorbed; // orphan or duplicate ack
            return;
        }
        beginStep(false, c.st, MsgType::InvalAck);
        ms.ackFrom |= bit;
        ++ms.acksReceived;
        tryComplete(w, li, n);
        endStep(c.st);
        replayDeferred(w, li, n);
    }

    void
    tryComplete(World &w, int li, int n)
    {
        const Mshr &ms = w.line[li].n[n].mshr;
        if (!ms.replyArrived || ms.acksExpected < 0 ||
            ms.acksReceived < ms.acksExpected)
            return;
        finishAccess(w, li, n);
    }

    void
    finishAccess(World &w, int li, int n)
    {
        LineSt &L = w.line[li];
        NodeLine &c = L.n[n];
        const Mshr ms = c.mshr;
        if (ms.replyHasData) {
            c.st = ms.isWrite ? kD : (ms.grantsMaster ? kSM : kS);
            c.ver = ms.ver;
        } else {
            // Dataless upgrade grant: install Dirty whether our
            // Shared copy survived or was displaced mid-flight
            // (upgrade-after-displacement reconstitutes it).
            c.st = kD;
            c.ver = ms.ver;
        }
        if (!ms.isWrite && ms.needsTxnDone && ms.ver != L.gver) {
            // A forwarded read completing against a superseded
            // version. Unreachable fault-free; under fault recovery
            // the real machine warns and proceeds (a duplicated
            // TxnDone can unblock the home early), so only the
            // fault-free exploration treats it as a violation.
            if (cfg_.faults == 0)
                fail("read completed with a stale forwarded version "
                     "(ver " +
                     std::to_string(static_cast<int>(ms.ver)) +
                     " != gver " +
                     std::to_string(static_cast<int>(L.gver)) + ")");
        }
        if (ms.needsTxnDone) {
            AMsg t = mk(MsgType::TxnDone,
                        static_cast<std::uint8_t>(n), kHomeEp);
            t.seq = ms.seq;
            emit(L, t);
        }
        // Stash deferred forwards; they replay as their own
        // contract-checked top-level steps after the outer step ends.
        replayCount_ = c.nDefer;
        for (int i = 0; i < c.nDefer; ++i) {
            replayBuf_[i] = c.defer[i];
            c.defer[i] = AMsg{};
        }
        c.nDefer = 0;
        c.mshr = Mshr{};
    }

    void
    replayDeferred(World &w, int li, int n)
    {
        const int cnt = replayCount_;
        replayCount_ = 0;
        for (int i = 0; i < cnt; ++i)
            handleFwd(w, li, n, replayBuf_[i]);
    }

    void
    handleInval(World &w, int li, int n, const AMsg &m)
    {
        LineSt &L = w.line[li];
        NodeLine &c = L.n[n];
        beginStep(false, c.st, MsgType::Inval);
        // invalidateLocal: the copy dies; MSHR and writeback buffer
        // are untouched. Always ack to the writing requester.
        c.st = kI;
        c.ver = 0;
        AMsg a = mk(MsgType::InvalAck, static_cast<std::uint8_t>(n),
                    m.req);
        emit(L, a);
        endStep(c.st);
    }

    void
    handleWbAck(World &w, int li, int n, const AMsg &m)
    {
        (void)m;
        LineSt &L = w.line[li];
        NodeLine &c = L.n[n];
        if (!c.wbValid) {
            ++absorbed; // duplicate ack after the buffer drained
            return;
        }
        beginStep(false, c.st, MsgType::WriteBackAck);
        c.wbValid = 0;
        c.wbMasterClean = 0;
        c.wbVer = 0;
        endStep(c.st);
    }

    void
    handleFwd(World &w, int li, int n, const AMsg &m)
    {
        LineSt &L = w.line[li];
        NodeLine &c = L.n[n];
        const bool ex = (m.flags & fFwdEx) != 0;
        const bool live = cohValid(c.st);
        std::uint8_t dataVer = 0;
        if (live) {
            dataVer = c.ver;
        } else if (c.wbValid) {
            // Displaced but unacknowledged: serve from the buffer.
            dataVer = c.wbVer;
        } else if (c.mshr.valid) {
            // A miss is in flight; defer and replay at completion.
            if (c.nDefer >= kMaxDefer)
                fail("deferred-forward capacity exceeded");
            c.defer[c.nDefer++] = m;
            ++absorbed;
            return;
        } else {
            ++absorbed; // no copy anywhere: dropped (fault echo)
            return;
        }
        if (!ex && live && c.mshr.valid && m.ver > dataVer) {
            // The directory stamped a version ahead of our copy while
            // our own transaction is in flight: our granting reply
            // was lost, and serving now would hand the reader a stale
            // copy. Park the forward until the retry replay installs
            // the grant (mirrors the fwd_deferred_stale path).
            if (c.nDefer >= kMaxDefer)
                fail("deferred-forward capacity exceeded");
            c.defer[c.nDefer++] = m;
            ++absorbed;
            return;
        }
        // An exclusive forward reaching a plain sharer means a lost
        // grant let the directory run ahead of us (it believes we are
        // the owner). The spec row for (Shared, Fwd) is rightly
        // Impossible fault-free, so handle this as fault-recovery
        // plumbing below the row abstraction: yield the line, reply,
        // and let our own retry re-serve fresh above the floor.
        const bool rowless = ex && live && c.st == kS && c.mshr.valid;
        if (!rowless)
            beginStep(false, c.st, MsgType::Fwd);
        if (ex) {
            if (live) {
                c.st = kI;
                c.ver = 0;
                // Our own in-flight transaction (if any) lost the
                // race; grants at or below this version are dead.
                if (c.mshr.valid && m.ver > c.mshr.supVer)
                    c.mshr.supVer = m.ver;
            }
            AMsg r = mk(MsgType::FwdReply,
                        static_cast<std::uint8_t>(n), m.req);
            r.ver = m.ver;
            r.ack = m.ack;
            r.flags = fNeedsTxnDone;
            r.seq = m.seq;
            emit(L, r);
        } else {
            if (live)
                c.st = masters_ ? kSM : kS; // downgradeState()
            AMsg r = mk(MsgType::FwdReply,
                        static_cast<std::uint8_t>(n), m.req);
            r.ver = dataVer;
            r.flags = fNeedsTxnDone;
            r.seq = m.seq;
            emit(L, r);
            if (sharingWb_) {
                AMsg o = mk(MsgType::OwnerToHome,
                            static_cast<std::uint8_t>(n), kHomeEp);
                o.ver = dataVer;
                emit(L, o);
            }
        }
        if (!rowless)
            endStep(c.st);
    }

    void
    handleInject(World &w, int li, int n, const AMsg &m)
    {
        LineSt &L = w.line[li];
        NodeLine &c = L.n[n];
        beginStep(false, c.st, MsgType::Inject);
        if (c.mshr.valid || c.wbValid) {
            // Victim-way conflict (modeled as any pending txn).
            AMsg r = mk(MsgType::InjectNack,
                        static_cast<std::uint8_t>(n), kHomeEp);
            emit(L, r);
        } else {
            c.st = (m.flags & fMasterClean) ? kSM : kD;
            c.ver = m.ver;
            AMsg r = mk(MsgType::InjectAck,
                        static_cast<std::uint8_t>(n), kHomeEp);
            emit(L, r);
        }
        endStep(c.st);
    }

    void
    handleMasterGrant(World &w, int li, int n, const AMsg &m)
    {
        (void)m;
        LineSt &L = w.line[li];
        NodeLine &c = L.n[n];
        beginStep(false, c.st, MsgType::MasterGrant);
        if (c.st == kS) {
            c.st = kSM;
            AMsg r = mk(MsgType::InjectAck,
                        static_cast<std::uint8_t>(n), kHomeEp);
            emit(L, r);
        } else {
            AMsg r = mk(MsgType::InjectNack,
                        static_cast<std::uint8_t>(n), kHomeEp);
            emit(L, r);
        }
        endStep(c.st);
    }

    // ------------------------------------------------------------------
    // Home handlers.
    // ------------------------------------------------------------------

    void
    homeDeliver(World &w, int li, const AMsg &m)
    {
        LineSt &L = w.line[li];
        switch (static_cast<MsgType>(m.type)) {
          case MsgType::ReadReq:
          case MsgType::ReadExReq:
          case MsgType::UpgradeReq:
            acceptRequest(w, li, m);
            break;
          case MsgType::WriteBack:
            enqueueOrServe(w, li, m);
            break;
          case MsgType::TxnDone:
            beginStep(true, L.home.st, MsgType::TxnDone);
            finishTxnMark(L, m.src);
            endStep(L.home.st);
            if (drainNeeded_)
                drainHome(w, li);
            break;
          case MsgType::OwnerToHome:
            handleOwnerToHome(w, li, m);
            break;
          case MsgType::InjectAck:
          case MsgType::InjectNack:
            handleInjectResponse(w, li, m);
            break;
          default:
            beginStep(true, L.home.st, static_cast<MsgType>(m.type));
            endStep(L.home.st);
            break;
        }
    }

    void
    acceptRequest(World &w, int li, const AMsg &m)
    {
        LineSt &L = w.line[li];
        Served &sv = L.home.served[m.src];
        // Dedup BEFORE the busy check (mirrors acceptRequest): a
        // retried transaction the home already answered replays the
        // cached reply verbatim instead of re-serializing.
        if (m.seq == sv.seq && sv.hasReply &&
            !(m.ver != 0 && sv.reply.ver <= m.ver)) {
            ++absorbed;
            if (L.nMsgs >= kMaxMsgs)
                fail("model in-flight message capacity exceeded");
            L.msgs[L.nMsgs++] = sv.reply; // verbatim replay, unchecked
            return;
        }
        if (m.seq == sv.seq) {
            // Same transaction, no cached reply. Ignore only if it is
            // genuinely in flight at the home (blocked serving it or
            // queued); a scrubbed record with no live transaction
            // means the reply was lost and then invalidated away —
            // re-serve it (mirrors dedupRequest's scrubbed-retry
            // path).
            bool live = L.home.busy && L.home.busyFor == m.src;
            for (int i = 0; i < L.home.nPending && !live; ++i)
                live = L.home.pending[i].src == m.src;
            // Only a requester-marked retry is re-served; a mesh
            // duplicate of a completed transaction must be ignored or
            // the home serializes a phantom grant (mirrors
            // dedupRequest's isRetry gate).
            if (live || !(m.flags & fRetry)) {
                ++absorbed;
                return;
            }
            // A re-served write serializes the same store twice; the
            // terminal write-count reference accounts for it.
            if (static_cast<MsgType>(m.type) == MsgType::ReadExReq ||
                static_cast<MsgType>(m.type) == MsgType::UpgradeReq)
                ++L.regrants;
        } else if (m.seq < sv.seq) {
            ++absorbed; // an older transaction's straggler
            return;
        }
        sv.seq = m.seq;
        sv.hasReply = 0;
        sv.reply = AMsg{};
        enqueueOrServe(w, li, m);
    }

    void
    enqueueOrServe(World &w, int li, const AMsg &m)
    {
        LineSt &L = w.line[li];
        if (L.home.busy) {
            if (L.home.nPending >= kMaxPend)
                fail("home pending-queue capacity exceeded");
            L.home.pending[L.home.nPending++] = m;
            return;
        }
        serveRequest(w, li, m);
    }

    /** Dispatch one dequeued/fresh request under its own contract
     *  step (called directly and from the post-TxnDone drain). */
    void
    serveRequest(World &w, int li, const AMsg &m)
    {
        LineSt &L = w.line[li];
        const MsgType t = static_cast<MsgType>(m.type);
        beginStep(true, L.home.st, t);
        if (t == MsgType::ReadReq)
            serveRead(w, li, m);
        else if (t == MsgType::WriteBack)
            handleWriteBack(w, li, m);
        else
            serveWrite(w, li, m);
        endStep(L.home.st);
    }

    void
    absorbHome(LineSt &L, std::uint8_t ver)
    {
        if (coma_)
            fail("COMA home absorbed data (it keeps none)");
        L.home.hasData = 1;
        L.home.ver = ver;
    }

    void
    pageIn(LineSt &L)
    {
        L.home.pagedOut = 0;
        if (cfg_.arch == ArchKind::Agg)
            absorbHome(L, L.home.ver); // AGG re-binds a Data slot
    }

    void
    sendTracked(LineSt &L, std::uint8_t dst, const AMsg &r)
    {
        emit(L, r);
        Served &sv = L.home.served[dst];
        sv.seq = r.seq;
        sv.hasReply = 1;
        sv.reply = r;
    }

    void
    clearBusy(HomeLine &h)
    {
        h.busy = 0;
        h.busyFor = kNil;
        h.fwdTo = kNil;
    }

    void
    finishTxnMark(LineSt &L, std::uint8_t from = kNil)
    {
        HomeLine &h = L.home;
        if (!h.busy) {
            ++absorbed; // spurious TxnDone (dup after unblock)
            return;
        }
        // Mirrors finishTxn's identity check: a TxnDone whose sender
        // is not the node the line is blocked for (a duplicate of an
        // earlier transaction's, or a straggler during a COMA
        // injection) must not unblock the line early. Internal
        // completion paths pass kNil and unblock unconditionally.
        if (from != kNil && h.busyFor != from) {
            ++absorbed;
            return;
        }
        clearBusy(h);
        drainNeeded_ = true;
    }

    void
    drainHome(World &w, int li)
    {
        drainNeeded_ = false;
        HomeLine &h = w.line[li].home;
        while (!h.busy && h.nPending > 0) {
            const AMsg next = h.pending[0];
            for (int i = 0; i + 1 < h.nPending; ++i)
                h.pending[i] = h.pending[i + 1];
            h.pending[--h.nPending] = AMsg{};
            serveRequest(w, li, next);
        }
    }

    // ------------------------------------------------------------------
    // Home request service (inside the caller's contract step).
    // ------------------------------------------------------------------

    void
    serveRead(World &w, int li, const AMsg &req)
    {
        LineSt &L = w.line[li];
        HomeLine &h = L.home;
        const std::uint8_t src = req.src;
        h.busy = 1;
        h.busyFor = src;
        // (a) Idempotent re-grant: the recorded owner re-requests
        // (its reply was lost and the dedup record was scrubbed).
        if (h.st == kHD && h.owner == src) {
            AMsg r = mk(MsgType::ReadReply, kHomeEp, src);
            r.ver = h.ver;
            r.seq = req.seq;
            if (gmor_)
                r.flags |= fGrantsMaster;
            h.st = kHS;
            h.sharers = bitOf(src);
            h.masterOut = gmor_ ? 1 : 0;
            if (gmor_) {
                h.owner = src;
            } else {
                h.owner = kNil;
                absorbHome(L, h.ver);
            }
            clearBusy(h);
            sendTracked(L, src, r);
            return;
        }
        // (b) Dirty: 3-hop, the owner supplies the data. The home
        // stays busy until the requester's TxnDone.
        if (h.st == kHD) {
            AMsg f = mk(MsgType::Fwd, kHomeEp, h.owner);
            f.req = src;
            f.seq = req.seq;
            // Version the directory expects the owner to hold (lets a
            // node whose grant was lost detect the stale forward).
            f.ver = h.ver;
            h.fwdTo = h.owner;
            emit(L, f);
            h.st = kHS;
            h.sharers =
                static_cast<std::uint8_t>(bitOf(h.owner) | bitOf(src));
            if (gmor_) {
                h.masterOut = 1; // owner downgrades to master
            } else {
                h.masterOut = 0;
                h.owner = kNil;
            }
            return;
        }
        // (c) Paged out to disk (COMA injection overflow).
        if (h.pagedOut)
            pageIn(L);
        // (d) The home (or the co-located COMA AM copy) has the data.
        if (homeHasData(L, li)) {
            if (h.ver != L.gver)
                fail("home serving a stale copy (ver " +
                     std::to_string(static_cast<int>(h.ver)) +
                     " != gver " +
                     std::to_string(static_cast<int>(L.gver)) + ")");
            AMsg r = mk(MsgType::ReadReply, kHomeEp, src);
            r.ver = h.ver;
            r.seq = req.seq;
            if (gmor_ && (!h.masterOut || h.owner == src)) {
                r.flags |= fGrantsMaster;
                h.masterOut = 1;
                h.owner = src;
            }
            h.st = kHS;
            h.sharers |= bitOf(src);
            clearBusy(h);
            sendTracked(L, src, r);
            return;
        }
        // (e) No home copy but a master holds one: forward.
        if (h.masterOut && h.owner != src) {
            AMsg f = mk(MsgType::Fwd, kHomeEp, h.owner);
            f.req = src;
            f.seq = req.seq;
            f.ver = h.ver; // see the 3-hop forward above
            h.fwdTo = h.owner;
            emit(L, f);
            h.sharers |= bitOf(src);
            h.st = kHS;
            return; // stays busy
        }
        // (f) Cold read.
        serveColdRead(w, li, req);
    }

    void
    serveColdRead(World &w, int li, const AMsg &req)
    {
        LineSt &L = w.line[li];
        HomeLine &h = L.home;
        const std::uint8_t src = req.src;
        AMsg r = mk(MsgType::ReadReply, kHomeEp, src);
        r.seq = req.seq;
        if (coma_) {
            // ComaHome::serveColdRead: fetch from disk if paged out,
            // and ALWAYS grant mastership (the directory keeps no
            // copy, so someone must own the line's data).
            h.pagedOut = 0;
            r.ver = h.ver;
            r.flags |= fGrantsMaster;
            h.masterOut = 1;
            h.owner = src;
        } else {
            absorbHome(L, h.ver); // zero-fill at the current epoch
            r.ver = h.ver;
            if (gmor_) {
                r.flags |= fGrantsMaster;
                h.masterOut = 1;
                h.owner = src;
            }
        }
        h.st = kHS;
        h.sharers |= bitOf(src);
        clearBusy(h);
        sendTracked(L, src, r);
    }

    void
    serveWrite(World &w, int li, const AMsg &req)
    {
        LineSt &L = w.line[li];
        HomeLine &h = L.home;
        const std::uint8_t src = req.src;
        h.busy = 1;
        h.busyFor = src;
        if (cfg_.mutation == SpecMutation::DoubleOwner &&
            h.st == kHD && h.owner != src) {
            // Deliberate bug: forget the dirty owner and serve as if
            // uncached, leaving two nodes believing they own the
            // line. SWMR must catch the second install.
            h.st = kHU;
            h.owner = kNil;
            h.sharers = 0;
            h.masterOut = 0;
        }
        // (a) Idempotent re-grant for the recorded owner.
        if (h.st == kHD && h.owner == src) {
            AMsg r = mk(MsgType::ReadExReply, kHomeEp, src);
            r.ver = h.ver;
            r.seq = req.seq;
            clearBusy(h);
            sendTracked(L, src, r);
            return;
        }
        // (b) Serialize: the ONLY site that advances the line's
        // global version.
        const std::uint8_t vnew = ++L.gver;
        // (c) Dirty: ownership transfer via the current owner.
        if (h.st == kHD) {
            AMsg f = mk(MsgType::Fwd, kHomeEp, h.owner);
            f.flags = fFwdEx;
            f.ver = vnew;
            f.req = src;
            f.seq = req.seq;
            h.fwdTo = h.owner;
            emit(L, f);
            h.owner = src;
            h.sharers = 0;
            h.ver = vnew;
            return; // stays busy until TxnDone
        }
        // (d) Shared/Uncached: invalidate every other sharer; route
        // via the master when the home holds no data.
        std::uint8_t inv =
            static_cast<std::uint8_t>(h.sharers & ~bitOf(src));
        const bool fwdToMaster = !homeHasData(L, li) && !h.pagedOut &&
                                 h.masterOut && h.owner != src;
        if (fwdToMaster)
            inv &= static_cast<std::uint8_t>(~bitOf(h.owner));
        if (cfg_.mutation == SpecMutation::DropInvalSend)
            inv &= static_cast<std::uint8_t>(inv - 1); // lose one
        const int nInv = popcount8(inv);
        for (int t = 0; t < cfg_.nodes; ++t) {
            if (!(inv & bitOf(t)))
                continue;
            AMsg iv = mk(MsgType::Inval, kHomeEp,
                         static_cast<std::uint8_t>(t));
            iv.req = src;
            emit(L, iv);
            // Scrub the target's cached reply: its old grant must
            // not be replayed after this write serializes.
            h.served[t].hasReply = 0;
            h.served[t].reply = AMsg{};
        }
        const bool dataless =
            static_cast<MsgType>(req.type) == MsgType::UpgradeReq &&
            (h.sharers & bitOf(src)) != 0 && !fwdToMaster;
        if (dataless) {
            AMsg r = mk(MsgType::UpgradeReply, kHomeEp, src);
            r.ver = vnew;
            r.ack = static_cast<std::uint8_t>(nInv);
            if (nInv > 0)
                r.flags |= fNeedsTxnDone;
            r.seq = req.seq;
            sendTracked(L, src, r);
        } else if (fwdToMaster) {
            AMsg f = mk(MsgType::Fwd, kHomeEp, h.owner);
            f.flags = fFwdEx;
            f.ver = vnew;
            f.ack = static_cast<std::uint8_t>(nInv);
            f.req = src;
            f.seq = req.seq;
            h.fwdTo = h.owner;
            emit(L, f);
        } else {
            AMsg r = mk(MsgType::ReadExReply, kHomeEp, src);
            r.ver = vnew;
            r.ack = static_cast<std::uint8_t>(nInv);
            if (nInv > 0)
                r.flags |= fNeedsTxnDone;
            r.seq = req.seq;
            sendTracked(L, src, r);
        }
        h.ver = vnew;
        h.st = kHD;
        h.owner = src;
        h.sharers = 0;
        h.masterOut = 0;
        h.hasData = 0; // releaseData: the owner's copy is the line
        h.pagedOut = 0;
        if (!fwdToMaster && nInv == 0)
            clearBusy(h);
        else
            h.busy = 1;
    }

    // ------------------------------------------------------------------
    // Writebacks and COMA injection.
    // ------------------------------------------------------------------

    void
    handleWriteBack(World &w, int li, const AMsg &m)
    {
        LineSt &L = w.line[li];
        HomeLine &h = L.home;
        const std::uint8_t src = m.src;
        const bool clean = (m.flags & fMasterClean) != 0;
        // Writeback dedup lane (mirrors handleWriteBack's wbSeq gate):
        // a same-version duplicate that straggles past a re-injection
        // round-trip passes both attribution and the version guard —
        // only the sequence number tells it from a fresh eviction.
        // Ack it and touch nothing.
        if (cfg_.faults > 0 && m.seq != 0) {
            Served &sv = h.served[src];
            if (m.seq <= sv.wbSeq) {
                AMsg dup = mk(MsgType::WriteBackAck, kHomeEp, src);
                emit(L, dup);
                return;
            }
            sv.wbSeq = m.seq;
        }
        // A duplicated WriteBack can straggle until after its sender
        // re-acquired the line; the version exposes it as stale
        // (mirrors handleWriteBack's stale_version guard).
        const bool staleVer = cfg_.faults > 0 && m.ver < h.ver;
        const bool fromOwner =
            !staleVer && h.st == kHD && h.owner == src && !clean;
        const bool fromMaster =
            !staleVer && h.st == kHS && h.masterOut && h.owner == src;
        AMsg a = mk(MsgType::WriteBackAck, kHomeEp, src);
        if (coma_) {
            emit(L, a); // COMA acks first, then starts injection
            if (!fromOwner && !fromMaster) {
                h.sharers &= static_cast<std::uint8_t>(~bitOf(src));
                return; // stale/late: data superseded
            }
            h.sharers &= static_cast<std::uint8_t>(~bitOf(src));
            h.owner = kNil;
            h.masterOut = 0;
            h.st = h.sharers ? kHS : kHU;
            h.injActive = 1;
            h.injVer = m.ver;
            h.injMasterClean = fromMaster ? 1 : 0;
            h.injEvictor = src;
            h.injLastTried = kNil;
            if (fromMaster && h.sharers) {
                // Try granting mastership to a remaining sharer
                // first (highest id first, mirroring the pop-back).
                h.injGrantMode = 1;
                h.injCandidates = h.sharers;
            }
            h.busy = 1;
            h.busyFor = kNil;
            stepInjection(w, li);
            return;
        }
        if (fromOwner) {
            absorbHome(L, m.ver);
            h.st = kHU;
            h.owner = kNil;
            h.sharers = 0;
            h.masterOut = 0;
        } else if (fromMaster) {
            h.sharers &= static_cast<std::uint8_t>(~bitOf(src));
            if (!h.hasData && !h.pagedOut)
                absorbHome(L, m.ver);
            h.masterOut = 0;
            h.owner = kNil;
            if (h.sharers == 0 && h.hasData)
                h.st = kHU;
        } else {
            h.sharers &= static_cast<std::uint8_t>(~bitOf(src));
        }
        emit(L, a);
    }

    int
    maxProviderTries() const
    {
        return cfg_.nodes < 6 ? cfg_.nodes : 6;
    }

    /** Deterministic stand-in for ComaHome::pickProvider's seeded RNG
     *  draws: the lowest node id that is neither the evictor nor the
     *  last node tried, with the same fallback the real code uses
     *  when every draw fails. */
    std::uint8_t
    pickProvider(const HomeLine &h) const
    {
        for (int n = 0; n < cfg_.nodes; ++n) {
            if (n != h.injEvictor && n != h.injLastTried)
                return static_cast<std::uint8_t>(n);
        }
        return h.injEvictor == 0 && cfg_.nodes > 1 ? 1 : 0;
    }

    void
    clearInjection(HomeLine &h)
    {
        h.injActive = 0;
        h.injGrantMode = 0;
        h.injMasterClean = 0;
        h.injVer = 0;
        h.injEvictor = 0;
        h.injLastTried = 0;
        h.injTries = 0;
        h.injCandidates = 0;
    }

    void
    stepInjection(World &w, int li)
    {
        LineSt &L = w.line[li];
        HomeLine &h = L.home;
        if (h.injGrantMode && h.injCandidates) {
            int c = cfg_.nodes - 1;
            while (!(h.injCandidates & bitOf(c)))
                --c;
            h.injCandidates &= static_cast<std::uint8_t>(~bitOf(c));
            h.injLastTried = static_cast<std::uint8_t>(c);
            AMsg g = mk(MsgType::MasterGrant, kHomeEp,
                        static_cast<std::uint8_t>(c));
            g.ver = h.injVer;
            emit(L, g);
            return;
        }
        h.injGrantMode = 0;
        if (h.injTries >= maxProviderTries()) {
            // Every provider refused: overflow the line to disk.
            h.pagedOut = 1;
            h.ver = h.injVer;
            clearInjection(h);
            finishTxnMark(L);
            return;
        }
        const std::uint8_t p = pickProvider(h);
        ++h.injTries;
        h.injLastTried = p;
        AMsg in = mk(MsgType::Inject, kHomeEp, p);
        in.ver = h.injVer;
        if (h.injMasterClean)
            in.flags |= fMasterClean;
        emit(L, in);
    }

    void
    handleInjectResponse(World &w, int li, const AMsg &m)
    {
        LineSt &L = w.line[li];
        HomeLine &h = L.home;
        if (!coma_ || !h.injActive)
            fail("injection response with no pending injection");
        if (static_cast<MsgType>(m.type) == MsgType::InjectAck) {
            beginStep(true, h.st, MsgType::InjectAck);
            if (h.injMasterClean) {
                h.st = kHS;
                h.masterOut = 1;
                h.owner = m.src;
                h.sharers |= bitOf(m.src);
            } else {
                h.st = kHD;
                h.owner = m.src;
                h.sharers = 0;
            }
            clearInjection(h);
            finishTxnMark(L);
            endStep(h.st);
        } else {
            beginStep(true, h.st, MsgType::InjectNack);
            if (h.injGrantMode && cfg_.faults == 0) {
                // The grant candidate silently dropped its copy.
                h.sharers &= static_cast<std::uint8_t>(~bitOf(m.src));
                if (h.sharers == 0 && h.st == kHS)
                    h.st = kHU;
            }
            // Under faults a Nack does not prove absence — the
            // candidate's granted copy may still be in flight (a
            // dropped reply the home just replayed). Keep the sharer
            // bit so a later write invalidates the node and scrubs
            // its cached reply (mirrors handleInjectResponse).
            stepInjection(w, li);
            endStep(h.st);
        }
        if (drainNeeded_)
            drainHome(w, li);
    }

    void
    handleOwnerToHome(World &w, int li, const AMsg &m)
    {
        LineSt &L = w.line[li];
        HomeLine &h = L.home;
        beginStep(true, h.st, MsgType::OwnerToHome);
        const bool current = h.st == kHS && m.ver == h.ver &&
                             (h.masterOut || !gmor_);
        // wantsSharingData: a backing home missing its copy; the
        // model's canAbsorbCheaply() is always true (the AGG
        // FreeList's capacity is not modeled — see the docs).
        if (current && backsLines_ && !h.hasData)
            absorbHome(L, m.ver);
        endStep(h.st);
    }

  protected:
    AMsg replayBuf_[kMaxDefer]{};
    int replayCount_ = 0;
    bool drainNeeded_ = false;
};

/** Fixed-seed xorshift64 for reservoir sampling (never wall-clock). */
struct XorShift
{
    std::uint64_t s = 1;
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

/**
 * Transition enumeration, safety invariants, symmetry-reduced
 * fingerprinting, and the DFS/BFS drivers on top of the handlers.
 */
class Search : public Proto
{
  public:
    using Proto::Proto;

    // ------------------------------------------------------------------
    // Enabled-transition enumeration with line-level partial-order
    // reduction: lines share no state, so expanding only the lowest
    // line with enabled transitions is an ample set — every deferred
    // transition stays enabled and commutes with the chosen line's.
    // ------------------------------------------------------------------

    void
    enumerateLine(const World &w, int li, std::vector<Act> &out) const
    {
        const LineSt &L = w.line[li];
        const std::uint8_t l8 = static_cast<std::uint8_t>(li);
        for (int n = 0; n < cfg_.nodes; ++n) {
            const NodeLine &c = L.n[n];
            const std::uint8_t n8 = static_cast<std::uint8_t>(n);
            const bool canIssue = !c.mshr.valid && !c.wbValid;
            if (c.reads > 0 && canIssue)
                out.push_back({kActRead, l8, n8});
            if (c.writes > 0 && canIssue)
                out.push_back({kActWrite, l8, n8});
            // Owned evictions need a free MSHR; a Shared copy can be
            // displaced under an in-flight upgrade
            // (upgrade-after-displacement).
            if (c.evicts > 0 && c.st != kI && !c.wbValid &&
                (c.st == kS || !c.mshr.valid))
                out.push_back({kActEvict, l8, n8});
            // Forced retry, only when this node is genuinely stalled:
            // something pending and the line's network drained.
            if (c.retries > 0 && L.nMsgs == 0 &&
                ((c.mshr.valid && !c.mshr.replyArrived) || c.wbValid))
                out.push_back({kActRetry, l8, n8});
        }
        for (int i = 0; i < L.nMsgs; ++i) {
            if (!deliverable(L, i))
                continue;
            out.push_back(
                {kActDeliver, l8, static_cast<std::uint8_t>(i)});
            if (L.faultsLeft > 0) {
                const MsgClass cls =
                    msgClassOf(static_cast<MsgType>(L.msgs[i].type));
                if (msgClassDroppable(cls))
                    out.push_back(
                        {kActDrop, l8, static_cast<std::uint8_t>(i)});
                if (msgClassDupSafe(cls))
                    out.push_back(
                        {kActDup, l8, static_cast<std::uint8_t>(i)});
            }
        }
    }

    /** Point-to-point FIFO: deliverable iff oldest in flight for its
     *  (src, dst) pair. Several protocol races (Fwd vs WriteBackAck,
     *  Inval vs later grants) rely on exactly this ordering. */
    static bool
    deliverable(const LineSt &L, int i)
    {
        for (int j = 0; j < i; ++j) {
            if (L.msgs[j].src == L.msgs[i].src &&
                L.msgs[j].dst == L.msgs[i].dst)
                return false;
        }
        return true;
    }

    void
    enumerate(const World &w, std::vector<Act> &acts,
              std::uint64_t &pruned)
    {
        acts.clear();
        bool chosen = false;
        for (int li = 0; li < cfg_.lines; ++li) {
            scratch_.clear();
            enumerateLine(w, li, scratch_);
            if (scratch_.empty())
                continue;
            if (!chosen) {
                acts = scratch_;
                chosen = true;
            } else {
                pruned += scratch_.size();
            }
        }
    }

    // ------------------------------------------------------------------
    // One transition, then the per-state safety invariants.
    // ------------------------------------------------------------------

    void
    apply(World &w, const Act &a)
    {
        switch (a.kind) {
          case kActRead:
            issueAccess(w, a.line, a.a, false);
            break;
          case kActWrite:
            issueAccess(w, a.line, a.a, true);
            break;
          case kActEvict:
            evictNode(w, a.line, a.a);
            break;
          case kActRetry:
            retryNode(w, a.line, a.a);
            break;
          case kActDeliver:
            deliver(w, a.line, a.a, false);
            break;
          case kActDrop:
            removeMsg(w.line[a.line], a.a);
            --w.line[a.line].faultsLeft;
            break;
          case kActDup:
            --w.line[a.line].faultsLeft;
            deliver(w, a.line, a.a, true);
            break;
        }
        checkLineInvariants(w, a.line);
        // A line that just retired (quiescent, all budgets spent) is
        // validated against the terminal invariants immediately and
        // from then on hashes as a single token: its frozen content
        // can no longer influence any other line, so distinguishing
        // retired variants would only multiply the state space by the
        // number of per-line outcomes (lines share no state).
        if (lineRetired(w, a.line))
            checkLineTerminal(w, a.line);
    }

    void
    checkLineInvariants(const World &w, int li)
    {
        const LineSt &L = w.line[li];
        const HomeLine &h = L.home;
        int dirty = 0, owned = 0, validCopies = 0;
        for (int n = 0; n < cfg_.nodes; ++n) {
            const NodeLine &c = L.n[n];
            if (c.st == kD)
                ++dirty;
            if (cohOwned(c.st))
                ++owned;
            if (cohValid(c.st))
                ++validCopies;
            if (c.ver > L.gver)
                fail("node version above the line's global version");
        }
        if (dirty > 0 && validCopies > 1)
            fail("SWMR violated: a Dirty copy coexists with another "
                 "valid copy on line " +
                 std::to_string(li));
        if (owned > 1)
            fail("two nodes hold ownership (Dirty/SharedMaster) on "
                 "line " +
                 std::to_string(li));
        if (h.ver > L.gver)
            fail("home version above the line's global version");
        if (h.st == kHD &&
            (h.owner == kNil || h.sharers != 0 ||
             (!coma_ && h.hasData)))
            fail("directory integrity: HomeDirty entry with no owner, "
                 "sharers, or a retained home copy");
        if (h.masterOut && h.owner == kNil)
            fail("directory integrity: masterOut with no owner");
        if (h.st == kHU && h.sharers != 0)
            fail("directory integrity: HomeUncached entry with "
                 "sharers");
        for (int i = 0; i < L.nMsgs; ++i) {
            if (L.msgs[i].ver > L.gver)
                fail("in-flight message version above the line's "
                     "global version");
        }
    }

    bool
    lineQuiescent(const LineSt &L) const
    {
        if (L.nMsgs != 0 || L.home.busy || L.home.nPending != 0 ||
            L.home.injActive)
            return false;
        for (int n = 0; n < cfg_.nodes; ++n) {
            const NodeLine &c = L.n[n];
            if (c.mshr.valid || c.wbValid || c.nDefer != 0)
                return false;
        }
        return true;
    }

    /** Quiescent with every budget that could still act spent: no
     *  transition on this line will ever be enabled again. */
    bool
    lineRetired(const World &w, int li) const
    {
        const LineSt &L = w.line[li];
        if (!lineQuiescent(L))
            return false;
        for (int n = 0; n < cfg_.nodes; ++n) {
            const NodeLine &c = L.n[n];
            // Retries need an MSHR or writeback pending, which
            // quiescence already rules out.
            if (c.reads > 0 || c.writes > 0 ||
                (c.evicts > 0 && c.st != kI))
                return false;
        }
        return true;
    }

    /** Every line retired: a clean terminal (stuck lines are not
     *  quiescent and so never count as retired). */
    bool
    allRetired(const World &w) const
    {
        for (int li = 0; li < cfg_.lines; ++li) {
            if (!lineRetired(w, li))
                return false;
        }
        return true;
    }

    /** Full value/coherence checks on a state with no enabled
     *  transitions anywhere (the analogue of the real explorer's
     *  quiescent scan + sequential version reference). */
    void
    checkTerminal(const World &w)
    {
        for (int li = 0; li < cfg_.lines; ++li) {
            if (!lineQuiescent(w.line[li]))
                fail("stuck state: line " + std::to_string(li) +
                     " has in-flight work but no enabled transition "
                     "(deadlock)");
            checkLineTerminal(w, li);
        }
    }

    /** The per-line half of checkTerminal, also run the moment a line
     *  retires (before its state is collapsed out of the hash). */
    void
    checkLineTerminal(const World &w, int li)
    {
        const LineSt &L = w.line[li];
        const HomeLine &h = L.home;
        {
            // Each store serializes exactly once, except that a
            // scrubbed write retry is legitimately re-served (the
            // voided first grant still consumed a version number).
            if (L.gver != L.wIssued + L.regrants)
                fail("write serialization mismatch on line " +
                     std::to_string(li) + ": " +
                     std::to_string(static_cast<int>(L.wIssued)) +
                     " write transactions issued (+" +
                     std::to_string(static_cast<int>(L.regrants)) +
                     " re-serialized) but gver is " +
                     std::to_string(static_cast<int>(L.gver)));
            for (int n = 0; n < cfg_.nodes; ++n) {
                const NodeLine &c = L.n[n];
                if (c.st == kD) {
                    if (h.st != kHD || h.owner != n)
                        fail("quiescent Dirty copy the directory does "
                             "not record as owner");
                    if (c.ver != L.gver)
                        fail("quiescent Dirty copy at a stale "
                             "version");
                } else if (c.st == kSM) {
                    if (h.st != kHS || !h.masterOut || h.owner != n ||
                        !(h.sharers & bitOf(n)))
                        fail("quiescent master copy the directory "
                             "does not record");
                    if (c.ver != h.ver)
                        fail("quiescent master copy at a stale "
                             "version");
                } else if (c.st == kS) {
                    if (h.st != kHS || !(h.sharers & bitOf(n)))
                        fail("quiescent Shared copy the directory "
                             "does not record");
                    if (c.ver != h.ver)
                        fail("quiescent Shared copy at a stale "
                             "version");
                }
            }
            if (h.st == kHS && h.ver != L.gver)
                fail("quiescent HomeShared entry at a stale version");
            // Mirror of the real quiescent scan's reachability check:
            // a shared line must have a home copy, a master, or a disk
            // copy, or every future miss is unservable.
            if (h.st == kHS && !h.hasData && !h.masterOut &&
                !h.pagedOut)
                fail("latest data unreachable on line " +
                     std::to_string(li) +
                     ": shared with neither a home copy, a master, "
                     "nor a disk copy");
            if (h.st == kHD) {
                // No lost exclusive owner: the recorded owner must
                // actually hold the Dirty copy.
                if (L.n[h.owner].st != kD)
                    fail("lost exclusive owner: directory says node " +
                         nodeName(h.owner) +
                         " owns the line but it holds no Dirty copy");
            }
        }
    }

    // ------------------------------------------------------------------
    // Canonical fingerprinting: minimum over the allowed compute-node
    // permutations of a field-ordered serialization hash.
    // ------------------------------------------------------------------

    std::uint64_t
    fingerprint(const World &w)
    {
        std::uint64_t best = ~0ull;
        for (const Perm &p : perms_) {
            const std::uint64_t h = hashWorld(w, p);
            if (h < best)
                best = h;
        }
        return best;
    }

  private:
    std::uint8_t
    mapId(std::uint8_t id, const Perm &p) const
    {
        return id < cfg_.nodes ? p.fwd[id] : id;
    }

    std::uint8_t
    mapBits(std::uint8_t bits, const Perm &p) const
    {
        std::uint8_t r = 0;
        for (int i = 0; i < cfg_.nodes; ++i) {
            if (bits & bitOf(i))
                r |= bitOf(p.fwd[i]);
        }
        return r;
    }

    void
    put(std::uint8_t b)
    {
        buf_[len_++] = b;
    }

    void
    putMsg(const AMsg &m, const Perm &p)
    {
        put(m.type);
        put(mapId(m.src, p));
        put(mapId(m.dst, p));
        put(mapId(m.req, p));
        put(m.ver);
        put(m.ack);
        put(m.flags);
        put(m.seq);
    }

    void
    putNode(const NodeLine &c, const Perm &p)
    {
        put(c.st);
        put(c.ver);
        const Mshr &m = c.mshr;
        put(m.valid);
        put(m.isWrite);
        put(m.upgrade);
        put(m.reqType);
        put(m.seq);
        put(m.replyArrived);
        put(m.replyHasData);
        put(m.grantsMaster);
        put(m.needsTxnDone);
        put(static_cast<std::uint8_t>(m.acksExpected));
        put(m.acksReceived);
        put(mapBits(m.ackFrom, p));
        put(m.ver);
        put(m.supVer);
        put(c.wbValid);
        put(c.wbMasterClean);
        put(c.wbVer);
        put(c.wbSeq);
        put(c.nDefer);
        for (int i = 0; i < c.nDefer; ++i)
            putMsg(c.defer[i], p);
        put(c.reads);
        put(c.writes);
        put(c.evicts);
        put(c.retries);
        put(c.nextSeq);
    }

    std::uint64_t
    hashWorld(const World &w, const Perm &p)
    {
        len_ = 0;
        for (int li = 0; li < cfg_.lines; ++li) {
            const LineSt &L = w.line[li];
            // A retired line hashes as a token: its frozen content was
            // already validated (checkLineTerminal) and cannot affect
            // any future transition, so distinct per-line outcomes
            // must not multiply the explored product space.
            if (lineRetired(w, li)) {
                put(0xEE);
                continue;
            }
            // Nodes in permuted order: slot j holds old node inv[j].
            for (int j = 0; j < cfg_.nodes; ++j)
                putNode(L.n[p.inv[j]], p);
            const HomeLine &h = L.home;
            put(h.st);
            put(mapId(h.owner, p));
            put(mapBits(h.sharers, p));
            put(h.masterOut);
            put(h.busy);
            put(mapId(h.busyFor, p));
            put(mapId(h.fwdTo, p));
            put(h.hasData);
            put(h.pagedOut);
            put(h.ver);
            put(h.nPending);
            for (int i = 0; i < h.nPending; ++i)
                putMsg(h.pending[i], p);
            for (int j = 0; j < cfg_.nodes; ++j) {
                const Served &sv = h.served[p.inv[j]];
                put(sv.seq);
                put(sv.hasReply);
                put(sv.wbSeq);
                putMsg(sv.reply, p);
            }
            put(h.injActive);
            put(h.injGrantMode);
            put(h.injMasterClean);
            put(h.injVer);
            put(mapId(h.injEvictor, p));
            put(mapId(h.injLastTried, p));
            put(h.injTries);
            put(mapBits(h.injCandidates, p));
            // Messages stable-sorted by permuted (src, dst) so the
            // per-pair FIFO order is preserved while pair identity is
            // canonical.
            int order[kMaxMsgs];
            int keys[kMaxMsgs];
            for (int i = 0; i < L.nMsgs; ++i) {
                order[i] = i;
                keys[i] = (static_cast<int>(
                               mapId(L.msgs[i].src, p))
                           << 8) |
                          mapId(L.msgs[i].dst, p);
            }
            for (int i = 1; i < L.nMsgs; ++i) {
                const int oi = order[i], ki = keys[oi];
                int j = i - 1;
                while (j >= 0 && keys[order[j]] > ki) {
                    order[j + 1] = order[j];
                    --j;
                }
                order[j + 1] = oi;
            }
            put(L.nMsgs);
            for (int i = 0; i < L.nMsgs; ++i)
                putMsg(L.msgs[order[i]], p);
            put(L.gver);
            put(L.wIssued);
            put(L.regrants);
            put(L.faultsLeft);
        }
        std::uint64_t h = 0x84222325cbf29ce4ull ^
                          (len_ * 0x9e3779b97f4a7c15ull);
        std::size_t i = 0;
        for (; i + 8 <= len_; i += 8) {
            std::uint64_t word;
            std::memcpy(&word, buf_ + i, 8);
            h = flatMix64(h ^ word);
        }
        if (i < len_) {
            std::uint64_t word = 0;
            std::memcpy(&word, buf_ + i, len_ - i);
            h = flatMix64(h ^ word);
        }
        return h;
    }

  public:
    // ------------------------------------------------------------------
    // Drivers.
    // ------------------------------------------------------------------

    SpecTraceStep
    annotate(const World &w, const Act &a) const
    {
        SpecTraceStep s;
        s.line = a.line;
        const std::string ln =
            " (line " + std::to_string(static_cast<int>(a.line)) + ")";
        switch (a.kind) {
          case kActRead:
            s.kind = SpecTraceStep::Kind::Read;
            s.node = a.a;
            s.text = nodeName(a.a) + " read" + ln;
            break;
          case kActWrite:
            s.kind = SpecTraceStep::Kind::Write;
            s.node = a.a;
            s.text = nodeName(a.a) + " write" + ln;
            break;
          case kActEvict:
            s.kind = SpecTraceStep::Kind::Evict;
            s.node = a.a;
            s.text = nodeName(a.a) + " evict" + ln;
            break;
          case kActRetry:
            s.kind = SpecTraceStep::Kind::Retry;
            s.node = a.a;
            s.text = nodeName(a.a) + " forced retry" + ln;
            break;
          default: {
            const AMsg &m = w.line[a.line].msgs[a.a];
            s.msg = static_cast<MsgType>(m.type);
            const char *verb = a.kind == kActDeliver ? "deliver "
                               : a.kind == kActDrop ? "drop "
                                                    : "dup ";
            s.kind = a.kind == kActDeliver
                         ? SpecTraceStep::Kind::Deliver
                         : (a.kind == kActDrop
                                ? SpecTraceStep::Kind::Drop
                                : SpecTraceStep::Kind::Dup);
            s.text = verb + renderMsg(m) + ln;
            break;
          }
        }
        return s;
    }

    SpecExplorerResult
    runDfs()
    {
        SpecExplorerResult res;
        struct Frame
        {
            World w;
            std::vector<Act> acts;
            std::size_t next = 0;
        };
        std::vector<Frame> stack;
        SpecTrace path;

        Frame f0;
        f0.w = initial();
        markInitial(f0.w, 1u << 16, res);
        enumerate(f0.w, f0.acts, res.porPruned);
        if (!f0.acts.empty()) // else degenerate budgets: nothing to do
            stack.push_back(std::move(f0));

        while (!stack.empty()) {
            Frame &f = stack.back();
            if (f.next >= f.acts.size()) {
                stack.pop_back();
                if (!path.empty())
                    path.pop_back();
                continue;
            }
            Frame nf;
            SpecTraceStep step;
            const Edge e =
                expand(f.w, f.acts[f.next++], path, nf.w, step, res);
            if (e == Edge::Stop)
                break;
            if (e == Edge::Seen)
                continue;
            enumerate(nf.w, nf.acts, res.porPruned);
            path.push_back(std::move(step));
            res.maxDepth = std::max<std::uint64_t>(res.maxDepth,
                                                   path.size());
            if (nf.acts.empty()) {
                if (!terminalHolds(nf.w, path, res))
                    break;
                path.pop_back();
                continue;
            }
            stack.push_back(std::move(nf));
        }
        return finish(res);
    }

    SpecExplorerResult
    runBfs()
    {
        SpecExplorerResult res;
        struct BNode
        {
            World w;
            SpecTrace path;
        };
        std::deque<BNode> q;
        q.push_back({initial(), {}});
        markInitial(q.front().w, 1u << 12, res);
        std::vector<Act> acts;

        while (!q.empty()) {
            BNode cur = std::move(q.front());
            q.pop_front();
            enumerate(cur.w, acts, res.porPruned);
            if (acts.empty()) {
                if (!terminalHolds(cur.w, cur.path, res))
                    break;
                continue;
            }
            for (const Act &a : acts) {
                BNode nb;
                SpecTraceStep step;
                const Edge e = expand(cur.w, a, cur.path, nb.w, step, res);
                if (e == Edge::Stop)
                    return finish(res);
                if (e == Edge::Seen)
                    continue;
                nb.path = cur.path;
                nb.path.push_back(std::move(step));
                res.maxDepth = std::max<std::uint64_t>(res.maxDepth,
                                                       nb.path.size());
                q.push_back(std::move(nb));
            }
        }
        return finish(res);
    }

  private:
    enum class Edge
    {
        Stop,  ///< violation packaged or state cap hit: end the search
        Seen,  ///< into an already-visited state
        Fresh, ///< into a new state, now marked visited
    };

    void
    markInitial(const World &init, std::size_t reserve,
                SpecExplorerResult &res)
    {
        visited_.reserve(reserve);
        visited_.emplace(fingerprint(init), 1);
        res.states = 1;
    }

    /**
     * The one expand step of both searches: apply @p a to a copy of
     * @p from (a violation is packaged with @p path plus the step),
     * count the transition, offer a just-completed trace to the
     * sampler, then fingerprint, deduplicate, and hold the state cap.
     * Sampling precedes dedup: retired-line collapse merges every
     * clean terminal into one visited state, so sampling only at first
     * visit would yield a single trace.
     */
    Edge
    expand(const World &from, const Act &a, const SpecTrace &path,
           World &to, SpecTraceStep &step, SpecExplorerResult &res)
    {
        step = annotate(from, a);
        to = from;
        try {
            apply(to, a);
        } catch (const ViolationEx &v) {
            SpecTrace trace = path;
            trace.push_back(step);
            report(res, v, std::move(trace));
            return Edge::Stop;
        }
        ++res.transitions;
        if (a.kind == kActDrop || a.kind == kActDup)
            ++res.faultTransitions;
        if (cfg_.sampleTraces > 0 && allRetired(to))
            sample(res, path, step);
        const std::uint64_t fp = fingerprint(to);
        if (visited_.count(fp) != 0) {
            ++res.revisits;
            return Edge::Seen;
        }
        if (res.states >= cfg_.maxStates) {
            res.truncated = true;
            return Edge::Stop;
        }
        visited_.emplace(fp, 1);
        ++res.states;
        return Edge::Fresh;
    }

    /** Check a state with no enabled action; false (violation packaged
     *  with @p path) ends the search. */
    bool
    terminalHolds(const World &w, const SpecTrace &path,
                  SpecExplorerResult &res)
    {
        try {
            checkTerminal(w);
        } catch (const ViolationEx &v) {
            report(res, v, path);
            return false;
        }
        ++res.terminals;
        return true;
    }

    static void
    report(SpecExplorerResult &res, const ViolationEx &v, SpecTrace trace)
    {
        res.violation = true;
        res.violationText = v.text;
        res.counterexample = std::move(trace);
    }

    /** Reservoir-sample the completed trace @p path + @p step. */
    void
    sample(SpecExplorerResult &res, const SpecTrace &path,
           const SpecTraceStep &step)
    {
        ++termSeen_;
        const auto want = static_cast<std::size_t>(cfg_.sampleTraces);
        SpecTrace cand = path;
        cand.push_back(step);
        if (res.sampled.size() < want) {
            res.sampled.push_back(std::move(cand));
        } else {
            const std::uint64_t r = rng_.next() % termSeen_;
            if (r < want)
                res.sampled[r] = std::move(cand);
        }
    }

    SpecExplorerResult
    finish(SpecExplorerResult &res) const
    {
        res.rowChecks = rowChecks;
        return std::move(res);
    }

    FlatMap<std::uint64_t, char> visited_;
    XorShift rng_;
    std::uint64_t termSeen_ = 0;
    std::vector<Act> scratch_;
    std::uint8_t buf_[2600]{};
    std::size_t len_ = 0;
};

} // namespace

// ----------------------------------------------------------------------
// Public API.
// ----------------------------------------------------------------------

SpecExplorer::SpecExplorer(SpecExplorerConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.nodes < 2 || cfg_.nodes > kMaxN)
        fatal("speccheck: nodes must be in [2, " +
              std::to_string(kMaxN) + "]");
    if (cfg_.lines < 1 || cfg_.lines > kMaxLines)
        fatal("speccheck: lines must be in [1, " +
              std::to_string(kMaxLines) + "]");
    if (cfg_.reads < 0 || cfg_.writes < 0 || cfg_.evicts < 0 ||
        cfg_.retries < 0 || cfg_.faults < 0)
        fatal("speccheck: negative budget");
    if (cfg_.reads + cfg_.writes == 0)
        fatal("speccheck: nothing to explore (reads+writes == 0)");
    if (cfg_.faults > 0 && cfg_.retries < 1)
        fatal("speccheck: fault injection needs a retry budget to "
              "recover lost messages");
    if (cfg_.sampleTraces < 0)
        fatal("speccheck: negative sample count");
}

SpecExplorerResult
SpecExplorer::run()
{
    Search s(cfg_);
    return cfg_.bfs ? s.runBfs() : s.runDfs();
}

} // namespace pimdsm
