/**
 * @file
 * perfbench harness: the in-process half of the repository benchmark.
 *
 * It mirrors the point lists of the timed programs on top of the
 * unmodified pimdsm library, and wraps the calls into each src/ layer
 * from outside:
 *
 *   fig6_sweep      bench_fig6_exec_time: 7 apps x 7 machines, 32 threads
 *   fault_campaign  bench_faults: 7 apps x 7 fault scenarios + wedge
 *
 * Modes (each prints one JSON object on stdout):
 *
 *   perfbench_harness setup <workload> <min_reps> <min_seconds>
 *       makeWorkload + buildConfig + Machine construction for every
 *       point, untraced, repeated at least <min_reps> times and for at
 *       least <min_seconds>; prints each repetition's seconds.
 *   perfbench_harness count <workload>
 *       runs every point untraced; prints the exact event total.
 *   perfbench_harness trace <workload> <seed> <spans.json>
 *       the traced pass: spans for point/build/run/stream and the
 *       standalone drivers, layer counters, and the standalone
 *       EventQueue, Mesh and Cache/TaggedMemory drivers (inputs drawn
 *       from <seed>). Spans are kept in memory and written to
 *       <spans.json> once, at the end.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "machine/builder.hh"
#include "machine/machine.hh"
#include "mem/cache.hh"
#include "mem/tagged_memory.hh"
#include "net/mesh.hh"
#include "proto/stuck.hh"
#include "report/experiment.hh"
#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "workload/workload.hh"

// ---------------------------------------------------------------------
// Heap allocation counter: every global operator new in the process.

namespace
{
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    void *p = nullptr;
    if (posix_memalign(&p, a < sizeof(void *) ? sizeof(void *) : a,
                       n ? n : 1) == 0)
        return p;
    throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace pimdsm;

namespace
{

// ---------------------------------------------------------------------
// Clocks and spans.

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Cheap cycle counter for the per-op stream timer (converted to ns
 *  with a rate calibrated over the whole traced pass). */
std::uint64_t
cycles()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return nowNs();
#endif
}

struct Span
{
    std::string name;
    int id = 0;
    int parent = -1;
    /** Index of the point the span belongs to (-1: standalone). */
    int point = -1;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    /** Cycles spent inside the layer (stream spans only). */
    std::uint64_t busyCycles = 0;
};

class Tracer
{
  public:
    int
    open(const std::string &name, int parent, int point)
    {
        Span s;
        s.name = name;
        s.id = static_cast<int>(spans_.size());
        s.parent = parent;
        s.point = point;
        s.start = nowNs();
        spans_.push_back(s);
        return s.id;
    }

    void close(int id) { spans_[id].end = nowNs(); }

    Span &at(int id) { return spans_[id]; }

    double
    seconds(int id) const
    {
        return (spans_[id].end - spans_[id].start) * 1e-9;
    }

    void
    write(const std::string &path, double ns_per_cycle) const
    {
        std::ofstream os(path);
        os << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << "  {\"name\": \"" << s.name << "\", \"id\": " << s.id
               << ", \"parent\": " << s.parent
               << ", \"point\": " << s.point
               << ", \"start_ns\": " << s.start
               << ", \"end_ns\": " << s.end;
            if (s.busyCycles) {
                os << ", \"busy_ns\": "
                   << static_cast<std::uint64_t>(s.busyCycles *
                                                 ns_per_cycle);
            }
            os << "}" << (i + 1 < spans_.size() ? "," : "") << "\n";
        }
        os << "]\n";
    }

  private:
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Workload timing wrapper: times makeStream and every OpStream::next.

struct StreamTotals
{
    std::uint64_t ops = 0;
    std::uint64_t busyCycles = 0;
};

class TimedStream final : public OpStream
{
  public:
    TimedStream(std::unique_ptr<OpStream> inner, Tracer &tr, int span,
                StreamTotals &totals)
        : inner_(std::move(inner)), tr_(tr), span_(span),
          totals_(totals)
    {
    }

    ~TimedStream() override { finish(); }
    TimedStream(const TimedStream &) = delete;
    TimedStream &operator=(const TimedStream &) = delete;

    bool
    next(Op &op) override
    {
        const std::uint64_t c0 = cycles();
        const bool ok = inner_->next(op);
        busy_ += cycles() - c0;
        if (ok)
            ++ops_;
        else
            finish();
        return ok;
    }

  private:
    void
    finish()
    {
        if (done_)
            return;
        done_ = true;
        tr_.close(span_);
        tr_.at(span_).busyCycles += busy_;
        totals_.ops += ops_;
        totals_.busyCycles += busy_;
    }

    std::unique_ptr<OpStream> inner_;
    Tracer &tr_;
    int span_;
    StreamTotals &totals_;
    std::uint64_t ops_ = 0;
    std::uint64_t busy_ = 0;
    bool done_ = false;
};

class TimedWorkload final : public Workload
{
  public:
    TimedWorkload(const Workload &inner, Tracer &tr, int parent,
                  int point, StreamTotals &totals)
        : inner_(inner), tr_(tr), parent_(parent), point_(point),
          totals_(totals)
    {
    }

    std::string name() const override { return inner_.name(); }
    int numPhases() const override { return inner_.numPhases(); }
    std::string
    phaseName(int p) const override
    {
        return inner_.phaseName(p);
    }
    std::uint64_t
    footprintBytes() const override
    {
        return inner_.footprintBytes();
    }
    std::uint64_t l1Bytes() const override { return inner_.l1Bytes(); }
    std::uint64_t l2Bytes() const override { return inner_.l2Bytes(); }

    std::unique_ptr<OpStream>
    makeStream(int phase, ThreadId tid, int num_threads) const override
    {
        const int span = tr_.open("stream", parent_, point_);
        const std::uint64_t c0 = cycles();
        auto inner = inner_.makeStream(phase, tid, num_threads);
        const std::uint64_t made = cycles() - c0;
        tr_.at(span).busyCycles += made;
        totals_.busyCycles += made;
        return std::make_unique<TimedStream>(std::move(inner), tr_, span,
                                             totals_);
    }

  private:
    const Workload &inner_;
    Tracer &tr_;
    int parent_;
    int point_;
    StreamTotals &totals_;
};

// ---------------------------------------------------------------------
// The workloads' point lists, mirrored from their programs.

/** How a point's machine deviates from buildConfig(wl, spec). */
enum class Fault
{
    None,
    Clean,
    Drop,
    DNodeDeath,
    PNodeDeath,
    LinkDeath,
    Partition,
    Wedge,
};

struct Point
{
    std::string id;
    /** Points of one group share a workload object, as in the
     *  program; fault points are anchored to their group's clean run. */
    int group = 0;
    std::string app;
    BuildSpec spec;
    Fault fault = Fault::None;
    double drop = 0.0;
    /** Fault tick = the group's clean run's ticks / faultDiv. */
    int faultDiv = 0;
};

BuildSpec
makeSpec(ArchKind arch, int threads, double pressure, int d_ratio)
{
    BuildSpec s;
    s.arch = arch;
    s.threads = threads;
    s.pressure = pressure;
    s.dRatio = d_ratio;
    return s;
}

std::vector<Point>
fig6Points()
{
    std::vector<Point> pts;
    int group = 0;
    for (const std::string &app : paperWorkloadNames()) {
        const int red =
            (app == "fft" || app == "radix" || app == "ocean") ? 2 : 4;
        const std::string r = "1/" + std::to_string(red);
        const struct
        {
            std::string label;
            BuildSpec spec;
        } machines[] = {
            {"NUMA", makeSpec(ArchKind::Numa, 32, 0.75, 1)},
            {"COMA25", makeSpec(ArchKind::Coma, 32, 0.25, 1)},
            {"COMA75", makeSpec(ArchKind::Coma, 32, 0.75, 1)},
            {"1/1AGG25", makeSpec(ArchKind::Agg, 32, 0.25, 1)},
            {"1/1AGG75", makeSpec(ArchKind::Agg, 32, 0.75, 1)},
            {r + "AGG25", makeSpec(ArchKind::Agg, 32, 0.25, red)},
            {r + "AGG75", makeSpec(ArchKind::Agg, 32, 0.75, red)},
        };
        for (const auto &m : machines) {
            Point p;
            p.id = app + "/" + m.label;
            p.group = group;
            p.app = app;
            p.spec = m.spec;
            pts.push_back(p);
        }
        ++group;
    }
    return pts;
}

std::vector<Point>
faultPoints()
{
    std::vector<Point> pts;
    int group = 0;
    auto add = [&](const std::string &app, const std::string &label,
                   Fault f, double drop, int div) {
        Point p;
        p.id = app + "/" + label;
        p.group = group;
        p.app = app;
        p.spec = makeSpec(ArchKind::Agg, 8, 0.25, 2);
        p.fault = f;
        p.drop = drop;
        p.faultDiv = div;
        pts.push_back(p);
    };
    for (const std::string &app : paperWorkloadNames()) {
        add(app, "clean", Fault::Clean, 0.0, 0);
        add(app, "drop 0.01", Fault::Drop, 0.01, 0);
        add(app, "drop 0.05", Fault::Drop, 0.05, 0);
        add(app, "dnode_death", Fault::DNodeDeath, 0.0, 2);
        add(app, "pnode_death", Fault::PNodeDeath, 0.0, 2);
        add(app, "link_death", Fault::LinkDeath, 0.0, 2);
        add(app, "partition", Fault::Partition, 0.0, 3);
        ++group;
    }
    ++group;
    add(paperWorkloadNames().front(), "wedge", Fault::Wedge, 1.0, 0);
    return pts;
}

std::vector<Point>
pointsFor(const std::string &workload)
{
    if (workload == "fig6_sweep")
        return fig6Points();
    if (workload == "fault_campaign")
        return faultPoints();
    std::cerr << "unknown workload " << workload << "\n";
    std::exit(2);
}

MachineConfig
configure(const Point &p, const Workload &wl, Tick clean_ticks)
{
    MachineConfig cfg = buildConfig(wl, p.spec);
    if (p.fault == Fault::None)
        return cfg;
    cfg.faults.seed = 0x5eedull;
    const Tick ft = p.faultDiv ? clean_ticks / p.faultDiv : 0;
    switch (p.fault) {
      case Fault::Drop:
      case Fault::Wedge:
        cfg.faults.setUniformDropRate(p.drop);
        break;
      case Fault::DNodeDeath:
        cfg.faults.deaths.push_back(
            DNodeDeath{ft, static_cast<NodeId>(cfg.numPNodes)});
        break;
      case Fault::PNodeDeath:
        cfg.faults.pnodeDeaths.push_back(PNodeDeath{ft, 1});
        break;
      case Fault::LinkDeath:
        cfg.faults.linkDeaths.push_back(LinkDeath{ft, 0, 0, 0});
        break;
      case Fault::Partition:
        {
            Partition part;
            part.tick = ft;
            part.healTick = ft * 2;
            for (int y = 0; y < cfg.net.meshY; ++y)
                part.cut.push_back(LinkRef{0, y, 0});
            cfg.faults.partitions.push_back(part);
            break;
        }
      case Fault::None:
      case Fault::Clean:
        break;
    }
    cfg.validate();
    return cfg;
}

/** The machine runWorkload builds for @p cfg (it resizes the caches
 *  to the workload's Table 3 sizes first). */
MachineConfig
machineConfig(MachineConfig cfg, const Workload &wl)
{
    cfg.l1.sizeBytes = wl.l1Bytes();
    cfg.l2.sizeBytes = wl.l2Bytes();
    return cfg;
}

/** Walks a workload's point list, keeping the shared workload object
 *  and the clean-run anchor the programs keep. */
class PointWalker
{
  public:
    explicit PointWalker(const std::vector<Point> &pts) : pts_(pts) {}

    /** Workload for point @p i. Fault points build a fresh one each,
     *  as bench_faults does; the others share one per group. */
    const Workload &
    workload(std::size_t i)
    {
        const Point &p = pts_[i];
        if (!wl_ || p.fault != Fault::None || p.group != group_) {
            wl_ = makeWorkload(p.app);
            group_ = p.group;
        }
        return *wl_;
    }

    Tick cleanTicks() const { return cleanTicks_; }
    void setCleanTicks(Tick t) { cleanTicks_ = t; }

  private:
    const std::vector<Point> &pts_;
    std::unique_ptr<Workload> wl_;
    int group_ = -1;
    Tick cleanTicks_ = 0;
};

/** Placeholder fault anchor for set-up timing (no run precedes it);
 *  fault ticks do not change what a Machine constructs. */
constexpr Tick kSetupFaultAnchor = 3'000'000;

struct Outcome
{
    bool completed = false;
    bool watchdog = false;
    RunResult result;
};

Outcome
runPoint(const MachineConfig &cfg, const Workload &wl)
{
    Outcome o;
    warnResetForTest();
    try {
        o.result = runWorkload(cfg, wl);
        o.completed = true;
    } catch (const WatchdogError &) {
        o.watchdog = true;
    } catch (const PanicError &) {
    }
    warnResetForTest();
    return o;
}

/** Every point completes except the wedge, which must trip the
 *  watchdog. */
bool
expectedOutcome(const Point &p, const Outcome &o)
{
    return p.fault == Fault::Wedge ? o.watchdog : o.completed;
}

double
counter(const RunResult &r, const std::string &name)
{
    const auto it = r.counters.find(name);
    return it == r.counters.end() ? 0.0 : it->second;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

// ---------------------------------------------------------------------
// Modes.

int
modeSetup(const std::string &workload, int min_reps, double min_seconds)
{
    const auto pts = pointsFor(workload);
    std::vector<double> secs;
    double total = 0;
    while (static_cast<int>(secs.size()) < min_reps ||
           total < min_seconds) {
        const std::uint64_t t0 = nowNs();
        PointWalker walk(pts);
        walk.setCleanTicks(kSetupFaultAnchor);
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const Workload &wl = walk.workload(i);
            const MachineConfig cfg = machineConfig(
                configure(pts[i], wl, walk.cleanTicks()), wl);
            Machine m(cfg);
        }
        secs.push_back((nowNs() - t0) * 1e-9);
        total += secs.back();
    }
    std::cout << "{\"points\": " << pts.size() << ", \"setup_s\": [";
    for (std::size_t i = 0; i < secs.size(); ++i)
        std::cout << (i ? ", " : "") << num(secs[i]);
    std::cout << "]}\n";
    return 0;
}

int
modeCount(const std::string &workload)
{
    const auto pts = pointsFor(workload);
    PointWalker walk(pts);
    double events = 0;
    int unexpected = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const Workload &wl = walk.workload(i);
        const Outcome o =
            runPoint(configure(pts[i], wl, walk.cleanTicks()), wl);
        if (pts[i].fault == Fault::Clean)
            walk.setCleanTicks(o.result.totalTicks);
        if (!expectedOutcome(pts[i], o))
            ++unexpected;
        events += counter(o.result, "sim.events_executed");
    }
    std::cout << "{\"points\": " << pts.size()
              << ", \"unexpected\": " << unexpected
              << ", \"events\": " << num(events) << "}\n";
    return 0;
}

/** xorshift64*: the drivers' seeded input generator. */
struct Rng
{
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed * 0x9e3779b97f4a7c15ull | 1)
    {
    }
    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dull;
    }
};

/**
 * Standalone EventQueue driver: a closed population of event chains,
 * each event scheduling its successor after a delay drawn from
 * @p delays (the run's read-latency mix). Returns host ns per event.
 */
double
queueDriver(const std::vector<Tick> &delays, int chains,
            std::uint64_t total, std::uint64_t seed)
{
    struct State
    {
        EventQueue eq;
        std::vector<Tick> table;
        Rng rng{1};
        std::uint64_t remaining = 0;
    };
    State st;
    st.table = delays;
    st.rng = Rng(seed);
    st.remaining = total;

    struct Step
    {
        State *st;
        void
        operator()() const
        {
            if (st->remaining == 0)
                return;
            --st->remaining;
            const Tick d =
                st->table[st->rng.next() % st->table.size()];
            st->eq.scheduleIn(d, Step{st});
        }
    };
    for (int c = 0; c < chains; ++c)
        st.eq.scheduleIn(1 + c % 7, Step{&st});
    const std::uint64_t t0 = nowNs();
    const std::uint64_t executed = st.eq.run();
    const std::uint64_t t1 = nowNs();
    return executed ? static_cast<double>(t1 - t0) / executed : 0.0;
}

/** Delay table for queueDriver: the run's mean latency per read
 *  service level, each repeated in proportion to its read count. */
std::vector<Tick>
delayMix(const RunResult &r)
{
    const double total = static_cast<double>(r.reads.totalAllCount());
    std::vector<Tick> table;
    for (int i = 0; i < ReadLatencyStats::kNum; ++i) {
        if (!r.reads.count[i])
            continue;
        const Tick mean = std::max<Tick>(
            1, r.reads.totalLatency[i] / r.reads.count[i]);
        const int reps = std::max(
            1, static_cast<int>(std::lround(1024 * r.reads.count[i] /
                                            total)));
        table.insert(table.end(), reps, mean);
    }
    if (table.empty())
        table.push_back(1);
    return table;
}

/**
 * Standalone Mesh driver on @p cfg's mesh geometry: batches of sends
 * between seeded node pairs, half control and half data sized, each
 * batch drained before the next. With @p degraded one corner link is
 * dead, so detour routing is consulted. Returns host ns per send().
 */
double
meshDriver(const MachineConfig &cfg, bool degraded, int batches,
           std::uint64_t seed)
{
    EventQueue eq;
    Mesh mesh(eq, cfg.net, cfg.totalNodes());
    if (degraded)
        mesh.setLinkAlive(0, 0, 0, false);
    Rng rng(seed);
    const int n = cfg.totalNodes();
    std::uint64_t delivered = 0;
    std::uint64_t send_ns = 0;
    std::uint64_t sends = 0;
    constexpr int kBatch = 64;
    std::vector<std::pair<NodeId, NodeId>> pairs(kBatch);
    for (int b = 0; b < batches; ++b) {
        for (auto &pr : pairs) {
            pr.first = static_cast<NodeId>(rng.next() % n);
            pr.second = static_cast<NodeId>(rng.next() % n);
        }
        const std::uint64_t t0 = nowNs();
        for (int i = 0; i < kBatch; ++i) {
            mesh.send(pairs[i].first, pairs[i].second,
                      (i & 1) ? cfg.mem.lineBytes : 0,
                      [&delivered] { ++delivered; });
        }
        send_ns += nowNs() - t0;
        sends += kBatch;
        eq.run();
    }
    if (delivered != sends) {
        std::cerr << "mesh driver: " << delivered << " of " << sends
                  << " messages delivered\n";
        std::exit(3);
    }
    return static_cast<double>(send_ns) / sends;
}

/**
 * Standalone Cache/TaggedMemory driver: the workload's own address
 * stream (every thread's phase-0-onward ops, starting from a seeded
 * thread, up to kMaxAccesses) through an L1, an L2 and the node's
 * tagged local memory, as a P-node's private hierarchy sees it without
 * coherence traffic. The stream is replayed until kMinAccesses have
 * been timed. Returns host ns per access.
 */
double
cacheDriver(const MachineConfig &cfg, const Workload &wl,
            std::uint64_t seed)
{
    constexpr std::size_t kMaxAccesses = 1'000'000;
    constexpr std::size_t kMinAccesses = 2'000'000;
    const int threads = cfg.numThreads;
    std::vector<std::pair<Addr, bool>> addrs;
    for (int k = 0; k < threads && addrs.size() < kMaxAccesses; ++k) {
        const int tid = static_cast<int>((seed + k) % threads);
        for (int phase = 0;
             phase < wl.numPhases() && addrs.size() < kMaxAccesses;
             ++phase) {
            auto s = wl.makeStream(phase, tid, threads);
            Op op;
            while (addrs.size() < kMaxAccesses && s->next(op)) {
                if (op.kind == Op::Kind::Load ||
                    op.kind == Op::Kind::Store)
                    addrs.emplace_back(op.addr,
                                       op.kind == Op::Kind::Store);
            }
        }
    }
    if (addrs.empty())
        return 0.0;

    const MachineConfig mc = machineConfig(cfg, wl);
    Cache l1("l1", mc.l1);
    Cache l2("l2", mc.l2);
    TaggedMemory tm(mc.pNodeMemBytes, mc.mem);
    std::uint64_t accesses = 0;
    const std::uint64_t t0 = nowNs();
    while (accesses < kMinAccesses) {
        for (const auto &[a, w] : addrs) {
            if (l1.access(a, w))
                continue;
            l1.fill(a, w);
            if (l2.access(a, w))
                continue;
            l2.fill(a, w);
            if (CacheLine *line = tm.find(a))
                tm.accessAndMigrate(*line);
            else
                tm.install(*tm.victim(a), a, CohState::Shared);
        }
        accesses += addrs.size();
    }
    return static_cast<double>(nowNs() - t0) / accesses;
}

/** Percentile (nearest-rank, 0 < q <= 1) of @p v. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    k = std::clamp<std::size_t>(k, 1, v.size());
    return v[k - 1];
}

/** The point whose machine the standalone drivers model: fft on
 *  1/1AGG at 75% pressure for the sweep, the fft clean run for the
 *  campaign. */
std::size_t
driverPoint(const std::string &workload, const std::vector<Point> &pts)
{
    const std::string want =
        workload == "fig6_sweep" ? "fft/1/1AGG75" : "fft/clean";
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (pts[i].id == want)
            return i;
    }
    return 0;
}

int
modeTrace(const std::string &workload, std::uint64_t seed,
          const std::string &spans_path)
{
    const auto pts = pointsFor(workload);
    const std::size_t drv = driverPoint(workload, pts);
    Tracer tr;
    StreamTotals streams;

    const std::uint64_t cal_ns0 = nowNs();
    const std::uint64_t cal_c0 = cycles();

    struct Totals
    {
        double events = 0, msgs = 0, instrs = 0, linkWait = 0;
        double engineWait = 0, retries = 0, failovers = 0;
        double reads = 0, readCls[ReadLatencyStats::kNum] = {};
        double busy = 0, sync = 0, memStall = 0;
        double dnodeUtilSum = 0;
        int dnodeUtilPoints = 0;
        double runAllocs = 0, buildAllocs = 0;
        double runS = 0;
        int unexpected = 0;
    } t;
    std::vector<double> point_s, build_ms;
    RunResult drv_result;
    MachineConfig drv_cfg;

    PointWalker walk(pts);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const Point &p = pts[i];
        const int pt = static_cast<int>(i);
        const int point_span = tr.open("point", -1, pt);
        const Workload &wl = walk.workload(i);
        const MachineConfig cfg = configure(p, wl, walk.cleanTicks());

        const int build_span = tr.open("build", point_span, pt);
        const std::uint64_t a0 = g_allocs.load();
        {
            Machine m(machineConfig(cfg, wl));
        }
        const std::uint64_t build_allocs = g_allocs.load() - a0;
        tr.close(build_span);
        build_ms.push_back(tr.seconds(build_span) * 1e3);

        const int run_span = tr.open("run", point_span, pt);
        TimedWorkload timed(wl, tr, run_span, pt, streams);
        const std::uint64_t a1 = g_allocs.load();
        const Outcome o = runPoint(cfg, timed);
        const std::uint64_t run_allocs = g_allocs.load() - a1;
        tr.close(run_span);
        tr.close(point_span);
        point_s.push_back(tr.seconds(point_span));
        t.runS += tr.seconds(run_span);

        if (p.fault == Fault::Clean)
            walk.setCleanTicks(o.result.totalTicks);
        if (!expectedOutcome(p, o))
            ++t.unexpected;
        if (i == drv) {
            drv_result = o.result;
            drv_cfg = cfg;
        }
        if (!o.completed)
            continue;
        const RunResult &r = o.result;
        t.events += counter(r, "sim.events_executed");
        t.msgs += static_cast<double>(r.messages);
        t.instrs += static_cast<double>(r.instructions);
        t.linkWait += counter(r, "net.link_wait_ticks");
        t.engineWait += counter(r, "home.engine_wait_ticks");
        t.retries += counter(r, "fault.retries");
        t.failovers += r.failovers + r.pnodeFailovers;
        t.reads += static_cast<double>(r.reads.totalAllCount());
        for (int c = 0; c < ReadLatencyStats::kNum; ++c)
            t.readCls[c] += static_cast<double>(r.reads.count[c]);
        t.busy += static_cast<double>(r.time.busy);
        t.sync += static_cast<double>(r.time.sync);
        t.memStall += static_cast<double>(r.time.memoryStall);
        if (cfg.arch == ArchKind::Agg) {
            t.dnodeUtilSum += r.dNodeUtilization;
            ++t.dnodeUtilPoints;
        }
        t.runAllocs += static_cast<double>(run_allocs);
        t.buildAllocs += static_cast<double>(build_allocs);
    }

    const double ns_per_cycle =
        static_cast<double>(nowNs() - cal_ns0) /
        static_cast<double>(std::max<std::uint64_t>(1, cycles() - cal_c0));

    // Standalone drivers on the driver point's machine.
    auto timed_driver = [&](const std::string &name, auto &&fn) {
        const int s = tr.open(name, -1, -1);
        const double v = fn();
        tr.close(s);
        return v;
    };
    const double queue_ns = timed_driver("driver.queue", [&] {
        return queueDriver(delayMix(drv_result), drv_cfg.totalNodes(),
                           2'000'000, seed);
    });
    const double send_ns = timed_driver("driver.mesh", [&] {
        return meshDriver(drv_cfg, false, 8000, seed);
    });
    const double send_ns_degraded =
        timed_driver("driver.mesh_degraded", [&] {
            return meshDriver(drv_cfg, true, 8000, seed);
        });
    const double cache_ns = timed_driver("driver.cache", [&] {
        auto wl = makeWorkload(pts[drv].app);
        return cacheDriver(drv_cfg, *wl, seed);
    });

    tr.write(spans_path, ns_per_cycle);

    const double stream_ns = streams.busyCycles * ns_per_cycle;
    const double time_total = t.busy + t.sync + t.memStall;
    auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    double build_sum = 0;
    for (double b : build_ms)
        build_sum += b;

    std::map<std::string, double> m;
    m["report.points"] = static_cast<double>(pts.size());
    m["report.point_s_p50"] = percentile(point_s, 0.50);
    m["report.point_s_p75"] = percentile(point_s, 0.75);
    m["machine.build_ms"] = build_sum / build_ms.size();
    m["workload.ops"] = static_cast<double>(streams.ops);
    m["workload.ns_per_op"] = frac(stream_ns, streams.ops);
    m["workload.time_frac"] = frac(stream_ns * 1e-9, t.runS);
    m["sim.events"] = t.events;
    m["sim.ns_per_event"] = frac(t.runS * 1e9, t.events);
    m["sim.allocs_per_event"] =
        frac(t.runAllocs - t.buildAllocs, t.events);
    m["sim.queue_ns_per_event"] = queue_ns;
    m["net.msgs"] = t.msgs;
    m["net.msgs_per_kinstr"] = frac(t.msgs, t.instrs / 1000.0);
    m["net.link_wait_ticks"] = t.linkWait;
    m["net.send_ns"] = send_ns;
    m["net.send_ns_degraded"] = send_ns_degraded;
    m["mem.reads"] = t.reads;
    static const char *const kCls[ReadLatencyStats::kNum] = {
        "flc", "slc", "local", "hop2", "hop3"};
    for (int c = 0; c < ReadLatencyStats::kNum; ++c)
        m[std::string("mem.read_frac_") + kCls[c]] =
            frac(t.readCls[c], t.reads);
    m["mem.local_serve_frac"] =
        frac(t.readCls[0] + t.readCls[1] + t.readCls[2], t.reads);
    m["mem.cache_access_ns"] = cache_ns;
    m["proto.engine_wait_ticks"] = t.engineWait;
    m["proto.dnode_util"] = frac(t.dnodeUtilSum, t.dnodeUtilPoints);
    m["proto.retries"] = t.retries;
    m["proto.failovers"] = t.failovers;
    m["core.instructions"] = t.instrs;
    m["core.mem_stall_frac"] = frac(t.memStall, time_total);
    m["core.sync_frac"] = frac(t.sync, time_total);

    std::cout << "{\"points\": " << pts.size()
              << ", \"unexpected\": " << t.unexpected
              << ", \"traced_run_s\": " << num(t.runS)
              << ", \"metrics\": {";
    bool first = true;
    for (const auto &[k, v] : m) {
        std::cout << (first ? "" : ", ") << "\"" << k
                  << "\": " << num(v);
        first = false;
    }
    std::cout << "}}\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 4 && args[0] == "setup")
        return modeSetup(args[1], std::atoi(args[2].c_str()),
                         std::atof(args[3].c_str()));
    if (args.size() == 2 && args[0] == "count")
        return modeCount(args[1]);
    if (args.size() == 4 && args[0] == "trace")
        return modeTrace(args[1],
                         std::strtoull(args[2].c_str(), nullptr, 10),
                         args[3]);
    std::cerr << "usage: perfbench_harness setup <workload> <min_reps> "
                 "<min_seconds>\n"
                 "       perfbench_harness count <workload>\n"
                 "       perfbench_harness trace <workload> <seed> "
                 "<spans.json>\n";
    return 2;
}
