/**
 * @file
 * Experiment runner: builds a machine, drives one workload through all
 * of its phases (with optional dynamic reconfiguration between
 * phases), and collects the aggregates the paper's figures report.
 */

#ifndef PIMDSM_REPORT_EXPERIMENT_HH
#define PIMDSM_REPORT_EXPERIMENT_HH

#include <map>
#include <string>
#include <vector>

#include "machine/builder.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "workload/workload.hh"

namespace pimdsm
{

/** Switch to (newPNodes, newDNodes) just before @p beforePhase runs. */
struct ReconfigStep
{
    int beforePhase = 0;
    int newPNodes = 0;
    int newDNodes = 0;
};

struct RunOptions
{
    std::vector<ReconfigStep> reconfig;
    /**
     * OS-initiated dynamic reconfiguration (Section 2.3): after each
     * phase, resize the D-node partition so the observed per-phase
     * D-node utilization lands near autoReconfigTarget. Requires an
     * AGG machine built reconfigurable; ignored otherwise.
     */
    bool autoReconfig = false;
    double autoReconfigTarget = 0.55;
    /** Run directory/inclusion invariant checks after every phase. */
    bool checkInvariants = false;
    /** Abort runaway phases (simulator bug guard). */
    std::uint64_t maxEventsPerPhase = 2'000'000'000ull;
};

struct PhaseResult
{
    std::string name;
    Tick startTick = 0;
    Tick endTick = 0;
    TimeBreakdown time; ///< summed over the phase's threads

    Tick duration() const { return endTick - startTick; }
};

struct RunResult
{
    Tick totalTicks = 0;
    Tick reconfigTicks = 0;
    /** Thread-time decomposition summed over all threads and phases. */
    TimeBreakdown time;
    /** Read latency totals (Figure 7 categories). */
    ReadLatencyStats reads;
    /** Line-state census at end of run (Figure 8). */
    LineCensus census;
    std::vector<PhaseResult> phases;
    std::map<std::string, double> counters;
    std::uint64_t messages = 0;
    std::uint64_t instructions = 0;
    /** Mean busy fraction of the D-node protocol engines. */
    double dNodeUtilization = 0.0;
    /** Reconfigurations the auto policy performed. */
    int autoReconfigs = 0;
    /** Scheduled D-node deaths that were failed over. */
    int failovers = 0;
    /** Modeled overhead of those failovers. */
    Tick failoverTicks = 0;
    /** Scheduled P-node deaths that were failed over. */
    int pnodeFailovers = 0;
    /** Modeled overhead of those failovers. */
    Tick pnodeFailoverTicks = 0;

    /** Fraction of total time that is memory stall (Figure 6 split). */
    double
    memoryFraction() const
    {
        const double t = static_cast<double>(time.total());
        return t > 0 ? time.memoryStall / t : 0.0;
    }
};

/** Run @p wl to completion on a machine built from @p cfg. */
RunResult runWorkload(MachineConfig cfg, const Workload &wl,
                      const RunOptions &opts = {});

/** One independent experiment for runPoints(). */
struct ExperimentPoint
{
    /** Shared read-only between points; must outlive runPoints(). */
    const Workload *workload = nullptr;
    /** The finished machine: buildConfig() plus any caller overrides. */
    MachineConfig cfg;
    RunOptions opts;
};

/**
 * Run independent points on a worker pool; result i is exactly what
 * runWorkload(points[i].cfg, *points[i].workload, points[i].opts)
 * returns serially. Each point builds its own Machine, so points share
 * no simulation state.
 *
 * @p max_workers caps the pool; 0 means one worker per CPU in the
 * process's affinity mask. The pool never exceeds the point count, and
 * a single worker runs on the calling thread. If points throw, workers
 * stop taking new points and the exception of the lowest-numbered
 * failing point is rethrown once every worker has finished — the same
 * exception a serial loop would have thrown first.
 */
std::vector<RunResult> runPoints(const std::vector<ExperimentPoint> &points,
                                 int max_workers = 0);

} // namespace pimdsm

#endif // PIMDSM_REPORT_EXPERIMENT_HH
