/**
 * @file
 * Shared helpers for the per-table/per-figure bench binaries.
 *
 * Every bench regenerates one of the paper's tables or figures and
 * prints the measured rows next to the paper's reported shape, so
 * EXPERIMENTS.md can be cross-checked by running every binary in
 * the build's bench directory.
 */

#ifndef PIMDSM_BENCH_BENCH_UTIL_HH
#define PIMDSM_BENCH_BENCH_UTIL_HH

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "report/experiment.hh"
#include "report/report.hh"
#include "workload/apps.hh"
#include "workload/workload.hh"

namespace pimdsm::bench
{

/** Threads used by the paper's main experiments. */
inline int
paperThreads()
{
    // PIMDSM_QUICK trims run time for smoke testing.
    return std::getenv("PIMDSM_QUICK") ? 8 : 32;
}

/** Apps that "put relatively more demands on the D-nodes" run the
 *  reduced ratio 1/2; the rest use 1/4 (Section 4.1). */
inline int
reducedDRatio(const std::string &app)
{
    if (app == "fft" || app == "radix" || app == "ocean")
        return 2;
    return 4;
}

inline std::vector<std::string>
benchApps()
{
    if (std::getenv("PIMDSM_QUICK"))
        return {"fft", "barnes"};
    return paperWorkloadNames();
}

struct NamedRun
{
    std::string label;
    RunResult result;
};

/** The finished config of one bench machine running @p wl. */
inline MachineConfig
benchConfig(const Workload &wl, ArchKind arch, int threads,
            double pressure, int d_ratio = 1)
{
    BuildSpec spec;
    spec.arch = arch;
    spec.threads = threads;
    spec.pressure = pressure;
    spec.dRatio = d_ratio;
    return buildConfig(wl, spec);
}

/** Memory/Processor split of @p r scaled to its normalized total. */
inline std::vector<double>
timeSegments(const RunResult &r, double normalized_total)
{
    const double mem = r.memoryFraction() * normalized_total;
    return {mem, normalized_total - mem};
}

inline void
banner(const std::string &title, const std::string &paper_shape)
{
    std::cout << "==================================================="
                 "=====================\n";
    std::cout << title << "\n";
    std::cout << "paper shape: " << paper_shape << "\n";
    std::cout << "==================================================="
                 "=====================\n\n";
}

} // namespace pimdsm::bench

#endif // PIMDSM_BENCH_BENCH_UTIL_HH
