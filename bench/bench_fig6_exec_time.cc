/**
 * @file
 * Figure 6: normalized execution time of NUMA, COMA, and AGG (1/1 plus
 * the reduced-D ratio) at 25% and 75% memory pressure, decomposed into
 * Memory and Processor time, per application.
 *
 * The 7 machines x apps points are independent, so they run on
 * runPoints()'s worker pool; the report is printed from the results in
 * a fixed order and is identical to a serial sweep.
 */

#include <memory>

#include "bench_util.hh"

using namespace pimdsm;
using namespace pimdsm::bench;

namespace
{

/** One Figure 6 machine; the reduced-D AGG ratio depends on the app. */
struct Fig6Machine
{
    const char *label; ///< "AGG25"/"AGG75" get the "1/<ratio>" prefix
    ArchKind arch;
    double pressure;
    bool reducedD;
};

const Fig6Machine kMachines[] = {
    {"NUMA", ArchKind::Numa, 0.75, false},
    {"COMA25", ArchKind::Coma, 0.25, false},
    {"COMA75", ArchKind::Coma, 0.75, false},
    {"1/1AGG25", ArchKind::Agg, 0.25, false},
    {"1/1AGG75", ArchKind::Agg, 0.75, false},
    {"AGG25", ArchKind::Agg, 0.25, true},
    {"AGG75", ArchKind::Agg, 0.75, true},
};

} // namespace

int
main()
{
    banner("Figure 6: normalized execution time (Memory + Processor)",
           "COMA ~= 1/1AGG, both ~30-40% below NUMA; reduced-D AGG "
           "only ~12% above 1/1AGG");

    const int threads = paperThreads();
    const std::vector<std::string> apps = benchApps();
    std::vector<std::unique_ptr<Workload>> wls;
    for (const auto &app : apps)
        wls.push_back(makeWorkload(app));

    // Configuration-major submission: every app's NUMA point, then
    // every app's COMA25 point, and so on. The pool then runs machines
    // of different apps side by side rather than all seven of one
    // app's same-sized machines at once, which keeps peak memory near
    // a serial sweep's.
    std::vector<ExperimentPoint> points;
    for (const auto &mc : kMachines) {
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const int ratio = mc.reducedD ? reducedDRatio(apps[a]) : 1;
            points.push_back({wls[a].get(),
                              benchConfig(*wls[a], mc.arch, threads,
                                          mc.pressure, ratio),
                              {}});
        }
    }
    const std::vector<RunResult> results = runPoints(points);
    auto result = [&](std::size_t machine, std::size_t app)
        -> const RunResult & {
        return results[machine * apps.size() + app];
    };

    TablePrinter summary({"app", "NUMA", "COMA25", "COMA75",
                          "1/1AGG25", "1/1AGG75", "redAGG25",
                          "redAGG75"});

    for (std::size_t a = 0; a < apps.size(); ++a) {
        const double base = static_cast<double>(result(0, a).totalTicks);
        const std::string red_prefix =
            "1/" + std::to_string(reducedDRatio(apps[a]));

        std::vector<Bar> bars;
        std::vector<std::string> row = {apps[a]};
        for (std::size_t mi = 0; mi < std::size(kMachines); ++mi) {
            const RunResult &r = result(mi, a);
            const std::string label =
                kMachines[mi].reducedD
                    ? red_prefix + kMachines[mi].label
                    : std::string(kMachines[mi].label);
            const double norm = r.totalTicks / base;
            bars.push_back({label, timeSegments(r, norm)});
            row.push_back(TablePrinter::num(norm));
        }
        printBars(std::cout, "Fig 6 — " + apps[a] + " (vs NUMA = 1.0)",
                  {"Memory", "Processor"}, bars);
        summary.addRow(row);
    }

    std::cout << "Summary (execution time normalized to NUMA):\n";
    summary.print(std::cout);
    return 0;
}
