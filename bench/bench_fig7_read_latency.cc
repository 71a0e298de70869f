/**
 * @file
 * Figure 7: aggregated read latency (sum over all reads, whether or
 * not the processor stalled), decomposed into FLC / SLC / Memory /
 * 2Hop / 3Hop service levels, normalized to NUMA.
 *
 * The 4 machines x apps points are independent, so they run on
 * runPoints()'s worker pool; the report is printed from the results in
 * a fixed order and is identical to a serial sweep.
 */

#include <memory>

#include "bench_util.hh"

using namespace pimdsm;
using namespace pimdsm::bench;

namespace
{

/** One Figure 7 machine; the reduced-D AGG ratio depends on the app. */
struct Fig7Machine
{
    const char *label; ///< "AGG75" gets the "1/<ratio>" prefix
    ArchKind arch;
    bool reducedD;
};

const Fig7Machine kMachines[] = {
    {"NUMA", ArchKind::Numa, false},
    {"COMA75", ArchKind::Coma, false},
    {"1/1AGG75", ArchKind::Agg, false},
    {"AGG75", ArchKind::Agg, true},
};

std::vector<double>
latencySegments(const RunResult &r, double scale)
{
    std::vector<double> segs;
    for (int i = 0; i < ReadLatencyStats::kNum; ++i)
        segs.push_back(r.reads.totalLatency[i] * scale);
    return segs;
}

} // namespace

int
main()
{
    banner("Figure 7: aggregated read latency by service level",
           "AGG/COMA convert NUMA's 2Hop time into Memory time; COMA "
           "shows more 3Hop than AGG (home displacements)");

    const int threads = paperThreads();
    const std::vector<std::string> apps = benchApps();
    std::vector<std::unique_ptr<Workload>> wls;
    for (const auto &app : apps)
        wls.push_back(makeWorkload(app));

    // Configuration-major submission, as in Figure 6: machines of
    // different apps run side by side, which keeps peak memory near a
    // serial sweep's.
    std::vector<ExperimentPoint> points;
    for (const auto &mc : kMachines) {
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const int ratio = mc.reducedD ? reducedDRatio(apps[a]) : 1;
            points.push_back({wls[a].get(),
                              benchConfig(*wls[a], mc.arch, threads,
                                          0.75, ratio),
                              {}});
        }
    }
    const std::vector<RunResult> results = runPoints(points);

    for (std::size_t a = 0; a < apps.size(); ++a) {
        const std::string red_prefix =
            "1/" + std::to_string(reducedDRatio(apps[a]));
        std::vector<NamedRun> runs;
        for (std::size_t mi = 0; mi < std::size(kMachines); ++mi) {
            const std::string label =
                kMachines[mi].reducedD
                    ? red_prefix + kMachines[mi].label
                    : std::string(kMachines[mi].label);
            runs.push_back({label, results[mi * apps.size() + a]});
        }
        const double base = static_cast<double>(
            runs[0].result.reads.totalAllLatency());

        std::vector<Bar> bars;
        for (const auto &nr : runs)
            bars.push_back(
                {nr.label, latencySegments(nr.result, 1.0 / base)});
        printBars(std::cout,
                  "Fig 7 — " + apps[a] + " (total read latency vs NUMA)",
                  {"FLC", "SLC", "Memory", "2Hop", "3Hop"}, bars);

        TablePrinter t({"config", "FLC", "SLC", "Memory", "2Hop",
                        "3Hop", "reads"});
        for (const auto &nr : runs) {
            std::vector<std::string> row = {nr.label};
            for (int i = 0; i < ReadLatencyStats::kNum; ++i) {
                row.push_back(TablePrinter::pct(
                    nr.result.reads.totalLatency[i] /
                    static_cast<double>(
                        nr.result.reads.totalAllLatency())));
            }
            row.push_back(TablePrinter::num(
                nr.result.reads.totalAllCount() / 1e3, 0) + "k");
            t.addRow(row);
        }
        t.print(std::cout);
        std::cout << "\n";
    }
    return 0;
}
