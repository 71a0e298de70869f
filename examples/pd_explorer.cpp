/**
 * @file
 * Design-space explorer: runs one workload across P/D-node partitions
 * of a fixed-size AGG machine, then demonstrates the paper's static
 * tuning recipe (Section 2.3): run once with a wasteful number of
 * D-nodes, record D-node utilization, and use it as a hint to pick the
 * partition for subsequent runs.
 *
 * Usage: pd_explorer [workload] [total_nodes] [pressure%]
 *   e.g.  pd_explorer radix 16 75
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "report/experiment.hh"
#include "report/report.hh"
#include "workload/workload.hh"

using namespace pimdsm;

namespace
{

RunResult
runPartition(const Workload &wl, int p, int d, double pressure)
{
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = p;
    spec.dNodes = d;
    spec.pressure = pressure;
    return runWorkload(buildConfig(wl, spec), wl);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "radix";
    const int total = argc > 2 ? std::atoi(argv[2]) : 16;
    const double pressure =
        (argc > 3 ? std::atoi(argv[3]) : 75) / 100.0;

    auto wl = makeWorkload(name);
    std::cout << "exploring " << total << "-node AGG partitions for "
              << wl->name() << " at " << pressure * 100
              << "% pressure\n\n";

    // Sweep the -45 degree line of Figure 4: P + D = total.
    TablePrinter t({"partition", "Mcycles", "memory time",
                    "D-node util", "time x chips"});
    double best_time = 1e30;
    int best_p = 0;
    for (int p = total / 4; p <= total - 1; p += total / 4) {
        const int d = total - p;
        const RunResult r = runPartition(*wl, p, d, pressure);
        t.addRow({std::to_string(p) + "P & " + std::to_string(d) + "D",
                  TablePrinter::num(r.totalTicks / 1e6),
                  TablePrinter::pct(r.memoryFraction()),
                  TablePrinter::pct(r.dNodeUtilization),
                  TablePrinter::num(r.totalTicks / 1e6 * total)});
        if (r.totalTicks < best_time) {
            best_time = static_cast<double>(r.totalTicks);
            best_p = p;
        }
    }
    t.print(std::cout);
    std::cout << "exhaustive best: " << best_p << "P & "
              << total - best_p << "D\n\n";

    // The paper's tuning recipe: one wasteful run, then shrink D until
    // the recorded utilization says the D-nodes would saturate.
    std::cout << "paper recipe: start wasteful (P = D), read the "
                 "D-node utilization, rescale:\n";
    const int p0 = total / 2;
    const RunResult probe = runPartition(*wl, p0, total - p0, pressure);
    std::cout << "  probe run " << p0 << "P & " << total - p0
              << "D: D-node utilization "
              << TablePrinter::pct(probe.dNodeUtilization) << "\n";

    // Keep projected utilization under ~70%: d_min ~ d0 * util / 0.7.
    int d_suggest = static_cast<int>(
        static_cast<double>(total - p0) * probe.dNodeUtilization /
            0.7 + 0.999);
    if (d_suggest < 1)
        d_suggest = 1;
    if (d_suggest > total - 1)
        d_suggest = total - 1;
    const int p_suggest = total - d_suggest;
    std::cout << "  suggested partition: " << p_suggest << "P & "
              << d_suggest << "D\n";

    const RunResult tuned =
        runPartition(*wl, p_suggest, d_suggest, pressure);
    std::cout << "  tuned run: "
              << TablePrinter::num(tuned.totalTicks / 1e6)
              << " Mcycles (probe was "
              << TablePrinter::num(probe.totalTicks / 1e6)
              << "), D-node utilization "
              << TablePrinter::pct(tuned.dNodeUtilization) << "\n";
    return 0;
}
