/**
 * @file
 * Quickstart: build a machine for each organization (NUMA, COMA, AGG),
 * run one workload, and print the execution-time breakdown, the read
 * latency decomposition, and the key protocol counters.
 *
 * Usage: quickstart [workload] [threads] [pressure%] [dratio]
 *   e.g.  quickstart barnes 8 75 1
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "report/experiment.hh"
#include "report/report.hh"
#include "workload/workload.hh"

using namespace pimdsm;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "ocean";
    const int threads = argc > 2 ? std::atoi(argv[2]) : 8;
    const double pressure =
        (argc > 3 ? std::atoi(argv[3]) : 75) / 100.0;
    const int dratio = argc > 4 ? std::atoi(argv[4]) : 1;

    auto wl = makeWorkload(name);
    std::cout << "workload " << wl->name() << ", " << threads
              << " threads, pressure " << pressure * 100 << "%, 1/"
              << dratio << " AGG\n\n";

    TablePrinter table({"arch", "total Mcycles", "memory", "processor",
                        "FLC", "SLC", "Mem", "2Hop", "3Hop",
                        "msgs", "D-util"});

    for (ArchKind arch :
         {ArchKind::Numa, ArchKind::Coma, ArchKind::Agg}) {
        BuildSpec spec;
        spec.arch = arch;
        spec.threads = threads;
        spec.pressure = pressure;
        spec.dRatio = dratio;
        const RunResult r = runWorkload(buildConfig(*wl, spec), *wl);

        const auto &c = r.reads.count;
        const double total_reads =
            static_cast<double>(r.reads.totalAllCount());
        auto frac = [&](ReadService s) {
            return TablePrinter::pct(
                c[static_cast<int>(s)] / total_reads);
        };
        std::cout << archName(arch) << " avg read latency by class:";
        for (int i = 0; i < ReadLatencyStats::kNum; ++i) {
            const auto n = r.reads.count[i];
            std::cout << " "
                      << readServiceName(static_cast<ReadService>(i))
                      << "="
                      << (n ? r.reads.totalLatency[i] / n : 0)
                      << "(x" << n << ")";
        }
        std::cout << "\n";
        table.addRow({archName(arch),
                      TablePrinter::num(r.totalTicks / 1e6),
                      TablePrinter::pct(r.memoryFraction()),
                      TablePrinter::pct(1 - r.memoryFraction()),
                      frac(ReadService::FLC), frac(ReadService::SLC),
                      frac(ReadService::LocalMem),
                      frac(ReadService::Hop2), frac(ReadService::Hop3),
                      TablePrinter::num(r.messages / 1e3, 0) + "k",
                      TablePrinter::pct(r.dNodeUtilization)});

        if (arch == ArchKind::Agg) {
            std::cout << "AGG census: dirtyInP=" << r.census.dirtyInPNode
                      << " sharedInP=" << r.census.sharedInPNode
                      << " dNodeOnly=" << r.census.dNodeOnly
                      << " capacity=" << r.census.dNodeCapacityLines
                      << " used=" << r.census.dNodeUsedLines << "\n";
            std::cout << "AGG counters:\n";
            for (const auto &[k, v] : r.counters)
                std::cout << "  " << k << " = " << v << "\n";
            std::cout << "\n";
        }
    }
    table.print(std::cout);
    return 0;
}
