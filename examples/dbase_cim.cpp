/**
 * @file
 * Computation-in-memory demo (Section 2.4): runs the TPC-D query 3
 * workload with P-node table scans (Plain) and with the select
 * offloaded to the home D-nodes (Opt), showing the phase-by-phase
 * effect on execution time and on network traffic.
 *
 * Usage: dbase_cim [threads] [dnodes]
 */

#include <cstdlib>
#include <iostream>

#include "report/experiment.hh"
#include "report/report.hh"
#include "workload/apps.hh"

using namespace pimdsm;

int
main(int argc, char **argv)
{
    const int threads = argc > 1 ? std::atoi(argv[1]) : 16;
    const int dnodes = argc > 2 ? std::atoi(argv[2]) : 16;

    std::cout << "TPC-D query 3 on an AGG machine with " << threads
              << " P-nodes and " << dnodes << " D-nodes\n\n";

    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = threads;
    spec.dNodes = dnodes;
    spec.pressure = 0.75;

    DbaseWorkload plain(1, false);
    DbaseWorkload opt(1, true);
    const RunResult rp = runWorkload(buildConfig(plain, spec), plain);
    const RunResult ro = runWorkload(buildConfig(opt, spec), opt);

    TablePrinter t({"phase", "Plain Mcycles", "Opt Mcycles",
                    "speedup"});
    for (std::size_t i = 0; i < rp.phases.size(); ++i) {
        t.addRow({rp.phases[i].name,
                  TablePrinter::num(rp.phases[i].duration() / 1e6),
                  TablePrinter::num(ro.phases[i].duration() / 1e6),
                  TablePrinter::num(
                      static_cast<double>(rp.phases[i].duration()) /
                      ro.phases[i].duration()) + "x"});
    }
    t.addRow({"total", TablePrinter::num(rp.totalTicks / 1e6),
              TablePrinter::num(ro.totalTicks / 1e6),
              TablePrinter::num(static_cast<double>(rp.totalTicks) /
                                ro.totalTicks) + "x"});
    t.print(std::cout);

    std::cout << "\nwhy: with CIM, only matching record pointers "
                 "cross the network --\n";
    std::cout << "  Plain moved "
              << TablePrinter::num(rp.messages / 1e3, 0)
              << "k messages; Opt moved "
              << TablePrinter::num(ro.messages / 1e3, 0)
              << "k messages\n";
    std::cout << "  Plain memory-stall fraction "
              << TablePrinter::pct(rp.memoryFraction()) << "; Opt "
              << TablePrinter::pct(ro.memoryFraction()) << "\n";
    std::cout << "  (the D-node processors do the scanning instead: "
                 "utilization "
              << TablePrinter::pct(rp.dNodeUtilization) << " -> "
              << TablePrinter::pct(ro.dNodeUtilization) << ")\n";
    return 0;
}
