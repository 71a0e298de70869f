/**
 * @file
 * Figure 10(b): computation in memory on Dbase. Plain has the P-nodes
 * scan the tables; Opt offloads the scans to the home D-nodes, which
 * return only matching record pointers (Section 2.4).
 */

#include "bench_util.hh"

using namespace pimdsm;
using namespace pimdsm::bench;

int
main()
{
    banner("Figure 10(b): Dbase computation in memory (Plain vs Opt)",
           "the select offload cuts Dbase execution time by ~70% "
           "across P&D configurations");

    const bool quick = std::getenv("PIMDSM_QUICK") != nullptr;
    struct Combo
    {
        int p;
        int d;
    };
    const std::vector<Combo> combos =
        quick ? std::vector<Combo>{{4, 4}, {8, 8}}
              : std::vector<Combo>{{8, 8}, {16, 16}, {28, 4}};

    DbaseWorkload plain(1, false);
    DbaseWorkload opt(1, true);

    // Each combo contributes a Plain and an Opt point; all of them run
    // on runPoints()'s pool.
    std::vector<ExperimentPoint> points;
    for (const auto &combo : combos) {
        BuildSpec spec;
        spec.arch = ArchKind::Agg;
        spec.threads = combo.p;
        spec.dNodes = combo.d;
        spec.pressure = 0.75;
        points.push_back({&plain, buildConfig(plain, spec), {}});
        points.push_back({&opt, buildConfig(opt, spec), {}});
    }
    const std::vector<RunResult> results = runPoints(points);

    TablePrinter t({"config", "Plain Mcycles", "Opt Mcycles",
                    "Opt / Plain", "reduction"});
    std::vector<Bar> bars;
    for (std::size_t c = 0; c < combos.size(); ++c) {
        const RunResult &rp = results[2 * c];
        const RunResult &ro = results[2 * c + 1];
        const double ratio =
            ro.totalTicks / static_cast<double>(rp.totalTicks);

        const std::string label = std::to_string(combos[c].p) + "&" +
                                  std::to_string(combos[c].d);
        t.addRow({label, TablePrinter::num(rp.totalTicks / 1e6),
                  TablePrinter::num(ro.totalTicks / 1e6),
                  TablePrinter::num(ratio),
                  TablePrinter::pct(1.0 - ratio)});
        bars.push_back({label + " Plain", timeSegments(rp, 1.0)});
        bars.push_back({label + " Opt", timeSegments(ro, ratio)});
    }

    printBars(std::cout,
              "Fig 10(b) — Dbase Plain vs Opt (per config, Plain = "
              "1.0)",
              {"Memory", "Processor"}, bars);
    t.print(std::cout);
    return 0;
}
