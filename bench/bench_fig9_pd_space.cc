/**
 * @file
 * Figure 9: execution time across the (P-node, D-node) design space,
 * per application, holding the problem size and the total D-node
 * memory fixed as nodes are added (AGG at 75% pressure, normalized to
 * the 2P & 2D configuration).
 *
 * Every (P, D) point and each app's reference are independent, so they
 * run on runPoints()'s worker pool; each app's row is normalized once
 * the pool drains, and the report is identical to a serial sweep.
 */

#include <memory>

#include "bench_util.hh"

using namespace pimdsm;
using namespace pimdsm::bench;

int
main()
{
    banner("Figure 9: execution time over the (P, D) design space",
           "optimum varies per app: Dbase high-P/high-D, Swim/Tomcatv "
           "high-P/low-D, Radix medium, others high-P/medium-D");

    const bool quick = std::getenv("PIMDSM_QUICK") != nullptr;
    const std::vector<int> p_counts =
        quick ? std::vector<int>{2, 4, 8} :
                std::vector<int>{2, 4, 8, 16};
    const std::vector<int> d_counts =
        quick ? std::vector<int>{1, 2, 4} :
                std::vector<int>{1, 2, 4, 8, 16};

    const std::vector<std::string> apps = benchApps();
    std::vector<std::unique_ptr<Workload>> wls;
    for (const auto &app : apps)
        wls.push_back(makeWorkload(app));

    // Each app submits its reference point, then its grid D-major:
    // the 16-P-node machines, the largest, are then spread through the
    // queue instead of four running at once, which lowers peak memory
    // and the tail of the sweep. The grid's 2P & 2D cell builds the
    // reference's own machine, so it reuses the reference's result.
    std::vector<ExperimentPoint> points;
    std::vector<std::size_t> ref_index;               // per app
    std::vector<std::vector<std::size_t>> cell_index; // per app, D-major
    for (const auto &wl : wls) {
        // Reference configuration: 2 P-nodes, 2 D-nodes, AGG75. Its
        // per-P-node memory and total D memory stay fixed across the
        // design space (Section 4.2).
        BuildSpec ref;
        ref.arch = ArchKind::Agg;
        ref.threads = 2;
        ref.dNodes = 2;
        ref.pressure = 0.75;
        const MachineConfig ref_cfg = buildConfig(*wl, ref);
        const std::uint64_t p_mem = ref_cfg.pNodeMemBytes;
        const std::uint64_t total_d_mem = 2 * ref_cfg.dNodeMemBytes;
        ref_index.push_back(points.size());
        points.push_back({wl.get(), ref_cfg, {}});

        std::vector<std::size_t> cells;
        for (int d : d_counts) {
            for (int p : p_counts) {
                BuildSpec spec = ref;
                spec.threads = p;
                spec.dNodes = d;
                MachineConfig cfg = buildConfig(*wl, spec);
                cfg.pNodeMemBytes = p_mem;
                cfg.dNodeMemBytes =
                    ceilDiv(total_d_mem / d, cfg.pageBytes) *
                    cfg.pageBytes;
                if (p == ref.threads && d == ref.dNodes &&
                    cfg.dNodeMemBytes == ref_cfg.dNodeMemBytes) {
                    cells.push_back(ref_index.back());
                    continue;
                }
                cells.push_back(points.size());
                points.push_back({wl.get(), cfg, {}});
            }
        }
        cell_index.push_back(std::move(cells));
    }
    const std::vector<RunResult> results = runPoints(points);

    for (std::size_t a = 0; a < apps.size(); ++a) {
        const double base =
            static_cast<double>(results[ref_index[a]].totalTicks);

        std::vector<std::string> headers = {"P \\ D"};
        for (int d : d_counts)
            headers.push_back(std::to_string(d) + "D");
        TablePrinter t(std::move(headers));

        double best = 1e30, best_ce = 1e30;
        int best_p = 0, best_d = 0, ce_p = 0, ce_d = 0;
        for (std::size_t pi = 0; pi < p_counts.size(); ++pi) {
            const int p = p_counts[pi];
            std::vector<std::string> row = {std::to_string(p) + "P"};
            for (std::size_t di = 0; di < d_counts.size(); ++di) {
                const int d = d_counts[di];
                const RunResult &r =
                    results[cell_index[a][di * p_counts.size() + pi]];
                const double norm = r.totalTicks / base;
                row.push_back(TablePrinter::num(norm));
                if (r.totalTicks < best) {
                    best = static_cast<double>(r.totalTicks);
                    best_p = p;
                    best_d = d;
                }
                // Cost-effectiveness: time x chips (the paper argues
                // per-application optima in these terms).
                const double ce = norm * (p + d);
                if (ce < best_ce) {
                    best_ce = ce;
                    ce_p = p;
                    ce_d = d;
                }
            }
            t.addRow(std::move(row));
        }
        std::cout << "Fig 9 — " << apps[a]
                  << " (execution time / 2P&2D time; lower is "
                     "better)\n";
        t.print(std::cout);
        std::cout << "fastest: " << best_p << "P & " << best_d
                  << "D; most cost-effective (time x chips): " << ce_p
                  << "P & " << ce_d << "D\n\n";
    }
    return 0;
}
