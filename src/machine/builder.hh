/**
 * @file
 * Convenience construction of machine configurations from a workload,
 * an architecture, a memory pressure, and a P:D ratio (the knobs the
 * paper's experiments vary).
 */

#ifndef PIMDSM_MACHINE_BUILDER_HH
#define PIMDSM_MACHINE_BUILDER_HH

#include "sim/config.hh"
#include "workload/workload.hh"

namespace pimdsm
{

struct BuildSpec
{
    ArchKind arch = ArchKind::Agg;
    /** Application threads (= P-nodes). */
    int threads = 32;
    /** Memory pressure: footprint / total DRAM (0.25 or 0.75). */
    double pressure = 0.75;
    /**
     * AGG P:D ratio denominator — 1 for 1/1AGG (D == P), 2 for
     * 1/2AGG, 4 for 1/4AGG. Ignored when dNodes > 0.
     */
    int dRatio = 1;
    /** Explicit D-node count (Figures 9/10); overrides dRatio. */
    int dNodes = 0;
    /** Build dual-role nodes for dynamic reconfiguration. */
    bool reconfigurable = false;
};

/** Build a validated MachineConfig for @p wl under @p spec. */
MachineConfig buildConfig(const Workload &wl, const BuildSpec &spec);

} // namespace pimdsm

#endif // PIMDSM_MACHINE_BUILDER_HH
