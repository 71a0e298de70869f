#include "machine/builder.hh"

#include "sim/log.hh"

namespace pimdsm
{

MachineConfig
buildConfig(const Workload &wl, const BuildSpec &spec)
{
    MachineConfig cfg = makeBaseConfig(spec.arch);
    cfg.numThreads = spec.threads;
    cfg.numPNodes = spec.threads;
    if (spec.arch == ArchKind::Agg) {
        if (spec.dNodes > 0) {
            cfg.numDNodes = spec.dNodes;
        } else {
            cfg.numDNodes = spec.threads / spec.dRatio;
            if (cfg.numDNodes < 1)
                cfg.numDNodes = 1;
        }
    } else {
        cfg.numDNodes = 0;
    }
    cfg.reconfigurable = spec.reconfigurable;

    cfg.l1.sizeBytes = wl.l1Bytes();
    cfg.l2.sizeBytes = wl.l2Bytes();

    applyMemoryPressure(cfg, wl.footprintBytes(), spec.pressure);

    fitMesh(cfg.net, cfg.totalNodes());
    cfg.validate();
    return cfg;
}

} // namespace pimdsm
