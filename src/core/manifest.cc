#include "core/manifest.hh"

#include <cstdio>

#include "pe/pe.hh"
#include "png/png.hh"

namespace neurocube
{

const char *
simEngineName(SimEngine engine)
{
    switch (engine) {
    case SimEngine::Legacy:
        return "legacy";
    case SimEngine::Event:
        return "event";
    case SimEngine::ThreadedLanes:
        return "threaded_lanes";
    }
    return "unknown";
}

std::string
buildGitDescribe()
{
#ifdef NEUROCUBE_GIT_DESCRIBE
    return NEUROCUBE_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

namespace
{

/** Incremental FNV-1a over typed fields (value hashing, no padding:
 *  every field feeds through a fixed-width canonical form). */
struct Fnv1a
{
    uint64_t h = 14695981039346656037ull;

    void
    bytes(const void *data, size_t n)
    {
        const unsigned char *p =
            static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    }

    void
    u64(uint64_t v)
    {
        bytes(&v, sizeof(v));
    }

    /** Doubles hash by bit pattern: configs are authored, not
     *  computed, so representation equality is the right notion. */
    void
    f64(double v)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v), "double width");
        __builtin_memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

} // namespace

uint64_t
configFingerprint(const NeurocubeConfig &config)
{
    Fnv1a f;

    const DramParams &d = config.dram;
    f.str(d.name);
    f.u64(d.numChannels);
    f.u64(d.wordBits);
    f.f64(d.peakBandwidthGBps);
    f.f64(d.activateNs);
    f.u64(d.burstLength);
    f.u64(d.burstGapTicks);
    f.u64(d.rowBytes);
    f.u64(d.banksPerChannel);
    f.f64(d.energyPjPerBit);
    f.u64(d.broadcastDuplicateReads ? 1 : 0);
    f.f64(d.voltage);

    f.u64(config.numPes);

    const NocFabric::Config &n = config.noc;
    f.u64(uint64_t(n.topology));
    f.u64(n.bufferDepth);
    f.u64(n.localPortWidth);
    f.u64(n.linkWidth);
    f.u64(n.deliveryDepth);

    // The PE and PNG constants: hashing them keeps the hashes the
    // bench baselines record, and a change to a constant changes the
    // machine's hash.
    f.u64(macsPerPe);
    f.u64(Pe::acceptPerTick);
    f.u64(Pe::injectPerTick);
    f.u64(OpCache::numSubBanks);
    f.u64(OpCache::entriesPerSubBank);
    f.u64(Pe::outboxLimit);
    f.u64(Pe::searchEntriesPerCycle);

    f.u64(macsPerPe);
    f.u64(Png::maxIssuePerTick);
    f.u64(Png::outQueueDepth);
    f.u64(Png::maxWriteBacksPerTick);
    f.u64(AddressGenerator::connBlockSize);

    f.u64(config.mapping.duplicateConvHalo ? 1 : 0);
    f.u64(config.mapping.duplicateFcInput ? 1 : 0);
    f.u64(config.mapping.weightsInPeMemory ? 1 : 0);

    f.u64(config.batch.lanes);
    f.u64(0); // slot of a removed flag; keeps the recorded hashes
    // The channel placement follows from the channel and PE counts;
    // hashing it keeps the recorded hashes.
    for (unsigned node : config.resolvedMemoryNodes())
        f.u64(node);
    f.u64(config.configTicksPerPass);
    f.u64(config.planCache ? 1 : 0);

    return f.h;
}

RunManifest
buildRunManifest(const NeurocubeConfig &config, SimEngine active,
                 const std::string &name, bool quick)
{
    RunManifest m;
    m.name = name;
    m.gitDescribe = buildGitDescribe();
    m.engine = simEngineName(active);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      configFingerprint(config)));
    m.configHash = hex;
    m.quick = quick;
    return m;
}

} // namespace neurocube
