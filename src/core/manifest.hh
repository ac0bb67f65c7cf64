/**
 * @file
 * Structured run identity: who produced a result, on what machine
 * configuration, with which engine and build.
 *
 * A RunManifest is the join key of the observability stack: every
 * structured export (the per-run JSON manifest, the Prometheus-style
 * flat metrics dump, BENCH_*.json) carries the same identity block —
 * a config fingerprint, the build's `git describe`, and the engine
 * that executed the run — so sweep tooling, CI gates, and the DSE
 * harness can line results up across runs and revisions without
 * parsing human-readable logs.
 *
 * The serializers that price energy (runManifestJson,
 * runMetricsTextfile) are declared here but defined in
 * src/power/activity_energy.cc, following RunResult::energyJson —
 * callers link nc_power.
 */

#ifndef NEUROCUBE_CORE_MANIFEST_HH
#define NEUROCUBE_CORE_MANIFEST_HH

#include <cstdint>
#include <string>

#include "core/config.hh"
#include "core/results.hh"

namespace neurocube
{

/** Short lower-case label of a cycle-loop engine. */
const char *simEngineName(SimEngine engine);

/**
 * The build's `git describe --always --dirty`, captured at CMake
 * configure time (re-run cmake to refresh it), or "unknown" when the
 * source tree was not a git checkout.
 */
std::string buildGitDescribe();

/**
 * FNV-1a fingerprint over the architecture-defining configuration
 * fields (engine and trace knobs excluded: they never change
 * simulated results, which the fingerprint exists to key). Stable
 * across runs and processes; not stable across field additions — it
 * distinguishes configs within one build, it is not a wire format.
 */
uint64_t configFingerprint(const NeurocubeConfig &config);

/** Identity block every structured export carries. */
struct RunManifest
{
    /** Caller-chosen run label (bench name, sweep point, ...). */
    std::string name;
    /** Build identity (buildGitDescribe()). */
    std::string gitDescribe;
    /** Engine that executed the run
     *  (simEngineName(cube.activeEngine())). */
    std::string engine;
    /** configFingerprint as 16 hex digits. */
    std::string configHash;
    /** Reduced-workload flag (benches; false elsewhere). */
    bool quick = false;
};

/** Assemble the identity block for one run. */
RunManifest buildRunManifest(const NeurocubeConfig &config,
                             SimEngine active,
                             const std::string &name,
                             bool quick = false);

/**
 * One structured JSON document for a forward run: the manifest
 * identity plus cycles, ops, wall_ms, the aggregate stall breakdown
 * (ticks per stall class, summed over layers), and the priced
 * activity-energy breakdown (joules per component; "energy": null
 * when the run carried no energy accounting). Defined in
 * src/power/activity_energy.cc — callers link nc_power.
 */
std::string runManifestJson(const RunManifest &manifest,
                            const RunResult &run);

/**
 * The same content as runManifestJson flattened to a Prometheus
 * textfile-collector dump: `neurocube_*` gauge lines with run/class/
 * component labels, one scrape-ready block per run. Defined in
 * src/power/activity_energy.cc — callers link nc_power.
 */
std::string runMetricsTextfile(const RunManifest &manifest,
                               const RunResult &run);

} // namespace neurocube

#endif // NEUROCUBE_CORE_MANIFEST_HH
