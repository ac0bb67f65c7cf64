/**
 * @file
 * The benchmark's workloads: how each one builds its inputs from a
 * seed and runs one repetition against the simulator's public API.
 *
 * infer_dense    scene-labeling ConvNN inference on the HMC: in conv1
 *                and conv2 every channel, PNG, PE and router is busy,
 *                so host time is component tick code; half of all
 *                component-ticks are skipped over the whole network.
 * ddr3_noc       one 7x7 conv layer on two DDR3 channels placed on the
 *                mesh: traffic is lateral and PEs stall on injection,
 *                so two thirds of component-ticks are skipped and host
 *                time is routers and the wake-list scheduler.
 * serve_batched  open-loop Poisson serving with dynamic batching: the
 *                multi-lane batch loop, online lane re-partitioning,
 *                plan-cache hits and the serving queue.
 */

#ifndef SIMBENCH_WORKLOADS_HH
#define SIMBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.hh"
#include "nn/network.hh"
#include "nn/tensor.hh"
#include "serving/arrival.hh"

namespace simbench
{

enum class WorkloadKind
{
    /** runLayer over every layer of one network. */
    Layers,
    /** ServingSimulator::run over an arrival schedule. */
    Serving,
};

struct Workload
{
    const char *name;
    WorkloadKind kind;
    neurocube::NetworkDesc (*network)();
    neurocube::NeurocubeConfig (*machine)();
};

/** The named workload, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Names of every workload, for usage messages. */
std::string workloadNames();

/**
 * Everything generated from the seed. Built once per process and
 * shared read-only by every repetition; the simulator only ever
 * receives these generated values.
 */
struct WorkloadInputs
{
    neurocube::NetworkDesc net;
    neurocube::NetworkData data;
    neurocube::Tensor input;
    /** referenceForward of (net, data, input): every layer's output. */
    std::vector<neurocube::Tensor> reference;
    /** Serving only: cycles of one full 4-lane batch (capacity). */
    neurocube::Tick batch4 = 0;
    /** Serving only: the offered request schedule. */
    neurocube::ArrivalSchedule arrivals;
};

WorkloadInputs makeInputs(const Workload &workload, uint64_t seed);

struct RepOptions
{
    /** Traced run: spans, program trace export and per-layer counts. */
    bool traced = false;
    /** Flip one bit of the first checked output (self-test only). */
    bool corruptOutput = false;
    /** Path prefix for the traced run's output files. */
    std::string outPrefix;
};

/** What one repetition measured. */
struct RepRecord
{
    /** Host-time measurements; they vary run to run. */
    std::map<std::string, double> host;
    /**
     * Simulated results and work counts; identical on every
     * repetition with the same seed.
     */
    std::map<std::string, double> sim;
    /** Host-speed probe times taken around the repetition, ns. */
    std::vector<double> probeNs;
    /** Gathered outputs compared with the reference. */
    uint64_t attempted = 0;
    /** Of those, the ones that were not bit-exact. */
    uint64_t failed = 0;
};

/** Run one repetition: set up, simulate, check, report. */
RepRecord runRep(const Workload &workload, const WorkloadInputs &inputs,
                 const RepOptions &options);

} // namespace simbench

#endif // SIMBENCH_WORKLOADS_HH
