/**
 * @file
 * NoC router (paper Fig. 6c).
 *
 * Each mesh router has 6 input and 6 output channels: four mesh
 * neighbours plus the local PE and memory (PNG) ports. Switching is
 * wormhole with single-flit packets, flow control is credit based
 * (modelled as space checks against the 16-deep downstream FIFOs),
 * routing is table based, and input arbitration uses a rotating
 * daisy-chain priority that advances every clock cycle.
 *
 * Ports have a configurable width in packets per cycle: the local PE
 * and memory ports are two packets wide because one 32-bit DRAM word
 * becomes two 36-bit packets per reference tick (Section V-B), while
 * mesh links carry one packet per cycle.
 */

#ifndef NEUROCUBE_NOC_ROUTER_HH
#define NEUROCUBE_NOC_ROUTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "noc/packet.hh"
#include "trace/trace.hh"

namespace neurocube
{

/** Canonical port numbering for 2D-mesh routers. */
enum MeshPort : unsigned
{
    PortNorth = 0,
    PortSouth = 1,
    PortEast = 2,
    PortWest = 3,
    PortPe = 4,
    PortMem = 5,
    MeshPortCount = 6,
};

/**
 * Routing-table index space: destinations are PEs 0..n-1 followed by
 * memory ports (PNGs) 0..n-1.
 */
inline unsigned
routeIndex(uint16_t dst, bool dst_is_mem, unsigned num_nodes)
{
    return dst + (dst_is_mem ? num_nodes : 0);
}

/**
 * One router with parameterizable port count, FIFO depth and per-port
 * width.
 */
class Router
{
  public:
    /** Configuration for one router instance. */
    struct Config
    {
        /** Number of input/output port pairs. */
        unsigned numPorts = MeshPortCount;
        /** FIFO depth per input and per output channel. */
        unsigned bufferDepth = 16;
        /** Per-port width in packets per cycle (empty = all 1). */
        std::vector<unsigned> portWidth;
        /** Number of nodes (PEs/vaults) in the network. */
        unsigned numNodes = 16;
    };

    /**
     * @param config structural parameters
     * @param parent stat group parent
     * @param name stat path component, e.g. "router5"
     * @param trace_id node index used for trace events and counters
     * @param probe the machine's instrumentation
     */
    Router(const Config &config, StatGroup *parent,
           const std::string &name, unsigned trace_id = 0,
           Probe probe = {});

    /** Install the output port for a destination index. */
    void setRoute(unsigned route_index, unsigned out_port);

    /** The output port a destination index routes to. */
    unsigned route(unsigned route_index) const
    {
        return routeTable_[route_index];
    }

    /** Free slots in an input FIFO (credits held by the upstream). */
    unsigned
    inputSpace(unsigned port) const
    {
        return config_.bufferDepth
             - static_cast<unsigned>(inputQueue_[port].size());
    }

    /** Free slots in an output FIFO. */
    unsigned
    outputSpace(unsigned port) const
    {
        return config_.bufferDepth
             - static_cast<unsigned>(outputQueue_[port].size());
    }

    /** Deposit a packet into an input FIFO. @pre inputSpace(port)>0 */
    void pushInput(unsigned port, const Packet &packet);

    /** Packets waiting in an output FIFO. */
    const Ring<Packet> &outputQueue(unsigned port) const
    {
        return outputQueue_[port];
    }

    /** Bit p set: output FIFO p holds a packet. */
    uint64_t occupiedOutputs() const { return outMask_; }

    /** Remove the head of a non-empty output FIFO (link or ejection). */
    void
    popOutput(unsigned port)
    {
        Ring<Packet> &queue = outputQueue_[port];
        queue.pop_front();
        --bufferedOutputs_;
        if (queue.empty())
            outMask_ &= ~(uint64_t(1) << port);
    }

    /**
     * Switch allocation for one cycle: move packets from input FIFOs
     * to output FIFOs under crossbar constraints (at most width[in]
     * dequeues per input, width[out] enqueues per output) with
     * rotating daisy-chain priority across inputs. Only occupied
     * inputs are visited.
     */
    void tick();

    /**
     * Account @p n fully-idle cycles in bulk: rotates the daisy-chain
     * priority as n tick() calls would have and classifies the cycles
     * Idle. @pre idle()
     */
    void skipTicks(uint64_t n);

    /** True when all FIFOs are empty (O(1)). */
    bool
    idle() const
    {
        return bufferedInputs_ == 0 && bufferedOutputs_ == 0;
    }

    /** Packets switched so far. */
    uint64_t packetsSwitched() const { return statSwitched_.count(); }

    /** Structural parameters. */
    const Config &config() const { return config_; }

    /** Width of a port in packets per cycle. */
    unsigned portWidth(unsigned port) const { return width_[port]; }

  private:
    Config config_;
    /** Node index published with trace events and counters. */
    uint16_t traceId_;
    Probe probe_;
    /** Per-port width, resolved from config_.portWidth once. */
    std::vector<unsigned> width_;
    std::vector<Ring<Packet>> inputQueue_;
    std::vector<Ring<Packet>> outputQueue_;
    std::vector<unsigned> routeTable_;
    /** Daisy-chain priority pointer, advanced every cycle. */
    unsigned priority_ = 0;
    /**
     * Per-output enqueue budget of the current cycle. An entry is
     * valid only once tick() has set its bit in its local mask.
     */
    std::vector<unsigned> outBudget_;
    /** Bit p set: input FIFO p holds a packet. */
    uint64_t inMask_ = 0;
    /** Bit p set: output FIFO p holds a packet. */
    uint64_t outMask_ = 0;
    /** Packets currently in input FIFOs (fast empty check). */
    unsigned bufferedInputs_ = 0;
    /** Packets currently in output FIFOs. */
    unsigned bufferedOutputs_ = 0;

    StatGroup statGroup_;
    Stat statSwitched_;
    Stat statBlocked_;
};

} // namespace neurocube

#endif // NEUROCUBE_NOC_ROUTER_HH
