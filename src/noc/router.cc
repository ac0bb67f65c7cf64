#include "noc/router.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace neurocube
{

Router::Router(const Config &config, StatGroup *parent,
               const std::string &name, unsigned trace_id, Probe probe)
    : config_(config), traceId_(uint16_t(trace_id)), probe_(probe),
      width_(config.numPorts, 1),
      inputQueue_(config.numPorts, Ring<Packet>(config.bufferDepth)),
      outputQueue_(config.numPorts, Ring<Packet>(config.bufferDepth)),
      routeTable_(2 * config.numNodes, ~0u),
      outBudget_(config.numPorts, 0),
      statGroup_(parent, name),
      statSwitched_(&statGroup_, "switched", "packets switched"),
      statBlocked_(&statGroup_, "blocked",
                   "input-port cycles blocked on a full output")
{
    nc_assert(config_.numPorts >= 2, "router needs at least 2 ports");
    // One bit per port in the occupancy masks.
    nc_assert(config_.numPorts <= 64,
              "router has %u ports, the occupancy masks hold 64",
              config_.numPorts);
    for (unsigned p = 0; p < config_.portWidth.size()
                         && p < config_.numPorts; ++p)
        width_[p] = config_.portWidth[p];
}

void
Router::setRoute(unsigned route_index, unsigned out_port)
{
    nc_assert(route_index < routeTable_.size(),
              "route index %u out of range", route_index);
    nc_assert(out_port < config_.numPorts,
              "out port %u out of range", out_port);
    routeTable_[route_index] = out_port;
}

void
Router::pushInput(unsigned port, const Packet &packet)
{
    nc_assert(port < config_.numPorts, "bad input port %u", port);
    nc_assert(inputSpace(port) > 0,
              "push into full input FIFO (credit violation)");
    inputQueue_[port].push_back(packet);
    inMask_ |= uint64_t(1) << port;
    ++bufferedInputs_;
    NC_TRACE(probe_, TraceComponent::Router, traceId_,
             TraceEventType::FlitEnqueue, port, inputQueue_[port].size());
}

void
Router::skipTicks(uint64_t n)
{
    nc_assert(idle(), "router skipTicks while packets are buffered");
    priority_ = unsigned((priority_ + n) % config_.numPorts);
    NC_COUNT(probe_, Counter::stall(TraceComponent::Router, StallClass::Idle),
             traceId_, n);
}

void
Router::tick()
{
    const unsigned nports = config_.numPorts;

    if (inMask_ == 0) {
        // Nothing to switch; just rotate the daisy chain. Output
        // FIFOs may still hold packets waiting for link slots, but
        // that wait is the link's cycle, not this crossbar's.
        NC_COUNT(probe_,
                 Counter::stall(TraceComponent::Router,
                                idle() ? StallClass::Idle
                                       : StallClass::Busy),
                 traceId_, 1);
        if (++priority_ == nports)
            priority_ = 0;
        return;
    }

    // Visit the occupied inputs in rotating daisy-chain priority
    // order: ports priority_ and up, then 0 to priority_ - 1. An
    // output's budget, min(width, space), is taken the first time
    // this cycle routes a packet to it; only this loop enqueues into
    // outputs, so that equals a budget taken up front.
    const uint64_t from_priority = ~uint64_t(0) << priority_;
    uint64_t budgeted = 0;
    unsigned switched = 0;
    bool blocked = false;
    for (uint64_t pending : {inMask_ & from_priority,
                             inMask_ & ~from_priority}) {
        while (pending != 0) {
            const unsigned in = unsigned(std::countr_zero(pending));
            pending &= pending - 1;
            Ring<Packet> &queue = inputQueue_[in];
            for (unsigned in_budget = width_[in];
                 in_budget > 0 && !queue.empty(); --in_budget) {
                const Packet &head = queue.front();
                unsigned idx = routeIndex(head.dst, head.dstIsMem,
                                          config_.numNodes);
                nc_assert(idx < routeTable_.size(),
                          "unroutable destination %u", head.dst);
                unsigned out = routeTable_[idx];
                nc_assert(out != ~0u, "no route installed for dst %u%s",
                          head.dst, head.dstIsMem ? " (mem)" : "");
                const uint64_t out_bit = uint64_t(1) << out;
                if ((budgeted & out_bit) == 0) {
                    budgeted |= out_bit;
                    outBudget_[out] =
                        std::min(width_[out], outputSpace(out));
                }
                if (outBudget_[out] == 0) {
                    // Head-of-line blocked; wormhole switching cannot
                    // reorder behind the blocked head.
                    statBlocked_ += 1;
                    blocked = true;
                    NC_TRACE(probe_, TraceComponent::Router, traceId_,
                             TraceEventType::FlitBlocked, in);
                    break;
                }
                outputQueue_[out].push_back(head);
                queue.pop_front();
                outMask_ |= out_bit;
                --outBudget_[out];
                ++switched;
                NC_TRACE(probe_, TraceComponent::Router, traceId_,
                         TraceEventType::FlitSwitch, out,
                         outputQueue_[out].size());
            }
            if (queue.empty())
                inMask_ &= ~(uint64_t(1) << in);
        }
    }
    bufferedInputs_ -= switched;
    bufferedOutputs_ += switched;
    statSwitched_ += switched;
    NC_COUNT(probe_, EnergyEventKind::NocHop, traceId_, switched);

    // Head-of-line blocking dominates the classification: a cycle
    // where any input sat behind a full output is the congestion
    // signal, even if other inputs still made progress. With no
    // block, a buffered input always switched (wormhole invariant).
    NC_COUNT(probe_,
             Counter::stall(TraceComponent::Router,
                            blocked ? StallClass::StallNocCredit
                                    : StallClass::Busy),
             traceId_, 1);

    // Rotate the daisy chain (priorities update every clock cycle).
    if (++priority_ == nports)
        priority_ = 0;
}

} // namespace neurocube
