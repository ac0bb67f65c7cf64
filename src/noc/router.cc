#include "noc/router.hh"

#include "common/logging.hh"
#include "trace/energy.hh"
#include "trace/metrics.hh"

namespace neurocube
{

Router::Router(const Config &config, StatGroup *parent,
               const std::string &name, unsigned trace_id)
    : config_(config), traceId_(uint16_t(trace_id)),
      inputQueue_(config.numPorts, Ring<Packet>(config.bufferDepth)),
      outputQueue_(config.numPorts, Ring<Packet>(config.bufferDepth)),
      routeTable_(2 * config.numNodes, ~0u),
      statGroup_(parent, name),
      statSwitched_(&statGroup_, "switched", "packets switched"),
      statBlocked_(&statGroup_, "blocked",
                   "input-port cycles blocked on a full output")
{
    nc_assert(config_.numPorts >= 2, "router needs at least 2 ports");
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
    ++bufferedInputs_;
    NC_TRACE(TraceComponent::Router, traceId_,
             TraceEventType::FlitEnqueue, port,
             inputQueue_[port].size());
}

void
Router::skipTicks(uint64_t n)
{
    nc_assert(idle(), "router skipTicks while packets are buffered");
    priority_ = unsigned((priority_ + n) % config_.numPorts);
    NC_METRIC_CYCLES(TraceComponent::Router, traceId_,
                     StallClass::Idle, n);
}

void
Router::tick()
{
    const unsigned nports = config_.numPorts;

    if (bufferedInputs_ == 0) {
        // Nothing to switch; just rotate the daisy chain. Output
        // FIFOs may still hold packets waiting for link slots, but
        // that wait is the link's cycle, not this crossbar's.
        NC_METRIC_CYCLE(TraceComponent::Router, traceId_,
                        idle() ? StallClass::Idle : StallClass::Busy);
        if (++priority_ == nports)
            priority_ = 0;
        return;
    }

    // Remaining output enqueue slots this cycle (crossbar width).
    outBudget_.resize(nports);
    for (unsigned p = 0; p < nports; ++p) {
        unsigned width = portWidth(p);
        unsigned space = outputSpace(p);
        outBudget_[p] = std::min(width, space);
    }

    // Visit inputs in rotating daisy-chain priority order
    // (priority_ < nports, so one conditional subtract wraps).
    bool blocked = false;
    for (unsigned i = 0; i < nports; ++i) {
        unsigned in = priority_ + i;
        if (in >= nports)
            in -= nports;
        unsigned in_budget = portWidth(in);
        while (in_budget > 0 && !inputQueue_[in].empty()) {
            const Packet &head = inputQueue_[in].front();
            unsigned idx = routeIndex(head.dst, head.dstIsMem,
                                      config_.numNodes);
            nc_assert(idx < routeTable_.size(),
                      "unroutable destination %u", head.dst);
            unsigned out = routeTable_[idx];
            nc_assert(out != ~0u, "no route installed for dst %u%s",
                      head.dst, head.dstIsMem ? " (mem)" : "");
            if (outBudget_[out] == 0) {
                // Head-of-line blocked; wormhole switching cannot
                // reorder behind the blocked head.
                statBlocked_ += 1;
                blocked = true;
                NC_TRACE(TraceComponent::Router, traceId_,
                         TraceEventType::FlitBlocked, in);
                break;
            }
            outputQueue_[out].push_back(head);
            inputQueue_[in].pop_front();
            --bufferedInputs_;
            ++bufferedOutputs_;
            --outBudget_[out];
            --in_budget;
            statSwitched_ += 1;
            NC_ENERGY_EVENT(EnergyEventKind::NocHop, traceId_, 1);
            NC_TRACE(TraceComponent::Router, traceId_,
                     TraceEventType::FlitSwitch, out,
                     outputQueue_[out].size());
        }
    }

    // Head-of-line blocking dominates the classification: a cycle
    // where any input sat behind a full output is the congestion
    // signal, even if other inputs still made progress. With no
    // block, a buffered input always switched (wormhole invariant).
    NC_METRIC_CYCLE(TraceComponent::Router, traceId_,
                    blocked ? StallClass::StallNocCredit
                            : StallClass::Busy);

    // Rotate the daisy chain (priorities update every clock cycle).
    if (++priority_ == nports)
        priority_ = 0;
}

} // namespace neurocube
