#include "png/png.hh"

#include <bit>

#include "common/logging.hh"

namespace neurocube
{

Png::Png(VaultId id, MemoryChannel &channel, NocFabric &fabric,
         StatGroup *parent, Probe probe)
    : id_(id), channel_(channel), fabric_(fabric), probe_(probe),
      lut_(&sharedLut(ActivationKind::Identity)),
      statGroup_(parent, "png" + std::to_string(id)),
      statIssued_(&statGroup_, "issued", "element reads issued"),
      statInjected_(&statGroup_, "injected", "operand packets injected"),
      statWriteBacks_(&statGroup_, "writeBacks",
                      "write-back packets absorbed"),
      statInjectStallTicks_(&statGroup_, "injectStallTicks",
                            "ticks with packets blocked on the router"),
      histOutQueueDepth_(&statGroup_, "outQueueDepth",
                         "packets awaiting router injection per tick")
{
}

void
Png::tracePhase(PngFsmPhase phase, unsigned plane)
{
#if NEUROCUBE_TRACE_ENABLED
    if (phase == tracePhase_ && plane == tracePlane_)
        return;
    tracePhase_ = phase;
    tracePlane_ = plane;
    NC_TRACE(probe_, TraceComponent::Png, id_, TraceEventType::PngPhase,
             uint32_t(phase), plane);
#else
    (void)phase;
    (void)plane;
#endif
}

void
Png::configure(const PngProgram &program)
{
    nc_assert(busySlots_ == 0 && outQueue_.empty(),
              "reprogramming PNG %u with work in flight", unsigned(id_));
    // A disabled PNG never absorbs write-backs, yet reports done: the
    // pass would stall on them with no hint why.
    nc_assert(program.enabled || program.expectedWriteBacks == 0,
              "disabled program for vault %u expects %llu write-backs",
              unsigned(id_),
              (unsigned long long)program.expectedWriteBacks);
    program_ = program;
    generator_.configure(program);
    lut_ = &sharedLut(program.activation);
    wbReceived_ = 0;
    perPlaneWb_ = 0;
    if (program_.outPlanes > 1 && program_.expectedWriteBacks > 0)
        perPlaneWb_ = program_.expectedWriteBacks / program_.outPlanes;
    allowedPlane_ = perPlaneWb_ > 0 ? planeWindow : ~0u;
    tracePhase(program.enabled ? PngFsmPhase::Configured
                               : PngFsmPhase::Idle,
               0);
}

void
Png::tick(Tick now)
{
    if (!program_.enabled) {
        NC_COUNT(probe_, Counter::stall(TraceComponent::Png, StallClass::Idle),
                 id_, 1);
        return;
    }
    histOutQueueDepth_.sample(outQueue_.size());

    // 1. Generate operand addresses and issue reads to the vault.
    // The plane loop is throttled against this vault's own
    // write-back progress so one fast vault cannot run whole output
    // maps ahead of the PEs consuming its stream (every vault
    // generates plane p before any stalls at p + window, so progress
    // is guaranteed plane by plane). allowedPlane_ is maintained by
    // configure() and the absorb loop below (its only inputs).
    unsigned issued = 0;
    while (issued < maxIssuePerTick && !generator_.done()
           && generator_.currentPlane() < allowedPlane_
           && channel_.canAccept() && busySlots_ != allSlots) {
        const unsigned slot = unsigned(std::countr_zero(~busySlots_));
        GeneratedOp &op = inFlight_[slot];
        if (!generator_.next(op))
            break;
        busySlots_ |= uint64_t(1) << slot;
        MemRequest req;
        req.write = false;
        req.addr = op.addr;
        req.tag = slot;
        channel_.enqueue(req);
        ++issued;
        statIssued_ += 1;
    }
    if (issued > 0) {
        NC_COUNT(probe_, EnergyEventKind::PngOp, id_, issued);
        NC_TRACE(probe_, TraceComponent::Png, id_, TraceEventType::PngIssue, 0,
                 issued);
    }

    // 2. Encapsulate returned data into packets. Completions may be
    // out of order within the vault controller's reorder window; the
    // tag names the in-flight slot holding the read's metadata.
    auto &responses = channel_.responses();
    while (!responses.empty() && outQueue_.size() < outQueueDepth) {
        const MemResponse &resp = responses.front();
        nc_assert(busySlots_ != 0, "response without a pending read");
        const uint64_t bit = resp.tag < maxInFlight
                           ? uint64_t(1) << resp.tag : 0;
        nc_assert(busySlots_ & bit,
                  "unmatched response tag at PNG %u", unsigned(id_));
        const GeneratedOp &op = inFlight_[resp.tag];
        Packet packet;
        packet.kind = op.kind;
        packet.src = id_;
        packet.dst = op.dst;
        packet.dstIsMem = false;
        packet.mac = op.mac;
        packet.opId = op.opId;
        packet.group = op.group;
        packet.neuron = op.neuron;
        packet.homeVault = op.homeVault;
        packet.data = resp.data;
        outQueue_.push_back(packet);
        busySlots_ &= ~bit;
        responses.pop_front();
    }

    // 3. Inject packets into the router's memory port.
    unsigned width = fabric_.config().localPortWidth;
    unsigned injected = 0;
    while (injected < width && !outQueue_.empty()
           && fabric_.memInjectSpace(id_) > 0) {
        fabric_.injectFromMem(id_, outQueue_.front(), now);
        outQueue_.pop_front();
        ++injected;
        statInjected_ += 1;
    }
    if (!outQueue_.empty() && injected == 0) {
        statInjectStallTicks_ += 1;
        NC_TRACE(probe_, TraceComponent::Png, id_,
                 TraceEventType::PngInjectStall, 0, outQueue_.size());
    }

    // 4. Absorb write-backs: activation LUT, then write to the vault.
    auto &delivery = fabric_.memDelivery(id_);
    unsigned absorbed = 0;
    while (!delivery.empty() && absorbed < maxWriteBacksPerTick
           && channel_.canAccept()) {
        const Packet &wb = delivery.front();
        nc_assert(wb.kind == PacketKind::WriteBack,
                  "non-write-back packet on PNG %u memory port",
                  unsigned(id_));
        uint32_t plane = 0;
        uint32_t pixel = wb.neuron;
        if (program_.outPlaneSize > 0) {
            plane = wb.neuron / program_.outPlaneSize;
            pixel = wb.neuron % program_.outPlaneSize;
        }
        int32_t x = int32_t(pixel % program_.outMapWidth);
        int32_t y = int32_t(pixel / program_.outMapWidth);
        MemRequest req;
        req.write = true;
        req.addr = program_.output.addrOf(plane, x, y);
        req.data = lut_->apply(wb.data);
        channel_.enqueue(req);
        delivery.pop_front();
        ++absorbed;
        ++wbReceived_;
        statWriteBacks_ += 1;
    }
    if (absorbed > 0) {
        NC_COUNT(probe_, EnergyEventKind::PngOp, id_, absorbed);
        if (perPlaneWb_ > 0) {
            allowedPlane_ = unsigned(wbReceived_ / perPlaneWb_)
                          + planeWindow;
        }
    }

    // Attribute the cycle. Injection backpressure first: packets
    // sitting in the out-queue with zero injected is the signal the
    // paper's memory-port sizing is about, and it subsumes whatever
    // else the PNG did this tick. A plane-throttled generator is
    // idle by choice (waiting for PEs, not for a resource).
    StallClass cls;
    if (!outQueue_.empty() && injected == 0) {
        cls = StallClass::StallInject;
    } else if (issued > 0 || injected > 0 || absorbed > 0) {
        cls = StallClass::Busy;
    } else if (!generator_.done()
               && generator_.currentPlane() >= allowedPlane_) {
        cls = StallClass::Idle;
    } else if (!generator_.done() || busySlots_ != 0) {
        // Wants to issue (or has reads in flight) but the vault
        // controller is not accepting / has not responded.
        cls = StallClass::StallDram;
    } else {
        cls = StallClass::Idle;
    }
    NC_COUNT(probe_, Counter::stall(TraceComponent::Png, cls), id_, 1);

#if NEUROCUBE_TRACE_ENABLED
    // Counter-FSM phase for the trace: generating while addresses
    // are still being produced, draining until the last owned
    // write-back lands, then done.
    tracePhase(done()                ? PngFsmPhase::Done
               : !generator_.done() ? PngFsmPhase::Generating
                                    : PngFsmPhase::Draining,
               generator_.done() ? tracePlane_
                                 : generator_.currentPlane());
#endif
}

bool
Png::done() const
{
    if (!program_.enabled)
        return true;
    return generator_.done() && busySlots_ == 0 && outQueue_.empty()
        && wbReceived_ >= program_.expectedWriteBacks;
}

Tick
Png::nextEventAfter(Tick now)
{
    if (!program_.enabled)
        return tickNever;
    // Work a tick could do on its own: inject (or count an inject
    // stall), encapsulate a response, issue a read, absorb a
    // delivered write-back. Everything else waits on the vault
    // (serve hook) or the NoC (eject hook).
    if (!outQueue_.empty())
        return now + 1;
    if (!channel_.responsesEmpty())
        return now + 1;
    if (canIssue())
        return now + 1;
    if (!fabric_.memDelivery(id_).empty() && channel_.canAccept())
        return now + 1;
    return tickNever;
}

void
Png::skipTicks(Tick from, Tick to)
{
    nc_assert(from < to, "empty PNG skip window");
    const uint64_t n = to - from;
    if (!program_.enabled) {
        NC_COUNT(probe_, Counter::stall(TraceComponent::Png, StallClass::Idle),
                 id_, n);
        return;
    }
    // The sleep condition guarantees an empty out-queue and that no
    // tick in the window issues, injects or absorbs, so every skipped
    // tick samples depth 0 and lands in the same stall class as a
    // ticked one would.
    histOutQueueDepth_.sample(0, n);
    StallClass cls;
    if (!generator_.done()
        && generator_.currentPlane() >= allowedPlane_) {
        cls = StallClass::Idle; // plane-throttled: waiting on PEs
    } else if (!generator_.done() || busySlots_ != 0) {
        cls = StallClass::StallDram;
    } else {
        cls = StallClass::Idle;
    }
    NC_COUNT(probe_, Counter::stall(TraceComponent::Png, cls), id_, n);
}

} // namespace neurocube
