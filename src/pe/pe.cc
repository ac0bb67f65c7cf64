#include "pe/pe.hh"

#include <algorithm>

#include "common/logging.hh"

namespace neurocube
{

Pe::Pe(PeId id, StatGroup *parent, Probe probe)
    : id_(id), probe_(probe),
      statGroup_(parent, "pe" + std::to_string(id)),
      cache_(&statGroup_, id, probe),
      statMacOps_(&statGroup_, "macOps",
                  "multiply-accumulate operations executed"),
      statFlushes_(&statGroup_, "flushes", "temporal-buffer flushes"),
      statGroupsDone_(&statGroup_, "groups", "neuron groups completed"),
      statWriteBacks_(&statGroup_, "writeBacks",
                      "write-back packets injected"),
      statSearchStallTicks_(&statGroup_, "searchStallTicks",
                            "extra ticks spent on sub-bank searches"),
      histCacheOccupancy_(&statGroup_, "cacheOccupancy",
                          "operand-cache entries buffered per tick")
{
}

void
Pe::configurePass(const PePassConfig &config)
{
    pass_ = config;
    group_ = 0;
    opCounter_ = 0;
    nextFlushAt_ = 0;
    macBusyUntil_ = 0;
    temporal_.flush();
    cache_.clear();
    for (MacUnit &mac : macs_)
        mac.clear();
    groupNeurons_.fill(0);
    groupHomes_.fill(0);
    outbox_.clear();
    passComplete_ = !config.enabled || config.numNeurons == 0;
    // Group geometry is fixed for the pass; cache it (activeMacs sits
    // on the per-tick path and the divisions are hot).
    uint32_t planes = std::max(1u, config.planes);
    perPlane_ = config.numNeurons / planes;
    groupsPerPlane_ = (perPlane_ + macsPerPe - 1) / macsPerPe;
    totalGroups_ = planes * groupsPerPlane_;
    if (config.enabled) {
        nc_assert(config.connections > 0,
                  "pass with zero connections on PE %u", unsigned(id_));
        nc_assert(config.numNeurons % std::max(1u, config.planes)
                      == 0,
                  "neurons (%u) not divisible by planes (%u)",
                  config.numNeurons, config.planes);
        nc_assert(config.localWeights.empty()
                      || config.localWeights.size()
                             >= config.connections,
                  "weight memory smaller than connection count");
    }
}

unsigned
Pe::activeMacs(uint32_t group) const
{
    uint32_t local = group % groupsPerPlane_;
    uint64_t remaining =
        uint64_t(perPlane_) - uint64_t(local) * macsPerPe;
    return unsigned(std::min<uint64_t>(macsPerPe, remaining));
}

uint32_t
Pe::numGroups() const
{
    return totalGroups_;
}

void
Pe::stageOperand(const OpCache::Operand &operand)
{
    if (operand.kind == PacketKind::State) {
        temporal_.putState(operand.mac, operand.data, operand.neuron,
                           operand.homeVault);
        NC_COUNT(probe_, EnergyEventKind::BufferAccess, id_, 1);
        if (!pass_.localWeights.empty()) {
            // Weight supplied by the PE weight memory, shared across
            // neurons and indexed by the OP-ID (Section III-B2);
            // multi-plane kernels are indexed per output plane.
            uint32_t planes = std::max(1u, pass_.planes);
            size_t idx = opCounter_;
            if (planes > 1
                && pass_.localWeights.size()
                       >= size_t(pass_.connections) * planes) {
                idx = size_t(group_ / groupsPerPlane_)
                        * pass_.connections
                    + opCounter_;
            }
            temporal_.putWeight(operand.mac, pass_.localWeights[idx],
                                operand.neuron, operand.homeVault);
            NC_COUNT(probe_, EnergyEventKind::WeightRegRead, id_, 1);
            NC_COUNT(probe_, EnergyEventKind::BufferAccess, id_, 1);
        }
    } else {
        nc_assert(operand.kind == PacketKind::Weight,
                  "unexpected packet kind at PE %u", unsigned(id_));
        temporal_.putWeight(operand.mac, operand.data, operand.neuron,
                            operand.homeVault);
        NC_COUNT(probe_, EnergyEventKind::BufferAccess, id_, 1);
    }
}

void
Pe::drainCache(Tick now)
{
    if (cache_.subBankOccupancy(opCounter_) == 0)
        return;
    unsigned matched = 0;
    unsigned scanned = cache_.extract(
        group_, opCounter_, [this, &matched](const OpCache::Operand &op) {
            stageOperand(op);
            ++matched;
        });
    NC_COUNT(probe_, EnergyEventKind::CacheRead, id_, scanned);
    if (matched == 0) {
        NC_TRACE(probe_, TraceComponent::Pe, id_, TraceEventType::CacheMiss,
                 opCounter_, scanned);
    } else {
        NC_TRACE(probe_, TraceComponent::Pe, id_, TraceEventType::CacheHit,
                 opCounter_, matched);
    }

    // The full sub-bank search scans up to the sub-bank's 64 slots
    // at searchEntriesPerCycle (entries spilled beyond the hardware
    // capacity live in the idealized overflow and are indexed for
    // free — see OpCache::insert); the scan overlaps with the MAC
    // busy time, so only the excess beyond macsPerPe can delay the
    // next flush.
    unsigned hw_entries = std::min(scanned, OpCache::entriesPerSubBank);
    unsigned cost = std::max(macsPerPe,
                             (hw_entries + searchEntriesPerCycle - 1)
                                 / searchEntriesPerCycle);
    Tick ready = now + cost;
    if (ready > nextFlushAt_) {
        statSearchStallTicks_ += (ready - nextFlushAt_);
        NC_TRACE(probe_, TraceComponent::Pe, id_, TraceEventType::SearchStall,
                 opCounter_, ready - nextFlushAt_);
        nextFlushAt_ = ready;
    }
}

void
Pe::flush(Tick now)
{
    unsigned active = activeMacs(group_);
    for (unsigned m = 0; m < active; ++m) {
        const TemporalBuffer::Slot &slot = temporal_.slot(m);
        macs_[m].multiplyAccumulate(slot.state, slot.weight);
        groupNeurons_[m] = slot.neuron;
        groupHomes_[m] = slot.homeVault;
    }
    statMacOps_ += active;
    statFlushes_ += 1;
    NC_COUNT(probe_, SpatialCounter::PeMac, id_, active);
    NC_COUNT(probe_, EnergyEventKind::MacOp, id_, active);
    NC_TRACE(probe_, TraceComponent::Pe, id_, TraceEventType::MacBusy, active,
             macsPerPe);
    temporal_.flush();

    // MACs run at f_PE / macsPerPe: they are busy for macsPerPe ticks.
    nextFlushAt_ = now + macsPerPe;
    macBusyUntil_ = nextFlushAt_;

    ++opCounter_;
    if (opCounter_ >= pass_.connections) {
        completeGroup();
        opCounter_ = 0;
        ++group_;
        if (group_ >= numGroups()) {
            passComplete_ = true;
            return;
        }
    }
    drainCache(now);
}

void
Pe::completeGroup()
{
    unsigned active = activeMacs(group_);
    for (unsigned m = 0; m < active; ++m) {
        Packet wb;
        wb.kind = PacketKind::WriteBack;
        wb.src = VaultId(id_);
        wb.dst = groupHomes_[m];
        wb.dstIsMem = true;
        wb.mac = MacId(m);
        wb.opId = 0;
        wb.group = group_;
        wb.neuron = groupNeurons_[m];
        wb.data = macs_[m].result();
        outbox_.push_back(wb);
        macs_[m].clear();
    }
    statGroupsDone_ += 1;
}

void
Pe::tick(Tick now, NocFabric &fabric)
{
    if (!pass_.enabled) {
        NC_COUNT(probe_, Counter::stall(TraceComponent::Pe, StallClass::Idle),
                 id_, 1);
        return;
    }
    histCacheOccupancy_.sample(cache_.totalEntries());

    // 1. Accept operand packets from the NoC delivery queue.
    auto &delivery = fabric.peDelivery(id_);
    unsigned accepted = 0;
    while (!delivery.empty() && accepted < acceptPerTick
           && !passComplete_) {
        const Packet &packet = delivery.front();
        nc_assert(!(packet.group < group_
                    || (packet.group == group_
                        && packet.opId < opCounter_)),
                  "late packet at PE %u: group %u op %u vs %u/%u",
                  unsigned(id_), packet.group, packet.opId, group_,
                  opCounter_);
        if (packet.group == group_ && packet.opId == opCounter_) {
            stageOperand(OpCache::Operand::of(packet));
        } else {
            cache_.insert(packet.group, packet);
            NC_COUNT(probe_, EnergyEventKind::CacheWrite, id_, 1);
        }
        delivery.pop_front();
        ++accepted;
    }

    // 2. Flush when the current operation's operands are staged.
    if (!passComplete_ && now >= nextFlushAt_
        && outbox_.size() + macsPerPe <= outboxLimit
        && temporal_.complete(activeMacs(group_))) {
        flush(now);
    }

    // 3. Inject pending write-backs.
    unsigned injected = 0;
    while (!outbox_.empty() && injected < injectPerTick
           && fabric.peInjectSpace(id_) > 0) {
        fabric.injectFromPe(id_, outbox_.front(), now);
        outbox_.pop_front();
        ++injected;
        statWriteBacks_ += 1;
        NC_TRACE(probe_, TraceComponent::Pe, id_, TraceEventType::WriteBackOut,
                 0, outbox_.size());
    }

    // Attribute the cycle, most-specific cause first. A flush this
    // tick lands in the MAC-busy window, so it reads as busy.
    StallClass cls;
    if (now < macBusyUntil_) {
        cls = StallClass::Busy;
    } else if (!passComplete_ && now < nextFlushAt_) {
        // The sub-bank search ran past the MAC execution window.
        cls = StallClass::StallCache;
    } else if (passComplete_) {
        cls = injected > 0       ? StallClass::Busy
              : outbox_.empty()  ? StallClass::Idle
                                 : StallClass::StallNocCredit;
    } else if (outbox_.size() + macsPerPe > outboxLimit) {
        // Neuron-group flushes gated on write-back backpressure.
        cls = StallClass::StallNocCredit;
    } else {
        // Ready to flush but operands have not arrived yet.
        cls = StallClass::StallInject;
    }
    NC_COUNT(probe_, Counter::stall(TraceComponent::Pe, cls), id_, 1);
}

Tick
Pe::nextEventAfter(Tick now, NocFabric &fabric)
{
    if (!pass_.enabled)
        return tickNever;
    if (!outbox_.empty())
        return now + 1; // injections to try (or a blocked-tick stat)
    if (!fabric.peDelivery(id_).empty())
        return now + 1; // operands to accept
    if (passComplete_)
        return tickNever; // done; nothing left this pass
    if (temporal_.complete(activeMacs(group_))) {
        // A flush is staged and (outbox empty) cannot be capacity-
        // gated: only the MAC/search timer holds it back.
        return std::max(now + 1, nextFlushAt_);
    }
    return tickNever; // waiting on operand packets (eject hook)
}

void
Pe::skipTicks(Tick from, Tick to)
{
    nc_assert(from < to, "empty PE skip window");
    if (!pass_.enabled) {
        NC_COUNT(probe_, Counter::stall(TraceComponent::Pe, StallClass::Idle),
                 id_, to - from);
        return;
    }
    histCacheOccupancy_.sample(cache_.totalEntries(), to - from);
    Tick t = from;
    if (macBusyUntil_ > t) {
        Tick end = std::min(to, macBusyUntil_);
        NC_COUNT(probe_, Counter::stall(TraceComponent::Pe, StallClass::Busy),
                 id_, end - t);
        t = end;
    }
    if (t < to && !passComplete_ && nextFlushAt_ > t) {
        Tick end = std::min(to, nextFlushAt_);
        NC_COUNT(probe_,
                 Counter::stall(TraceComponent::Pe, StallClass::StallCache),
                 id_, end - t);
        t = end;
    }
    if (t < to) {
        NC_COUNT(probe_,
                 Counter::stall(TraceComponent::Pe,
                                passComplete_ ? StallClass::Idle
                                              : StallClass::StallInject),
                 id_, to - t);
    }
}

bool
Pe::done() const
{
    return passComplete_ && outbox_.empty();
}

bool
Pe::idle() const
{
    return outbox_.empty() && cache_.empty();
}

} // namespace neurocube
