#include "dram/memory_channel.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.hh"

namespace neurocube
{

namespace
{
constexpr uint64_t noRow = std::numeric_limits<uint64_t>::max();
} // namespace

MemoryChannel::MemoryChannel(const DramParams &params, StatGroup *parent,
                             const std::string &name, uint16_t trace_id,
                             Probe probe)
    : params_(params), traceId_(trace_id), probe_(probe),
      openRow_(params.banksPerChannel, noRow),
      bankReady_(params.banksPerChannel, 0),
      pendingRow_(params.banksPerChannel, noRow),
      rowShift_(unsigned(std::countr_zero(params.elementsPerRow()))),
      bankMask_(params.banksPerChannel - 1),
      statGroup_(parent, name),
      statReads_(&statGroup_, "reads", "element reads serviced"),
      statWrites_(&statGroup_, "writes", "element writes serviced"),
      statBits_(&statGroup_, "bits", "bits transferred"),
      statBursts_(&statGroup_, "bursts", "bursts issued"),
      statRowHits_(&statGroup_, "rowHits", "word services hitting an open row"),
      statRowMisses_(&statGroup_, "rowMisses", "row activations performed"),
      statBusyTicks_(&statGroup_, "busyTicks", "ticks transferring data"),
      statStallTicks_(&statGroup_, "stallTicks",
                      "ticks stalled on activation/gap with work queued"),
      statIdleTicks_(&statGroup_, "idleTicks", "ticks with empty queue"),
      histQueueResidency_(&statGroup_, "queueResidency",
                          "ticks a request waited before service")
{
    nc_assert(std::has_single_bit(params_.elementsPerRow()),
              "dram.rowBytes / bytesPerElement (%u) must be a power of "
              "two",
              params_.elementsPerRow());
    nc_assert(std::has_single_bit(params_.banksPerChannel),
              "dram.banksPerChannel (%u) must be a power of two",
              params_.banksPerChannel);
    nc_assert(params_.burstLength > 0, "burst length must be positive");
}

void
MemoryChannel::enqueue(const MemRequest &req)
{
    nc_assert(canAccept(), "enqueue on a full channel queue");
    // Catch a sleeping channel up before the stamp below: skipTicks()
    // leaves now_ one tick stale, exactly as the legacy loop's phase
    // order does, so the residency stamp matches bit for bit.
    if (sink_ != nullptr)
        sink_->onChannelEnqueue(traceId_);
    MemRequest stamped = req;
    stamped.enqueueTick = now_;
    const uint64_t row = rowOf(req.addr);
    const unsigned bank = bankOfRow(row);
    if (req.write) {
        if (writeQueue_.empty()) {
            writeLo_ = req.addr;
            writeHi_ = req.addr;
        } else {
            writeLo_ = std::min(writeLo_, req.addr);
            writeHi_ = std::max(writeHi_, req.addr);
        }
        writeQueue_.push_back(stamped, row, bank);
        NC_TRACE(probe_, TraceComponent::Vault, traceId_,
                 TraceEventType::DramQueueDepth, 1, writeQueue_.size());
    } else {
        if (!hazardDrain_ && readsBufferedWrite(req.addr)) {
            // The read depends on a buffered write: drain the write
            // buffer before any further reads are serviced.
            hazardDrain_ = true;
        }
        queue_.push_back(stamped, row, bank);
        NC_TRACE(probe_, TraceComponent::Vault, traceId_,
                 TraceEventType::DramQueueDepth, 0, queue_.size());
    }
}

bool
MemoryChannel::readsBufferedWrite(Addr addr) const
{
    if (writeQueue_.empty() || addr < writeLo_ || addr > writeHi_)
        return false;
    for (size_t i = 0; i < writeQueue_.size(); ++i) {
        if (writeQueue_[i].addr == addr)
            return true;
    }
    return false;
}

void
MemoryChannel::resetTiming()
{
    now_ = 0;
    credit_ = 0.0;
    burstWords_ = 0;
    gapRemaining_ = 0;
    for (auto &row : openRow_)
        row = noRow;
    for (auto &ready : bankReady_)
        ready = 0;
    for (auto &row : pendingRow_)
        row = noRow;
    drainWrites_ = false;
    lookaheadArmed_ = true;
    pendingActivations_ = 0;
}

void
MemoryChannel::lookaheadActivate(Tick now, const RowRunQueue &queue)
{
    uint32_t banks_needed = 0; // banks earlier runs rely on
    queue.walkRuns(lookaheadWindow, lookaheadRows,
                   [&](size_t k, size_t) {
        const RowRunQueue::Run &run = queue.run(k);
        const uint32_t bank_bit = 1u << (run.bank % 32);
        const bool activating = now < bankReady_[run.bank];
        const bool open = !activating && openRow_[run.bank] == run.row;
        if (!activating && !open && !(banks_needed & bank_bit)) {
            // Safe to pre-activate: no earlier run still needs the
            // row currently open in this bank.
            pendingRow_[run.bank] = run.row;
            bankReady_[run.bank] = now + params_.activateTicks();
            ++pendingActivations_;
            statRowMisses_ += 1;
            NC_TRACE(probe_, TraceComponent::Vault, traceId_,
                     TraceEventType::DramRowActivate, run.bank, run.row);
            return true; // one activation start per tick (command bus)
        }
        banks_needed |= bank_bit;
        return false;
    });
}

MemoryChannel::RunPos
MemoryChannel::pickServeRun(Tick now) const
{
    RunPos pick{SIZE_MAX, 0};
    queue_.walkRuns(reorderWindow, SIZE_MAX, [&](size_t k, size_t first) {
        if (!rowOpen(now, queue_.run(k)))
            return false;
        pick = {k, first};
        return true;
    });
    return pick;
}

void
MemoryChannel::serveWord(Tick now, RowRunQueue &queue, RunPos pos)
{
    const size_t available = queue.run(pos.run).count;
    const bool is_write = queue[pos.first].write;

    // Pack up to a word's worth of the run's requests, which share
    // its row and the queue's direction. With the broadcast ablation
    // enabled, requests repeating the previous address ride for
    // free: the vault controller reads the element once and the PNG
    // broadcasts it into multiple packets.
    unsigned packed = 0;
    size_t taken = 0;
    Addr prev_addr = ~Addr(0);
    while (taken < available) {
        const MemRequest &req = queue[pos.first + taken];
        bool duplicate = params_.broadcastDuplicateReads && !is_write
                      && req.addr == prev_addr;
        if (!duplicate && packed >= params_.elementsPerWord())
            break;
        histQueueResidency_.sample(
            now >= req.enqueueTick ? now - req.enqueueTick : 0);
        if (is_write) {
            store_.write(req.addr, req.data);
            statWrites_ += 1;
        } else {
            responses_.push_back({req.addr, store_.read(req.addr),
                                  req.tag});
            statReads_ += 1;
        }
        if (!duplicate) {
            statBits_ += 8 * bytesPerElement;
            ++packed;
        }
        prev_addr = req.addr;
        ++taken;
    }

    queue.eraseRunFront(pos.run, pos.first, taken);

    // One controller transaction moved `packed` elements' bits over
    // the DRAM interface (duplicates ride the broadcast for free).
    NC_COUNT(probe_, EnergyEventKind::VaultXact, traceId_, 1);
    NC_COUNT(probe_, EnergyEventKind::DramBit, traceId_,
             uint64_t(packed) * 8 * bytesPerElement);
    // Same expression as the DramBit publish divided by 8, so the
    // per-vault byte heatmap sums to EnergyCounts[DramBit]/8 exactly
    // (tests/test_spatial.cc asserts the identity).
    NC_COUNT(probe_, SpatialCounter::VaultByte, traceId_,
             uint64_t(packed) * bytesPerElement);
    NC_TRACE(probe_, TraceComponent::Vault, traceId_, TraceEventType::DramWord,
             is_write ? 1 : 0, uint64_t(packed) * 8 * bytesPerElement);
    NC_TRACE(probe_, TraceComponent::Vault, traceId_,
             TraceEventType::DramQueueDepth, is_write ? 1 : 0, queue.size());

    credit_ -= 1.0;
    statBusyTicks_ += 1;
    statRowHits_ += 1;
    ++burstWords_;
    if (burstWords_ >= params_.burstLength) {
        burstWords_ = 0;
        gapRemaining_ = params_.burstGapTicks;
        statBursts_ += 1;
    }

    // Service may unblock the PNG (a freed queue slot or a fresh
    // read response).
    if (sink_ != nullptr)
        sink_->onChannelServe(traceId_);
}

void
MemoryChannel::tick(Tick now)
{
    now_ = now;

    // Queue-depth integral, once per executed channel cycle. The
    // event engine only skips this channel while both queues are
    // empty, so skipped cycles would contribute zero and the
    // integral stays engine-invariant.
    NC_COUNT(probe_, SpatialCounter::VaultQueue, traceId_,
             queue_.size() + writeQueue_.size());

    // Promote completed activations to open rows.
    if (pendingActivations_ > 0) {
        for (unsigned b = 0; b < params_.banksPerChannel; ++b) {
            if (pendingRow_[b] != noRow && now >= bankReady_[b]) {
                openRow_[b] = pendingRow_[b];
                pendingRow_[b] = noRow;
                --pendingActivations_;
            }
        }
    }

    credit_ += params_.wordsPerTick();
    if (credit_ > 4.0)
        credit_ = 4.0;

    if (queue_.empty() && writeQueue_.empty()) {
        statIdleTicks_ += 1;
        burstWords_ = 0;
        lookaheadArmed_ = true;
        if (gapRemaining_ > 0)
            --gapRemaining_;
        NC_COUNT(probe_,
                 Counter::stall(TraceComponent::Vault, StallClass::Idle),
                 traceId_, 1);
        return;
    }

    // Write-drain policy: drain on a RAW hazard, when the buffer
    // passes the high watermark, or when there are no reads to
    // serve; stop at the low watermark (or empty on a hazard).
    if (drainWrites_) {
        if (writeQueue_.empty()
            || (!hazardDrain_ && queue_.size() > 0
                && writeQueue_.size() <= writeDrainLow)) {
            drainWrites_ = false;
            hazardDrain_ = writeQueue_.empty() ? false : hazardDrain_;
            lookaheadArmed_ = true;
        }
    } else if (hazardDrain_ || writeQueue_.size() >= writeDrainHigh
               || queue_.empty()) {
        drainWrites_ = !writeQueue_.empty();
        lookaheadArmed_ = true;
    }
    if (writeQueue_.empty())
        hazardDrain_ = false;

    // Lookahead only needs to re-scan at burst boundaries or while
    // stalled; in the middle of a burst nothing it could start has
    // changed (one activation start per boundary keeps the command
    // bus honest anyway).
    if (burstWords_ == 0 || lookaheadArmed_) {
        lookaheadActivate(now, drainWrites_ ? writeQueue_ : queue_);
        lookaheadArmed_ = false;
    }

    if (gapRemaining_ > 0) {
        --gapRemaining_;
        statStallTicks_ += 1;
        NC_TRACE(probe_, TraceComponent::Vault, traceId_,
                 TraceEventType::DramStall,
                 uint32_t(DramStallReason::BurstGap), gapRemaining_);
        NC_COUNT(probe_,
                 Counter::stall(TraceComponent::Vault, StallClass::StallDram),
                 traceId_, 1);
        return;
    }

    if (credit_ < 1.0) {
        statStallTicks_ += 1;
        NC_TRACE(probe_, TraceComponent::Vault, traceId_,
                 TraceEventType::DramStall,
                 uint32_t(DramStallReason::Bandwidth), 0);
        NC_COUNT(probe_,
                 Counter::stall(TraceComponent::Vault, StallClass::StallDram),
                 traceId_, 1);
        return;
    }

    if (drainWrites_) {
        // Writes drain strictly in order.
        const RowRunQueue::Run &head = writeQueue_.run(0);
        const unsigned bank = head.bank;
        if (rowOpen(now, head)) {
            serveWord(now, writeQueue_, {0, 0});
            NC_COUNT(probe_,
                     Counter::stall(TraceComponent::Vault, StallClass::Busy),
                     traceId_, 1);
        } else {
            statStallTicks_ += 1;
            NC_TRACE(probe_, TraceComponent::Vault, traceId_,
                     TraceEventType::DramStall,
                     uint32_t(DramStallReason::RowConflict), bank);
            NC_COUNT(probe_,
                     Counter::stall(TraceComponent::Vault,
                                    StallClass::StallDram),
                     traceId_, 1);
            lookaheadArmed_ = true;
        }
        return;
    }

    if (responses_.size() >= responseBacklogLimit) {
        // Downstream (PNG / NoC) is not draining reads: stall so
        // the backpressure reaches the DRAM timing.
        statStallTicks_ += 1;
        NC_TRACE(probe_, TraceComponent::Vault, traceId_,
                 TraceEventType::DramStall,
                 uint32_t(DramStallReason::Backpressure), responses_.size());
        NC_COUNT(probe_,
                 Counter::stall(TraceComponent::Vault,
                                StallClass::StallNocCredit),
                 traceId_, 1);
        lookaheadArmed_ = true;
        return;
    }
    const RunPos pick = pickServeRun(now);
    if (pick.run == SIZE_MAX) {
        statStallTicks_ += 1;
        NC_TRACE(probe_, TraceComponent::Vault, traceId_,
                 TraceEventType::DramStall,
                 uint32_t(DramStallReason::RowConflict), queue_.size());
        NC_COUNT(probe_,
                 Counter::stall(TraceComponent::Vault, StallClass::StallDram),
                 traceId_, 1);
        lookaheadArmed_ = true; // stalled: re-scan next tick
    } else {
        serveWord(now, queue_, pick);
        NC_COUNT(probe_,
                 Counter::stall(TraceComponent::Vault, StallClass::Busy),
                 traceId_, 1);
    }
}

void
MemoryChannel::skipTicks(Tick from, Tick to)
{
    nc_assert(queue_.empty() && writeQueue_.empty(),
              "channel skipTicks with queued work");
    nc_assert(from < to, "empty channel skip window");
    const uint64_t n = to - from;

    // Activations whose latency elapsed inside the window complete,
    // exactly as the per-tick promotion loop would have done.
    if (pendingActivations_ > 0) {
        for (unsigned b = 0; b < params_.banksPerChannel; ++b) {
            if (pendingRow_[b] != noRow && bankReady_[b] < to) {
                openRow_[b] = pendingRow_[b];
                pendingRow_[b] = noRow;
                --pendingActivations_;
            }
        }
    }

    // Credit accrues tick by tick under a clamp. The clamp makes the
    // iteration a fixed point at exactly 4.0, so stop there; do NOT
    // bulk-multiply (n iterated adds != n * rate in floating point).
    const double rate = params_.wordsPerTick();
    for (uint64_t i = 0; i < n; ++i) {
        credit_ += rate;
        if (credit_ > 4.0)
            credit_ = 4.0;
        if (credit_ == 4.0)
            break;
    }

    burstWords_ = 0;
    lookaheadArmed_ = true;
    gapRemaining_ = gapRemaining_ > Tick(n) ? gapRemaining_ - Tick(n)
                                            : 0;
    statIdleTicks_ += n;
    NC_COUNT(probe_, Counter::stall(TraceComponent::Vault, StallClass::Idle),
             traceId_, n);
    // The legacy loop would have left now_ at the last idle tick;
    // keep the stale stamp so enqueue timestamps match.
    now_ = to - 1;
}

} // namespace neurocube
