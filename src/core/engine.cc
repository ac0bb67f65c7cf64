#include "core/engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "dram/memory_channel.hh"
#include "pe/pe.hh"
#include "png/png.hh"

namespace neurocube
{

PassScheduler::PassScheduler(Slice slice, Tick start, bool tick_all)
    : s_(std::move(slice)), tickAll_(tick_all)
{
    const size_t nc = s_.channels.size();
    const size_t np = s_.pes.size();
    nc_assert(s_.fabric != nullptr, "scheduler without a fabric");
    nc_assert(s_.channelIds.size() == nc && s_.pngs.size() == nc
                  && s_.channelNodes.size() == nc,
              "channel slice vectors disagree");
    nc_assert(s_.peIds.size() == np, "PE slice vectors disagree");

    pngWake_.assign(nc, start);
    pngAcct_.assign(nc, start);
    chWake_.assign(nc, start);
    chAcct_.assign(nc, start);
    peWake_.assign(np, start);
    peAcct_.assign(np, start);
    fabricWake_ = start;
    fabricAcct_ = start;
    s_.fabric->restartAccounting(start, s_.view);

    chSlotOfChannel_.assign(s_.numChannels, -1);
    chSlotOfNode_.assign(s_.numNodes, -1);
    peSlotOfNode_.assign(s_.numNodes, -1);
    for (size_t i = 0; i < nc; ++i) {
        chSlotOfChannel_[s_.channelIds[i]] = int(i);
        chSlotOfNode_[s_.channelNodes[i]] = int(i);
        s_.channels[i]->setWakeSink(this);
    }
    for (size_t i = 0; i < np; ++i) {
        peSlotOfNode_[s_.peIds[i]] = int(i);
        s_.fabric->setNodeWakeSink(s_.peIds[i], this);
    }
}

PassScheduler::~PassScheduler()
{
    for (MemoryChannel *channel : s_.channels)
        channel->setWakeSink(nullptr);
    for (unsigned node : s_.peIds)
        s_.fabric->setNodeWakeSink(node, nullptr);
}

void
PassScheduler::step(Tick t)
{
    cur_ = t;
    const size_t nc = s_.channels.size();

    // Phase 1: PNGs (ascending channel index, as the legacy loop).
    for (size_t i = 0; i < nc; ++i) {
        if (pngWake_[i] <= t) {
            NC_TRACE_SLOT(s_.probe, TraceSlot::Png, s_.channelIds[i]);
            if (pngAcct_[i] < t) {
                skipped_ += t - pngAcct_[i];
                s_.pngs[i]->skipTicks(pngAcct_[i], t);
            }
            s_.pngs[i]->tick(t);
            pngAcct_[i] = t + 1;
            pngWake_[i] =
                tickAll_ ? t + 1 : s_.pngs[i]->nextEventAfter(t);
        }
    }

    // Phase 2: memory channels. An enqueue in phase 1 has already
    // caught the channel up (onChannelEnqueue) and pulled its wake
    // down to t, so the tick below sees legacy-identical state.
    for (size_t i = 0; i < nc; ++i) {
        if (chWake_[i] <= t) {
            NC_TRACE_SLOT(s_.probe, TraceSlot::Channel, s_.channelIds[i]);
            if (chAcct_[i] < t) {
                skipped_ += t - chAcct_[i];
                s_.channels[i]->skipTicks(chAcct_[i], t);
            }
            s_.channels[i]->tick(t);
            chAcct_[i] = t + 1;
            chWake_[i] =
                tickAll_ ? t + 1 : s_.channels[i]->nextEventAfter(t);
        }
    }

    // Phase 3: the NoC (or this lane's slice of it). The fabric
    // accounts each router itself; fabricAcct_ only counts the ticks
    // the whole slice slept through as skipped component-ticks.
    if (fabricWake_ <= t) {
        if (fabricAcct_ < t)
            fabricSkipped_ += t - fabricAcct_;
        s_.fabric->tick(t, s_.view, tickAll_);
        fabricAcct_ = t + 1;
        fabricTicked_ = true;
        fabricWake_ = tickAll_ || !s_.fabric->routersIdle(s_.view)
                          ? t + 1
                          : tickNever;
    }

    // Phase 4: PEs. An ejection in phase 3 woke the PE at t, so a
    // delivered operand is consumed this very tick, as in legacy.
    const size_t np = s_.pes.size();
    for (size_t i = 0; i < np; ++i) {
        if (peWake_[i] <= t) {
            NC_TRACE_SLOT(s_.probe, TraceSlot::Pe, s_.peIds[i]);
            if (peAcct_[i] < t) {
                skipped_ += t - peAcct_[i];
                s_.pes[i]->skipTicks(peAcct_[i], t);
            }
            s_.pes[i]->tick(t, *s_.fabric);
            peAcct_[i] = t + 1;
            peWake_[i] = tickAll_
                             ? t + 1
                             : s_.pes[i]->nextEventAfter(t, *s_.fabric);
        }
    }
}

Tick
PassScheduler::minWake() const
{
    Tick next = fabricWake_;
    for (Tick w : pngWake_)
        next = std::min(next, w);
    for (Tick w : chWake_)
        next = std::min(next, w);
    for (Tick w : peWake_)
        next = std::min(next, w);
    return next;
}

void
PassScheduler::catchupAll(Tick final)
{
    for (size_t i = 0; i < s_.pngs.size(); ++i) {
        if (pngAcct_[i] < final) {
            skipped_ += final - pngAcct_[i];
            s_.pngs[i]->skipTicks(pngAcct_[i], final);
            pngAcct_[i] = final;
        }
    }
    for (size_t i = 0; i < s_.channels.size(); ++i) {
        if (chAcct_[i] < final) {
            skipped_ += final - chAcct_[i];
            s_.channels[i]->skipTicks(chAcct_[i], final);
            chAcct_[i] = final;
        }
    }
    if (fabricAcct_ < final) {
        fabricSkipped_ += final - fabricAcct_;
        fabricAcct_ = final;
    }
    s_.fabric->catchUp(final, s_.view);
    for (size_t i = 0; i < s_.pes.size(); ++i) {
        if (peAcct_[i] < final) {
            skipped_ += final - peAcct_[i];
            s_.pes[i]->skipTicks(peAcct_[i], final);
            peAcct_[i] = final;
        }
    }
}

void
PassScheduler::onChannelEnqueue(unsigned ch)
{
    // Fires from a PNG's phase-1 tick, before the request is stamped:
    // catch the channel up so its stale now_ timestamp (and credit /
    // lookahead state) match what legacy per-tick calls left behind.
    const int slot = chSlotOfChannel_[ch];
    nc_assert(slot >= 0, "enqueue wake for foreign channel %u", ch);
    if (chAcct_[slot] < cur_) {
        skipped_ += cur_ - chAcct_[slot];
        s_.channels[slot]->skipTicks(chAcct_[slot], cur_);
        chAcct_[slot] = cur_;
    }
    if (chWake_[slot] > cur_)
        chWake_[slot] = cur_;
}

void
PassScheduler::onChannelServe(unsigned ch)
{
    // Fires from the channel's phase-2 tick. The PNG consuming the
    // response (or the freed queue slot) already ticked this cycle in
    // phase 1, so its first chance to act is the next tick — exactly
    // when legacy has it pick the response up. A done PNG has no read
    // in flight and owes no write-back (the serve was one of its
    // last writes): its next tick would be a no-op, so it sleeps on,
    // and a finished lane part holds no wake at all.
    const int slot = chSlotOfChannel_[ch];
    nc_assert(slot >= 0, "serve wake for foreign channel %u", ch);
    if (pngWake_[slot] > cur_ + 1 && !s_.pngs[slot]->done())
        pngWake_[slot] = cur_ + 1;
}

void
PassScheduler::onEject(unsigned node, bool to_mem)
{
    if (to_mem) {
        // Write-back into a PNG's memory port (phase 3): the PNG
        // absorbs it on its next phase-1 tick.
        const int slot = chSlotOfNode_[node];
        nc_assert(slot >= 0, "memory ejection at node %u without a "
                  "channel", node);
        if (pngWake_[slot] > cur_ + 1)
            pngWake_[slot] = cur_ + 1;
    } else {
        // Operand into a PE delivery queue: the PE's phase-4 tick
        // runs after the fabric this same cycle, as in legacy.
        const int slot = peSlotOfNode_[node];
        nc_assert(slot >= 0, "ejection at foreign node %u", node);
        if (peWake_[slot] > cur_)
            peWake_[slot] = cur_;
    }
}

void
PassScheduler::onInject(unsigned node, bool from_mem)
{
    (void)node;
    // A PNG injection (phase 1) is switched by the fabric this same
    // tick (phase 3); a PE write-back (phase 4) waits for the next
    // (the fabric's phase-3 tick at cur_, executed or skipped, was a
    // no-op either way). The fabric catches the receiving router up
    // to the same tick before the push.
    const Tick when = from_mem ? cur_ : cur_ + 1;
    if (fabricAcct_ < when) {
        fabricSkipped_ += when - fabricAcct_;
        fabricAcct_ = when;
    }
    if (!from_mem)
        peInjected_ = true;
    if (fabricWake_ > when)
        fabricWake_ = when;
}

} // namespace neurocube
