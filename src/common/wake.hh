/**
 * @file
 * Wake-list plumbing for the event-driven scheduler.
 *
 * The event engine (src/core/engine.*) lets a component sleep when
 * its tick() is provably a no-op modulo accounting. A sleeping
 * component is re-armed by the producer whose action gives it work
 * again: those producer-side hooks are the WakeSink interface below.
 * Components that can wake others (MemoryChannel, NocFabric) hold an
 * optional sink pointer; with no engine installed the pointer is null
 * and the hooks cost one branch.
 *
 * The hook contract (who wakes whom, and at which tick relative to
 * the producer's tick t) is fixed by the legacy phase order
 * PNG -> channel -> fabric -> PE within one cycle:
 *
 *  - onChannelEnqueue(ch): a PNG enqueued a request during phase 1 of
 *    tick t; the channel must run its phase-2 tick at t. The sink
 *    must catch the channel's accounting up to t *before* returning,
 *    because enqueue() stamps the request with the channel's
 *    one-tick-stale internal clock (see MemoryChannel::now_).
 *  - onChannelServe(ch): the channel served a word at tick t; the PNG
 *    may now have responses to match, queue credit to issue into, or
 *    write-buffer space — wake it for t + 1 (its phase already ran),
 *    unless it is done: a done PNG's tick is a no-op.
 *  - onEject(node, to_mem): the fabric delivered a packet at tick t.
 *    A PE consumes it the same tick (phase 4 runs after the fabric);
 *    a PNG consumes it at t + 1 (its phase precedes the fabric's).
 *  - onInject(node, from_mem): an endpoint pushed a packet into its
 *    router at tick t. A PNG injection (phase 1) is switchable the
 *    same tick; a PE injection (phase 4) the next tick.
 */

#ifndef NEUROCUBE_COMMON_WAKE_HH
#define NEUROCUBE_COMMON_WAKE_HH

#include "common/types.hh"

namespace neurocube
{

/** "No next event": a component sleeping until some hook fires. */
constexpr Tick tickNever = ~Tick(0);

/** Producer-side wake hooks consumed by the event engine. */
class WakeSink
{
  public:
    virtual ~WakeSink() = default;

    /** A request entered channel @p ch this tick (catch up first). */
    virtual void onChannelEnqueue(unsigned ch) = 0;
    /** Channel @p ch served a word this tick (wake its PNG next,
     *  unless it is done). */
    virtual void onChannelServe(unsigned ch) = 0;
    /** A packet was delivered at @p node (to_mem: PNG, else PE). */
    virtual void onEject(unsigned node, bool to_mem) = 0;
    /** A packet was injected at @p node (from_mem: by the PNG). */
    virtual void onInject(unsigned node, bool from_mem) = 0;
};

} // namespace neurocube

#endif // NEUROCUBE_COMMON_WAKE_HH
