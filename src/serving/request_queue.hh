/**
 * @file
 * Bounded request queue with admission control.
 *
 * Open-loop serving needs a finite queue: without one, an offered
 * load past saturation grows the backlog (and every later request's
 * latency) without bound. The queue admits requests up to a
 * configured depth and rejects the rest, counting both outcomes, and
 * samples its depth into a histogram at every transition so a run
 * reports queue-depth statistics alongside latency percentiles.
 *
 * Every transition is also published on the trace bus as a
 * ServeQueueDepth event (arrive/dispatch/drop), which the Chrome
 * exporter turns into a serveQueue counter track and the CSV
 * exporter into the serve_queue_depth column.
 */

#ifndef NEUROCUBE_SERVING_REQUEST_QUEUE_HH
#define NEUROCUBE_SERVING_REQUEST_QUEUE_HH

#include <cstdint>
#include <deque>

#include "common/stats.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace neurocube
{

/** One inference request in flight through the serving frontend. */
struct Request
{
    /** Dense request id (index into the arrival schedule). */
    uint64_t id = 0;
    /** Absolute arrival tick (cube clock domain). */
    Tick arrival = 0;
};

/** FIFO request queue with a hard depth bound. */
class RequestQueue
{
  public:
    /**
     * @param depth admission bound (offers beyond it are dropped)
     * @param probe the serving machine's instrumentation
     */
    explicit RequestQueue(size_t depth, Probe probe = {});

    /**
     * Offer a request at time @p now. Admitted when the queue has
     * room; dropped (and counted) otherwise.
     *
     * @return true when the request was admitted
     */
    bool offer(const Request &request, Tick now);

    /** Pop the oldest request into a dispatching batch. */
    Request pop(Tick now);

    /** Requests currently queued. */
    size_t size() const { return queue_.size(); }
    /** True when no request is queued. */
    bool empty() const { return queue_.empty(); }
    /** Arrival tick of the oldest queued request. @pre !empty() */
    Tick frontArrival() const { return queue_.front().arrival; }

    /** Requests admitted so far. */
    uint64_t admitted() const { return admitted_; }
    /** Requests rejected at a full queue so far. */
    uint64_t dropped() const { return dropped_; }

    /** Queue depth sampled after every transition. */
    const Histogram &depthHistogram() const { return depth_; }

  private:
    size_t depth_limit_;
    Probe probe_;
    std::deque<Request> queue_;
    uint64_t admitted_ = 0;
    uint64_t dropped_ = 0;
    Histogram depth_;
};

} // namespace neurocube

#endif // NEUROCUBE_SERVING_REQUEST_QUEUE_HH
