#include "serving/request_queue.hh"

#include "common/logging.hh"

namespace neurocube
{

RequestQueue::RequestQueue(size_t depth, Probe probe)
    : depth_limit_(depth), probe_(probe),
      depth_(nullptr, "serveQueueDepth", "request queue depth")
{
    nc_assert(depth >= 1, "request queue needs depth >= 1");
}

bool
RequestQueue::offer(const Request &request, Tick now)
{
    (void)now;
    if (queue_.size() >= depth_limit_) {
        ++dropped_;
        depth_.sample(queue_.size());
        NC_TRACE(probe_, TraceComponent::Sim, 0,
                 TraceEventType::ServeQueueDepth,
                 unsigned(ServeQueueEvent::Drop), uint64_t(queue_.size()));
        return false;
    }
    queue_.push_back(request);
    ++admitted_;
    depth_.sample(queue_.size());
    NC_TRACE(probe_, TraceComponent::Sim, 0, TraceEventType::ServeQueueDepth,
             unsigned(ServeQueueEvent::Arrive), uint64_t(queue_.size()));
    return true;
}

Request
RequestQueue::pop(Tick now)
{
    (void)now;
    nc_assert(!queue_.empty(), "pop from an empty request queue");
    Request request = queue_.front();
    queue_.pop_front();
    depth_.sample(queue_.size());
    NC_TRACE(probe_, TraceComponent::Sim, 0, TraceEventType::ServeQueueDepth,
             unsigned(ServeQueueEvent::Dispatch), uint64_t(queue_.size()));
    return request;
}

} // namespace neurocube
