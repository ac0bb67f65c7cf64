#include "serving/server.hh"

#include <algorithm>

#include "common/logging.hh"
#include "serving/spans.hh"

namespace neurocube
{

ServingSimulator::ServingSimulator(Neurocube &cube,
                                   const ServingConfig &config)
    : cube_(cube), config_(config), probe_(cube.probe())
{
}

ServingResult
ServingSimulator::run(const ArrivalSchedule &arrivals,
                      const Tensor &input)
{
    const size_t n = arrivals.count();
    ServingResult res;
    res.requests.resize(n);
    res.arrivalSpan = arrivals.span();

    RequestQueue queue(config_.queueDepth, probe_);
    BatchScheduler scheduler(config_.scheduler);

    const Tick start = cube_.now();

    MetricsRegistry *registry = probe_.registry;
    MetricsSnapshot before;
    if (registry)
        before = registry->snapshot();

    // Admit every arrival up to (and including) tick `upto`, in
    // arrival order. Arrivals that land while the cube is busy with
    // a batch are ingested right after it: the queue only drains at
    // dispatches, so the admission decisions are identical either
    // way — only the trace timestamps are stamped back-dated.
    size_t next = 0;
    auto ingest = [&](Tick upto) {
        while (next < n && start + arrivals.ticks[next] <= upto) {
            const Tick at = start + arrivals.ticks[next];
            RequestRecord &rec = res.requests[next];
            rec.id = next;
            rec.arrival = at;
            NC_TRACE_TICK(probe_, at);
            if (!queue.offer({next, at}, at)) {
                rec.dropped = true;
                ++res.dropped;
                NC_TRACE(probe_, TraceComponent::Sim, 0,
                         TraceEventType::ServeRequestDone, unsigned(next),
                         uint64_t(0));
            } else {
                // Admission decides at the arrival tick, so an
                // admitted request's admit stamp is its arrival.
                rec.admit = at;
            }
            ++next;
        }
    };

    while (next < n || !queue.empty()) {
        ingest(cube_.now());
        if (queue.empty()) {
            if (next >= n)
                break;
            cube_.advanceIdleTo(start + arrivals.ticks[next]);
            ingest(cube_.now());
        }

        unsigned lanes = scheduler.decide(
            queue.size(), queue.frontArrival(), cube_.now());
        if (lanes == 0 && next >= n) {
            // Drain mode: no future arrival can grow this batch, so
            // waiting out the deadline only adds latency.
            lanes = scheduler.laneCountFor(queue.size());
        }
        if (lanes == 0) {
            // Wait for whichever comes first: the next arrival or
            // the oldest request's dispatch deadline. Both are
            // strictly in the future (arrivals <= now are already
            // ingested; an expired deadline decides a dispatch), so
            // the loop always makes progress.
            const Tick deadline = queue.frontArrival()
                                + config_.scheduler.maxWaitTicks;
            const Tick next_arrival = start + arrivals.ticks[next];
            cube_.advanceIdleTo(std::min(deadline, next_arrival));
            continue;
        }

        cube_.setBatchLanes(lanes);
        const Tick dispatch = cube_.now();
        NC_TRACE_TICK(probe_, dispatch);
        const unsigned batch_size =
            unsigned(std::min<size_t>(lanes, queue.size()));
        std::vector<uint64_t> ids(batch_size);
        for (unsigned i = 0; i < batch_size; ++i)
            ids[i] = queue.pop(dispatch).id;
        for (uint64_t id : ids) {
            NC_TRACE(probe_, TraceComponent::Sim, 0,
                     TraceEventType::ServeRequestDispatch, unsigned(id),
                     uint64_t(dispatch - res.requests[id].arrival));
        }

        std::vector<Tensor> inputs(batch_size, input);
        BatchRunResult batch = cube_.runForwardBatch(inputs);
        const Tick done = cube_.now();

        ++res.batches;
        res.busyCycles += done - dispatch;
        for (const RunResult &lane_run : batch.lanes)
            res.energy += lane_run.energyCounts();

        NC_TRACE_TICK(probe_, done);
        for (uint64_t id : ids) {
            RequestRecord &rec = res.requests[id];
            rec.dispatch = dispatch;
            rec.completion = done;
            rec.batch = res.batches;
            rec.lanes = lanes;
            res.latency.sample(done - rec.arrival);
            ++res.served;
            NC_TRACE(probe_, TraceComponent::Sim, 0,
                     TraceEventType::ServeRequestDone, unsigned(id),
                     uint64_t(done - rec.arrival));
        }
    }

    res.makespan = cube_.now() - start;
    res.queueDepth = queue.depthHistogram();
    if (registry) {
        const MetricsSnapshot delta = registry->snapshot().delta(before);
        res.bottleneck = buildBottleneckReport(delta);
        res.spatial = delta.spatialCounts();
        res.spatialTopology = cube_.spatialTopology();
    }
    if (!config_.spansJsonlPath.empty())
        writeRequestSpansJsonl(config_.spansJsonlPath, res);
    return res;
}

} // namespace neurocube
