/**
 * @file
 * The serving simulator: an open-loop frontend around the cube.
 *
 * Drives one Neurocube through a request-arrival schedule as an
 * inference server would: requests arrive on their own clock, pass
 * admission control into a bounded queue (request_queue.hh), and a
 * dynamic-batching scheduler (scheduler.hh) launches them through
 * runForwardBatch, re-partitioning the mesh into 1/2/4 vault-group
 * lanes as queue depth shifts.
 *
 * Time model: the serving frontend shares the cube's reference
 * clock. Between batches the machine is quiescent, so the frontend
 * fast-forwards it (Neurocube::advanceIdleTo) to the next arrival or
 * dispatch deadline; during a batch the cube's cycle loop advances
 * time as usual. A request's latency is completion minus arrival on
 * that one clock, and every request in a batch completes when the
 * batch does (the lanes share one lockstep cycle loop).
 *
 * Determinism: the schedule is fixed up front, admission decisions
 * depend only on queue occupancy (which changes only at arrivals and
 * dispatches), and the cube itself is cycle-deterministic — so one
 * (seed, schedule, network) triple always produces bit-identical
 * per-request latencies.
 */

#ifndef NEUROCUBE_SERVING_SERVER_HH
#define NEUROCUBE_SERVING_SERVER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/neurocube.hh"
#include "serving/arrival.hh"
#include "serving/request_queue.hh"
#include "serving/scheduler.hh"

namespace neurocube
{

/** Serving-frontend knobs. */
struct ServingConfig
{
    /** Request-queue admission bound. */
    size_t queueDepth = 64;
    /** Dispatch policy. */
    ServeSchedulerConfig scheduler;
    /**
     * When set, the run writes one JSON object per offered request
     * (the RequestRecord span: enqueue/admit/dispatch/complete
     * timestamps) to this path at the end of run(). Joinable with
     * the SLO report by request id; readRequestSpansJsonl round-
     * trips the file (serving/spans.hh).
     */
    std::string spansJsonlPath;
};

/** Lifecycle of one offered request (its span). */
struct RequestRecord
{
    /** Dense request id (index into the arrival schedule). */
    uint64_t id = 0;
    /** Absolute arrival (enqueue-attempt) tick. */
    Tick arrival = 0;
    /**
     * Absolute admission tick: equals arrival for an admitted
     * request (admission control decides at the arrival tick), 0
     * when the request was dropped at a full queue.
     */
    Tick admit = 0;
    /** Absolute dispatch tick (0 when dropped). */
    Tick dispatch = 0;
    /** Absolute completion tick (0 when dropped). */
    Tick completion = 0;
    /** 1-based ordinal of the batch that served it (0 if dropped). */
    uint64_t batch = 0;
    /** Lane count of the batch that served it (0 when dropped). */
    unsigned lanes = 0;
    /** True when admission control rejected the request. */
    bool dropped = false;

    /** End-to-end latency in ticks (0 for a dropped request). */
    Tick
    latency() const
    {
        return dropped ? 0 : completion - arrival;
    }

    /** Ticks spent queued before dispatch (0 for a dropped one). */
    Tick
    queueTicks() const
    {
        return dropped ? 0 : dispatch - arrival;
    }

    /** Ticks from dispatch to completion (0 for a dropped one). */
    Tick
    serviceTicks() const
    {
        return dropped ? 0 : completion - dispatch;
    }
};

/** Everything one serving run produced. */
struct ServingResult
{
    /** Per-request lifecycle, in arrival order. */
    std::vector<RequestRecord> requests;

    /** Requests completed. */
    uint64_t served = 0;
    /** Requests rejected at a full queue. */
    uint64_t dropped = 0;
    /** Batches dispatched. */
    uint64_t batches = 0;

    /** Serving-run span: run start to last completion, ticks. */
    Tick makespan = 0;
    /** Ticks the cube spent executing batches (vs idle/waiting). */
    Tick busyCycles = 0;
    /** Last arrival tick relative to run start (offered-load span). */
    Tick arrivalSpan = 0;

    /** End-to-end latency distribution of the served requests. */
    Histogram latency{nullptr, "serveLatency",
                      "request end-to-end latency (ticks)"};
    /** Queue depth sampled at every queue transition. */
    Histogram queueDepth{nullptr, "serveQueueDepth",
                         "request queue depth"};

    /**
     * Activity counts accumulated over every batch (energy per
     * request). valid only when the cube ran with energy accounting.
     */
    EnergyCounts energy;

    /**
     * Machine-level stall attribution over the run's executed
     * cycles (idle gaps are fast-forwarded, not ticked, so they do
     * not appear here). valid only when the cube ran with tracing
     * enabled — identifies the dominant in-batch stall class, e.g.
     * what the machine is bound by past the saturation knee.
     */
    BottleneckReport bottleneck;

    /**
     * Spatial counter delta over the whole run (heatmap export) and
     * the machine shape keying it. valid()/populated only when the
     * cube ran with tracing enabled.
     */
    SpatialSnapshot spatial;
    SpatialTopology spatialTopology;
};

/** Open-loop serving frontend for one Neurocube. */
class ServingSimulator
{
  public:
    /**
     * @param cube the machine; must have a network loaded, and its
     *        batching preconditions must hold (identity channel
     *        attachment) for lane counts above 1
     * @param config frontend knobs
     */
    ServingSimulator(Neurocube &cube, const ServingConfig &config);

    /**
     * Serve one arrival schedule to completion (every admitted
     * request finished, every offered request accounted). All
     * requests execute the same @p input, so lane outputs stay
     * bit-exact with a sequential run of that input.
     */
    ServingResult run(const ArrivalSchedule &arrivals,
                      const Tensor &input);

    /** The frontend knobs. */
    const ServingConfig &config() const { return config_; }

  private:
    Neurocube &cube_;
    ServingConfig config_;
    /** The cube's instrumentation (serving spans, queue depth). */
    Probe probe_;
};

} // namespace neurocube

#endif // NEUROCUBE_SERVING_SERVER_HH
