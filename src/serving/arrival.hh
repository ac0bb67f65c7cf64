/**
 * @file
 * Open-loop request arrival generation.
 *
 * A serving experiment drives the cube with a request stream whose
 * timing is independent of the machine's progress (open-loop): when
 * the machine saturates, the queue grows and latency explodes
 * instead of the load politely backing off. Two sources are
 * provided:
 *
 *  - a Poisson process with a configurable mean inter-arrival gap,
 *    generated from the repo's deterministic Rng so the same seed
 *    always yields the same schedule on every platform;
 *  - replay of an explicit arrival trace read from a stream (one
 *    arrival tick per line), for reproducing a measured or
 *    hand-crafted load shape.
 *
 * Arrival times are in reference-clock ticks relative to the start
 * of the serving run; ServingSimulator offsets them by the cube's
 * clock when the run begins.
 */

#ifndef NEUROCUBE_SERVING_ARRIVAL_HH
#define NEUROCUBE_SERVING_ARRIVAL_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/types.hh"

namespace neurocube
{

/** A fixed request-arrival schedule (ticks, nondecreasing). */
struct ArrivalSchedule
{
    /** Arrival times relative to the serving run's start tick. */
    std::vector<Tick> ticks;

    /** Number of requests offered. */
    size_t count() const { return ticks.size(); }

    /** Last arrival time (0 when empty). */
    Tick span() const { return ticks.empty() ? 0 : ticks.back(); }

    /**
     * Offered load in requests per second at a given clock.
     * Measured over the arrival span, so a single request reports 0.
     */
    double
    offeredPerSecond(double clock_hz = referenceClockHz) const
    {
        if (ticks.size() < 2 || span() == 0)
            return 0.0;
        return double(ticks.size() - 1) / (double(span()) / clock_hz);
    }
};

/**
 * Generate a Poisson arrival process: @p count requests whose
 * inter-arrival gaps are exponentially distributed with mean
 * @p meanGapTicks. Deterministic for a fixed (count, gap, seed).
 *
 * @param count number of requests to generate
 * @param meanGapTicks mean inter-arrival gap in reference ticks
 * @param seed Rng seed
 */
ArrivalSchedule poissonArrivals(size_t count, double meanGapTicks,
                                uint64_t seed);

/**
 * Parse an arrival-trace stream: one arrival tick per line (decimal,
 * relative to run start), blank lines and '#' comments ignored.
 * Ticks must be nondecreasing (the trace is a time series).
 */
ArrivalSchedule parseArrivalTrace(std::istream &in);

/** Write a schedule in the trace format parseArrivalTrace reads. */
void writeArrivalTrace(std::ostream &out,
                       const ArrivalSchedule &schedule);

} // namespace neurocube

#endif // NEUROCUBE_SERVING_ARRIVAL_HH
