#include "serving/arrival.hh"

#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"

namespace neurocube
{

ArrivalSchedule
poissonArrivals(size_t count, double meanGapTicks, uint64_t seed)
{
    nc_assert(meanGapTicks > 0.0, "mean arrival gap must be positive");
    Rng rng(seed);
    ArrivalSchedule schedule;
    schedule.ticks.reserve(count);
    double at = 0.0;
    for (size_t i = 0; i < count; ++i) {
        // Exponential inter-arrival gap. 1 - uniform() is in (0, 1],
        // so the log never sees zero. Accumulate in double and round
        // once per arrival to keep long schedules drift-free.
        double u = 1.0 - rng.uniform();
        at += -std::log(u) * meanGapTicks;
        schedule.ticks.push_back(Tick(std::llround(at)));
    }
    return schedule;
}

ArrivalSchedule
parseArrivalTrace(std::istream &in)
{
    ArrivalSchedule schedule;
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        unsigned long long tick;
        if (!(fields >> tick))
            continue; // blank or comment-only line
        std::string rest;
        nc_assert(!(fields >> rest),
                  "arrival trace line %zu: trailing junk '%s'", lineno,
                  rest.c_str());
        nc_assert(schedule.ticks.empty()
                      || Tick(tick) >= schedule.ticks.back(),
                  "arrival trace line %zu: tick %llu goes backwards",
                  lineno, tick);
        schedule.ticks.push_back(Tick(tick));
    }
    return schedule;
}

void
writeArrivalTrace(std::ostream &out, const ArrivalSchedule &schedule)
{
    out << "# arrival ticks relative to run start, one per line\n";
    for (Tick tick : schedule.ticks)
        out << tick << "\n";
}

} // namespace neurocube
