/**
 * @file
 * Host-time spans for the benchmark's traced run.
 *
 * The benchmark wraps its own calls into the simulator (construction,
 * each runLayer, each replayed batch, each compile) in spans: name,
 * start, end, parent and the serving requests it worked for. Spans
 * are kept in memory while the run executes and written out as JSONL
 * at the end, so recording never touches the disk inside a timed
 * region.
 */

#ifndef SIMBENCH_SPANS_HH
#define SIMBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace simbench
{

/** Monotonic host time in nanoseconds (steady_clock). */
int64_t nowNs();

/** Median of a non-empty sample. */
double median(std::vector<double> values);

/** One recorded interval of host time. */
struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
    /** Serving requests the span worked for (empty for most spans). */
    std::vector<uint64_t> requestIds;

    int64_t durationNs() const { return endNs - startNs; }
};

/** In-memory span store for one single-threaded run. */
class SpanRecorder
{
  public:
    /** Open a span nested in the innermost open one; returns its id. */
    int open(std::string name, std::vector<uint64_t> requestIds = {});

    /** Close span @p id (must be the innermost open span). */
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span: its duration minus the time its
     * children cover. Spans nest strictly (one thread, LIFO), so the
     * children's durations never overlap.
     */
    std::vector<int64_t> selfNs() const;

    /** Write one JSON object per span; false on I/O failure. */
    bool writeJsonl(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/**
 * RAII span that is a no-op when no recorder is given, so the
 * untraced run pays one branch per call site.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, std::string name,
               std::vector<uint64_t> requestIds = {})
        : recorder_(recorder),
          id_(recorder ? recorder->open(std::move(name),
                                        std::move(requestIds))
                       : -1)
    {
    }

    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->close(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *recorder_;
    int id_;
};

} // namespace simbench

#endif // SIMBENCH_SPANS_HH
