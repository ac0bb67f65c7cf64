/**
 * @file
 * Lightweight statistics framework for the cycle-level simulator.
 *
 * Components own named Counter/Scalar statistics registered with a
 * StatGroup; groups form a tree so the top-level Neurocube object can
 * dump the complete hierarchy after a run. A TextTable helper renders
 * the paper-style result tables emitted by the benchmark harnesses.
 */

#ifndef NEUROCUBE_COMMON_STATS_HH
#define NEUROCUBE_COMMON_STATS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace neurocube
{

class StatGroup;

/**
 * A single named statistic: a 64-bit count or a double-valued scalar.
 */
class Stat
{
  public:
    /**
     * Create a statistic and register it with its owning group.
     *
     * @param parent group the statistic belongs to
     * @param name short identifier, unique within the group
     * @param desc human-readable description for dumps
     */
    Stat(StatGroup *parent, std::string name, std::string desc);

    /** Increment by an integer amount. */
    void operator+=(uint64_t amount) { value_ += double(amount); }
    /** Increment by a floating-point amount. */
    void add(double amount) { value_ += amount; }
    /** Overwrite the value (for derived/sampled statistics). */
    void set(double value) { value_ = value; }

    /** Current value as a double. */
    double value() const { return value_; }
    /** Current value rounded to a count. */
    uint64_t count() const { return static_cast<uint64_t>(value_); }

    /** The short identifier. */
    const std::string &name() const { return name_; }
    /** The description string. */
    const std::string &desc() const { return desc_; }

    /** Reset to zero. */
    void reset() { value_ = 0.0; }

  private:
    std::string name_;
    std::string desc_;
    double value_ = 0.0;
};

/**
 * Distribution statistic over recorded non-negative integer samples.
 *
 * Exact count/min/max/mean plus approximate percentiles from
 * power-of-two buckets (constant memory, no sample storage): bucket
 * i > 0 holds samples with bit width i, i.e. [2^(i-1), 2^i - 1], and
 * percentiles interpolate linearly inside a bucket, clamped to the
 * observed [min, max]. Suited to latency/occupancy distributions
 * where a few percent of relative error at the tail is acceptable.
 */
class Histogram
{
  public:
    /**
     * Create a histogram and register it with its owning group.
     *
     * @param parent group the histogram belongs to, or nullptr for a
     *        free-standing histogram (temporary aggregation targets
     *        that never appear in dumps)
     * @param name short identifier, unique within the group
     * @param desc human-readable description for dumps
     */
    Histogram(StatGroup *parent, std::string name, std::string desc);

    /** Record one sample. */
    void
    sample(uint64_t value)
    {
        if (count_ == 0) {
            min_ = value;
            max_ = value;
        } else {
            min_ = value < min_ ? value : min_;
            max_ = value > max_ ? value : max_;
        }
        ++buckets_[bucketOf(value)];
        ++count_;
        sum_ += double(value);
    }

    /**
     * Record @p n identical samples in one update. Exactly equivalent
     * to n sample(value) calls: all quantities are integer-valued, so
     * the bulk sum_ update is exact (the event engine relies on this
     * to keep skipped idle stretches bit-identical with ticked ones).
     */
    void
    sample(uint64_t value, uint64_t n)
    {
        if (n == 0)
            return;
        if (count_ == 0) {
            min_ = value;
            max_ = value;
        } else {
            min_ = value < min_ ? value : min_;
            max_ = value > max_ ? value : max_;
        }
        buckets_[bucketOf(value)] += n;
        count_ += n;
        sum_ += double(value) * double(n);
    }

    /**
     * Fold another histogram's samples into this one (bucket-wise;
     * percentiles of the merge are as approximate as the inputs').
     */
    void merge(const Histogram &other);

    /** Number of recorded samples. */
    uint64_t count() const { return count_; }
    /** Smallest recorded sample (0 when empty). */
    uint64_t min() const { return count_ ? min_ : 0; }
    /** Largest recorded sample (0 when empty). */
    uint64_t max() const { return count_ ? max_ : 0; }
    /** Arithmetic mean of the samples (0 when empty). */
    double mean() const;

    /**
     * Approximate percentile of the recorded distribution.
     *
     * @param p percentile in [0, 100]
     * @return interpolated sample value (0 when empty)
     */
    double percentile(double p) const;

    /** Median. */
    double p50() const { return percentile(50.0); }
    /** 99th percentile. */
    double p99() const { return percentile(99.0); }
    /** 99.9th percentile (tail-latency SLO reporting). */
    double p999() const { return percentile(99.9); }

    /** The short identifier. */
    const std::string &name() const { return name_; }
    /** The description string. */
    const std::string &desc() const { return desc_; }

    /** Drop all samples. */
    void reset();

  private:
    /** Bucket index of a sample value (its bit width). */
    static unsigned
    bucketOf(uint64_t value)
    {
        return unsigned(std::bit_width(value));
    }

    /** Buckets: index 0 = value 0, i = values of bit width i. */
    static constexpr unsigned numBuckets = 65;

    std::string name_;
    std::string desc_;
    std::array<uint64_t, numBuckets> buckets_{};
    uint64_t count_ = 0;
    uint64_t min_ = 0;
    uint64_t max_ = 0;
    double sum_ = 0.0;
};

/**
 * A node in the statistics hierarchy.
 *
 * Non-owning: the registered Stat and child-group objects must outlive
 * the group, which is naturally satisfied when they are members of the
 * same component object.
 */
class StatGroup
{
  public:
    /**
     * Create a group.
     *
     * @param parent enclosing group, or nullptr for a root
     * @param name path component used when dumping
     */
    explicit StatGroup(StatGroup *parent = nullptr,
                       std::string name = "");

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a statistic (called from the Stat constructor). */
    void addStat(Stat *stat);
    /** Register a histogram (called from its constructor). */
    void addHistogram(Histogram *histogram);
    /** Register a child group. */
    void addChild(StatGroup *child);

    /** Look up a direct statistic by name; nullptr when absent. */
    const Stat *findStat(const std::string &name) const;

    /** Look up a direct histogram by name; nullptr when absent. */
    const Histogram *findHistogram(const std::string &name) const;

    /**
     * Recursively write "path.name value # desc" lines.
     *
     * @param os destination stream
     * @param prefix path accumulated from ancestor groups
     */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /** Recursively reset every statistic in the subtree. */
    void resetAll();

    /** The group's path component. */
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<Stat *> stats_;
    std::vector<Histogram *> histograms_;
    std::vector<StatGroup *> children_;
};

/**
 * Fixed-width text table used by the bench harnesses to print
 * paper-style result tables.
 */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append a row; the cell count must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Render with column alignment and a header separator. */
    std::string str() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with the given precision (benchmark table cells). */
std::string formatDouble(double value, int precision = 2);

/** Format a count with thousands separators (e.g. 73,476). */
std::string formatCount(uint64_t value);

} // namespace neurocube

#endif // NEUROCUBE_COMMON_STATS_HH
