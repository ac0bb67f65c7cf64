/**
 * @file
 * Unit tests for logging, statistics, the deterministic RNG and the
 * ring FIFO shared by the NoC and DRAM queues.
 */

#include <gtest/gtest.h>

#include <deque>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace neurocube
{
namespace
{

TEST(Logging, CapturesWarnAndInform)
{
    setLogCapture(true);
    nc_warn("something odd: %d", 42);
    nc_inform("status %s", "ok");
    std::string log = takeCapturedLog();
    setLogCapture(false);
    EXPECT_NE(log.find("warn: something odd: 42"), std::string::npos);
    EXPECT_NE(log.find("info: status ok"), std::string::npos);
}

TEST(Logging, CaptureDrainsBuffer)
{
    setLogCapture(true);
    nc_inform("first");
    takeCapturedLog();
    EXPECT_TRUE(takeCapturedLog().empty());
    setLogCapture(false);
}

TEST(Stats, CountAndValue)
{
    StatGroup root(nullptr, "root");
    Stat counter(&root, "events", "test events");
    counter += 3;
    counter += 2;
    EXPECT_EQ(counter.count(), 5u);
    counter.add(0.5);
    EXPECT_DOUBLE_EQ(counter.value(), 5.5);
    counter.reset();
    EXPECT_EQ(counter.count(), 0u);
}

TEST(Stats, HierarchicalDump)
{
    StatGroup root(nullptr, "root");
    StatGroup child(&root, "child");
    Stat a(&root, "a", "top stat");
    Stat b(&child, "b", "child stat");
    a += 1;
    b += 2;
    std::ostringstream os;
    root.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("root.a"), std::string::npos);
    EXPECT_NE(out.find("root.child.b"), std::string::npos);
}

TEST(Stats, FindStat)
{
    StatGroup root(nullptr, "root");
    Stat a(&root, "a", "stat");
    EXPECT_EQ(root.findStat("a"), &a);
    EXPECT_EQ(root.findStat("missing"), nullptr);
}

TEST(Stats, ResetAllRecurses)
{
    StatGroup root(nullptr, "root");
    StatGroup child(&root, "child");
    Stat a(&root, "a", "");
    Stat b(&child, "b", "");
    a += 5;
    b += 7;
    root.resetAll();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(b.count(), 0u);
}

TEST(TextTable, AlignsColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer", "23"});
    std::string out = table.str();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(Format, FormatCountInsertsSeparators)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(1000), "1,000");
    EXPECT_EQ(formatCount(73476), "73,476");
    EXPECT_EQ(formatCount(1234567890), "1,234,567,890");
}

TEST(Format, FormatDoublePrecision)
{
    EXPECT_EQ(formatDouble(132.42, 1), "132.4");
    EXPECT_EQ(formatDouble(3.14159, 3), "3.142");
}

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123), c(124);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, BelowBounded)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RoughlyUniform)
{
    Rng rng(99);
    int buckets[10] = {};
    const int samples = 100000;
    for (int i = 0; i < samples; ++i)
        ++buckets[rng.below(10)];
    for (int b : buckets) {
        EXPECT_GT(b, samples / 10 - samples / 50);
        EXPECT_LT(b, samples / 10 + samples / 50);
    }
}

/** The ring's contents, front first. */
template <typename T>
std::vector<T>
contents(const Ring<T> &ring)
{
    std::vector<T> out;
    for (size_t i = 0; i < ring.size(); ++i)
        out.push_back(ring[i]);
    return out;
}

/** A ring of capacity 8 whose contents 10..15 wrap past the end. */
Ring<int>
wrappedRing()
{
    Ring<int> ring(8);
    for (int i = 0; i < 6; ++i)
        ring.push_back(i);
    for (int i = 0; i < 6; ++i)
        ring.pop_front();
    for (int i = 10; i < 16; ++i)
        ring.push_back(i);
    return ring;
}

TEST(Ring, FifoOrder)
{
    Ring<int> ring(4);
    EXPECT_TRUE(ring.empty());
    ring.push_back(1);
    ring.push_back(2);
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.front(), 1);
    ring.front() = 5;
    EXPECT_EQ(ring[0], 5);
    EXPECT_EQ(ring[1], 2);
    ring.pop_front();
    EXPECT_EQ(ring.front(), 2);
    ring.clear();
    EXPECT_TRUE(ring.empty());
}

TEST(Ring, WrapsAroundWithoutGrowing)
{
    Ring<int> ring = wrappedRing();
    EXPECT_EQ(contents(ring), (std::vector<int>{10, 11, 12, 13, 14, 15}));
    // Filling the remaining two slots still does not grow: the ring
    // holds exactly its capacity, across the wrap.
    ring.push_back(16);
    ring.push_back(17);
    EXPECT_EQ(ring.size(), 8u);
    for (int i = 10; i < 18; ++i) {
        EXPECT_EQ(ring.front(), i);
        ring.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(Ring, EraseAtHeadAdvancesFront)
{
    Ring<int> ring = wrappedRing();
    ring.erase(0, 2);
    EXPECT_EQ(contents(ring), (std::vector<int>{12, 13, 14, 15}));
    ring.erase(0, 4);
    EXPECT_TRUE(ring.empty());
    ring.push_back(7);
    EXPECT_EQ(ring.front(), 7);
}

TEST(Ring, EraseInTheMiddleKeepsOrder)
{
    // Gap nearer the front: the front side moves.
    Ring<int> ring = wrappedRing();
    ring.erase(1, 2);
    EXPECT_EQ(contents(ring), (std::vector<int>{10, 13, 14, 15}));
    // Gap nearer the back: the back side moves.
    ring = wrappedRing();
    ring.erase(3, 2);
    EXPECT_EQ(contents(ring), (std::vector<int>{10, 11, 12, 15}));
    // Pushes after an erase land behind the survivors.
    ring.push_back(16);
    EXPECT_EQ(contents(ring), (std::vector<int>{10, 11, 12, 15, 16}));
}

TEST(Ring, EraseAtTail)
{
    Ring<int> ring = wrappedRing();
    ring.erase(4, 2);
    EXPECT_EQ(contents(ring), (std::vector<int>{10, 11, 12, 13}));
    ring.erase(3, 1);
    EXPECT_EQ(contents(ring), (std::vector<int>{10, 11, 12}));
    ring.erase(1, 0); // empty range: no-op
    EXPECT_EQ(contents(ring), (std::vector<int>{10, 11, 12}));
}

TEST(Ring, GrowsPastTheHintKeepingOrder)
{
    // Grow while wrapped: relinearizing must keep FIFO order.
    Ring<int> ring = wrappedRing();
    for (int i = 16; i < 40; ++i)
        ring.push_back(i);
    ASSERT_EQ(ring.size(), 30u);
    for (size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring[i], int(10 + i));
    // A default-constructed ring allocates on first push.
    Ring<int> lazy;
    EXPECT_TRUE(lazy.empty());
    for (int i = 0; i < 9; ++i)
        lazy.push_back(i);
    EXPECT_EQ(contents(lazy),
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Ring, MatchesDequeUnderRandomOps)
{
    Rng rng(1234);
    Ring<int> ring(4);
    std::deque<int> ref;
    int next = 0;
    for (int step = 0; step < 20000; ++step) {
        unsigned op = unsigned(rng.below(8));
        if (op < 4 || ref.empty()) {
            ring.push_back(next);
            ref.push_back(next);
            ++next;
        } else if (op < 6) {
            ring.pop_front();
            ref.pop_front();
        } else {
            size_t idx = size_t(rng.below(ref.size()));
            size_t n = size_t(rng.below(ref.size() - idx + 1));
            ring.erase(idx, n);
            ref.erase(ref.begin() + long(idx),
                      ref.begin() + long(idx + n));
        }
        ASSERT_EQ(contents(ring), std::vector<int>(ref.begin(), ref.end()))
            << "after step " << step;
    }
}

} // namespace
} // namespace neurocube
