/**
 * @file
 * Unit tests for the DRAM channel timing model and backing store.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/rng.hh"
#include "dram/backing_store.hh"
#include "dram/dram_params.hh"
#include "dram/memory_channel.hh"

namespace neurocube
{
namespace
{

TEST(DramParams, TableOneValues)
{
    DramParams hmc = DramParams::hmcInternal();
    EXPECT_EQ(hmc.numChannels, 16u);
    EXPECT_EQ(hmc.wordBits, 32u);
    // One 32-bit word per 5 GHz tick (the Section VI burst rate).
    EXPECT_DOUBLE_EQ(hmc.peakBandwidthGBps, 20.0);
    EXPECT_EQ(hmc.elementsPerWord(), 2u);

    DramParams ddr = DramParams::ddr3();
    EXPECT_EQ(ddr.numChannels, 2u);
    EXPECT_EQ(ddr.wordBits, 64u);
    EXPECT_EQ(ddr.elementsPerWord(), 4u);
}

TEST(DramParams, HmcRateIsOneWordPerTick)
{
    // The paper's simulator pushes one 32-bit word per 5 GHz cycle
    // per vault in burst mode (Section VI).
    DramParams hmc = DramParams::hmcInternal();
    EXPECT_NEAR(hmc.wordsPerTick(), 1.0, 1e-9);
}

TEST(DramParams, ActivateTicksRoundsUp)
{
    DramParams hmc = DramParams::hmcInternal();
    // 27.5 ns at 5 GHz = 137.5 -> 138 ticks.
    EXPECT_EQ(hmc.activateTicks(), 138u);
}

TEST(BackingStore, ReadWriteAndDefaultZero)
{
    BackingStore store;
    EXPECT_EQ(store.read(100).raw(), 0);
    store.write(100, Fixed::fromDouble(2.5));
    EXPECT_DOUBLE_EQ(store.read(100).toDouble(), 2.5);
}

TEST(BackingStore, AllocatorBumpsAndTracks)
{
    BackingStore store;
    Region a = store.allocate(10);
    Region b = store.allocate(5);
    EXPECT_EQ(a.base, 0u);
    EXPECT_EQ(b.base, 10u);
    EXPECT_EQ(store.allocatedElements(), 15u);
    EXPECT_EQ(store.allocatedBytes(), 30u);
    EXPECT_TRUE(a.contains(9));
    EXPECT_FALSE(a.contains(10));
}

class ChannelTest : public ::testing::Test
{
  protected:
    ChannelTest()
        : params_(makeParams()), root_(nullptr, "test"),
          channel_(params_, &root_, "ch")
    {
    }

    static DramParams
    makeParams()
    {
        DramParams p = DramParams::hmcInternal();
        // Full-rate channel for deterministic timing in tests.
        p.peakBandwidthGBps = 20.0; // 1 word/tick
        return p;
    }

    /** Run the channel for n ticks, collecting responses. */
    std::vector<MemResponse>
    run(Tick n)
    {
        std::vector<MemResponse> out;
        for (Tick t = 0; t < n; ++t) {
            channel_.tick(now_++);
            while (!channel_.responses().empty()) {
                out.push_back(channel_.responses().front());
                channel_.responses().pop_front();
            }
        }
        return out;
    }

    DramParams params_;
    StatGroup root_;
    MemoryChannel channel_;
    Tick now_ = 0;
};

TEST_F(ChannelTest, ServicesReadsInOrder)
{
    channel_.store().write(0, Fixed::fromDouble(1.0));
    channel_.store().write(1, Fixed::fromDouble(2.0));
    channel_.enqueue({false, 0, Fixed(), 7});
    channel_.enqueue({false, 1, Fixed(), 8});
    auto responses = run(200);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].tag, 7u);
    EXPECT_DOUBLE_EQ(responses[0].data.toDouble(), 1.0);
    EXPECT_EQ(responses[1].tag, 8u);
    EXPECT_DOUBLE_EQ(responses[1].data.toDouble(), 2.0);
}

TEST_F(ChannelTest, PacksTwoElementsPerWord)
{
    // Both elements are in the same row: one word services both, so
    // they complete on the same tick.
    channel_.enqueue({false, 0, Fixed(), 0});
    channel_.enqueue({false, 1, Fixed(), 1});
    Tick first = 0, second = 0;
    for (Tick t = 0; t < 300 && second == 0; ++t) {
        channel_.tick(now_++);
        while (!channel_.responses().empty()) {
            if (channel_.responses().front().tag == 0)
                first = t;
            else
                second = t;
            channel_.responses().pop_front();
        }
    }
    EXPECT_EQ(first, second);
}

TEST_F(ChannelTest, ColdStartPaysActivation)
{
    channel_.enqueue({false, 0, Fixed(), 0});
    Tick done = 0;
    for (Tick t = 0; t < 400 && done == 0; ++t) {
        channel_.tick(now_++);
        if (!channel_.responses().empty())
            done = t;
    }
    // First access must wait out tRCD + tCL (138 ticks at 5 GHz).
    EXPECT_GE(done, params_.activateTicks() - 1);
}

TEST_F(ChannelTest, BurstGapEnforced)
{
    // Stream 64 sequential elements (32 words = 4 bursts) and check
    // the total time exceeds the pure transfer time by the gaps.
    for (Addr a = 0; a < 64; ++a)
        channel_.enqueue({false, a, Fixed(), a});
    size_t seen = 0;
    Tick last = 0;
    for (Tick t = 0; t < 1000 && seen < 64; ++t) {
        channel_.tick(now_++);
        while (!channel_.responses().empty()) {
            ++seen;
            last = t;
            channel_.responses().pop_front();
        }
    }
    ASSERT_EQ(seen, 64u);
    // 32 words in bursts of 8 with 1-tick gaps: >= 35 ticks of
    // transfer beyond the activation.
    EXPECT_GE(last, params_.activateTicks() + 32 + 3 - 1);
}

TEST_F(ChannelTest, WritesLandInStore)
{
    channel_.enqueue({true, 5, Fixed::fromDouble(-1.5), 0});
    run(300);
    EXPECT_DOUBLE_EQ(channel_.store().read(5).toDouble(), -1.5);
    EXPECT_TRUE(channel_.idle());
}

TEST_F(ChannelTest, ResponseBacklogStallsChannel)
{
    for (Addr a = 0; a < 64; ++a)
        channel_.enqueue({false, a, Fixed(), a});
    // Never drain responses: the channel must stop at the backlog
    // limit instead of buffering unboundedly.
    for (Tick t = 0; t < 600; ++t)
        channel_.tick(now_++);
    EXPECT_LE(channel_.responses().size(),
              MemoryChannel::responseBacklogLimit + 1);
    EXPECT_FALSE(channel_.canAccept() && channel_.idle());
}

TEST_F(ChannelTest, RowMissStallsUntilActivation)
{
    // Two reads in different rows of the same bank cannot proceed
    // back-to-back; the second waits for its activation. Row 17
    // hashes to bank 0 like row 0 does ((17 ^ 1) % 16 == 0).
    unsigned row_elems = params_.elementsPerRow();
    Addr same_bank_far = Addr(row_elems) * 17;
    channel_.enqueue({false, 0, Fixed(), 0});
    channel_.enqueue({false, same_bank_far, Fixed(), 1});
    Tick first = 0, second = 0;
    for (Tick t = 0; t < 1000 && second == 0; ++t) {
        channel_.tick(now_++);
        while (!channel_.responses().empty()) {
            if (channel_.responses().front().tag == 0)
                first = t;
            else
                second = t;
            channel_.responses().pop_front();
        }
    }
    ASSERT_GT(second, 0u);
    EXPECT_GE(second - first, params_.activateTicks() - 1);
}

TEST_F(ChannelTest, RowHitOvertakesHeadWaitingOnActivation)
{
    // FR-FCFS: open row 0 (bank 0), then queue reads that alternate
    // between row 1 (bank 1, needs an activation) and row 0. The
    // row-0 hits behind the waiting head are served first, one from
    // the middle of the queue at a time; the row-1 reads keep their
    // order and tags.
    const Addr row1 = params_.elementsPerRow();
    for (Addr a = 0; a < 8; ++a) {
        channel_.store().write(a, Fixed::fromRaw(int16_t(100 + a)));
        channel_.store().write(row1 + a,
                               Fixed::fromRaw(int16_t(200 + a)));
    }
    channel_.enqueue({false, 0, Fixed(), 0});
    ASSERT_EQ(run(300).size(), 1u);

    channel_.enqueue({false, row1 + 0, Fixed(), 1});
    channel_.enqueue({false, 2, Fixed(), 2});
    channel_.enqueue({false, row1 + 1, Fixed(), 3});
    channel_.enqueue({false, 4, Fixed(), 4});
    channel_.enqueue({false, row1 + 2, Fixed(), 5});
    auto responses = run(400);
    ASSERT_EQ(responses.size(), 5u);
    const uint64_t want_tags[] = {2, 4, 1, 3, 5};
    const Addr want_addrs[] = {2, 4, row1 + 0, row1 + 1, row1 + 2};
    for (size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(responses[i].tag, want_tags[i]) << "response " << i;
        EXPECT_EQ(responses[i].addr, want_addrs[i]) << "response " << i;
        EXPECT_EQ(responses[i].data,
                  channel_.store().read(want_addrs[i]));
    }
    EXPECT_TRUE(channel_.idle());
}

TEST_F(ChannelTest, ResetTimingMidStreamReactivatesRows)
{
    // Stream one row and stop in the burst gap after the first burst
    // (8 words, 16 elements), with the row open. resetTiming then
    // closes every bank while 48 reads still wait and no new request
    // arrives: the lookahead must activate the row again on its own,
    // or the reads wait forever.
    for (Addr a = 0; a < MemoryChannel::queueCapacity; ++a)
        channel_.enqueue({false, a, Fixed(), a});
    size_t seen = 0;
    for (int t = 0; t < 400 && seen < 16; ++t)
        seen += run(1).size();
    ASSERT_EQ(seen, 16u);
    ASSERT_TRUE(run(1).empty()); // the tCCD gap tick
    channel_.resetTiming();
    seen += run(1000).size();
    EXPECT_EQ(seen, size_t(MemoryChannel::queueCapacity));
    EXPECT_TRUE(channel_.idle());
}

TEST_F(ChannelTest, HazardBehindLongReadQueueDrainsTheWrite)
{
    // A write to row 3 waits in the buffer behind 64 row-0 reads. In
    // the burst gap after the first 16 reads, a read of the written
    // address arrives at index 48, outside the read queue's lookahead
    // window. Its hazard flips the channel to draining writes; the
    // lookahead must then walk the write queue and activate row 3, or
    // the drain stalls with the row closed.
    const Addr hazard = Addr(params_.elementsPerRow()) * 3 + 5;
    const Addr reads = MemoryChannel::queueCapacity;
    for (Addr a = 0; a < reads; ++a) {
        channel_.enqueue({false, a, Fixed(), a});
        if (a == reads - 2) // canAccept() needs a free read slot too
            channel_.enqueue({true, hazard, Fixed::fromDouble(7.5), 0});
    }
    size_t seen = 0;
    for (int t = 0; t < 400 && seen < 16; ++t)
        seen += run(1).size();
    ASSERT_EQ(seen, 16u);
    ASSERT_TRUE(run(1).empty()); // the tCCD gap tick
    channel_.enqueue({false, hazard, Fixed(), 99});
    auto responses = run(2000);
    ASSERT_EQ(seen + responses.size(),
              size_t(MemoryChannel::queueCapacity) + 1);
    EXPECT_EQ(responses.back().tag, 99u);
    EXPECT_DOUBLE_EQ(responses.back().data.toDouble(), 7.5);
    EXPECT_TRUE(channel_.idle());
}

TEST_F(ChannelTest, EnqueueOnFullQueuePanics)
{
    for (Addr a = 0; a < MemoryChannel::queueCapacity; ++a)
        channel_.enqueue({false, a, Fixed(), a});
    EXPECT_FALSE(channel_.canAccept());
    EXPECT_DEATH(channel_.enqueue({false, 99, Fixed(), 99}),
                 "enqueue on a full channel queue");
}

TEST_F(ChannelTest, ReadAfterBufferedWriteReturnsNewValue)
{
    // A read that targets an address sitting in the write buffer
    // must observe the written value (the hazard forces a drain).
    channel_.store().write(9, Fixed::fromDouble(1.0));
    channel_.enqueue({true, 9, Fixed::fromDouble(7.5), 0});
    channel_.enqueue({false, 9, Fixed(), 1});
    auto responses = run(600);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_DOUBLE_EQ(responses[0].data.toDouble(), 7.5);
}

TEST_F(ChannelTest, ReadInsideWriteRangeWithoutMatchDoesNotDrain)
{
    // Buffered writes to 100 and 200 span [100, 200]. A read of 150
    // falls inside that range but matches neither write, so it is
    // served before the writes drain; a read of 200 would have
    // drained them first (ReadAfterBufferedWriteReturnsNewValue).
    channel_.store().write(100, Fixed::fromDouble(1.0));
    channel_.store().write(200, Fixed::fromDouble(1.0));
    channel_.enqueue({true, 100, Fixed::fromDouble(7.5), 0});
    channel_.enqueue({true, 200, Fixed::fromDouble(7.5), 0});
    channel_.enqueue({false, 150, Fixed(), 1});
    std::vector<MemResponse> responses;
    for (int t = 0; t < 600 && responses.empty(); ++t)
        responses = run(1);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].tag, 1u);
    EXPECT_DOUBLE_EQ(channel_.store().read(100).toDouble(), 1.0);
    EXPECT_DOUBLE_EQ(channel_.store().read(200).toDouble(), 1.0);
    run(600);
    EXPECT_TRUE(channel_.idle());
    EXPECT_DOUBLE_EQ(channel_.store().read(200).toDouble(), 7.5);
}

TEST_F(ChannelTest, ReadOfWriteEnqueuedAfterPartialDrainDrains)
{
    // 40 writes to row 4 pass the high watermark and drain down to
    // the low one while eight row-0 reads wait. Once reads resume,
    // a write to row 9, outside every earlier write's address, joins
    // the writes still buffered, and a read of it follows. That read
    // must drain the buffer and see the new value; without the
    // hazard it would be served from row 9 before the write.
    const Addr row = params_.elementsPerRow();
    for (Addr a = 0; a < 8; ++a)
        channel_.enqueue({false, a, Fixed(), a});
    for (Addr i = 0; i < 40; ++i)
        channel_.enqueue({true, 4 * row + i, Fixed::fromDouble(0.5), 0});
    std::vector<MemResponse> responses;
    for (int t = 0; t < 2000 && responses.empty(); ++t)
        responses = run(1);
    ASSERT_FALSE(responses.empty());
    unsigned landed = 0;
    for (Addr i = 0; i < 40; ++i)
        landed += channel_.store().read(4 * row + i).raw() != 0;
    ASSERT_GT(landed, 0u);
    ASSERT_LT(landed, 40u); // a partial drain: writes still buffered

    const Addr late = 9 * row + 3;
    channel_.enqueue({true, late, Fixed::fromDouble(9.5), 0});
    channel_.enqueue({false, late, Fixed(), 99});
    for (const MemResponse &r : run(3000))
        responses.push_back(r);
    ASSERT_EQ(responses.size(), 9u);
    auto it = std::find_if(responses.begin(), responses.end(),
                           [](const MemResponse &r) { return r.tag == 99; });
    ASSERT_NE(it, responses.end());
    EXPECT_DOUBLE_EQ(it->data.toDouble(), 9.5);
    EXPECT_TRUE(channel_.idle());
}

TEST_F(ChannelTest, WritesDrainWhenReadsRunOut)
{
    // A lone write must not linger: with no reads queued the drain
    // policy flushes it.
    channel_.enqueue({true, 3, Fixed::fromDouble(2.0), 0});
    run(400);
    EXPECT_TRUE(channel_.idle());
    EXPECT_DOUBLE_EQ(channel_.store().read(3).toDouble(), 2.0);
}

TEST_F(ChannelTest, WriteBurstAmortizesRowActivations)
{
    // 48 writes into one output row drain in batches: far fewer
    // activations than writes.
    for (Addr a = 0; a < 48 && channel_.canAccept(); ++a)
        channel_.enqueue({true, 5000 + a, Fixed::fromDouble(0.5), a});
    run(1200);
    EXPECT_TRUE(channel_.idle());
    for (Addr a = 0; a < 48; ++a)
        EXPECT_DOUBLE_EQ(channel_.store().read(5000 + a).toDouble(),
                         0.5);
}

TEST_F(ChannelTest, InterleavedReadsAndWritesAllComplete)
{
    // Mixed traffic: reads of one region, writes to another; every
    // request completes and reads see pre-write contents (disjoint
    // addresses).
    for (Addr a = 0; a < 16; ++a)
        channel_.store().write(a, Fixed::fromRaw(int16_t(a)));
    unsigned issued_reads = 0;
    for (Addr a = 0; a < 16; ++a) {
        channel_.enqueue({false, a, Fixed(), a});
        ++issued_reads;
        channel_.enqueue({true, 9000 + a,
                          Fixed::fromRaw(int16_t(100 + a)), a});
    }
    auto responses = run(1500);
    EXPECT_TRUE(channel_.idle());
    ASSERT_EQ(responses.size(), size_t(issued_reads));
    for (const MemResponse &r : responses)
        EXPECT_EQ(r.data.raw(), int16_t(r.addr));
    for (Addr a = 0; a < 16; ++a) {
        EXPECT_EQ(channel_.store().read(9000 + a).raw(),
                  int16_t(100 + a));
    }
}

TEST_F(ChannelTest, EnergyTracksBits)
{
    channel_.enqueue({false, 0, Fixed(), 0});
    channel_.enqueue({false, 1, Fixed(), 1});
    run(300);
    EXPECT_EQ(channel_.bitsTransferred(), 32u);
    EXPECT_NEAR(channel_.energyJoules(),
                32 * params_.energyPjPerBit * 1e-12, 1e-18);
}

TEST(ChannelParams, RejectsNonPowerOfTwoGeometry)
{
    // rowOf() shifts and bankOfRow() masks, so both counts must be
    // powers of two; the message names the offending field.
    StatGroup root(nullptr, "t");
    DramParams rows = DramParams::hmcInternal();
    rows.rowBytes = 3000;
    EXPECT_DEATH(MemoryChannel(rows, &root, "ch"),
                 "dram.rowBytes / bytesPerElement \\(1500\\)");
    DramParams banks = DramParams::hmcInternal();
    banks.banksPerChannel = 12;
    EXPECT_DEATH(MemoryChannel(banks, &root, "ch"),
                 "dram.banksPerChannel \\(12\\)");
}

TEST(RowRunQueue, RunWalkMatchesEntryScan)
{
    // Random enqueues and serves from the front of any run (mid-queue
    // serves included, as FR-FCFS makes them), checked after every
    // step against a plain list of each request's row: the runs tile
    // the list, the lookahead's run walk meets the rows a per-entry
    // scan sees change, and the first open run starts at the first
    // open entry a per-entry scan finds.
    const size_t window = MemoryChannel::lookaheadWindow;
    ASSERT_EQ(MemoryChannel::reorderWindow, window);
    auto bank_of = [](uint64_t row) { return unsigned(row % 3); };
    Rng rng(24);
    RowRunQueue queue;
    std::vector<std::pair<uint64_t, uint64_t>> model; // (tag, row)
    uint64_t next_tag = 0;
    uint64_t last_row = 0;
    unsigned mid_serves = 0;
    unsigned merges = 0;
    unsigned runs_at_window = 0;
    for (int step = 0; step < 20000; ++step) {
        // Phases of 500 steps fill or drain the queue, with short or
        // long runs, so runs often start right at the window's end.
        const unsigned phase = unsigned(step / 500) % 4;
        const uint64_t pushes_in_4 = (phase & 1) ? 3 : 1;
        const uint64_t new_row_odds = (phase & 2) ? 12 : 2;
        if (queue.empty()
            || (queue.size() < MemoryChannel::queueCapacity
                && rng.below(4) < pushes_in_4)) {
            // Streams repeat their row; five rows make equal-row
            // neighbours common.
            if (rng.below(new_row_odds) == 0)
                last_row = rng.below(5);
            MemRequest req;
            req.tag = next_tag++;
            queue.push_back(req, last_row, bank_of(last_row));
            model.emplace_back(req.tag, last_row);
        } else {
            const size_t k = rng.below(queue.runCount());
            size_t first = 0;
            for (size_t j = 0; j < k; ++j)
                first += queue.run(j).count;
            const size_t count = queue.run(k).count;
            const size_t n = rng.below(2) == 0 ? count
                                               : 1 + rng.below(count);
            mid_serves += k > 0;
            merges += n == count && k > 0 && k + 1 < queue.runCount()
                   && queue.run(k - 1).row == queue.run(k + 1).row;
            queue.eraseRunFront(k, first, n);
            model.erase(model.begin() + first, model.begin() + first + n);
        }

        ASSERT_EQ(queue.size(), model.size()) << "step " << step;
        size_t at = 0;
        for (size_t k = 0; k < queue.runCount(); ++k) {
            const RowRunQueue::Run &run = queue.run(k);
            ASSERT_GT(run.count, 0u) << "step " << step;
            ASSERT_EQ(run.bank, bank_of(run.row));
            runs_at_window += at == window;
            if (k > 0) {
                ASSERT_NE(run.row, queue.run(k - 1).row)
                    << "step " << step;
            }
            for (unsigned i = 0; i < run.count; ++i, ++at) {
                ASSERT_EQ(queue[at].tag, model[at].first);
                ASSERT_EQ(run.row, model[at].second) << "step " << step;
            }
        }
        ASSERT_EQ(at, model.size());

        // Lookahead candidates: up to lookaheadRows row changes
        // inside the window.
        std::vector<std::pair<size_t, uint64_t>> walked, scanned;
        queue.walkRuns(window, MemoryChannel::lookaheadRows,
                       [&](size_t k, size_t first) {
            walked.emplace_back(first, queue.run(k).row);
            return false;
        });
        const size_t end = std::min(model.size(), window);
        for (size_t i = 0;
             i < end && scanned.size() < MemoryChannel::lookaheadRows;
             ++i) {
            if (i == 0 || model[i].second != model[i - 1].second)
                scanned.emplace_back(i, model[i].second);
        }
        ASSERT_EQ(walked, scanned) << "step " << step;

        // FR-FCFS pick under a random set of open rows.
        const uint64_t open_rows = rng.below(32);
        auto open = [&](uint64_t row) { return (open_rows >> row) & 1; };
        size_t picked = SIZE_MAX;
        queue.walkRuns(window, SIZE_MAX, [&](size_t k, size_t first) {
            if (!open(queue.run(k).row))
                return false;
            picked = first;
            return true;
        });
        size_t want = SIZE_MAX;
        for (size_t i = 0; i < end && want == SIZE_MAX; ++i) {
            if (open(model[i].second))
                want = i;
        }
        ASSERT_EQ(picked, want) << "step " << step;
    }
    EXPECT_GT(mid_serves, 1000u);
    EXPECT_GT(merges, 100u);
    EXPECT_GT(runs_at_window, 100u);
}

TEST(ChannelRate, Ddr3SlowerThanReference)
{
    // DDR3 delivers 12.8 GB/s over 8-byte words = 1.6 Gwords/s, i.e.
    // 0.32 words per 5 GHz tick.
    DramParams ddr = DramParams::ddr3();
    EXPECT_NEAR(ddr.wordsPerTick(), 0.32, 1e-9);

    StatGroup root(nullptr, "t");
    MemoryChannel channel(ddr, &root, "ddr");
    Tick now = 0;
    size_t seen = 0;
    Addr issued = 0;
    Tick last = 0;
    while (now < 5000 && seen < 256) {
        while (issued < 256 && channel.canAccept())
            channel.enqueue({false, issued, Fixed(), issued}), ++issued;
        channel.tick(now++);
        while (!channel.responses().empty()) {
            ++seen;
            last = now;
            channel.responses().pop_front();
        }
    }
    ASSERT_EQ(seen, 256u);
    // 64 words at 0.32 words/tick = 200 ticks minimum transfer time.
    EXPECT_GE(last, 200u);
}

} // namespace
} // namespace neurocube
