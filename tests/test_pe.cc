/**
 * @file
 * Unit tests for the processing element: OP-counter sequencing,
 * temporal buffer, operand cache and write-back generation.
 */

#include <gtest/gtest.h>

#include "noc/fabric.hh"
#include "pe/op_cache.hh"
#include "pe/pe.hh"
#include "pe/temporal_buffer.hh"

namespace neurocube
{
namespace
{

Packet
operand(PacketKind kind, MacId mac, OpId op, uint32_t group,
        double value, uint32_t neuron = 0)
{
    Packet p;
    p.kind = kind;
    p.dst = 0;
    p.mac = mac;
    p.opId = op;
    p.group = group;
    p.neuron = neuron;
    p.homeVault = 0;
    p.data = Fixed::fromDouble(value);
    return p;
}

/** Extract (group, op) into @p out; returns the entries scanned. */
unsigned
extractInto(OpCache &cache, uint32_t group, OpId op,
            std::vector<OpCache::Operand> &out)
{
    return cache.extract(group, op, [&out](const OpCache::Operand &o) {
        out.push_back(o);
    });
}

TEST(TemporalBuffer, CompleteRequiresBothOperands)
{
    TemporalBuffer buf;
    buf.putState(0, Fixed::fromDouble(1.0), 0, 0);
    EXPECT_FALSE(buf.complete(1));
    buf.putWeight(0, Fixed::fromDouble(2.0), 0, 0);
    EXPECT_TRUE(buf.complete(1));
    EXPECT_FALSE(buf.complete(2));
}

TEST(TemporalBuffer, CompleteCoversEveryMac)
{
    // A full group: every one of the PE's macsPerPe slots counts.
    TemporalBuffer buf;
    const MacId last = MacId(macsPerPe - 1);
    for (MacId m = 0; m < last; ++m) {
        buf.putState(m, Fixed::fromDouble(1.0), 0, 0);
        buf.putWeight(m, Fixed::fromDouble(2.0), 0, 0);
    }
    EXPECT_TRUE(buf.complete(last));
    EXPECT_FALSE(buf.complete(macsPerPe));
    buf.putWeight(last, Fixed::fromDouble(2.0), 0, 0);
    EXPECT_FALSE(buf.complete(macsPerPe));
    buf.putState(last, Fixed::fromDouble(1.0), 0, 0);
    EXPECT_TRUE(buf.complete(macsPerPe));
    buf.flush();
    EXPECT_TRUE(buf.complete(0));
    EXPECT_FALSE(buf.complete(1));
    EXPECT_DEATH(buf.putState(MacId(macsPerPe), Fixed{}, 0, 0),
                 "out of range");
}

TEST(TemporalBuffer, DuplicateOperandPanics)
{
    TemporalBuffer buf;
    buf.putState(1, Fixed::fromDouble(1.0), 0, 0);
    EXPECT_DEATH(buf.putState(1, Fixed::fromDouble(1.0), 0, 0),
                 "duplicate state");
    buf.putWeight(2, Fixed::fromDouble(1.0), 0, 0);
    EXPECT_DEATH(buf.putWeight(2, Fixed::fromDouble(1.0), 0, 0),
                 "duplicate weight");
}

TEST(OpCache, SubBankSelectionByOpIdMod16)
{
    StatGroup root(nullptr, "t");
    OpCache cache(&root);
    EXPECT_EQ(cache.subBankOf(0), 0u);
    EXPECT_EQ(cache.subBankOf(17), 1u);
    EXPECT_EQ(cache.subBankOf(255), 15u);
}

TEST(OpCache, InsertExtractRoundTrip)
{
    StatGroup root(nullptr, "t");
    OpCache cache(&root);
    Packet p = operand(PacketKind::State, 3, 5, 2, 1.5);
    cache.insert(2, p);
    EXPECT_EQ(cache.totalEntries(), 1u);

    std::vector<OpCache::Operand> out;
    // Wrong group: not extracted.
    extractInto(cache, 1, 5, out);
    EXPECT_TRUE(out.empty());
    // Right (group, op): extracted and removed.
    extractInto(cache, 2, 5, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].mac, 3);
    EXPECT_TRUE(cache.empty());
}

TEST(OpCache, OverflowCountedBeyondSubBankCapacity)
{
    StatGroup root(nullptr, "t");
    OpCache cache(&root);
    // Fill sub-bank 0 to its 64 entries: four operations of 16 MACs
    // each, whose OP-IDs (16, 48, 80, 112) all map to sub-bank 0.
    static_assert(OpCache::entriesPerSubBank == 64);
    for (OpId op : {16u, 48u, 80u, 112u}) {
        for (unsigned mac = 0; mac < macsPerPe; ++mac) {
            cache.insert(0, operand(PacketKind::State, MacId(mac), op,
                                    0, 1.0));
        }
    }
    EXPECT_EQ(cache.subBankOccupancy(0), 64u);
    EXPECT_EQ(cache.overflows(), 0u);
    // op 32 shares sub-bank 0 too: the 65th entry spills.
    cache.insert(0, operand(PacketKind::State, 5, 32, 0, 1.0));
    EXPECT_EQ(cache.overflows(), 1u);
    // A different sub-bank still has room.
    cache.insert(0, operand(PacketKind::State, 5, 17, 0, 1.0));
    EXPECT_EQ(cache.overflows(), 1u);
    // Spilled entries remain retrievable.
    std::vector<OpCache::Operand> out;
    extractInto(cache, 0, 32, out);
    ASSERT_EQ(out.size(), 1u);
}

TEST(OpCache, ExtractReportsScanCost)
{
    StatGroup root(nullptr, "t");
    OpCache cache(&root);
    for (unsigned i = 0; i < 10; ++i) {
        cache.insert(0, operand(PacketKind::State, MacId(i % 16),
                                16 * (i % 3), 0, 1.0));
    }
    std::vector<OpCache::Operand> out;
    unsigned scanned = extractInto(cache, 0, 0, out);
    EXPECT_EQ(scanned, 10u); // ops 0/16/32 all map to sub-bank 0
}

TEST(OpCache, InterleavedFarApartKeysKeepArrivalOrder)
{
    // Two sources interleave keys far apart in sequence: group 0
    // OP-IDs 1..40 and group 1 OP-IDs 200..240. Every key receives
    // three operands; MAC-ID r marks the r-th to arrive.
    StatGroup root(nullptr, "t");
    OpCache cache(&root);
    using Key = std::pair<uint32_t, OpId>;
    std::vector<Key> low, high;
    for (OpId op = 1; op <= 40; ++op)
        low.emplace_back(0, op);
    for (OpId op = 200; op <= 240; ++op)
        high.emplace_back(1, op);
    const unsigned perKey = 3;
    std::vector<unsigned> bank(16, 0); // expected sub-bank occupancy
    auto park = [&](Key key, unsigned r) {
        auto [group, op] = key;
        cache.insert(group, operand(PacketKind::State, MacId(r), op,
                                    group, 1.0, op * 10 + r));
        bank[op % 16] += 1;
    };
    for (unsigned r = 0; r < perKey; ++r) {
        for (size_t i = 0; i < high.size(); ++i) {
            if (i < low.size())
                park(low[i], r);
            park(high[i], r);
        }
    }
    unsigned total = unsigned(low.size() + high.size()) * perKey;
    ASSERT_EQ(cache.totalEntries(), total);

    // Drain in an order unrelated to arrival: the high keys from the
    // top, then the low keys from the bottom.
    std::vector<Key> order(high.rbegin(), high.rend());
    order.insert(order.end(), low.begin(), low.end());
    for (auto [group, op] : order) {
        std::vector<OpCache::Operand> out;
        unsigned scanned = extractInto(cache, group, op, out);
        EXPECT_EQ(scanned, bank[op % 16]);
        ASSERT_EQ(out.size(), perKey) << group << "/" << op;
        for (unsigned r = 0; r < perKey; ++r) {
            EXPECT_EQ(out[r].mac, MacId(r));
            EXPECT_EQ(out[r].neuron, op * 10 + r);
        }
        bank[op % 16] -= perKey;
        total -= perKey;
        EXPECT_EQ(cache.subBankOccupancy(op), bank[op % 16]);
        EXPECT_EQ(cache.totalEntries(), total);
        // A drained key yields nothing a second time.
        std::vector<OpCache::Operand> again;
        extractInto(cache, group, op, again);
        EXPECT_TRUE(again.empty());
        EXPECT_EQ(cache.totalEntries(), total);
    }
    EXPECT_TRUE(cache.empty());
}

class PeTest : public ::testing::Test
{
  protected:
    PeTest() : root_(nullptr, "t")
    {
        NocFabric::Config fc;
        fc.numNodes = 16;
        fabric_ = std::make_unique<NocFabric>(fc, &root_);
        pe_ = std::make_unique<Pe>(0, &root_);
    }

    void
    deliver(const Packet &p)
    {
        fabric_->peDelivery(0).push_back(p);
    }

    /** Tick the PE (and fabric) n times. */
    void
    run(Tick n)
    {
        for (Tick i = 0; i < n; ++i) {
            pe_->tick(now_, *fabric_);
            fabric_->tick(now_);
            ++now_;
        }
    }

    /** Collect write-backs that arrived at any memory port. */
    std::vector<Packet>
    writeBacks()
    {
        std::vector<Packet> out;
        for (unsigned v = 0; v < 16; ++v) {
            auto &q = fabric_->memDelivery(v);
            while (!q.empty()) {
                out.push_back(q.front());
                q.pop_front();
            }
        }
        return out;
    }

    StatGroup root_;
    std::unique_ptr<NocFabric> fabric_;
    std::unique_ptr<Pe> pe_;
    Tick now_ = 0;
};

TEST_F(PeTest, SingleNeuronDotProduct)
{
    PePassConfig cfg;
    cfg.enabled = true;
    cfg.numNeurons = 1;
    cfg.connections = 3;
    pe_->configurePass(cfg);

    // y = 1*2 + 3*4 + 5*0.5 = 16.5
    double states[3] = {1, 3, 5};
    double weights[3] = {2, 4, 0.5};
    for (OpId op = 0; op < 3; ++op) {
        deliver(operand(PacketKind::State, 0, op, 0, states[op], 42));
        deliver(operand(PacketKind::Weight, 0, op, 0, weights[op], 42));
    }
    run(200);
    EXPECT_TRUE(pe_->done());
    auto wbs = writeBacks();
    ASSERT_EQ(wbs.size(), 1u);
    EXPECT_DOUBLE_EQ(wbs[0].data.toDouble(), 16.5);
    EXPECT_EQ(wbs[0].neuron, 42u);
    EXPECT_EQ(wbs[0].kind, PacketKind::WriteBack);
}

TEST_F(PeTest, OutOfOrderOperandsBufferedInCache)
{
    PePassConfig cfg;
    cfg.enabled = true;
    cfg.numNeurons = 1;
    cfg.connections = 2;
    pe_->configurePass(cfg);

    // Deliver op 1 before op 0: it must wait in the cache.
    deliver(operand(PacketKind::State, 0, 1, 0, 3.0));
    deliver(operand(PacketKind::Weight, 0, 1, 0, 1.0));
    run(50);
    EXPECT_EQ(pe_->opCounter(), 0u);
    EXPECT_FALSE(pe_->done());

    deliver(operand(PacketKind::State, 0, 0, 0, 2.0));
    deliver(operand(PacketKind::Weight, 0, 0, 0, 1.0));
    run(200);
    EXPECT_TRUE(pe_->done());
    auto wbs = writeBacks();
    ASSERT_EQ(wbs.size(), 1u);
    EXPECT_DOUBLE_EQ(wbs[0].data.toDouble(), 5.0);
}

TEST_F(PeTest, SixteenMacsInParallel)
{
    PePassConfig cfg;
    cfg.enabled = true;
    cfg.numNeurons = 16;
    cfg.connections = 1;
    pe_->configurePass(cfg);

    for (MacId m = 0; m < 16; ++m) {
        deliver(operand(PacketKind::State, m, 0, 0, double(m), m));
        deliver(operand(PacketKind::Weight, m, 0, 0, 2.0, m));
    }
    run(300);
    EXPECT_TRUE(pe_->done());
    auto wbs = writeBacks();
    ASSERT_EQ(wbs.size(), 16u);
    for (const Packet &wb : wbs)
        EXPECT_DOUBLE_EQ(wb.data.toDouble(), 2.0 * wb.neuron);
}

TEST_F(PeTest, PartialLastGroup)
{
    // 20 neurons: one full group of 16, one partial group of 4.
    PePassConfig cfg;
    cfg.enabled = true;
    cfg.numNeurons = 20;
    cfg.connections = 1;
    pe_->configurePass(cfg);

    for (MacId m = 0; m < 16; ++m) {
        deliver(operand(PacketKind::State, m, 0, 0, 1.0, m));
        deliver(operand(PacketKind::Weight, m, 0, 0, 1.0, m));
    }
    for (MacId m = 0; m < 4; ++m) {
        deliver(operand(PacketKind::State, m, 0, 1, 1.0, 16u + m));
        deliver(operand(PacketKind::Weight, m, 0, 1, 1.0, 16u + m));
    }
    run(400);
    EXPECT_TRUE(pe_->done());
    EXPECT_EQ(writeBacks().size(), 20u);
    EXPECT_EQ(pe_->macOps(), 20u);
}

TEST_F(PeTest, MacThroughputSixteenTicksPerFlush)
{
    // Two back-to-back ops for one MAC cannot flush faster than the
    // MAC clock (f_PE / 16).
    PePassConfig cfg;
    cfg.enabled = true;
    cfg.numNeurons = 1;
    cfg.connections = 2;
    pe_->configurePass(cfg);
    for (OpId op = 0; op < 2; ++op) {
        deliver(operand(PacketKind::State, 0, op, 0, 1.0));
        deliver(operand(PacketKind::Weight, 0, op, 0, 1.0));
    }
    Tick start = now_;
    Tick done_at = 0;
    for (Tick i = 0; i < 300 && done_at == 0; ++i) {
        pe_->tick(now_, *fabric_);
        fabric_->tick(now_);
        ++now_;
        if (pe_->done())
            done_at = now_;
    }
    ASSERT_GT(done_at, 0u);
    EXPECT_GE(done_at - start, 16u);
}

TEST_F(PeTest, LocalWeightMemorySuppliesWeights)
{
    PePassConfig cfg;
    cfg.enabled = true;
    cfg.numNeurons = 1;
    cfg.connections = 2;
    cfg.localWeights = {Fixed::fromDouble(2.0), Fixed::fromDouble(3.0)};
    pe_->configurePass(cfg);

    deliver(operand(PacketKind::State, 0, 0, 0, 1.0));
    deliver(operand(PacketKind::State, 0, 1, 0, 1.0));
    run(200);
    EXPECT_TRUE(pe_->done());
    auto wbs = writeBacks();
    ASSERT_EQ(wbs.size(), 1u);
    EXPECT_DOUBLE_EQ(wbs[0].data.toDouble(), 5.0);
}

TEST_F(PeTest, WriteBackRoutedToHomeVault)
{
    PePassConfig cfg;
    cfg.enabled = true;
    cfg.numNeurons = 1;
    cfg.connections = 1;
    pe_->configurePass(cfg);
    Packet s = operand(PacketKind::State, 0, 0, 0, 1.0, 9);
    Packet w = operand(PacketKind::Weight, 0, 0, 0, 1.0, 9);
    s.homeVault = 7;
    w.homeVault = 7;
    deliver(s);
    deliver(w);
    run(300);
    EXPECT_EQ(fabric_->memDelivery(7).size(), 1u);
}

TEST_F(PeTest, DisabledPeIgnoresEverything)
{
    PePassConfig cfg;
    cfg.enabled = false;
    pe_->configurePass(cfg);
    run(10);
    EXPECT_TRUE(pe_->done());
    EXPECT_EQ(pe_->macOps(), 0u);
}

} // namespace
} // namespace neurocube
