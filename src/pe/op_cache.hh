/**
 * @file
 * Sub-banked SRAM cache buffering out-of-order operand packets
 * (paper Section V-B, Fig. 11).
 *
 * Packets whose OP-ID is ahead of the PE's OP-counter are parked in
 * one of 16 sub-banks selected by OP-ID mod 16; each sub-bank holds up
 * to 64 entries (2.5 KB total: 20-bit words, 16 MACs, 4-deep
 * buffering). When the OP-counter advances, the PE performs a full
 * search of the corresponding sub-bank, which costs between 16 clock
 * cycles (one per MAC) and 64 (a full sub-bank scan).
 */

#ifndef NEUROCUBE_PE_OP_CACHE_HH
#define NEUROCUBE_PE_OP_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "noc/packet.hh"
#include "trace/trace.hh"

namespace neurocube
{

/** The PE's operand reorder cache. */
class OpCache
{
  public:
    /** Structural parameters. */
    struct Config
    {
        /** Number of sub-banks (paper: 16). */
        unsigned numSubBanks = 16;
        /** Entries per sub-bank (paper: 64). */
        unsigned entriesPerSubBank = 64;
    };

    /**
     * @param config structural parameters
     * @param parent stat group parent
     * @param trace_id owning PE index used for trace events
     * @param probe the owning machine's instrumentation
     */
    OpCache(const Config &config, StatGroup *parent,
            uint16_t trace_id = 0, Probe probe = {})
        : config_(config), traceId_(trace_id), probe_(probe),
          banks_(config.numSubBanks),
          statGroup_(parent, "cache"),
          statInserts_(&statGroup_, "inserts", "packets buffered"),
          statOverflows_(&statGroup_, "overflows",
                         "entries spilled beyond sub-bank capacity"),
          statPeakEntries_(&statGroup_, "peakEntries",
                           "peak total buffered entries")
    {
    }

    /** Sub-bank a given OP-ID maps to. */
    unsigned
    subBankOf(OpId op_id) const
    {
        return op_id % config_.numSubBanks;
    }

    /**
     * Buffer a packet.
     *
     * Inserts never fail: when the target sub-bank exceeds its
     * 64-entry capacity the entry spills, which is counted in the
     * overflow statistic. This keeps multi-vault operand streams
     * deadlock-free (a stalled sub-bank would otherwise block the
     * delivery of the very operand the OP-counter is waiting for);
     * the search-cost model already saturates at the sub-bank
     * capacity, so timing stays faithful. Paper-mode (duplicated)
     * configurations never overflow — the tests assert it.
     *
     * @param group neuron-group index of the packet
     * @param packet the operand
     */
    void
    insert(uint32_t group, const Packet &packet)
    {
        SubBank &bank = banks_[subBankOf(packet.opId)];
        if (bank.occupancy >= config_.entriesPerSubBank) {
            statOverflows_ += 1;
            NC_TRACE(probe_, TraceComponent::Pe, traceId_,
                     TraceEventType::CacheOverflow, packet.opId,
                     bank.occupancy);
        }
        bank.insert(key(group, packet.opId), packet);
        ++totalEntries_;
        if (totalEntries_ > statPeakEntries_.count())
            statPeakEntries_.set(double(totalEntries_));
        statInserts_ += 1;
        NC_TRACE(probe_, TraceComponent::Pe, traceId_,
                 TraceEventType::CacheInsert, packet.opId, totalEntries_);
    }

    /** Entries inserted beyond the hardware sub-bank capacity. */
    uint64_t overflows() const { return statOverflows_.count(); }

    /**
     * Full search of the sub-bank for (group, opId): matching entries
     * are removed and appended to @p out.
     *
     * @param group current neuron group
     * @param op_id current OP-counter value
     * @param out receives the extracted packets
     * @return entries scanned (the paper's 16..64-cycle search cost
     *         derives from this, clamped below by the MAC count)
     */
    unsigned
    extract(uint32_t group, OpId op_id, std::vector<Packet> &out)
    {
        SubBank &bank = banks_[subBankOf(op_id)];
        unsigned scanned = bank.occupancy;
        totalEntries_ -= bank.extract(key(group, op_id), out);
        return scanned;
    }

    /** Entries currently parked in the sub-bank serving op_id. */
    unsigned
    subBankOccupancy(OpId op_id) const
    {
        return banks_[subBankOf(op_id)].occupancy;
    }

    /** Total entries across all sub-banks. */
    unsigned totalEntries() const { return totalEntries_; }

    /** True when nothing is buffered. */
    bool empty() const { return totalEntries_ == 0; }

    /** Drop all contents (between passes). */
    void
    clear()
    {
        for (auto &bank : banks_)
            bank.clear();
        totalEntries_ = 0;
    }

    /** Structural parameters. */
    const Config &config() const { return config_; }

  private:
    /** Sequencing key of one buffered operation. */
    static uint64_t
    key(uint32_t group, OpId op_id)
    {
        return (uint64_t(group) << 32) | op_id;
    }

    /**
     * One sub-bank: an open-addressing key index over pooled
     * per-key packet buckets. Packets for the same (group, opId)
     * append to one contiguous bucket, so extraction order matches
     * insertion order exactly and the full-bucket copy on
     * extraction is a linear scan. Emptied buckets return to a free
     * list with their capacity intact, so steady-state inserts and
     * extractions never allocate — the per-key hash-node and vector
     * churn this replaces dominated the MAC-bound profile.
     */
    struct SubBank
    {
        /** One key cell: bucket < 0 marks the cell empty. */
        struct Cell
        {
            uint64_t key;
            int32_t bucket;
        };

        std::vector<Cell> cells_;
        std::vector<std::vector<Packet>> buckets_;
        std::vector<int32_t> freeBuckets_;
        size_t cellCount_ = 0;
        unsigned occupancy = 0;

        /** splitmix64 finalizer: cheap and well-mixed. */
        static size_t
        hashKey(uint64_t k)
        {
            k ^= k >> 33;
            k *= 0xff51afd7ed558ccdULL;
            k ^= k >> 33;
            k *= 0xc4ceb9fe1a85ec53ULL;
            k ^= k >> 33;
            return size_t(k);
        }

        void
        grow()
        {
            std::vector<Cell> old = std::move(cells_);
            size_t cap = old.empty() ? 32 : old.size() * 2;
            cells_.assign(cap, Cell{0, -1});
            for (const Cell &c : old) {
                if (c.bucket < 0)
                    continue;
                size_t mask = cells_.size() - 1;
                size_t i = hashKey(c.key) & mask;
                while (cells_[i].bucket >= 0)
                    i = (i + 1) & mask;
                cells_[i] = c;
            }
        }

        /** Find the cell for @p k, or nullptr. */
        Cell *
        find(uint64_t k)
        {
            if (cellCount_ == 0)
                return nullptr;
            size_t mask = cells_.size() - 1;
            size_t i = hashKey(k) & mask;
            while (cells_[i].bucket >= 0) {
                if (cells_[i].key == k)
                    return &cells_[i];
                i = (i + 1) & mask;
            }
            return nullptr;
        }

        void
        insert(uint64_t k, const Packet &packet)
        {
            if (cells_.empty() || cellCount_ * 2 >= cells_.size())
                grow();
            size_t mask = cells_.size() - 1;
            size_t i = hashKey(k) & mask;
            while (cells_[i].bucket >= 0 && cells_[i].key != k)
                i = (i + 1) & mask;
            Cell &c = cells_[i];
            if (c.bucket < 0) {
                if (!freeBuckets_.empty()) {
                    c.bucket = freeBuckets_.back();
                    freeBuckets_.pop_back();
                } else {
                    c.bucket = int32_t(buckets_.size());
                    buckets_.emplace_back();
                }
                c.key = k;
                ++cellCount_;
            }
            buckets_[c.bucket].push_back(packet);
            ++occupancy;
        }

        /**
         * Remove the bucket for @p k, appending its packets to
         * @p out in insertion order.
         *
         * @return number of packets extracted
         */
        unsigned
        extract(uint64_t k, std::vector<Packet> &out)
        {
            Cell *c = find(k);
            if (c == nullptr)
                return 0;
            std::vector<Packet> &bucket = buckets_[c->bucket];
            out.insert(out.end(), bucket.begin(), bucket.end());
            unsigned n = unsigned(bucket.size());
            bucket.clear();
            freeBuckets_.push_back(c->bucket);
            occupancy -= n;
            erase(size_t(c - cells_.data()));
            return n;
        }

        /** Backward-shift deletion keeps probe chains intact. */
        void
        erase(size_t i)
        {
            size_t mask = cells_.size() - 1;
            size_t j = i;
            while (true) {
                j = (j + 1) & mask;
                if (cells_[j].bucket < 0)
                    break;
                size_t ideal = hashKey(cells_[j].key) & mask;
                bool movable = (j > i) ? (ideal <= i || ideal > j)
                                       : (ideal <= i && ideal > j);
                if (movable) {
                    cells_[i] = cells_[j];
                    i = j;
                }
            }
            cells_[i].bucket = -1;
            --cellCount_;
        }

        void
        clear()
        {
            if (cellCount_ != 0)
                cells_.assign(cells_.size(), Cell{0, -1});
            cellCount_ = 0;
            freeBuckets_.clear();
            for (size_t b = 0; b < buckets_.size(); ++b) {
                buckets_[b].clear();
                freeBuckets_.push_back(int32_t(b));
            }
            occupancy = 0;
        }
    };

    Config config_;
    /** Owning PE index published with trace events. */
    uint16_t traceId_;
    Probe probe_;
    std::vector<SubBank> banks_;
    unsigned totalEntries_ = 0;

    StatGroup statGroup_;
    Stat statInserts_;
    Stat statOverflows_;
    Stat statPeakEntries_;
};

} // namespace neurocube

#endif // NEUROCUBE_PE_OP_CACHE_HH
