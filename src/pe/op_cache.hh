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
 *
 * The timing model needs only each sub-bank's occupancy, so the
 * sub-banks are counters. The parked operands themselves live in one
 * arena of 16-byte records per PE, linked per (group, OP-ID) key in
 * arrival order and found through one open-addressing index over the
 * live keys; extracted records go back on an intrusive free list.
 * Host memory therefore follows how many operands are parked, not how
 * far ahead of the OP-counter they are.
 */

#ifndef NEUROCUBE_PE_OP_CACHE_HH
#define NEUROCUBE_PE_OP_CACHE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/fixed_point.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "noc/packet.hh"
#include "trace/trace.hh"

namespace neurocube
{

/** The PE's operand reorder cache. */
class OpCache
{
  public:
    /** Number of sub-banks (paper: 16). */
    static constexpr unsigned numSubBanks = 16;
    /** Entries per sub-bank (paper: 64). */
    static constexpr unsigned entriesPerSubBank = 64;

    /**
     * What staging reads of an operand packet: the payload, its MAC
     * slot and the output neuron it feeds. The (group, OP-ID) key is
     * held once per key by the index, not per operand.
     */
    struct Operand
    {
        uint32_t neuron = 0;
        Fixed data{};
        MacId mac = 0;
        VaultId homeVault = 0;
        PacketKind kind = PacketKind::State;

        static Operand
        of(const Packet &packet)
        {
            return {packet.neuron, packet.data, packet.mac,
                    packet.homeVault, packet.kind};
        }
    };

    /**
     * @param parent stat group parent
     * @param trace_id owning PE index used for trace events
     * @param probe the owning machine's instrumentation
     */
    OpCache(StatGroup *parent, uint16_t trace_id = 0, Probe probe = {})
        : traceId_(trace_id), probe_(probe),
          statGroup_(parent, "cache"),
          statInserts_(&statGroup_, "inserts", "packets buffered"),
          statOverflows_(&statGroup_, "overflows",
                         "entries spilled beyond sub-bank capacity"),
          statPeakEntries_(&statGroup_, "peakEntries",
                           "peak total buffered entries")
    {
    }

    /** Sub-bank a given OP-ID maps to. */
    static unsigned
    subBankOf(OpId op_id)
    {
        return op_id % numSubBanks;
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
     * capacity, so timing stays faithful. Duplicated (paper-mode)
     * runs whose per-plane tiles are a multiple of 16 neurons do not
     * overflow, which Integration.DuplicatedModeNeverOverflowsOpCache
     * asserts; other duplicated runs can (DESIGN.md 5b item 6).
     *
     * @param group neuron-group index of the packet
     * @param packet the operand
     */
    void
    insert(uint32_t group, const Packet &packet)
    {
        unsigned &occupancy = occupancy_[subBankOf(packet.opId)];
        if (occupancy >= entriesPerSubBank) {
            statOverflows_ += 1;
            NC_TRACE(probe_, TraceComponent::Pe, traceId_,
                     TraceEventType::CacheOverflow, packet.opId,
                     occupancy);
        }
        ++occupancy;
        uint32_t record = allocate(Operand::of(packet));
        if (cells_.empty() || liveKeys_ * 2 >= cells_.size())
            grow();
        uint64_t k = key(group, packet.opId);
        Cell &cell = cells_[cellFor(k)];
        if (cell.head == none) {
            cell.key = k;
            cell.head = record;
            ++liveKeys_;
        } else {
            records_[cell.tail].next = record;
        }
        cell.tail = record;
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
     * Full search of the sub-bank for (group, opId): each matching
     * operand is handed to @p stage in arrival order, then the key's
     * records return to the free list.
     *
     * @param group current neuron group
     * @param op_id current OP-counter value
     * @param stage called as stage(const Operand &) per match; it
     *        must not insert into this cache
     * @return entries scanned (the paper's 16..64-cycle search cost
     *         derives from this, clamped below by the MAC count)
     */
    template <typename Stage>
    unsigned
    extract(uint32_t group, OpId op_id, Stage &&stage)
    {
        unsigned &occupancy = occupancy_[subBankOf(op_id)];
        unsigned scanned = occupancy;
        if (liveKeys_ == 0)
            return scanned;
        size_t i = cellFor(key(group, op_id));
        const Cell cell = cells_[i];
        if (cell.head == none)
            return scanned;
        erase(i);
        unsigned n = 0;
        for (uint32_t r = cell.head; r != none; r = records_[r].next) {
            stage(records_[r].operand);
            ++n;
        }
        records_[cell.tail].next = freeHead_;
        freeHead_ = cell.head;
        occupancy -= n;
        totalEntries_ -= n;
        return scanned;
    }

    /** Entries currently parked in the sub-bank serving op_id. */
    unsigned
    subBankOccupancy(OpId op_id) const
    {
        return occupancy_[subBankOf(op_id)];
    }

    /** Total entries across all sub-banks. */
    unsigned totalEntries() const { return totalEntries_; }

    /** True when nothing is buffered. */
    bool empty() const { return totalEntries_ == 0; }

    /** Drop all contents (between passes); keeps the arena's capacity. */
    void
    clear()
    {
        records_.clear();
        freeHead_ = none;
        if (liveKeys_ != 0)
            cells_.assign(cells_.size(), Cell{});
        liveKeys_ = 0;
        occupancy_.fill(0);
        totalEntries_ = 0;
    }

  private:
    /** End of a record chain; marks an index cell empty as head. */
    static constexpr uint32_t none = UINT32_MAX;

    /** One parked operand; next links its key's chain or the free
     *  list. */
    struct Record
    {
        Operand operand;
        uint32_t next;
    };
    static_assert(sizeof(Record) == 16, "parked record grew");

    /** One index cell: a live key's first and last record. */
    struct Cell
    {
        uint64_t key = 0;
        uint32_t head = none;
        uint32_t tail = none;
    };

    /** Sequencing key of one buffered operation. */
    static uint64_t
    key(uint32_t group, OpId op_id)
    {
        return (uint64_t(group) << 32) | op_id;
    }

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

    /** Take a record off the free list, or grow the arena. */
    uint32_t
    allocate(const Operand &operand)
    {
        uint32_t r = freeHead_;
        if (r == none) {
            r = uint32_t(records_.size());
            records_.push_back({operand, none});
        } else {
            freeHead_ = records_[r].next;
            records_[r] = {operand, none};
        }
        return r;
    }

    /**
     * Index cell holding @p k, or the empty cell where it would go.
     * @pre the index has at least one empty cell
     */
    size_t
    cellFor(uint64_t k) const
    {
        size_t mask = cells_.size() - 1;
        size_t i = hashKey(k) & mask;
        while (cells_[i].head != none && cells_[i].key != k)
            i = (i + 1) & mask;
        return i;
    }

    void
    grow()
    {
        std::vector<Cell> old = std::move(cells_);
        cells_.assign(old.empty() ? 32 : old.size() * 2, Cell{});
        for (const Cell &c : old) {
            if (c.head != none)
                cells_[cellFor(c.key)] = c;
        }
    }

    /** Backward-shift deletion keeps probe chains intact. */
    void
    erase(size_t i)
    {
        size_t mask = cells_.size() - 1;
        size_t j = i;
        while (true) {
            j = (j + 1) & mask;
            if (cells_[j].head == none)
                break;
            size_t ideal = hashKey(cells_[j].key) & mask;
            bool movable = (j > i) ? (ideal <= i || ideal > j)
                                   : (ideal <= i && ideal > j);
            if (movable) {
                cells_[i] = cells_[j];
                i = j;
            }
        }
        cells_[i] = Cell{};
        --liveKeys_;
    }

    /** Owning PE index published with trace events. */
    uint16_t traceId_;
    Probe probe_;

    /** The arena: every parked operand of this PE. */
    std::vector<Record> records_;
    /** First free record (singly linked through Record::next). */
    uint32_t freeHead_ = none;
    /** Open-addressing index over the live keys (power of two). */
    std::vector<Cell> cells_;
    size_t liveKeys_ = 0;
    /** Parked entries per sub-bank: the hardware's timing state. */
    std::array<unsigned, numSubBanks> occupancy_{};
    unsigned totalEntries_ = 0;

    StatGroup statGroup_;
    Stat statInserts_;
    Stat statOverflows_;
    Stat statPeakEntries_;
};

} // namespace neurocube

#endif // NEUROCUBE_PE_OP_CACHE_HH
