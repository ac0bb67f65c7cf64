/**
 * @file
 * Cycle-level timing model of one DRAM channel (an HMC vault or a
 * DDR3 channel).
 *
 * The model follows the paper's simulator description (Section VI):
 * each vault pushes one I/O word per reference tick while in burst
 * mode; after burstLength words it waits tCCD before the next burst.
 * Channels slower than the reference clock (DDR3) accumulate
 * fractional word credit per tick. Row activations cost tRCD + tCL
 * and are overlapped with ongoing bursts through a small lookahead
 * window across banks, which models hit-under-activate in a
 * multi-bank vault.
 */

#ifndef NEUROCUBE_DRAM_MEMORY_CHANNEL_HH
#define NEUROCUBE_DRAM_MEMORY_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "common/fixed_point.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/wake.hh"
#include "dram/backing_store.hh"
#include "dram/dram_params.hh"
#include "trace/trace.hh"

namespace neurocube
{

/** One element-granularity access issued by a PNG. */
struct MemRequest
{
    /** True for a write-back, false for a read. */
    bool write = false;
    /** Element address within this channel's store. */
    Addr addr = 0;
    /** Data to store (writes only). */
    Fixed data{};
    /** Opaque tag the issuer uses to match responses. */
    uint64_t tag = 0;
    /** Tick the channel accepted the request (set by enqueue). */
    Tick enqueueTick = 0;
};

/**
 * One request queue of a channel, indexed by row run: the requests in
 * arrival order, plus one (row, bank, count) record per maximal
 * stretch of consecutive requests to the same row. Neighbouring runs
 * always differ in row, so a walk over the runs meets exactly the
 * requests at which a front-to-back scan sees the row change, and
 * every request of a run shares the run's row and bank.
 *
 * The queue owns both, and only two mutations touch them: push_back()
 * extends the tail run or appends one, and eraseRunFront() shrinks a
 * run, dropping it when it empties and merging its neighbours when
 * they then share a row.
 */
class RowRunQueue
{
  public:
    /** A maximal stretch of consecutive same-row requests. */
    struct Run
    {
        uint64_t row;
        unsigned bank;
        /** Requests in the run (never 0). */
        unsigned count;
    };

    bool empty() const { return requests_.empty(); }
    size_t size() const { return requests_.size(); }
    /** Request @p i positions behind the front. @pre i < size() */
    const MemRequest &operator[](size_t i) const { return requests_[i]; }

    size_t runCount() const { return runs_.size(); }
    /** Run @p k positions behind the front run. @pre k < runCount() */
    const Run &run(size_t k) const { return runs_[k]; }

    /**
     * Append a request to DRAM row @p row in bank @p bank. @pre the
     * bank is a function of the row
     */
    void
    push_back(const MemRequest &req, uint64_t row, unsigned bank)
    {
        requests_.push_back(req);
        if (!runs_.empty() && runs_.back().row == row)
            ++runs_.back().count;
        else
            runs_.push_back({row, bank, 1});
    }

    /**
     * Remove the first @p n requests of run @p k, whose first request
     * sits at index @p first. @pre 0 < n <= run(k).count
     */
    void
    eraseRunFront(size_t k, size_t first, size_t n)
    {
        requests_.erase(first, n);
        runs_[k].count -= unsigned(n);
        if (runs_[k].count > 0)
            return;
        if (k > 0 && k + 1 < runs_.size()
            && runs_[k - 1].row == runs_[k + 1].row) {
            runs_[k - 1].count += runs_[k + 1].count;
            runs_.erase(k, 2);
        } else {
            runs_.erase(k, 1);
        }
    }

    /**
     * Visit, front to back, the runs whose first request lies among
     * the first @p window requests, at most @p max_runs of them.
     * visit(k, first) gets each run's index and the index of its first
     * request, and returns true to stop the walk.
     */
    template <typename Visit>
    void
    walkRuns(size_t window, size_t max_runs, Visit &&visit) const
    {
        size_t first = 0;
        for (size_t k = 0;
             k < runs_.size() && k < max_runs && first < window; ++k) {
            if (visit(k, first))
                return;
            first += runs_[k].count;
        }
    }

  private:
    Ring<MemRequest> requests_;
    Ring<Run> runs_;
};

/** Completion record for one serviced read. */
struct MemResponse
{
    /** Element address that was read. */
    Addr addr = 0;
    /** The element value. */
    Fixed data{};
    /** Tag copied from the request. */
    uint64_t tag = 0;
};

/**
 * Timing + functional model of one memory channel.
 *
 * Requests are serviced in order at word granularity: each serviced
 * word consumes up to elementsPerWord() queued element requests that
 * fall in the same DRAM row and share a direction (read/write).
 */
class MemoryChannel
{
  public:
    /**
     * @param params technology parameters
     * @param parent stat group to hang this channel's stats under
     * @param name stat path component, e.g. "vault3"
     * @param trace_id vault/channel index used for trace events and
     *        counters
     * @param probe the machine's instrumentation
     */
    MemoryChannel(const DramParams &params, StatGroup *parent,
                  const std::string &name, uint16_t trace_id = 0,
                  Probe probe = {});

    /** True while the request queues have room. */
    bool
    canAccept() const
    {
        return queue_.size() < queueCapacity
            && writeQueue_.size() < writeBufferCapacity;
    }

    /** Queue one element access. @pre canAccept() */
    void enqueue(const MemRequest &req);

    /** Advance one reference-clock tick. */
    void tick(Tick now);

    /**
     * Scheduler hookup: the scheduler watching this channel, or
     * nullptr outside a pass. enqueue() calls
     * sink->onChannelEnqueue() (before stamping, so the scheduler can
     * catch the channel up first) and serveWord() calls
     * sink->onChannelServe().
     */
    void setWakeSink(WakeSink *sink) { sink_ = sink; }

    /**
     * First tick after @p now at which tick() would do more than the
     * empty-queue idle path, given no external input. tickNever while
     * both request queues are empty: an idle tick only ages credit /
     * gap state, which skipTicks() reproduces in bulk when an enqueue
     * (or end-of-pass catchup) lands.
     */
    Tick
    nextEventAfter(Tick now) const
    {
        if (queue_.empty() && writeQueue_.empty())
            return tickNever;
        return now + 1;
    }

    /**
     * Account ticks [from, to) in bulk, replicating exactly what that
     * many empty-queue tick() calls would have done (activation
     * promotion, credit accrual, burst-gap aging, idle stats, stale
     * now_ stamp). @pre both request queues were empty over the whole
     * window (guaranteed by the sleep condition + enqueue catchup).
     */
    void skipTicks(Tick from, Tick to);

    /** Serviced reads, in order; consumer pops from the front. */
    Ring<MemResponse> &responses() { return responses_; }

    /** True when no serviced read awaits its consumer. */
    bool responsesEmpty() const { return responses_.empty(); }

    /** True when no requests are queued or in flight. */
    bool
    idle() const
    {
        return queue_.empty() && writeQueue_.empty()
            && responses_.empty();
    }

    /** Functional storage behind this channel. */
    BackingStore &store() { return store_; }
    const BackingStore &store() const { return store_; }

    /** Technology parameters. */
    const DramParams &params() const { return params_; }

    /** Total data moved, in bits (for the energy model). */
    uint64_t bitsTransferred() const { return statBits_.count(); }

    /** Queue residency distribution (ticks enqueue -> service). */
    const Histogram &
    queueResidencyHistogram() const
    {
        return histQueueResidency_;
    }

    /** Access energy consumed so far, in joules. */
    double
    energyJoules() const
    {
        return statBits_.value() * params_.energyPjPerBit * 1.0e-12;
    }

    /** Reset timing state (between layers); keeps store contents. */
    void resetTiming();

    /** Maximum queued element read requests. */
    static constexpr size_t queueCapacity = 64;

    /**
     * Write-buffer capacity and drain watermarks. Write-backs are
     * buffered and drained in batches (when the buffer passes the
     * high watermark, the read queue empties, or a read hits a
     * buffered address), amortizing the row activations of the
     * output stream over many writes instead of ping-ponging rows
     * against the operand streams — standard write-drain policy of
     * DRAM controllers.
     */
    static constexpr size_t writeBufferCapacity = 64;
    static constexpr size_t writeDrainHigh = 32;
    static constexpr size_t writeDrainLow = 4;

    /**
     * Maximum unconsumed read responses before the channel stalls.
     * Models the finite vault-controller read buffer so NoC
     * backpressure propagates all the way into the DRAM timing.
     */
    static constexpr size_t responseBacklogLimit = 16;

    /** Requests inspected for out-of-order row hits. */
    static constexpr size_t reorderWindow = 48;
    /** Requests scanned when looking for rows to pre-activate. */
    static constexpr size_t lookaheadWindow = 48;
    /** Distinct upcoming rows the lookahead considers. */
    static constexpr size_t lookaheadRows = 6;

  private:
    /** Row index of an element address. */
    uint64_t rowOf(Addr addr) const { return addr >> rowShift_; }
    /**
     * Bank a DRAM row maps to. The row index is hashed so that
     * independent sequential streams (states vs weights) rarely fall
     * into lock-step same-bank conflicts.
     */
    unsigned
    bankOfRow(uint64_t row) const
    {
        return unsigned((row ^ (row >> 4)) & bankMask_);
    }

    /** True when @p run's row is open and its bank not activating. */
    bool
    rowOpen(Tick now, const RowRunQueue::Run &run) const
    {
        return now >= bankReady_[run.bank]
            && openRow_[run.bank] == run.row;
    }

    /**
     * Start a pre-activation for an upcoming row in an idle bank:
     * the first of the first lookaheadRows runs starting inside the
     * lookahead window whose bank neither holds its row nor is needed
     * by an earlier run.
     */
    void lookaheadActivate(Tick now, const RowRunQueue &queue);

    /** A run of a queue and the index of its first request. */
    struct RunPos
    {
        size_t run;
        size_t first;
    };

    /**
     * Pick the read run to serve this tick: the head run when its
     * row is open, otherwise the first open-row run starting within
     * the reorder window (FR-FCFS row-hit-first). Only reads are
     * reordered: writes wait in writeQueue_ and drain in order, and
     * a read that depends on a buffered write sets hazardDrain_,
     * which drains the write buffer before any further read is
     * served, so read-after-write order holds without this walk
     * looking at writes.
     *
     * @return the run, with run == SIZE_MAX when nothing can be
     *         served this tick
     */
    RunPos pickServeRun(Tick now) const;

    /**
     * True when a buffered write targets @p addr (read-after-write):
     * reads outside the buffered writes' address range skip the scan
     * of the (at most writeBufferCapacity) buffered writes.
     */
    bool readsBufferedWrite(Addr addr) const;

    /** Serve up to one word's worth of requests from the front of
     *  run @p pos. */
    void serveWord(Tick now, RowRunQueue &queue, RunPos pos);

    DramParams params_;
    BackingStore store_;
    /** Vault/channel index published with trace events. */
    uint16_t traceId_;
    Probe probe_;

    /**
     * Request queues (and responses_ below): contiguous rings, since
     * indexing and erasing sit on the per-tick path. They start empty
     * and grow on first use, which keeps channel construction cheap.
     */
    RowRunQueue queue_;
    RowRunQueue writeQueue_;
    /**
     * Address range of the buffered writes (the RAW guard's filter):
     * meaningful while writeQueue_ is non-empty, restarted by the
     * first write into an empty buffer.
     */
    Addr writeLo_ = 0;
    Addr writeHi_ = 0;
    /** Currently draining the write buffer. */
    bool drainWrites_ = false;
    /** A queued read depends on a buffered write: drain fully. */
    bool hazardDrain_ = false;
    Ring<MemResponse> responses_;

    /**
     * Tick of the last tick() call; stamps requests accepted between
     * channel ticks for the residency histogram (at most one tick
     * stale, which is noise at histogram granularity).
     */
    Tick now_ = 0;

    /** Fractional word credit accumulated from the channel rate. */
    double credit_ = 0.0;
    /** Words already emitted in the current burst. */
    unsigned burstWords_ = 0;
    /** Remaining tCCD gap ticks before the next burst may start. */
    Tick gapRemaining_ = 0;
    /** Force a lookahead re-scan on the next tick. */
    bool lookaheadArmed_ = true;
    /** Activations in flight (skips the promotion scan when 0). */
    unsigned pendingActivations_ = 0;
    /** Scheduler hook (null outside a pass). */
    WakeSink *sink_ = nullptr;

    /** Per-bank open row (UINT64_MAX = closed). */
    std::vector<uint64_t> openRow_;
    /** Per-bank tick at which a pending activation completes. */
    std::vector<Tick> bankReady_;
    /** Per-bank row being activated (valid while now < bankReady_). */
    std::vector<uint64_t> pendingRow_;

    /** log2 of the elements per row: rowOf() shifts. */
    unsigned rowShift_;
    /** banksPerChannel - 1: bankOfRow() masks. */
    uint64_t bankMask_;

    StatGroup statGroup_;
    Stat statReads_;
    Stat statWrites_;
    Stat statBits_;
    Stat statBursts_;
    Stat statRowHits_;
    Stat statRowMisses_;
    Stat statBusyTicks_;
    Stat statStallTicks_;
    Stat statIdleTicks_;
    /** Ticks a request waited in the queue before service. */
    Histogram histQueueResidency_;
};

} // namespace neurocube

#endif // NEUROCUBE_DRAM_MEMORY_CHANNEL_HH
