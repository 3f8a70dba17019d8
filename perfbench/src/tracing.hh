/**
 * @file
 * Timing decorators for the two interfaces the simulator accepts from
 * outside: the TraceSource installed per core slot and the Mitigation
 * built per channel. They forward every call unchanged, count every
 * call, and time a deterministic pseudo-random sample of the calls, so
 * a traced run simulates exactly what an untraced run does.
 */

#ifndef BH_PERFBENCH_TRACING_HH
#define BH_PERFBENCH_TRACING_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/trace.hh"
#include "mem/mitigation.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/**
 * Call counter plus sampled timer for one interface method. Every call
 * is counted; one call in `mean_gap` on average (gaps drawn from a
 * seeded xorshift, so sampling is deterministic and does not alias with
 * periodic call patterns) is bracketed by two clock reads.
 */
class Probe
{
  public:
    explicit Probe(std::uint32_t mean_gap = 1, std::uint64_t seed = 1)
        : meanGap(mean_gap), rng(seed * 0x9e3779b97f4a7c15ull | 1)
    {
        countdown = nextGap();
    }

    template <class F>
    decltype(auto)
    operator()(F &&f)
    {
        ++calls;
        Sample sample{nullptr, {}};
        if (--countdown == 0) {
            countdown = nextGap();
            ++sampled;
            sample.probe = this;
            sample.start = Clock::now();
        }
        return f();
    }

    /**
     * Estimated host nanoseconds over every call: the sampled mean,
     * less the cost of the clock reads themselves, times the call count.
     */
    double
    totalNs(double clock_overhead_ns) const
    {
        return calls * nsPerCall(clock_overhead_ns);
    }

    double
    nsPerCall(double clock_overhead_ns) const
    {
        if (sampled == 0)
            return 0.0;
        double per = static_cast<double>(sampledNs) / sampled -
            clock_overhead_ns;
        return per > 0.0 ? per : 0.0;
    }

    std::uint64_t calls = 0;
    std::uint64_t sampled = 0;
    std::uint64_t sampledNs = 0;

  private:
    /** Adds the elapsed time when the wrapped call returns. */
    struct Sample
    {
        Probe *probe;
        Clock::time_point start;

        ~Sample()
        {
            if (probe)
                probe->sampledNs += static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start).count());
        }
    };

    std::uint32_t
    nextGap()
    {
        if (meanGap <= 1)
            return 1;
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return 1 + static_cast<std::uint32_t>(rng % (2 * meanGap - 1));
    }

    std::uint32_t meanGap;
    std::uint64_t rng;
    std::uint32_t countdown = 1;
};

/** Sampling period of methods called many times per activation. */
constexpr std::uint32_t kHotGap = 32;

/** Probes over every virtual of one cell's Mitigation instances. */
struct MitigationProbes
{
    Probe isActSafe{kHotGap, 1};
    Probe onActivate{1, 2};
    Probe onAutoRefresh{1, 3};
    Probe tick{kHotGap, 4};
    Probe quota{kHotGap, 5};
    Probe threadQuota{kHotGap, 6};
    Probe housekeeping{kHotGap, 7};
    Probe verdictChange{kHotGap, 8};
    Probe skippedTicks{kHotGap, 9};
    std::uint64_t unsafeVerdicts = 0;

    double
    totalNs(double clock_overhead_ns) const
    {
        double ns = 0.0;
        for (const Probe *p : {&isActSafe, &onActivate, &onAutoRefresh,
                               &tick, &quota, &threadQuota, &housekeeping,
                               &verdictChange, &skippedTicks})
            ns += p->totalNs(clock_overhead_ns);
        return ns;
    }
};

/** Everything the decorators record for one simulated cell. */
struct CellProbes
{
    MitigationProbes mitigation;
    Probe traceNext{kHotGap, 10};
};

/**
 * Mitigation decorator: forwards every virtual to the wrapped instance.
 * The non-virtual setTraceMeta is not forwarded; System calls it only
 * while a TraceSink is open, and the benchmark never opens one.
 */
class TimedMitigation final : public bh::Mitigation
{
  public:
    TimedMitigation(std::unique_ptr<bh::Mitigation> wrapped,
                    MitigationProbes &probes)
        : inner(std::move(wrapped)), p(probes)
    {
    }

    std::string name() const override { return inner->name(); }

    bool
    isActSafe(unsigned bank, bh::RowId row, bh::ThreadId thread,
              bh::Cycle now) override
    {
        bool safe = p.isActSafe(
            [&] { return inner->isActSafe(bank, row, thread, now); });
        p.unsafeVerdicts += !safe;
        return safe;
    }

    void
    onActivate(unsigned bank, bh::RowId row, bh::ThreadId thread,
               bh::Cycle now) override
    {
        p.onActivate([&] { inner->onActivate(bank, row, thread, now); });
    }

    void
    onAutoRefresh(bh::RowId first_row, unsigned num_rows,
                  bh::Cycle now) override
    {
        p.onAutoRefresh(
            [&] { inner->onAutoRefresh(first_row, num_rows, now); });
    }

    void
    tick(bh::Cycle now) override
    {
        p.tick([&] { inner->tick(now); });
    }

    bh::Cycle
    nextHousekeepingAt(bh::Cycle now) const override
    {
        return p.housekeeping([&] { return inner->nextHousekeepingAt(now); });
    }

    bh::Cycle
    nextVerdictChangeAt(bh::Cycle now) const override
    {
        return p.verdictChange(
            [&] { return inner->nextVerdictChangeAt(now); });
    }

    void
    noteSkippedTicks(std::uint64_t n) override
    {
        p.skippedTicks([&] { inner->noteSkippedTicks(n); });
    }

    int
    quota(bh::ThreadId thread, unsigned bank) const override
    {
        return p.quota([&] { return inner->quota(thread, bank); });
    }

    int
    threadQuota(bh::ThreadId thread) const override
    {
        return p.threadQuota([&] { return inner->threadQuota(thread); });
    }

    void
    setController(bh::MemController *mc) override
    {
        controller = mc;
        inner->setController(mc);
    }

    /** Publishes the wrapped instance's counters as this one's stats. */
    void
    syncStats() override
    {
        inner->syncStats();
        stats = inner->stats;
    }

  private:
    std::unique_ptr<bh::Mitigation> inner;
    MitigationProbes &p;
};

/** TraceSource decorator: times next(), forwards reset(). */
class TimedTrace final : public bh::TraceSource
{
  public:
    TimedTrace(std::unique_ptr<bh::TraceSource> wrapped, Probe &probe)
        : inner(std::move(wrapped)), p(probe)
    {
    }

    bool
    next(bh::TraceEntry &entry) override
    {
        return p([&] { return inner->next(entry); });
    }

    void reset() override { inner->reset(); }

  private:
    std::unique_ptr<bh::TraceSource> inner;
    Probe &p;
};

} // namespace perfbench

#endif // BH_PERFBENCH_TRACING_HH
