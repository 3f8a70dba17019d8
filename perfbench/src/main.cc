/**
 * @file
 * bh_perfbench: simulates one benchmark workload through the simulator's
 * public API for a fixed host time, checks the simulated outputs, and
 * prints every metric by name and unit, ending with one JSON line.
 *
 *   bh_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                --golden FILE --reference DIR [--record | --inputs]
 *
 * Every run first simulates the workload at the default seed and checks
 * each cell against its expected outputs: the secsweep scale-1 golden
 * for hammer_zoo_2ch, the recorded reference for the mp8_* workloads.
 * It then measures rounds of passes at --seed for at most S seconds,
 * each round on the least contended CPU, each pass checked against the
 * first. --trace 0 measures untraced passes
 * and reports the end-to-end metrics; --trace 1 alternates untraced
 * passes with traced ones (plus, for oracle workloads, traced passes
 * with the oracle off), checks that tracing changed no simulated
 * output, and reports the per-layer metrics. --record writes the
 * default-seed outputs of an mp8_* workload as its reference; --inputs
 * prints a digest of the traces --seed generates for every cell.
 *
 * Exit status: 0 when every cell passed its checks, 1 otherwise.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/fsio.hh"
#include "tracing.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One simulated cell: checked outputs, host times, per-layer counts. */
struct CellRun
{
    bh::Json out = bh::Json::object();
    double setupS = 0.0;    ///< before the first System::run
    double wallS = 0.0;     ///< from the first System::run to teardown
    std::vector<double> segS;   ///< wallS cut into runSegments' stretches
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
    std::uint64_t chunked = 0;
    std::uint64_t retired = 0;
    std::uint64_t memOps = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t llcWritebacks = 0;
    std::uint64_t demandActs = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowAccesses = 0;
    std::uint64_t quotaRejects = 0;
    std::uint64_t victimRefreshes = 0;
    std::uint64_t oracleActs = 0;
};

using Pass = std::vector<CellRun>;

/** Outputs that only the SecurityOracle produces. */
const std::vector<std::string> kOracleKeys = {
    "margin", "max_window_acts", "first_violation_cycle", "violating_rows"};

/** The secsweep cell fields a hammer_zoo_2ch cell must reproduce. */
const std::vector<std::string> kGoldenKeys = {
    "margin", "max_window_acts", "first_violation_cycle", "violating_rows",
    "bit_flips", "blocked_acts", "victim_refreshes", "demand_acts",
    "attack_ipc", "benign_ipc_mean", "stats"};

/**
 * bh::buildSystem, rebuilt so that each Mitigation returned through the
 * factory and each TraceSource handed to setTrace is wrapped in a timing
 * decorator. The traced-equals-untraced check catches any drift from
 * buildSystem. Only the attacker slot kinds the workloads use (the
 * legacy double-sided attack and catalog patterns) are mirrored.
 */
std::unique_ptr<bh::System>
buildTraced(const bh::ExperimentConfig &config, const bh::MixSpec &mix,
            CellProbes &probes)
{
    bh::SystemConfig sys_cfg;
    sys_cfg.threads = config.threads;
    sys_cfg.skip = config.skip;
    sys_cfg.mem.org = bh::DramOrg::paperConfig(config.channels);
    sys_cfg.mem.timings = config.timings();
    sys_cfg.mem.hammer.nRH = config.nRH;
    sys_cfg.mem.hammer.blastRadius = 1;
    sys_cfg.mem.enableHammerObserver = config.hammerObserver;
    sys_cfg.mem.enableSecurityOracle = config.securityOracle;
    sys_cfg.channelThreads = config.channelThreads;

    auto system = std::make_unique<bh::System>(
        sys_cfg, [&](unsigned ch) -> std::unique_ptr<bh::Mitigation> {
            return std::make_unique<TimedMitigation>(
                bh::makeMitigation(config.mechanism,
                                   config.mitigationSettings(ch)),
                probes.mitigation);
        });

    bh::AttackEnv env = config.attackEnv();
    for (unsigned slot = 0; slot < config.threads; ++slot) {
        const std::string &app = mix.apps[slot];
        auto trace = std::make_unique<TimedTrace>(
            bh::makeTrace(app, slot, config.threads, system->mem().mapper(),
                          config.seed, config.attack, &env),
            probes.traceNext);
        if (!bh::isAttackApp(app)) {
            system->setTrace(slot, std::move(trace));
            continue;
        }
        bh::CoreConfig attacker = sys_cfg.core;
        attacker.maxOutstandingMem = 2 * config.attack.numBanks;
        if (app != bh::kAttackAppName) {
            const bh::AttackPatternSpec *spec = bh::findAttackPattern(
                app.substr(bh::kAttackPatternPrefix.size()));
            if (!spec)
                bh::fatal("attack slot '%s' is not a catalog pattern",
                          app.c_str());
            attacker.maxOutstandingMem = spec->maxOutstanding();
        }
        system->setTrace(slot, std::move(trace), attacker);
    }
    return system;
}

/** Reads a finished system's outputs (as bh::runExperiment merges them). */
CellRun
collect(bh::System &sys, const bh::MixSpec &mix)
{
    CellRun r;
    bh::Json ipc = bh::Json::array();
    std::vector<double> benign;
    double attack_ipc = 0.0;
    for (unsigned t = 0; t < sys.threads(); ++t) {
        double v = sys.ipc(t);
        ipc.push(v);
        if (bh::isAttackApp(mix.apps[t]))
            attack_ipc = v;
        else
            benign.push_back(v);
        r.retired += sys.core(t).retired();
        r.memOps += sys.core(t).memOps();
        r.stallCycles += sys.core(t).stallCycles();
    }
    r.out["ipc"] = ipc;
    r.out["energy_j"] = sys.energy();

    double margin = 0.0;
    std::uint64_t window_acts = 0, violating = 0, flips = 0, row_acts = 0;
    std::uint64_t blocked = 0;
    bh::Cycle first_violation = bh::kNoEventCycle;
    bh::Json stats = bh::Json::object();
    bh::MemSystem &mem = sys.mem();
    for (unsigned ch = 0; ch < mem.channels(); ++ch) {
        if (auto *hammer = mem.hammerObserver(ch)) {
            flips += hammer->bitFlips().size();
            row_acts = std::max(row_acts, hammer->maxRowActivations());
        }
        if (auto *oracle = mem.securityOracle(ch)) {
            margin = std::max(margin, oracle->margin());
            window_acts = std::max(window_acts, oracle->maxWindowActs());
            first_violation = std::min(first_violation,
                                       oracle->firstViolationCycle());
            violating += oracle->violatingRows();
            r.oracleActs += oracle->activationCount();
        }
        bh::MemController &mc = mem.controller(ch);
        r.demandActs += mc.demandActivations();
        blocked += mc.blockedActQueries();
        r.victimRefreshes += mc.victimRefreshesDone();
        r.rowHits += mc.rowHits();
        r.rowAccesses += mc.rowHits() + mc.rowMisses() + mc.rowConflicts();
        mc.syncStats();
        mc.mitigation().syncStats();
        bh::Json lane = mc.stats.toJson();
        bh::Json mitig = mc.mitigation().stats.toJson();
        if (mitig.objectItems().size() > 0)
            lane["mitigation"] = mitig;
        stats["ch" + std::to_string(ch)] = lane;
    }
    r.out["margin"] = margin;
    r.out["max_window_acts"] = window_acts;
    r.out["first_violation_cycle"] = first_violation == bh::kNoEventCycle
        ? static_cast<std::int64_t>(-1)
        : static_cast<std::int64_t>(first_violation);
    r.out["violating_rows"] = violating;
    r.out["bit_flips"] = flips;
    r.out["max_row_acts"] = row_acts;
    r.out["blocked_acts"] = blocked;
    r.out["victim_refreshes"] = r.victimRefreshes;
    r.out["demand_acts"] = r.demandActs;
    r.out["attack_ipc"] = attack_ipc;
    r.out["benign_ipc_mean"] = bh::mean(benign);
    r.out["stats"] = stats;

    r.cycles = sys.now();
    r.skipped = sys.skippedCycles();
    r.chunked = sys.chunkedCycles();
    if (const bh::Llc *llc = sys.llc()) {
        r.llcHits = llc->hits();
        r.llcMisses = llc->misses();
        r.llcWritebacks = llc->writebacks();
    }
    r.quotaRejects = mem.quotaRejects();
    return r;
}

/** Stretches each of a cell's warmup and measured phases is cut into. */
constexpr int kSegmentsPerPhase = 64;

/**
 * Simulates `cycles` in kSegmentsPerPhase calls to System::run, appending
 * each call's host seconds to `seg_s`. Every pass cuts a cell at the same
 * cycles, so stretch k of one pass is the same work as stretch k of any
 * other; cutting run() changes no simulated output (the checks enforce
 * it).
 */
void
runSegments(bh::System &sys, bh::Cycle cycles, std::vector<double> &seg_s)
{
    bh::Cycle done = 0;
    for (int k = 1; k <= kSegmentsPerPhase; ++k) {
        bh::Cycle n = cycles * k / kSegmentsPerPhase - done;
        Clock::time_point t0 = Clock::now();
        if (n > 0)
            sys.run(n);
        seg_s.push_back(secondsSince(t0));
        done += n;
    }
}

CellRun
runCell(const Cell &cell, CellProbes *probes)
{
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<bh::System> sys = probes
        ? buildTraced(cell.cfg, cell.mix, *probes)
        : bh::buildSystem(cell.cfg, cell.mix);
    Clock::time_point t1 = Clock::now();
    std::vector<double> seg_s;
    runSegments(*sys, cell.cfg.warmupCycles, seg_s);
    sys->startMeasurement();
    runSegments(*sys, cell.cfg.runCycles, seg_s);
    Clock::time_point t2 = Clock::now();
    CellRun r = collect(*sys, cell.mix);
    sys.reset();
    seg_s.push_back(secondsSince(t2));
    r.setupS = std::chrono::duration<double>(t1 - t0).count();
    r.wallS = secondsSince(t1);
    r.segS = std::move(seg_s);
    return r;
}

/**
 * Scores each multiprogrammed cell against the alone-run IPCs of the
 * same pass, as bh::metricsAgainstAlone does against bh::aloneIpc.
 */
void
scoreSpeedups(const Workload &w, Pass &pass)
{
    std::map<std::string, double> alone_ipc;
    for (std::size_t i = 0; i < w.cells.size(); ++i)
        if (w.cells[i].group == "alone")
            alone_ipc[w.cells[i].mix.apps[0]] =
                pass[i].out.find("ipc")->at(0).asDouble();
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const Cell &c = w.cells[i];
        if (c.group == "alone")
            continue;
        std::vector<double> shared, alone;
        for (unsigned t = 0; t < c.cfg.threads; ++t) {
            if (bh::isAttackApp(c.mix.apps[t]))
                continue;
            shared.push_back(pass[i].out.find("ipc")->at(t).asDouble());
            alone.push_back(alone_ipc.at(c.mix.apps[t]));
        }
        bh::MultiProgMetrics m = bh::computeMetrics(
            shared, alone, 1.0 / static_cast<double>(c.cfg.runCycles));
        pass[i].out["weighted_speedup"] = m.weightedSpeedup;
        pass[i].out["harmonic_speedup"] = m.harmonicSpeedup;
        pass[i].out["max_slowdown"] = m.maxSlowdown;
    }
}

/** Simulates every cell of `w`, traced when `probes` is given. */
Pass
runPass(const Workload &w, std::vector<CellProbes> *probes)
{
    Pass pass;
    double wall = 0.0;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        pass.push_back(runCell(w.cells[i], probes ? &(*probes)[i] : nullptr));
        wall += pass.back().wallS;
    }
    if (w.scoresSpeedups)
        scoreSpeedups(w, pass);
    std::fprintf(stderr, "pass %s seed %llu%s: %.4f s\n", w.name.c_str(),
                 static_cast<unsigned long long>(w.cells[0].cfg.seed),
                 probes ? " traced" : "", wall);
    return pass;
}

/**
 * First of `keys` (every key, when empty) on which the two objects
 * differ, compared through the JSON serializer, which round-trips
 * doubles exactly; "" when they agree.
 */
std::string
firstDifference(const bh::Json &expected, const bh::Json &actual,
                const std::vector<std::string> &keys)
{
    if (keys.empty() && expected.dump() == actual.dump())
        return "";
    std::vector<std::string> names = keys;
    if (names.empty())
        for (const auto &kv : expected.objectItems())
            names.push_back(kv.first);
    for (const std::string &k : names) {
        const bh::Json *e = expected.find(k);
        const bh::Json *a = actual.find(k);
        if (!e || !a || e->dump() != a->dump())
            return k;
    }
    return keys.empty() ? "<key set>" : "";
}

/** Counts checked cells and the ones whose outputs differ. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(const char *what, const Workload &w,
          const std::vector<bh::Json> &expected, const Pass &actual,
          const std::vector<std::string> &keys = {})
    {
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            ++attempted;
            std::string k = firstDifference(expected[i], actual[i].out, keys);
            if (k.empty())
                continue;
            ++failed;
            const bh::Json *e = expected[i].find(k);
            const bh::Json *a = actual[i].out.find(k);
            std::fprintf(stderr,
                         "CHECK FAILED (%s): %s cell '%s' field '%s': "
                         "expected %.200s, got %.200s\n",
                         what, w.name.c_str(), w.cells[i].label.c_str(),
                         k.c_str(), e ? e->dump().c_str() : "-",
                         a ? a->dump().c_str() : "-");
        }
    }

    /** Cells simulated with nothing to compare them against yet. */
    void unchecked(const Pass &p) { attempted += p.size(); }
};

std::vector<bh::Json>
outputsOf(const Pass &p)
{
    std::vector<bh::Json> v;
    for (const CellRun &r : p)
        v.push_back(r.out);
    return v;
}

bh::Json
readJsonOrDie(const std::string &path)
{
    std::string text, err;
    bh::Json j;
    if (!bh::readFile(path, text, err))
        bh::fatal("cannot read %s: %s", path.c_str(), err.c_str());
    if (!bh::Json::parse(text, j, &err))
        bh::fatal("malformed JSON in %s: %s", path.c_str(), err.c_str());
    return j;
}

/** Expected default-seed outputs of every cell of `w`. */
std::vector<bh::Json>
expectedOutputs(const Workload &w, const std::string &golden,
                const std::string &reference_dir)
{
    std::vector<bh::Json> out;
    if (w.hasOracle) {
        bh::Json g = readJsonOrDie(golden);
        const bh::Json *row = g["grid"].find("bankpar-4");
        for (const Cell &c : w.cells) {
            const bh::Json *mech = row ? row->find(c.label) : nullptr;
            const bh::Json *cell = mech ? mech->find("ch2") : nullptr;
            if (!cell)
                bh::fatal("%s has no grid.bankpar-4.%s.ch2 cell",
                          golden.c_str(), c.label.c_str());
            out.push_back(*cell);
        }
        return out;
    }
    std::string path = reference_dir + "/" + w.name + ".json";
    bh::Json ref = readJsonOrDie(path);
    for (const Cell &c : w.cells) {
        const bh::Json *cell = ref.find(c.label);
        if (!cell)
            bh::fatal("%s has no cell '%s'", path.c_str(), c.label.c_str());
        out.push_back(*cell);
    }
    return out;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Host seconds of the included cells: for each stretch of each cell
 * (runSegments), its fastest time over the passes, summed. Host noise is
 * one-sided (contention from outside the process only ever slows the
 * simulation) and comes in phases, so the per-stretch minimum is much
 * steadier from run to run than a median or a per-pass minimum
 * (README.md, "Host noise").
 */
double
bestWall(const std::vector<Pass> &passes,
         const std::function<bool(std::size_t)> &include =
             [](std::size_t) { return true; })
{
    double sum = 0.0;
    for (std::size_t i = 0; i < passes[0].size(); ++i) {
        if (!include(i))
            continue;
        for (std::size_t k = 0; k < passes[0][i].segS.size(); ++k) {
            double best = passes[0][i].segS[k];
            for (const Pass &p : passes)
                best = std::min(best, p[i].segS[k]);
            sum += best;
        }
    }
    return sum;
}

/** Set-up seconds: each cell's median over passes, summed. */
double
medianSetup(const std::vector<Pass> &passes)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < passes[0].size(); ++i) {
        std::vector<double> v;
        for (const Pass &p : passes)
            v.push_back(p[i].setupS);
        sum += median(v);
    }
    return sum;
}

/** Median cost of one Clock::now() pair with nothing between them. */
double
clockOverheadNs()
{
    std::vector<double> v;
    for (int i = 0; i < 2001; ++i) {
        Clock::time_point a = Clock::now();
        Clock::time_point b = Clock::now();
        v.push_back(std::chrono::duration<double, std::nano>(b - a).count());
    }
    return median(v);
}

/** The CPUs this process may run on, lowest first; empty if unknown. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpus.push_back(c);
    return cpus;
}

/** Moves the calling thread onto `cpu`; false if that failed. */
bool
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
}

/**
 * Moves the (single) simulating thread onto the allowed CPU that is
 * least contended right now. Host contention differs from one virtual
 * CPU to the next and changes in phases of tens of seconds (README.md,
 * "Host noise"), so a round started on the quietest CPU is likely to
 * stay fast. Each CPU is ranked by timing the same short simulation on
 * it: building `probe`'s system and running an eighth of its warmup.
 * Only one thread runs at a time. Failure leaves the thread where it is.
 */
void
pinQuietest(const std::vector<int> &cpus, const Cell &probe)
{
    if (cpus.size() < 2)
        return;
    int best_cpu = -1;
    double best_s = 0.0;
    for (int cpu : cpus) {
        if (!pinTo(cpu))
            continue;
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<bh::System> sys =
            bh::buildSystem(probe.cfg, probe.mix);
        sys->run(std::max<bh::Cycle>(1, probe.cfg.warmupCycles / 8));
        sys.reset();
        double s = secondsSince(t0);
        if (best_cpu < 0 || s < best_s) {
            best_cpu = cpu;
            best_s = s;
        }
    }
    if (best_cpu >= 0 && pinTo(best_cpu))
        std::fprintf(stderr, "round on cpu %d (probe %.4f s)\n", best_cpu,
                     best_s);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;    // Linux reports KiB
}

double
ratioOr0(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** Ordered (name, value, unit) list printed as a table and as JSON. */
struct Metrics
{
    struct Entry
    {
        std::string name;
        bh::Json value;
        std::string unit;
    };
    std::vector<Entry> entries;

    void
    add(const std::string &name, bh::Json value, const char *unit)
    {
        entries.push_back({name, std::move(value), unit});
    }
};

/** Everything measured in one run, ready to turn into metrics. */
struct Measured
{
    const Workload *w = nullptr;
    std::vector<Pass> untraced;
    std::vector<Pass> traced;           ///< --trace 1 only
    std::vector<Pass> tracedNoOracle;   ///< --trace 1, oracle workloads
    std::vector<CellProbes> probes;     ///< summed over traced passes
    double clockOverheadNs = 0.0;
};

Metrics
endToEnd(const Measured &m)
{
    double wall_s = bestWall(m.untraced);
    double cycles = 0.0;
    for (const CellRun &r : m.untraced[0])
        cycles += static_cast<double>(r.cycles);
    Metrics out;
    out.add("wall_s", wall_s, "s");
    out.add("sim_cycles_per_s", cycles / wall_s, "1/s");
    out.add("setup_s", medianSetup(m.untraced), "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
}

Metrics
perLayer(const Measured &m)
{
    const Workload &w = *m.w;
    const double oh = m.clockOverheadNs;
    const double n_traced = static_cast<double>(m.traced.size());
    const Pass &counts = m.traced[0];

    CellRun sum;
    for (const CellRun &r : counts) {
        sum.cycles += r.cycles;
        sum.skipped += r.skipped;
        sum.chunked += r.chunked;
        sum.retired += r.retired;
        sum.memOps += r.memOps;
        sum.stallCycles += r.stallCycles;
        sum.llcHits += r.llcHits;
        sum.llcMisses += r.llcMisses;
        sum.llcWritebacks += r.llcWritebacks;
        sum.demandActs += r.demandActs;
        sum.rowHits += r.rowHits;
        sum.rowAccesses += r.rowAccesses;
        sum.quotaRejects += r.quotaRejects;
        sum.victimRefreshes += r.victimRefreshes;
        sum.oracleActs += r.oracleActs;
    }

    // Probes accumulate over every traced pass; times are summed the
    // same way, so shares are over all traced passes.
    double traced_wall = 0.0;
    for (const Pass &p : m.traced)
        for (const CellRun &r : p)
            traced_wall += r.wallS;
    MitigationProbes mit;
    Probe next;
    double mitig_ns = 0.0, next_ns = 0.0;
    auto add = [](Probe &into, const Probe &p) {
        into.calls += p.calls;
        into.sampled += p.sampled;
        into.sampledNs += p.sampledNs;
    };
    for (const CellProbes &cp : m.probes) {
        add(mit.isActSafe, cp.mitigation.isActSafe);
        add(mit.onActivate, cp.mitigation.onActivate);
        add(mit.tick, cp.mitigation.tick);
        mit.unsafeVerdicts += cp.mitigation.unsafeVerdicts;
        mitig_ns += cp.mitigation.totalNs(oh);
        add(next, cp.traceNext);
        next_ns += cp.traceNext.totalNs(oh);
    }
    double mitig_share = mitig_ns * 1e-9 / traced_wall;
    double next_share = next_ns * 1e-9 / traced_wall;
    double untraced_wall = bestWall(m.untraced);
    double traced_wall_best = bestWall(m.traced);
    auto per_pass = [&](std::uint64_t calls) {
        return static_cast<std::uint64_t>(calls / n_traced);
    };

    Metrics out;
    out.add("sim.cycles", sum.cycles, "count");
    out.add("sim.skipped_share",
            ratioOr0(sum.skipped, sum.cycles), "ratio");
    out.add("sim.chunked_share",
            ratioOr0(sum.chunked, sum.cycles), "ratio");
    out.add("sim.host_ns_per_executed_cycle",
            ratioOr0(untraced_wall * 1e9, sum.cycles - sum.skipped), "ns");
    out.add("sim.residual_share", 1.0 - mitig_share - next_share, "ratio");
    out.add("sim.tracing_overhead_ratio",
            ratioOr0(traced_wall_best, untraced_wall), "ratio");
    out.add("core.retired_insts", sum.retired, "count");
    out.add("core.mem_ops", sum.memOps, "count");
    out.add("core.stall_cycles", sum.stallCycles, "count");
    out.add("cache.llc_accesses", sum.llcHits + sum.llcMisses, "count");
    out.add("cache.llc_hit_ratio",
            ratioOr0(sum.llcHits, sum.llcHits + sum.llcMisses), "ratio");
    out.add("cache.llc_writebacks", sum.llcWritebacks, "count");
    out.add("mem.demand_acts", sum.demandActs, "count");
    out.add("mem.row_hit_ratio",
            ratioOr0(sum.rowHits, sum.rowAccesses), "ratio");
    out.add("mem.safety_queries_per_act",
            ratioOr0(per_pass(mit.isActSafe.calls), sum.demandActs),
            "ratio");
    out.add("mem.quota_rejects", sum.quotaRejects, "count");
    out.add("mem.victim_refreshes", sum.victimRefreshes, "count");
    out.add("mitigation.is_act_safe.calls", per_pass(mit.isActSafe.calls),
            "count");
    out.add("mitigation.is_act_safe.ns", mit.isActSafe.nsPerCall(oh), "ns");
    out.add("mitigation.is_act_safe.unsafe_ratio",
            ratioOr0(mit.unsafeVerdicts, mit.isActSafe.calls), "ratio");
    out.add("mitigation.on_activate.calls", per_pass(mit.onActivate.calls),
            "count");
    out.add("mitigation.on_activate.ns", mit.onActivate.nsPerCall(oh),
            "ns");
    out.add("mitigation.tick.calls", per_pass(mit.tick.calls), "count");
    out.add("mitigation.tick.ns", mit.tick.nsPerCall(oh), "ns");
    out.add("mitigation.share", mitig_share, "ratio");

    // Per mechanism: the cells of that mechanism's group (alone-IPC
    // runs form their own group); mechanisms a workload does not run
    // report 0.
    for (const std::string &mech : bh::securityMechanisms()) {
        Probe act;
        double ns = 0.0, tw = 0.0;
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            if (w.cells[i].group != mech)
                continue;
            add(act, m.probes[i].mitigation.onActivate);
            ns += m.probes[i].mitigation.totalNs(oh);
            for (const Pass &p : m.traced)
                tw += p[i].wallS;
        }
        std::string name = metricName(mech);
        out.add("mitigation." + name + ".on_activate.ns", act.nsPerCall(oh),
                "ns");
        out.add("mitigation." + name + ".share", ratioOr0(ns * 1e-9, tw),
                "ratio");
        out.add("cell." + name + ".wall_s",
                bestWall(m.untraced, [&](std::size_t i) {
                    return w.cells[i].group == mech;
                }),
                "s");
    }
    out.add("cell.alone.wall_s",
            bestWall(m.untraced, [&](std::size_t i) {
                return w.cells[i].group == "alone";
            }),
            "s");

    out.add("workloads.trace_next.calls", per_pass(next.calls), "count");
    out.add("workloads.trace_next.ns", next.nsPerCall(oh), "ns");
    out.add("workloads.share", next_share, "ratio");
    out.add("analysis.oracle_acts", sum.oracleActs, "count");
    out.add("analysis.oracle_overhead_s",
            m.tracedNoOracle.empty()
                ? 0.0
                : traced_wall_best - bestWall(m.tracedNoOracle),
            "s");
    return out;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string golden = "bench/golden/BENCH_secsweep.scale1.json";
    std::string reference = "perfbench/reference";
    bool record = false;
    bool inputs = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--record" || flag == "--inputs") {
            (flag == "--record" ? a.record : a.inputs) = true;
            continue;
        }
        if (i + 1 >= argc)
            bh::fatal("%s needs a value", flag.c_str());
        std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--golden")
            a.golden = v;
        else if (flag == "--reference")
            a.reference = v;
        else
            bh::fatal("unknown flag %s", flag.c_str());
    }
    if (a.workload.empty())
        bh::fatal("--workload is required");
    return a;
}

int
record(const Args &a)
{
    Workload w = makeWorkload(a.workload, kDefaultSeed);
    if (w.hasOracle)
        bh::fatal("%s is checked against the secsweep golden, not a "
                  "recorded reference", w.name.c_str());
    Pass p = runPass(w, nullptr);
    bh::Json ref = bh::Json::object();
    for (std::size_t i = 0; i < w.cells.size(); ++i)
        ref[w.cells[i].label] = p[i].out;
    std::string path = a.reference + "/" + w.name + ".json";
    bh::atomicWriteFileOrDie(path, ref.dump(1) + "\n");
    std::printf("recorded %s\n", path.c_str());
    return 0;
}

/**
 * Prints, per cell and core slot, the app and a digest of the first
 * trace entries the workload seed generates for it (the held-out-seed
 * test compares these across seeds).
 */
int
printInputs(const Args &a)
{
    const Workload w = makeWorkload(a.workload, a.seed);
    bh::Json out = bh::Json::object();
    for (const Cell &c : w.cells) {
        // Built only for its address mapper, which makeTrace needs.
        std::unique_ptr<bh::System> sys = bh::buildSystem(c.cfg, c.mix);
        bh::AttackEnv env = c.cfg.attackEnv();
        bh::Json slots = bh::Json::array();
        for (unsigned t = 0; t < c.cfg.threads; ++t) {
            auto trace = bh::makeTrace(c.mix.apps[t], t, c.cfg.threads,
                                       sys->mem().mapper(), c.cfg.seed,
                                       c.cfg.attack, &env);
            std::uint64_t h = 1469598103934665603ull;   // FNV-1a
            bh::TraceEntry e;
            for (int n = 0; n < 4096 && trace->next(e); ++n)
                for (std::uint64_t v :
                     {std::uint64_t{e.bubbles}, std::uint64_t{e.addr},
                      std::uint64_t(e.isMem | e.isWrite << 1 |
                                    e.bypassCache << 2)})
                    h = (h ^ v) * 1099511628211ull;
            bh::Json slot = bh::Json::object();
            slot["app"] = c.mix.apps[t];
            slot["digest"] = bh::strfmt("%016llx",
                                        static_cast<unsigned long long>(h));
            slots.push(slot);
        }
        out[c.label] = slots;
    }
    std::printf("%s\n", out.dump(1).c_str());
    return 0;
}

int
run(const Args &a)
{
    const Workload ref = makeWorkload(a.workload, kDefaultSeed);
    const Workload w = makeWorkload(a.workload, a.seed);
    Workload no_oracle = w;
    for (Cell &c : no_oracle.cells)
        c.cfg.securityOracle = false;

    Tally tally;
    Pass ref_pass = runPass(ref, nullptr);
    tally.check("default seed vs expected", ref,
                expectedOutputs(ref, a.golden, a.reference), ref_pass,
                ref.hasOracle ? kGoldenKeys : std::vector<std::string>{});

    Measured m;
    m.w = &w;
    m.clockOverheadNs = clockOverheadNs();
    m.probes.resize(w.cells.size());
    std::vector<CellProbes> scratch(w.cells.size());
    std::vector<bh::Json> first;
    // Rounds run while the next one, as long as the last, still ends
    // within --seconds, so a run measures for at most --seconds (and
    // always for one round); a CPU probe of a few tens of milliseconds
    // precedes each round.
    const std::vector<int> cpus = allowedCpus();
    Clock::time_point start = Clock::now();
    double round_s = 0.0;
    do {
        pinQuietest(cpus, w.cells[0]);
        Clock::time_point round_start = Clock::now();
        m.untraced.push_back(runPass(w, nullptr));
        if (first.empty()) {
            first = outputsOf(m.untraced.back());
            if (a.seed == kDefaultSeed)
                tally.check("pass vs default seed", w, outputsOf(ref_pass),
                            m.untraced.back());
            else
                tally.unchecked(m.untraced.back());
        } else {
            tally.check("pass vs first pass", w, first, m.untraced.back());
        }
        if (a.trace) {
            m.traced.push_back(runPass(w, &m.probes));
            tally.check("traced vs untraced", w, first, m.traced.back());
        }
        if (a.trace && w.hasOracle) {
            m.tracedNoOracle.push_back(runPass(no_oracle, &scratch));
            std::vector<std::string> observed;
            for (const auto &kv : first[0].objectItems())
                if (std::find(kOracleKeys.begin(), kOracleKeys.end(),
                              kv.first) == kOracleKeys.end())
                    observed.push_back(kv.first);
            tally.check("oracle off vs on", w, first,
                        m.tracedNoOracle.back(), observed);
        }
        round_s = secondsSince(round_start);
    } while (secondsSince(start) + round_s <= a.seconds);

    Metrics metrics = a.trace ? perLayer(m) : endToEnd(m);
    std::printf("workload %s  seed %llu  passes %zu%s\n", w.name.c_str(),
                static_cast<unsigned long long>(a.seed), m.untraced.size(),
                a.trace ? "  (traced)" : "");
    bh::Json mj = bh::Json::object();
    for (const Metrics::Entry &e : metrics.entries) {
        std::printf("  %-46s %16s %s\n", e.name.c_str(),
                    e.value.dump().c_str(), e.unit.c_str());
        bh::Json v = bh::Json::object();
        v["value"] = e.value;
        v["unit"] = e.unit;
        mj[e.name] = v;
    }
    std::printf("  %-46s %16s ratio (%llu of %llu cells)\n",
                "failed_cell_ratio",
                bh::Json(ratioOr0(tally.failed, tally.attempted))
                    .dump().c_str(),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));

    bh::Json result = bh::Json::object();
    result["correct"] = tally.failed == 0;
    result["attempted"] = tally.attempted;
    result["failed"] = tally.failed;
    result["metrics"] = mj;
    std::printf("%s\n", result.dump().c_str());
    return tally.failed == 0 ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args a = perfbench::parseArgs(argc, argv);
    if (a.inputs)
        return perfbench::printInputs(a);
    return a.record ? perfbench::record(a) : perfbench::run(a);
}
