#include "workloads.hh"

#include <cctype>
#include <set>

#include "bench/bench_util.hh"

namespace perfbench
{

namespace
{

/** Mix-generator seed of the bench layer's Fig. 5 grid. */
constexpr std::uint64_t kFig5MixSeed = 42;

/** Baseline and BlockHammer on one multiprogrammed mix. */
Workload
multiprogrammed(const std::string &name, const bh::MixSpec &mix,
                unsigned channels, std::uint64_t seed)
{
    bh::BenchContext ctx;
    ctx.channels = channels;
    Workload w;
    w.name = name;
    for (const char *mech : {"Baseline", "BlockHammer"}) {
        Cell c;
        c.label = mech;
        c.group = mech;
        c.cfg = bh::benchConfig(ctx, mech);
        c.cfg.seed = seed;
        c.mix = mix;
        w.cells.push_back(std::move(c));
    }
    return w;
}

/**
 * Fig. 5 "attack present": mix attack-00 plus one alone run per distinct
 * benign app, configured exactly as bh::aloneIpc configures it but
 * simulated here so that every pass pays for it.
 */
Workload
mp8Attack(std::uint64_t seed)
{
    bh::MixSpec mix = bh::makeAttackMixes(1, kFig5MixSeed)[0];
    Workload w = multiprogrammed("mp8_attack", mix, 1, seed);
    w.scoresSpeedups = true;
    const bh::ExperimentConfig shared = w.cells[0].cfg;
    std::set<std::string> seen;
    for (const std::string &app : mix.apps) {
        if (bh::isAttackApp(app) || !seen.insert(app).second)
            continue;
        Cell c;
        c.label = "alone-" + app;
        c.group = "alone";
        c.cfg = shared;
        c.cfg.mechanism = "Baseline";
        c.cfg.threads = 1;
        c.cfg.hammerObserver = false;
        c.mix.name = "alone-" + app;
        c.mix.apps = {app};
        w.cells.push_back(std::move(c));
    }
    return w;
}

/** secsweep scale-1 "bankpar-4" row at 2 channels, every mechanism. */
Workload
hammerZoo(std::uint64_t seed)
{
    bh::BenchContext ctx;
    Workload w;
    w.name = "hammer_zoo_2ch";
    w.hasOracle = true;
    const std::string pattern = "bankpar-4";
    for (const std::string &mech : bh::securityMechanisms()) {
        Cell c;
        c.label = mech;
        c.group = mech;
        c.cfg = bh::securityConfig(ctx, mech, 2);
        c.cfg.seed = seed;
        c.mix = bh::securityMix(bh::attackPatternApp(pattern),
                                "sec-" + pattern);
        w.cells.push_back(std::move(c));
    }
    return w;
}

} // namespace

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "mp8_attack")
        return mp8Attack(seed);
    if (name == "mp8_benign_4ch")
        return multiprogrammed(name, bh::makeBenignMixes(1, kFig5MixSeed)[0],
                               4, seed);
    if (name == "hammer_zoo_2ch")
        return hammerZoo(seed);
    bh::fatal("unknown workload '%s' (mp8_attack, mp8_benign_4ch, "
              "hammer_zoo_2ch)", name.c_str());
}

std::string
metricName(const std::string &mechanism)
{
    std::string out = mechanism;
    for (char &c : out)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.' && c != '-')
            c = '-';
    return out;
}

} // namespace perfbench
