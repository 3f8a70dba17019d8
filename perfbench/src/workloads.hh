/**
 * @file
 * The benchmark's workloads: each is a fixed list of simulated cells
 * built from the bench layer's own configurations (Fig. 5 and secsweep).
 * The workload seed is the ExperimentConfig seed of every cell: it
 * drives every trace generator and mitigation RNG stream, while the app
 * composition of each mix stays the documented one.
 */

#ifndef BH_PERFBENCH_WORKLOADS_HH
#define BH_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace perfbench
{

/** Seed that reproduces the documented (and golden-pinned) cells. */
constexpr std::uint64_t kDefaultSeed = 1;

/** One simulated system. */
struct Cell
{
    std::string label;  ///< unique within the workload
    std::string group;  ///< mechanism name, or "alone" for alone-IPC runs
    bh::ExperimentConfig cfg;
    bh::MixSpec mix;
};

struct Workload
{
    std::string name;
    std::vector<Cell> cells;
    /**
     * The multiprogrammed cells are scored against alone-run IPCs
     * (weighted/harmonic speedup, maximum slowdown) simulated in the
     * same pass.
     */
    bool scoresSpeedups = false;
    /** Cells carry SecurityOracle verdicts (secsweep configuration). */
    bool hasOracle = false;
};

/** Build a named workload at `seed`; fatal on an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/**
 * Mechanism name in the metric-name alphabet: anything other than
 * letters, digits, '_', '.' and '-' becomes '-'.
 */
std::string metricName(const std::string &mechanism);

} // namespace perfbench

#endif // BH_PERFBENCH_WORKLOADS_HH
