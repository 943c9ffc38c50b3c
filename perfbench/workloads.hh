/**
 * @file
 * The benchmark's three workloads (see README.md for why each one
 * exists and which layers it loads):
 *
 *   - lj-5cc:    repeated 5-clique counts on the LiveJournal recipe;
 *   - pt-sparse: a five-pattern batch on the Patents recipe in the
 *                small-chunk cache regime;
 *   - mc-serve:  a seeded open-loop query stream into one
 *                QueryService over the MiCo recipe, with degrade
 *                and crash faults mixed in.
 *
 * Every workload builds its inputs from the seed, checks every count
 * against a second execution path, and fills one Report: the
 * end-to-end metrics when untraced, the per-layer metrics when
 * traced.
 */

#ifndef KHUZDUL_PERFBENCH_WORKLOADS_HH
#define KHUZDUL_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench
{

/** One run's settings (command-line flags of perfbench). */
struct Options
{
    std::string workload;
    /** Input seed; seed 0 includes the registered stand-in. */
    std::uint64_t seed = 0;
    /** Measured window per run. */
    double seconds = 10;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Scaled-down graphs and fewer repetitions (self-test). */
    bool tiny = false;
    /** Latency limit of slo_met_frac (ms). */
    double sloMs = 1000;
    /** Host threads and service in-flight bound. */
    unsigned threads = 1;
};

/** What a run measured and whether every check passed. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Report report;
    /** Human-readable lines printed before the JSON result. */
    std::vector<std::string> notes;
};

/** Names accepted by runWorkload(). */
std::vector<std::string> workloadNames();

/** Run one workload; throws std::exception on set-up failure. */
Outcome runWorkload(const Options &options);

} // namespace perfbench

#endif // KHUZDUL_PERFBENCH_WORKLOADS_HH
