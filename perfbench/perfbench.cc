/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload lj-5cc|pt-sparse|mc-serve --seed N
 *             --seconds S --trace 0|1 [--slo-ms MS] [--tiny]
 *
 * Prints notes, then as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 * perfbench/run.py builds this binary and supplies --slo-ms from
 * BENCHMARK.json; see perfbench/README.md.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hh"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--slo-ms MS] [--tiny]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    options.threads = std::min(4u, hw);
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--tiny") {
                options.tiny = true;
                continue;
            }
            if (i + 1 >= argc)
                return usage(("missing value for " + flag).c_str());
            const std::string value = argv[++i];
            if (flag == "--workload")
                options.workload = value;
            else if (flag == "--seed")
                options.seed = std::stoull(value);
            else if (flag == "--seconds")
                options.seconds = std::stod(value);
            else if (flag == "--trace")
                options.trace = std::stoi(value) != 0;
            else if (flag == "--slo-ms")
                options.sloMs = std::stod(value);
            else
                return usage(("unknown flag " + flag).c_str());
        }
    } catch (const std::exception &) {
        return usage("malformed flag value");
    }
    const auto names = perfbench::workloadNames();
    if (std::find(names.begin(), names.end(), options.workload)
        == names.end())
        return usage(("unknown workload '" + options.workload + "'").c_str());
    if (!(options.seconds > 0) || !(options.sloMs > 0))
        return usage("--seconds and --slo-ms must be positive");

    try {
        const perfbench::Outcome out = perfbench::runWorkload(options);
        std::printf("workload %s seed %llu threads %u trace %d\n",
                    options.workload.c_str(),
                    static_cast<unsigned long long>(options.seed),
                    options.threads, options.trace ? 1 : 0);
        for (const std::string &note : out.notes)
            std::printf("%s\n", note.c_str());
        std::printf("%s\n",
                    out.report.toJson(out.correct, out.attempted,
                                      out.failed)
                        .c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
