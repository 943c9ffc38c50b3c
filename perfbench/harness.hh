/**
 * @file
 * Measurement plumbing of the end-to-end benchmark: host clocks,
 * process CPU and peak RSS, order statistics, benchmark-owned spans
 * around calls into the library's layers, and the metric report
 * printed as the run's last output line.
 *
 * Nothing here reaches into the library: every span is opened and
 * closed by benchmark code around a public call, so the untraced
 * run executes exactly what a library user would.
 */

#ifndef KHUZDUL_PERFBENCH_HARNESS_HH
#define KHUZDUL_PERFBENCH_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Host steady-clock time in ns since the first call. */
double nowNs();

/** Process user+system CPU time in ns (all threads). */
double cpuNs();

/** Peak resident set size of the process in MB. */
double peakRssMb();

/**
 * Restart the RSS high-water mark at the current RSS, so that
 * peakRssSinceResetMb() measures one interval.  Returns false where
 * the kernel does not allow it (no /proc/self/clear_refs).
 */
bool resetPeakRss();

/** RSS high-water mark (VmHWM) since the last reset, in MB. */
double peakRssSinceResetMb();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * The highest percentile of @p values that has at least ten samples
 * beyond it: the value with exactly ten samples above it.  With ten
 * or fewer samples it is the maximum (percentile 100).
 */
struct Tail
{
    double value = 0;
    double percentile = 100;
    std::size_t samples = 0;
};
Tail tailOf(std::vector<double> values);

/** One named metric of the report. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** The metrics of one run, in insertion order. */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);

    /** The closing JSON object: correct/attempted/failed/metrics. */
    std::string toJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed) const;

  private:
    std::vector<Metric> metrics_;
};

/**
 * In-memory span recorder: a span is a name with host start and end
 * times.  When disabled every call is a no-op, so the same workload
 * code serves the untraced and the traced run.
 */
class Tracer
{
  public:
    /** Closes its span on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Number of spans recorded. */
    std::size_t size() const { return spans_.size(); }

    /** Durations (ms) of every span called @p name. */
    std::vector<double> durationsMs(const std::string &name) const;

  private:
    struct Span
    {
        std::string name;
        double startNs = 0;
        double endNs = 0;
    };

    bool enabled_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // KHUZDUL_PERFBENCH_HARNESS_HH
