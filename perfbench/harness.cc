#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench
{

double
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

double
cpuNs()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto ns = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) * 1e9
            + static_cast<double>(tv.tv_usec) * 1e3;
    };
    return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    // "5" resets the peak RSS counter and touches nothing else.
    const bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

double
peakRssSinceResetMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return peakRssMb();
    char line[256];
    double kb = -1;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf", &kb) == 1)
            break;
    std::fclose(f);
    return kb < 0 ? peakRssMb() : kb / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail
tailOf(std::vector<double> values)
{
    Tail tail;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n <= 10) {
        tail.value = values.back();
        return tail;
    }
    tail.value = values[n - 11];
    tail.percentile = 100.0 * static_cast<double>(n - 10)
        / static_cast<double>(n);
    return tail;
}

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    metrics_.push_back({name, std::isfinite(value) ? value : 0, unit});
}

std::string
Report::toJson(bool correct, std::uint64_t attempted,
               std::uint64_t failed) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
        out += (i ? ", \"" : "\"") + metrics_[i].name
            + "\": {\"value\": " + value + ", \"unit\": \""
            + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

Tracer::Scope::Scope(Tracer &tracer, const char *name)
    : tracer_(tracer), index_(-1)
{
    if (!tracer.enabled_)
        return;
    tracer.spans_.push_back({name, nowNs(), 0});
    index_ = static_cast<int>(tracer.spans_.size() - 1);
}

Tracer::Scope::~Scope()
{
    if (index_ >= 0)
        tracer_.spans_[index_].endNs = nowNs();
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_)
        if (span.name == name)
            out.push_back((span.endNs - span.startNs) * 1e-6);
    return out;
}

} // namespace perfbench
