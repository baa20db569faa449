#include "bench_json.h"

#include <cstdio>
#include <cstring>

#include "obs/json.h"

namespace felix {
namespace bench {

double
realTimeNs(const benchmark::BenchmarkReporter::Run &run)
{
    return run.GetAdjustedRealTime() * 1e9 /
           benchmark::GetTimeUnitMultiplier(run.time_unit);
}

void
CaptureReporter::ReportRuns(const std::vector<Run> &runs)
{
    for (const Run &run : runs) {
        if (run.error_occurred)
            continue;
        // Under --benchmark_repetitions a series keeps one row, its
        // median aggregate, under the series' own name.
        if (run.run_type == Run::RT_Aggregate
                ? run.aggregate_name != "median"
                : run.repetitions > 1)
            continue;
        CapturedRun captured;
        captured.name = run.run_name.str();
        captured.realTimeNs = realTimeNs(run);
        for (const auto &entry : run.counters)
            captured.counters[entry.first] = entry.second.value;
        runs_.push_back(std::move(captured));
    }
    ConsoleReporter::ReportRuns(runs);
}

std::string
renderJson(const std::string &bench, const std::string &header,
           const std::vector<CapturedRun> &runs,
           const RunFields &runFields)
{
    std::string out = "{\n  \"bench\": " + obs::jsonEscape(bench) +
                      ",\n" + header + "  \"results\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        const CapturedRun &run = runs[i];
        out += "    {\"name\": " + obs::jsonEscape(run.name);
        if (runFields)
            out += runFields(run.name);
        out += ", \"real_time_ns\": " + obs::jsonNumber(run.realTimeNs);
        for (const auto &counter : run.counters)
            out += ", " + obs::jsonEscape(counter.first) + ": " +
                   obs::jsonNumber(counter.second);
        out += i + 1 < runs.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    return out;
}

int
runSuite(int argc, char **argv, const std::string &bench,
         const std::string &header, const RunFields &runFields)
{
    std::string jsonPath;
    // Peel off --json-out=FILE before google-benchmark sees argv.
    int argOut = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json-out=", 11) == 0)
            jsonPath = argv[i] + 11;
        else
            argv[argOut++] = argv[i];
    }
    argc = argOut;

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    if (jsonPath.empty())
        return 0;

    const std::string out =
        renderJson(bench, header, reporter.runs(), runFields);
    std::FILE *f = std::fopen(jsonPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_%s: cannot write %s\n",
                     bench.c_str(), jsonPath.c_str());
        return 1;
    }
    const bool ok =
        std::fwrite(out.data(), 1, out.size(), f) == out.size();
    std::fclose(f);
    if (!ok)
        return 1;
    std::printf("wrote %s\n", jsonPath.c_str());
    return 0;
}

} // namespace bench
} // namespace felix
