/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries.
 *
 * Every figN_* / tableN_* binary prints the same rows/series the paper
 * reports, as an aligned table plus (with --csv) machine-readable CSV.
 * The session-driving benches share one runner: a ServerConfig (usually
 * from a preset named constructor) goes in, a SessionReport comes out,
 * and the sweep helpers iterate that over the paper's standard axes
 * (Table I models, the Fig 19 preset series, accelerator counts).
 */

#ifndef TRAINBOX_BENCH_BENCH_UTIL_HH
#define TRAINBOX_BENCH_BENCH_UTIL_HH

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"
#include "workload/model_zoo.hh"

namespace tb {
namespace bench {

/**
 * Exit 2 over @p arg, an argument program @p prog does not take, with a
 * usage line that names it; @p usage lists the arguments it does take.
 */
[[noreturn]] inline void
rejectArgument(const char *prog, const char *usage, const char *arg)
{
    std::fprintf(stderr, "%s: unknown argument '%s'; usage: %s %s\n", prog,
                 arg, prog, usage);
    std::exit(2);
}

/**
 * The positive integer after option argv[i], which moves @p i past it.
 * A missing or malformed value exits 2 with a usage line.
 */
inline std::size_t
countArgument(int argc, char **argv, int &i, const char *usage)
{
    const char *option = argv[i];
    const char *text = i + 1 < argc ? argv[++i] : "";
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        errno == ERANGE || value == 0) {
        std::fprintf(stderr,
                     "%s: %s needs a positive integer, not '%s'; usage: %s "
                     "%s\n",
                     argv[0], option, text, argv[0], usage);
        std::exit(2);
    }
    return static_cast<std::size_t>(value);
}

/**
 * True when argv holds --csv, the only argument the figure and sweep
 * binaries take; any other argument exits 2 (rejectArgument).
 */
inline bool
wantCsv(int argc, char **argv)
{
    bool csv = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") != 0)
            rejectArgument(argv[0], "[--csv]", argv[i]);
        csv = true;
    }
    return csv;
}

/** Print a section header. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

/** Print a table in the requested format. */
inline void
emit(const Table &table, bool csv)
{
    if (csv)
        table.printCsv();
    else
        table.print();
}

/** Build @p cfg, run one session, and return its SessionReport. */
inline SessionReport
runReport(const ServerConfig &cfg, std::size_t warmup = 4,
          std::size_t measure = 8)
{
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    return session.runReport(warmup, measure);
}

/**
 * One report per Table I workload. @p configure maps a model to the
 * config to run (e.g. ServerConfig::baseline().withModel(m.id)).
 */
template <typename ConfigureFn>
std::vector<SessionReport>
sweepModels(ConfigureFn configure, std::size_t warmup = 4,
            std::size_t measure = 8)
{
    std::vector<SessionReport> reports;
    for (const auto &m : workload::modelZoo())
        reports.push_back(runReport(configure(m), warmup, measure));
    return reports;
}

/** One report per preset in @p presets, all else from @p base. */
inline std::vector<SessionReport>
sweepPresets(const ServerConfig &base,
             const std::vector<ArchPreset> &presets,
             std::size_t warmup = 4, std::size_t measure = 8)
{
    std::vector<SessionReport> reports;
    for (ArchPreset p : presets) {
        ServerConfig cfg = base;
        reports.push_back(runReport(cfg.withPreset(p), warmup, measure));
    }
    return reports;
}

/** One report per accelerator count, all else from @p base. */
inline std::vector<SessionReport>
sweepScales(const ServerConfig &base,
            const std::vector<std::size_t> &scales,
            std::size_t warmup = 4, std::size_t measure = 8)
{
    std::vector<SessionReport> reports;
    for (std::size_t n : scales) {
        ServerConfig cfg = base;
        reports.push_back(
            runReport(cfg.withAccelerators(n), warmup, measure));
    }
    return reports;
}

} // namespace bench
} // namespace tb

#endif // TRAINBOX_BENCH_BENCH_UTIL_HH
