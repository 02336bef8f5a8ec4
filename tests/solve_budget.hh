/**
 * @file
 * The solve budget of a session: start() costs exactly one fluid solve
 * and every simulated event at most one. The check drives the session
 * the way perfbench does (start(), then EventQueue::step() until done)
 * and reads the solver's pass counter around each call.
 */

#ifndef TRAINBOX_TESTS_SOLVE_BUDGET_HH
#define TRAINBOX_TESTS_SOLVE_BUDGET_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace tb {

/**
 * Run @p cfg for @p warmup + @p measure steps under the solve budget
 * and return the session's result (for the caller to check that the
 * configuration reached the path it is meant to cover).
 */
inline SessionResult
runWithinSolveBudget(const ServerConfig &cfg, std::size_t warmup,
                     std::size_t measure, const std::string &what)
{
    SCOPED_TRACE(what);
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    EventQueue &eq = server->core().events();
    const FluidNetwork &net = server->core().fluid();

    std::uint64_t before = net.solverStats().solves;
    session.start(warmup, measure);
    EXPECT_EQ(net.solverStats().solves - before, 1u) << "start()";

    std::uint64_t events = 0;
    std::uint64_t over = 0;    // events that solved more than once
    std::uint64_t worst = 0;   // most solves one event cost
    Time worstAt = 0.0;
    before = net.solverStats().solves;
    while (!session.done() && eq.step()) {
        const std::uint64_t after = net.solverStats().solves;
        ++events;
        if (after - before > 1) {
            ++over;
            if (after - before > worst) {
                worst = after - before;
                worstAt = eq.now();
            }
        }
        before = after;
    }
    EXPECT_TRUE(session.done());
    EXPECT_EQ(over, 0u) << over << " of " << events
                        << " events solved more than once; the worst, at t="
                        << worstAt << ", solved " << worst << " times";
    return session.collect();
}

} // namespace tb

#endif // TRAINBOX_TESTS_SOLVE_BUDGET_HH
