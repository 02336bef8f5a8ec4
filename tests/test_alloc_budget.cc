/**
 * @file
 * Heap-allocation budget of the simulator's stage path.
 *
 * This binary replaces the global operator new with a counting version
 * that forwards to malloc. It steps undisturbed sessions (no faults,
 * metrics and trace off) from step 6 to step 11 of start(4, 8) and
 * counts the allocations made meanwhile. In that window every event is
 * a stage's flow start or completion, a compute or a sync, and none of
 * them should allocate once the session's storage has warmed up
 * (docs/PERFORMANCE.md, "Flow, chain and event handles").
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace {

std::atomic<std::size_t> gNewCalls{0};

} // namespace

void *
operator new(std::size_t size)
{
    gNewCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The deletes stay out of line: inlined at a new-expression, GCC sees
// free() meet a pointer from operator new and warns of a mismatch it
// cannot know the counting operator new rules out.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace tb {
namespace {

struct Window
{
    std::size_t allocations = 0;
    std::uint64_t events = 0;
};

/** Allocations and events between step 6 and step 11 of start(4, 8). */
Window
stepWindow(ArchPreset preset, workload::ModelId model, std::size_t accs)
{
    ServerConfig cfg =
        ServerConfig::baseline().withModel(model).withAccelerators(accs);
    cfg.withPreset(preset);
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    session.start(4, 8);
    EventQueue &eq = server->core().events();
    while (session.stepsSynced() < 6 && !session.done() && eq.step()) {
    }
    const std::size_t calls = gNewCalls.load(std::memory_order_relaxed);
    const std::uint64_t events = eq.numExecuted();
    while (session.stepsSynced() < 11 && !session.done() && eq.step()) {
    }
    Window w;
    w.allocations = gNewCalls.load(std::memory_order_relaxed) - calls;
    w.events = eq.numExecuted() - events;
    return w;
}

TEST(AllocBudget, StagePathAllocatesAtMostOncePerTwentyEvents)
{
    struct Cell
    {
        const char *name;
        ArchPreset preset;
        workload::ModelId model;
        std::size_t accs;
    };
    const Cell cells[] = {
        {"Baseline Resnet-50 @256", ArchPreset::Baseline,
         workload::ModelId::Resnet50, 256},
        {"TrainBox Resnet-50 @256", ArchPreset::TrainBox,
         workload::ModelId::Resnet50, 256},
        {"TrainBox Transformer-SR @16", ArchPreset::TrainBox,
         workload::ModelId::TfSr, 16},
        {"B+Acc+P2P VGG-19 @64", ArchPreset::BaselineAccP2p,
         workload::ModelId::Vgg19, 64},
    };
    std::size_t allocations = 0;
    std::uint64_t events = 0;
    for (const Cell &c : cells) {
        const Window w = stepWindow(c.preset, c.model, c.accs);
        std::printf("%-28s %6zu allocations over %4llu events\n", c.name,
                    w.allocations,
                    static_cast<unsigned long long>(w.events));
        EXPECT_GT(w.events, 0u) << c.name;
        allocations += w.allocations;
        events += w.events;
    }
    EXPECT_LE(allocations * 20, events)
        << allocations << " allocations over " << events << " events";
}

} // namespace
} // namespace tb
