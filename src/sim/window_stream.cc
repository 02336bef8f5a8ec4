#include "sim/window_stream.hh"

#include <cmath>

namespace tb {

WindowStream::WindowStream(std::uint64_t seed,
                           const std::vector<WindowClass> &classes)
{
    streams_.reserve(classes.size());
    for (const WindowClass &cls : classes)
        streams_.push_back(Stream{cls, Rng(mix64(seed ^ cls.tag)), 0.0});
}

Window
WindowStream::next(std::size_t c)
{
    Stream &s = streams_[c];
    const double u = s.rng.uniform();
    const Time gap = -std::log(1.0 - u) / s.cls.rate;
    Window w;
    w.kind = s.cls.kind;
    if (s.cls.numTargets > 0)
        w.target = static_cast<std::size_t>(s.rng.uniformInt(
            0, static_cast<std::int64_t>(s.cls.numTargets) - 1));
    w.start = s.prevEnd + gap;
    w.end = w.start + s.cls.grace + s.cls.length;
    s.prevEnd = w.end;
    return w;
}

std::vector<Window>
WindowStream::windowsBefore(Time horizon)
{
    std::vector<Window> windows;
    for (std::size_t c = 0; c < streams_.size(); ++c)
        for (Window w = next(c); w.start < horizon; w = next(c))
            windows.push_back(w);
    return windows;
}

void
WindowStream::arm(EventQueue &eq, Fire fire)
{
    eq_ = &eq;
    fire_ = std::move(fire);
    origin_ = eq.now();
    armed_ = true;
    pending_.assign(streams_.size(), EventId{});
    for (std::size_t c = 0; c < streams_.size(); ++c)
        chain(c);
}

void
WindowStream::chain(std::size_t c)
{
    const Window w = next(c);
    pending_[c] = eq_->schedule(origin_ + w.start, [this, c, w] {
        fire_(w);
        if (armed_)
            chain(c);
    });
}

void
WindowStream::disarm()
{
    armed_ = false;
    for (EventId &id : pending_)
        eq_->cancel(id);
}

} // namespace tb
