#include "sim/trace.hh"

#include <cstdio>

#include "common/escape.hh"

namespace tb {

int
TraceWriter::trackId(const std::string &track)
{
    auto it = tracks_.find(track);
    if (it != tracks_.end())
        return it->second;
    const int id = static_cast<int>(tracks_.size()) + 1;
    tracks_.emplace(track, id);
    return id;
}

void
TraceWriter::complete(const std::string &track, const std::string &name,
                      Time start, Time duration,
                      const std::string &category)
{
    events_.push_back(
        {'X', name, category, trackId(track), start, duration});
}

void
TraceWriter::instant(const std::string &track, const std::string &name,
                     Time when, const std::string &category)
{
    events_.push_back({'i', name, category, trackId(track), when, 0.0});
}

void
TraceWriter::counter(const std::string &track, const std::string &name,
                     Time when, double value)
{
    events_.push_back({'C', name, "sim", trackId(track), when, value});
}

std::string
TraceWriter::toJson() const
{
    std::string out = "{\"traceEvents\":[";
    const char *sep = "";
    char buf[768]; // two %.3f of the largest double fit

    // Thread-name metadata so tracks show readable labels.
    for (const auto &[name, id] : tracks_) {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                      "\"name\":\"thread_name\",\"args\":{\"name\":",
                      sep, id);
        out += buf;
        appendJsonString(out, name);
        out += "}}";
        sep = ",";
    }

    for (const auto &e : events_) {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"ph\":\"%c\",\"pid\":1,\"tid\":%d,\"name\":",
                      sep, e.phase, e.track);
        out += buf;
        appendJsonString(out, e.name);
        if (e.phase != 'C') {
            out += ",\"cat\":";
            appendJsonString(out, e.category);
        }
        if (e.phase == 'X')
            std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f}",
                          e.start * 1e6, e.duration * 1e6);
        else if (e.phase == 'C')
            std::snprintf(buf, sizeof(buf),
                          ",\"ts\":%.3f,\"args\":{\"value\":%g}}",
                          e.start * 1e6, e.duration);
        else
            std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"s\":\"t\"}",
                          e.start * 1e6);
        out += buf;
        sep = ",";
    }
    out += "]}";
    return out;
}

bool
TraceWriter::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string json = toJson();
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    std::fclose(f);
    return ok;
}

void
TraceWriter::clear()
{
    events_.clear();
    tracks_.clear();
}

} // namespace tb
