#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace perfbench {

SpanLog::SpanLog(bool recording)
    : recording_(recording), origin_(Clock::now())
{
}

std::size_t
SpanLog::open(const char *name, std::size_t parent, std::uint32_t tid,
              Clock::time_point start)
{
    return add(name, parent, tid, start, start);
}

void
SpanLog::close(std::size_t id, Clock::time_point end)
{
    if (id == kNone)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = end;
}

std::size_t
SpanLog::add(const char *name, std::size_t parent, std::uint32_t tid,
             Clock::time_point start, Clock::time_point end)
{
    if (!recording_)
        return kNone;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, tid, start, end});
    return spans_.size() - 1;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

double
SpanLog::seconds(std::string_view name, std::size_t mark) const
{
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0;
    for (std::size_t i = mark; i < spans_.size(); ++i) {
        if (name == spans_[i].name)
            total += secondsBetween(spans_[i].start, spans_[i].end);
    }
    return total;
}

std::string
SpanLog::render() const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto micros = [this](Clock::time_point t) {
        return static_cast<long long>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                t - origin_)
                .count());
    };
    // Per-track timestamps must not decrease in emission order, so
    // emit by (track, start) rather than in close order.
    std::vector<std::size_t> order(spans_.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         if (spans_[a].tid != spans_[b].tid)
                             return spans_[a].tid < spans_[b].tid;
                         return spans_[a].start < spans_[b].start;
                     });

    std::string out = "{\"traceEvents\":[{\"name\":\"process_name\","
                      "\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":"
                      "{\"name\":\"fbsim_perfbench\"}}";
    char buf[320];
    for (std::size_t i : order) {
        const Record &s = spans_[i];
        long long ts = micros(s.start);
        long long dur = std::max(0LL, micros(s.end) - ts);
        long long parent =
            s.parent == kNone ? -1 : static_cast<long long>(s.parent);
        std::snprintf(buf, sizeof buf,
                      ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%lld,\"dur\":%lld,\"args\":"
                      "{\"id\":%zu,\"parent\":%lld}}",
                      s.name, s.tid, ts, dur, i, parent);
        out += buf;
    }
    out += "]}\n";
    return out;
}

} // namespace perfbench
