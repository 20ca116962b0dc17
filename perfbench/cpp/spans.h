/**
 * @file
 * Benchmark-side spans: host-time intervals recorded around the calls
 * the benchmark makes into each fbsim layer.
 *
 * A span has a name, a start, an end, the span that caused it and the
 * thread track it ran on.  Spans stay in memory and are written once,
 * at exit, as Chrome/Perfetto trace_event JSON (the format
 * scripts/validate_trace.py checks).  A log built with recording off
 * keeps nothing, so the untraced run pays one clock read per span
 * edge and no allocation.
 */

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two time points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

class SpanLog
{
  public:
    static constexpr std::size_t kNone =
        std::numeric_limits<std::size_t>::max();

    explicit SpanLog(bool recording);

    /** Open a span; its end is set by close().  Returns its id, or
     *  kNone when not recording.  Thread-safe. */
    std::size_t open(const char *name, std::size_t parent,
                     std::uint32_t tid, Clock::time_point start);
    void close(std::size_t id, Clock::time_point end);

    /** Record a span whose interval is already known. */
    std::size_t add(const char *name, std::size_t parent,
                    std::uint32_t tid, Clock::time_point start,
                    Clock::time_point end);

    /** Spans recorded so far (a mark for seconds()). */
    std::size_t size() const;

    /** Summed duration of the spans called `name` recorded at or
     *  after `mark`. */
    double seconds(std::string_view name, std::size_t mark) const;

    /** trace_event JSON, spans in start order per thread track;
     *  ts/dur are microseconds since the log was created. */
    std::string render() const;

  private:
    struct Record
    {
        const char *name;
        std::size_t parent;
        std::uint32_t tid;
        Clock::time_point start;
        Clock::time_point end;
    };

    bool recording_;
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Record> spans_;  ///< guarded by mu_
};

/** A span over the enclosing scope on one thread. */
class Span
{
  public:
    Span(SpanLog &log, const char *name,
         std::size_t parent = SpanLog::kNone, std::uint32_t tid = 0)
        : log_(log), start_(Clock::now()),
          id_(log.open(name, parent, tid, start_))
    {
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span()
    {
        if (open_)
            close();
    }

    /** End the span now; returns its duration in seconds. */
    double
    close()
    {
        Clock::time_point end = Clock::now();
        open_ = false;
        log_.close(id_, end);
        return secondsBetween(start_, end);
    }

    std::size_t id() const { return id_; }

  private:
    SpanLog &log_;
    Clock::time_point start_;
    std::size_t id_;
    bool open_ = true;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H_
