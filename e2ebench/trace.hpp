#pragma once
// In-memory span tracing and the order statistics the end-to-end benchmark
// reports.  Spans are recorded by the benchmark driver around its calls into
// the library's layers; they are kept in per-thread buffers and merged only
// when the run ends, so recording a span never takes a lock.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// One closed span.  `parent` is the id of the span that caused it (0 for a
/// root span); the children of one span may run on other threads.
struct SpanRecord {
    const char* layer = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

/// Turns span recording on or off (off by default).  Only flip it while no
/// span is open.
void set_tracing(bool enabled);
bool tracing();

/// Spans opened on a thread with no open span of its own are parented to
/// the ambient span: the span of the caller that fanned the work out to
/// other threads.  0 clears it.
void set_ambient_parent(std::uint64_t id);

/// Every span closed since the last call, from every thread, in no
/// particular order; the buffers are emptied.
std::vector<SpanRecord> drain_spans();

/// RAII span.  Does nothing (and allocates no id) while tracing is off.
class Span {
public:
    /// Parent: `parent` when non-zero, else the innermost span open on this
    /// thread, else the ambient parent.
    explicit Span(const char* layer, std::uint64_t parent = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// 0 while tracing is off.
    std::uint64_t id() const { return record_.id; }

private:
    SpanRecord record_;
};

/// Per-layer sums over a set of spans.
struct LayerTime {
    double total_s = 0.0;  ///< summed span durations
    double self_s = 0.0;   ///< summed durations minus child coverage
    std::size_t spans = 0;
};

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals clipped to it, so children that overlap on
/// several threads are not subtracted twice.  Summed per layer.
std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans);

/// Linear-interpolated percentile (p in [0, 1]) of unsorted values; 0 for
/// an empty sample.
double percentile(std::vector<double> values, double p);

/// Number of samples strictly greater than the p-th percentile: a tail
/// percentile is only trustworthy with at least ten of them.
std::size_t samples_beyond(const std::vector<double>& values, double p);

/// Indices, in run order, of the passes of the quieter half of a run.  A
/// shared host's vCPUs are stolen for seconds at a time, which slows every
/// pass then running.  So the passes are cut into `blocks` runs of
/// consecutive passes of nearly equal wall time, the blocks are ranked by
/// wall time per job, and the passes of the faster half of the blocks
/// (rounded up) are kept.
std::vector<std::size_t> quiet_half(const std::vector<double>& wall_s,
                                    const std::vector<double>& jobs,
                                    std::size_t blocks);

/// Median (percentile 0.5).
double median(const std::vector<double>& values);

/// True for a metric or workload name: 1 to 64 characters from
/// [A-Za-z0-9_.-], starting with a letter or a digit.
bool valid_name(const std::string& name);

/// Runs the benchmark's self-tests; prints each failure to stderr and
/// returns the number of failures.
int run_self_tests();

}  // namespace e2ebench
