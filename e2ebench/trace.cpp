#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

namespace e2ebench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_ambient{0};

/// One thread's closed spans.  Owned by the global list, so the spans of a
/// thread that has exited are still drained.  The mutex is only contended
/// by drain_spans.
struct ThreadBuffer {
    std::mutex mutex;
    std::vector<SpanRecord> spans;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& local_buffer() {
    thread_local ThreadBuffer* buffer = [] {
        auto owned = std::make_unique<ThreadBuffer>();
        ThreadBuffer* raw = owned.get();
        const std::lock_guard<std::mutex> lock(g_buffers_mutex);
        g_buffers.push_back(std::move(owned));
        return raw;
    }();
    return *buffer;
}

/// Ids of the spans open on this thread, innermost last.
thread_local std::vector<std::uint64_t> t_open;

}  // namespace

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void set_tracing(bool enabled) { g_enabled.store(enabled); }

bool tracing() { return g_enabled.load(std::memory_order_relaxed); }

void set_ambient_parent(std::uint64_t id) { g_ambient.store(id); }

std::vector<SpanRecord> drain_spans() {
    std::vector<SpanRecord> all;
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    for (const auto& buffer : g_buffers) {
        const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
        buffer->spans.clear();
    }
    return all;
}

Span::Span(const char* layer, std::uint64_t parent) {
    if (!tracing()) return;
    record_.layer = layer;
    record_.id = g_next_id.fetch_add(1);
    if (parent != 0) {
        record_.parent = parent;
    } else if (!t_open.empty()) {
        record_.parent = t_open.back();
    } else {
        record_.parent = g_ambient.load();
    }
    t_open.push_back(record_.id);
    record_.start_ns = now_ns();
}

Span::~Span() {
    if (record_.id == 0) return;
    record_.end_ns = now_ns();
    t_open.pop_back();
    ThreadBuffer& buffer = local_buffer();
    const std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.spans.push_back(record_);
}

std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans) {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
    }
    std::map<std::string, LayerTime> layers;
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const SpanRecord& span : spans) {
        const std::int64_t duration = span.end_ns - span.start_ns;
        std::int64_t covered = 0;
        const auto found = children.find(span.id);
        if (found != children.end()) {
            cover.clear();
            for (const std::size_t child : found->second) {
                const std::int64_t lo =
                    std::max(spans[child].start_ns, span.start_ns);
                const std::int64_t hi =
                    std::min(spans[child].end_ns, span.end_ns);
                if (hi > lo) cover.emplace_back(lo, hi);
            }
            std::sort(cover.begin(), cover.end());
            std::int64_t reach = span.start_ns;
            for (const auto& [lo, hi] : cover) {
                const std::int64_t from = std::max(lo, reach);
                if (hi > from) {
                    covered += hi - from;
                    reach = hi;
                }
            }
        }
        LayerTime& layer = layers[span.layer];
        layer.total_s += static_cast<double>(duration) * 1e-9;
        layer.self_s += static_cast<double>(duration - covered) * 1e-9;
        ++layer.spans;
    }
    return layers;
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::size_t samples_beyond(const std::vector<double>& values, double p) {
    const double cut = percentile(values, p);
    return static_cast<std::size_t>(
        std::count_if(values.begin(), values.end(),
                      [cut](double v) { return v > cut; }));
}

std::vector<std::size_t> quiet_half(const std::vector<double>& wall_s,
                                    const std::vector<double>& jobs,
                                    std::size_t blocks) {
    double total = 0.0;
    for (const double wall : wall_s) total += wall;
    blocks = std::max<std::size_t>(1, blocks);
    // Pass i goes to block floor(wall before i * blocks / total wall).
    std::vector<std::vector<std::size_t>> members(blocks);
    std::vector<double> block_wall(blocks, 0.0);
    std::vector<double> block_jobs(blocks, 0.0);
    double before = 0.0;
    for (std::size_t i = 0; i < wall_s.size(); ++i) {
        const std::size_t b = std::min(
            blocks - 1, total > 0.0 ? static_cast<std::size_t>(
                                          before * blocks / total)
                                    : 0);
        members[b].push_back(i);
        block_wall[b] += wall_s[i];
        block_jobs[b] += jobs[i];
        before += wall_s[i];
    }
    std::vector<std::pair<double, std::size_t>> ranked;
    for (std::size_t b = 0; b < blocks; ++b) {
        if (!members[b].empty()) {
            ranked.emplace_back(block_wall[b] / std::max(1.0, block_jobs[b]),
                                b);
        }
    }
    std::sort(ranked.begin(), ranked.end());
    ranked.resize((ranked.size() + 1) / 2);
    std::vector<std::size_t> kept;
    for (const auto& [cost, b] : ranked) {
        kept.insert(kept.end(), members[b].begin(), members[b].end());
    }
    std::sort(kept.begin(), kept.end());
    return kept;
}

double median(const std::vector<double>& values) {
    return percentile(values, 0.5);
}

bool valid_name(const std::string& name) {
    if (name.empty() || name.size() > 64) return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front())) return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

int run_self_tests() {
    int failures = 0;
    const auto expect = [&](bool ok, const std::string& what) {
        if (!ok) {
            std::cerr << "self-test failed: " << what << "\n";
            ++failures;
        }
    };
    const auto near = [](double a, double b) {
        return std::abs(a - b) < 1e-9;
    };

    // Self time with children that overlap on several threads: the parent
    // [0, 100] has children [10, 50] and [30, 70] (overlapping) and
    // [90, 120] (clipped to [90, 100]); their union covers 70, so the
    // parent's self time is 30, not 100 - 40 - 40 - 10.
    {
        const std::vector<SpanRecord> spans = {
            {"engine", 1, 0, 0, 100},   {"nn", 2, 1, 10, 50},
            {"nn", 3, 1, 30, 70},       {"fault", 4, 1, 90, 120},
            {"models", 5, 2, 20, 30},
        };
        const auto layers = layer_times(spans);
        expect(near(layers.at("engine").self_s, 30e-9),
               "parent self time subtracts the union of its children");
        expect(near(layers.at("engine").total_s, 100e-9),
               "parent total time");
        expect(near(layers.at("nn").self_s, 30e-9 + 40e-9),
               "child self time subtracts its own child");
        expect(near(layers.at("fault").self_s, 30e-9),
               "a span's self time ignores its parent's interval");
        expect(layers.at("nn").spans == 2, "span count per layer");
    }

    // The same through the recorder: children opened on other threads with
    // no open span of their own attach to the ambient parent.
    {
        set_tracing(true);
        drain_spans();
        std::uint64_t parent_id = 0;
        {
            Span parent("engine");
            parent_id = parent.id();
            set_ambient_parent(parent_id);
            std::vector<std::thread> threads;
            for (int t = 0; t < 3; ++t) {
                threads.emplace_back([] {
                    Span child("nn");
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                });
            }
            for (std::thread& thread : threads) thread.join();
            set_ambient_parent(0);
        }
        set_tracing(false);
        const std::vector<SpanRecord> spans = drain_spans();
        std::size_t linked = 0;
        for (const SpanRecord& span : spans) {
            if (std::string(span.layer) == "nn" && span.parent == parent_id) {
                ++linked;
            }
        }
        expect(spans.size() == 4 && linked == 3,
               "threaded children are linked to the ambient parent");
        const auto layers = layer_times(spans);
        expect(layers.at("engine").self_s >= 0.0 &&
                   layers.at("engine").self_s <
                       layers.at("engine").total_s - 0.015,
               "overlapping threaded children are subtracted once");
    }

    // Percentile level and the sample count beyond it.
    {
        std::vector<double> values;
        for (int i = 100; i >= 1; --i) values.push_back(i);
        expect(near(percentile(values, 0.5), 50.5), "p50 of 1..100");
        expect(near(percentile(values, 0.95), 95.05), "p95 of 1..100");
        expect(near(percentile(values, 0.99), 99.01), "p99 of 1..100");
        expect(samples_beyond(values, 0.95) == 5, "5 samples beyond p95");
        for (int i = 101; i <= 200; ++i) values.push_back(i);
        expect(samples_beyond(values, 0.95) == 10,
               "10 samples beyond p95 of 200");
        expect(near(percentile({7.0}, 0.99), 7.0), "single sample");

    }

    // The quieter half: 16 passes of 1 s (2 jobs each) in 8 blocks, passes
    // 4 to 9 slowed to 2 s by a stolen vCPU.  The blocks inside the slow
    // stretch are dropped (one that straddles its edge may stay); a short
    // run keeps at least one pass.
    {
        std::vector<double> walls(16, 1.0);
        for (std::size_t i = 4; i <= 9; ++i) walls[i] = 2.0;
        const std::vector<double> jobs(16, 2.0);
        const std::vector<std::size_t> kept = quiet_half(walls, jobs, 8);
        double kept_wall = 0.0;
        bool outside = true;
        for (const std::size_t i : kept) {
            kept_wall += walls[i];
            outside = outside && (i < 5 || i > 8);
        }
        expect(kept.size() >= 8 && outside &&
                   kept_wall < 1.25 * static_cast<double>(kept.size()),
               "quiet_half drops the slowed blocks");
        expect(std::is_sorted(kept.begin(), kept.end()),
               "quiet_half keeps run order");
        expect(quiet_half({3.0}, {1.0}, 8) == std::vector<std::size_t>{0},
               "a single pass is kept");
        expect(quiet_half({1.0, 5.0, 1.0}, {1.0, 1.0, 1.0}, 8).size() == 2,
               "one slow pass of three is dropped");
        expect(percentile({}, 0.5) == 0.0, "empty sample");
    }

    // Name grammar.
    expect(valid_name("nn.train_s") && valid_name("serve_mixed") &&
               valid_name("p-99"),
           "valid names accepted");
    expect(!valid_name("") && !valid_name("_x") && !valid_name("a b") &&
               !valid_name("a/b") && !valid_name(std::string(65, 'a')),
           "invalid names rejected");
    return failures;
}

}  // namespace e2ebench
