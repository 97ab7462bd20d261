#include "core/persist.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string_view>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/engine.hpp"
#include "nn/dropout.hpp"

namespace bayesft::core {

namespace {

constexpr std::string_view kMagic = "bayesft-checkpoint";

/// "commit" + 9 x " <16 hex digits>" + '\n' (docs/checkpointing.md).
constexpr std::size_t kCommitFields = 9;
constexpr std::size_t kCommitBytes = 6 + kCommitFields * 17 + 1;
/// "delta" + " <payload bytes>" + " <payload checksum>" + '\n'.
constexpr std::size_t kDeltaHeaderBytes = 5 + 2 * 17 + 1;
/// The encoder's fixed buffer: bases stream through it, a delta must fit.
constexpr std::size_t kBufferBytes = std::size_t{1} << 16;

std::uint64_t double_bits(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(double));
    return bits;
}

double bits_double(std::uint64_t bits) {
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(double));
    return value;
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
    throw std::runtime_error("checkpoint: " + what + " (" + path + ")");
}

// ------------------------------------------------------------- digests --

/// One splitmix64-style step; a bijection of `value` for a fixed `chain`.
std::uint64_t fold(std::uint64_t chain, std::uint64_t value) {
    std::uint64_t z = (chain ^ value) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 31)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 29)) + 0x9e3779b97f4a7c15ULL;
}

std::uint64_t fold_bytes(std::uint64_t chain, std::string_view bytes) {
    chain = fold(chain, bytes.size());
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes.data() + i, 8);
        chain = fold(chain, word);
    }
    if (i < bytes.size()) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes.data() + i, bytes.size() - i);
        chain = fold(chain, word);
    }
    return chain;
}

std::uint64_t fold_row(std::uint64_t chain, const std::vector<double>& x) {
    chain = fold(chain, x.size());
    for (const double v : x) chain = fold(chain, double_bits(v));
    return chain;
}

constexpr std::uint64_t kTrialSeed = 0x747269616c73ULL;  // "trials"
constexpr std::uint64_t kCacheSeed = 0x6361636865ULL;    // "cache"

using CacheEntry = std::pair<std::vector<double>, double>;

/// Ordered chain over trials [begin, end): equal digests over the first k
/// rows mean the live search extends what is on disk.
std::uint64_t fold_trials(std::uint64_t chain,
                          const std::vector<bayesopt::Trial>& trials,
                          std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
        chain = fold(fold_row(chain, trials[i].x), double_bits(trials[i].y));
        chain = fold(chain, static_cast<std::uint64_t>(trials[i].status));
    }
    return chain;
}

/// EvaluationEngine::export_cache's order.
bool key_less(const CacheEntry& a, const CacheEntry& b) {
    return a.first < b.first;
}

std::uint64_t cache_entry_digest(const CacheEntry& entry) {
    return fold(fold_row(kCacheSeed, entry.first), double_bits(entry.second));
}

/// Order-free: the sum of the entries' digests.
std::uint64_t cache_digest(const std::vector<CacheEntry>& cache) {
    std::uint64_t sum = 0;
    for (const CacheEntry& entry : cache) sum += cache_entry_digest(entry);
    return sum;
}

/// Everything a journal never rewrites: a save whose header digest differs
/// from the file's (another run, pass, build or model) starts a new base.
std::uint64_t header_digest(const SearchCheckpoint& cp) {
    std::uint64_t h = fold_bytes(0, cp.run_id);
    h = fold_bytes(h, cp.build);
    h = fold(h, cp.space_digest);
    h = fold(h, cp.scenario_digest);
    h = fold(h, cp.context_key);
    h = fold(h, cp.model_digest);
    h = fold(h, cp.bo.initial_plan.size());
    for (const std::vector<double>& row : cp.bo.initial_plan) {
        h = fold_row(h, row);
    }
    return h;
}

/// The fixed-shape line every committed prefix of a v4 file ends in.
struct Commit {
    std::uint64_t trials = 0;
    std::uint64_t trial_digest = 0;
    std::uint64_t cache = 0;
    std::uint64_t cache_digest = 0;
    std::uint64_t header = 0;
    std::uint64_t base_bytes = 0;  ///< base records + its commit line
    std::uint64_t file_bytes = 0;  ///< file size through this line
    std::uint64_t deltas = 0;      ///< journal records before this line
};

/// The commit fields that describe `cp` itself (a base's commit line).
Commit state_commit(const SearchCheckpoint& cp) {
    Commit commit;
    commit.trials = cp.bo.trials.size();
    commit.trial_digest =
        fold_trials(kTrialSeed, cp.bo.trials, 0, cp.bo.trials.size());
    commit.cache = cp.cache.size();
    commit.cache_digest = cache_digest(cp.cache);
    commit.header = header_digest(cp);
    return commit;
}

// ------------------------------------------------------------- encoder --

constexpr std::array<char, 512> make_hex_pairs() {
    constexpr char kDigits[] = "0123456789abcdef";
    std::array<char, 512> table{};
    for (std::size_t b = 0; b < 256; ++b) {
        table[2 * b] = kDigits[b >> 4];
        table[2 * b + 1] = kDigits[b & 15];
    }
    return table;
}

constexpr std::array<char, 512> kHexPairs = make_hex_pairs();

/// The low `bytes` bytes of `value` as 2 * bytes hex digits, high first.
void put_hex(char* out, std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
        const std::size_t byte = (value >> (8 * (bytes - 1 - i))) & 0xFF;
        std::memcpy(out + 2 * i, &kHexPairs[2 * byte], 2);
    }
}

void put_hex64(char* out, std::uint64_t value) { put_hex(out, value, 8); }

bool parse_hex16(std::string_view text, std::uint64_t& value) {
    if (text.size() != 16) return false;
    value = 0;
    for (const char c : text) {
        if (c >= '0' && c <= '9') {
            value = (value << 4) | static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            value = (value << 4) | static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            return false;
        }
    }
    return true;
}

/// write(2) until all of `data` is out; throws on failure.
void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) fail("write failed", path);
        data += n;
        size -= static_cast<std::size_t>(n);
    }
}

/// Table-driven text encoder over one fixed buffer.  With a descriptor it
/// writes the buffer out (write(2)) whenever it fills, so a base of any
/// size streams through it; without one it only records overflow, since a
/// journal delta must go out in a single write.
class Encoder {
public:
    Encoder(int fd, const std::string& path)
        : buffer_(new char[kBufferBytes]), fd_(fd), path_(path) {}

    /// `n` writable bytes (n <= kBufferBytes).  Without a descriptor an
    /// overflow is recorded and the buffer reused: writes stay in bounds,
    /// and the caller discards the result.
    char* reserve(std::size_t n) {
        if (used_ + n > kBufferBytes) {
            if (fd_ < 0) {
                overflowed_ = true;
                used_ = 0;
            } else {
                flush();
            }
        }
        char* out = buffer_.get() + used_;
        used_ += n;
        return out;
    }

    void put(char c) { *reserve(1) = c; }

    void text(std::string_view s) {
        while (!s.empty()) {
            const std::size_t n = std::min(s.size(), kBufferBytes);
            std::memcpy(reserve(n), s.data(), n);
            s.remove_prefix(n);
        }
    }

    void hex64(std::uint64_t value) { put_hex64(reserve(16), value); }

    void hex32(std::uint32_t value) { put_hex(reserve(8), value, 4); }

    void dec(std::uint64_t value) {
        char digits[20];
        const auto result =
            std::to_chars(digits, digits + sizeof(digits), value);
        text(std::string_view(digits,
                              static_cast<std::size_t>(result.ptr - digits)));
    }

    /// Bytes emitted so far, flushed or buffered.
    std::size_t size() const { return flushed_ + used_; }
    bool overflowed() const { return overflowed_; }
    char* data() { return buffer_.get(); }

    void flush() {
        write_all(fd_, buffer_.get(), used_, path_);
        flushed_ += used_;
        used_ = 0;
    }

private:
    std::unique_ptr<char[]> buffer_;
    std::size_t used_ = 0;
    std::size_t flushed_ = 0;
    int fd_;
    const std::string& path_;
    bool overflowed_ = false;
};

void write_key(Encoder& out, std::string_view key) {
    out.text(key);
    out.put(' ');
}

void write_hex_record(Encoder& out, std::string_view key,
                      std::uint64_t value) {
    write_key(out, key);
    out.hex64(value);
    out.put('\n');
}

void write_dec_record(Encoder& out, std::string_view key,
                      std::uint64_t value) {
    write_key(out, key);
    out.dec(value);
    out.put('\n');
}

void write_rng(Encoder& out, std::string_view key, const RngState& state) {
    out.text(key);
    for (const std::uint64_t lane : state.lanes) {
        out.put(' ');
        out.hex64(lane);
    }
    out.put(' ');
    out.hex64(state.cached_normal_bits);
    out.put(' ');
    out.put(state.has_cached_normal ? '1' : '0');
    out.put('\n');
}

/// "key count dims" then one row per line: the point's coordinates and,
/// when `with_values`, its value.  `row_at(i)` returns {&point, value}.
template <class RowAt>
void write_points(Encoder& out, std::string_view key, std::size_t count,
                  bool with_values, const RowAt& row_at) {
    write_key(out, key);
    out.dec(count);
    out.put(' ');
    out.dec(count == 0 ? 0 : row_at(0).first->size());
    out.put('\n');
    for (std::size_t r = 0; r < count; ++r) {
        const auto [point, value] = row_at(r);
        for (std::size_t d = 0; d < point->size(); ++d) {
            if (d != 0) out.put(' ');
            out.hex64(double_bits((*point)[d]));
        }
        if (with_values) {
            if (!point->empty()) out.put(' ');
            out.hex64(double_bits(value));
        }
        out.put('\n');
    }
}

/// The records a journal delta replaces wholesale: context stamp, trial
/// count, both RNG states, the initial-design cursor and the trust region.
void write_progress(Encoder& out, const SearchCheckpoint& cp) {
    write_dec_record(out, "context_stamp", cp.context_stamp);
    write_dec_record(out, "trials_done", cp.trials_done);
    write_rng(out, "run_rng", cp.run_rng);
    write_rng(out, "bo_rng", cp.bo.rng);
    write_dec_record(out, "initial_used", cp.bo.initial_used);
    write_key(out, "trust_region");
    out.hex64(double_bits(cp.bo.trust_region.length));
    out.put(' ');
    out.dec(cp.bo.trust_region.successes);
    out.put(' ');
    out.dec(cp.bo.trust_region.failures);
    out.put(' ');
    out.dec(cp.bo.trust_region.restarts);
    out.put('\n');
}

/// Trials [from, end) with their status record.
void write_trials(Encoder& out, const std::vector<bayesopt::Trial>& trials,
                  std::size_t from) {
    const std::size_t count = trials.size() - from;
    write_points(out, "trials", count, true, [&](std::size_t i) {
        const bayesopt::Trial& t = trials[from + i];
        return std::pair{&t.x, t.y};
    });
    out.text("trial_status");
    out.put(' ');
    out.dec(count);
    for (std::size_t i = from; i < trials.size(); ++i) {
        out.put(' ');
        out.dec(static_cast<unsigned>(trials[i].status));
    }
    out.put('\n');
}

/// The cache entries at `indices` (all of them when null).
void write_cache(Encoder& out, const SearchCheckpoint& cp,
                 const std::vector<std::size_t>* indices) {
    const std::size_t count =
        indices == nullptr ? cp.cache.size() : indices->size();
    write_points(out, "cache", count, true, [&](std::size_t i) {
        const auto& entry =
            cp.cache[indices == nullptr ? i : (*indices)[i]];
        return std::pair{&entry.first, entry.second};
    });
}

/// The base snapshot: the v3 records under this build's version.
void write_base(Encoder& out, const SearchCheckpoint& cp) {
    write_dec_record(out, kMagic, SearchCheckpoint::kVersion);
    write_key(out, "run_id");
    out.text(cp.run_id);
    out.put('\n');
    write_key(out, "build");
    out.text(cp.build);
    out.put('\n');
    write_hex_record(out, "space_digest", cp.space_digest);
    write_hex_record(out, "scenario_digest", cp.scenario_digest);
    write_hex_record(out, "context_key", cp.context_key);
    write_progress(out, cp);
    write_points(out, "initial_plan", cp.bo.initial_plan.size(), false,
                 [&](std::size_t i) {
                     return std::pair{&cp.bo.initial_plan[i], 0.0};
                 });
    write_trials(out, cp.bo.trials, 0);
    write_cache(out, cp, nullptr);
    write_key(out, "model");
    out.dec(cp.model_bits.size());
    out.put(' ');
    out.hex64(cp.model_digest);
    out.put('\n');
    for (std::size_t i = 0; i < cp.model_bits.size(); ++i) {
        out.hex32(cp.model_bits[i]);
        out.put(i % 16 == 15 ? '\n' : ' ');
    }
    if (cp.model_bits.size() % 16 != 0) out.put('\n');
    write_dec_record(out, "model_rngs", cp.model_rngs.size());
    for (const RngState& state : cp.model_rngs) write_rng(out, "mrng", state);
    out.text("end\n");
}

void write_commit(char* out, const Commit& commit) {
    const std::uint64_t fields[kCommitFields - 1] = {
        commit.trials,     commit.trial_digest, commit.cache,
        commit.cache_digest, commit.header,     commit.base_bytes,
        commit.file_bytes, commit.deltas};
    std::memcpy(out, "commit", 6);
    char* cursor = out + 6;
    for (const std::uint64_t field : fields) {
        *cursor++ = ' ';
        put_hex64(cursor, field);
        cursor += 16;
    }
    const std::size_t body = static_cast<std::size_t>(cursor - out);
    *cursor++ = ' ';
    put_hex64(cursor, fold_bytes(0, std::string_view(out, body)));
    cursor[16] = '\n';
}

/// Parses a kCommitBytes-long line; false when torn, malformed, or its
/// checksum disagrees.
bool parse_commit(std::string_view line, Commit& commit) {
    if (line.size() != kCommitBytes || line.substr(0, 6) != "commit" ||
        line.back() != '\n') {
        return false;
    }
    std::uint64_t fields[kCommitFields];
    for (std::size_t i = 0; i < kCommitFields; ++i) {
        const std::size_t at = 6 + 17 * i;
        if (line[at] != ' ' || !parse_hex16(line.substr(at + 1, 16),
                                            fields[i])) {
            return false;
        }
    }
    const std::size_t body = 6 + 17 * (kCommitFields - 1);
    if (fields[kCommitFields - 1] != fold_bytes(0, line.substr(0, body))) {
        return false;
    }
    commit = Commit{fields[0], fields[1], fields[2], fields[3],
                    fields[4], fields[5], fields[6], fields[7]};
    return true;
}

/// Closes a descriptor on every exit path.
struct FdGuard {
    int fd;
    ~FdGuard() {
        if (fd >= 0) ::close(fd);
    }
};

void sync_data(int fd, const std::string& path) {
#if defined(__APPLE__)
    const int rc = ::fsync(fd);
#else
    const int rc = ::fdatasync(fd);
#endif
    if (rc != 0) fail("fdatasync failed", path);
}

/// Writes a fresh base (tmp file, fsync, rename, directory fsync).
void write_base_file(const SearchCheckpoint& cp, const std::string& path) {
    const std::string tmp = path + ".tmp";
    FdGuard file{::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666)};
    if (file.fd < 0) fail("cannot open for writing", tmp);
    Encoder out(file.fd, tmp);
    write_base(out, cp);
    Commit commit = state_commit(cp);
    commit.base_bytes = out.size() + kCommitBytes;
    commit.file_bytes = commit.base_bytes;
    write_commit(out.reserve(kCommitBytes), commit);
    out.flush();
    // fsync before the rename: without it a power loss shortly after the
    // rename can install a zero-length tmp over the previous good
    // checkpoint (rename is atomic against crashes of this process, but
    // not against losing the unflushed tmp data).
    if (::fsync(file.fd) != 0) fail("fsync failed", tmp);
    const int fd = file.fd;
    file.fd = -1;
    if (::close(fd) != 0) fail("close failed", tmp);
    std::error_code error;
    std::filesystem::rename(tmp, path, error);
    if (error) fail("rename failed: " + error.message(), path);
    fsync_parent_dir(path);
}

/// Indices (ascending) of the cache entries the on-disk journal lacks:
/// entries keyed by a trial past the first `old_trials` and by no
/// successful (hence cached) trial before.  The caller checks the guess
/// against the commit's cache count and digest, so a wrong guess costs a
/// rebase, never a wrong file.
std::vector<std::size_t> new_cache_entries(const SearchCheckpoint& cp,
                                           std::size_t old_trials) {
    const std::vector<bayesopt::Trial>& trials = cp.bo.trials;
    std::vector<std::size_t> fresh;
    for (std::size_t i = old_trials; i < trials.size(); ++i) {
        const std::vector<double>& x = trials[i].x;
        const auto it = std::lower_bound(
            cp.cache.begin(), cp.cache.end(), x,
            [](const auto& entry, const std::vector<double>& key) {
                return entry.first < key;
            });
        if (it == cp.cache.end() || it->first != x) continue;
        const auto index = static_cast<std::size_t>(it - cp.cache.begin());
        if (std::find(fresh.begin(), fresh.end(), index) != fresh.end()) {
            continue;
        }
        const auto old_end =
            trials.begin() + static_cast<std::ptrdiff_t>(old_trials);
        if (std::any_of(trials.begin(), old_end,
                        [&](const bayesopt::Trial& t) {
                            return t.status == TrialStatus::kOk && t.x == x;
                        })) {
            continue;
        }
        fresh.push_back(index);
    }
    std::sort(fresh.begin(), fresh.end());
    return fresh;
}

/// Appends one delta + commit line to the journal at `path` and syncs it.
/// Returns false, having written nothing, when the file cannot take it:
/// missing, foreign, torn, another header, not a prefix of `cp`, carrying
/// a model, or a journal grown past its base (compaction).
bool append_delta(const SearchCheckpoint& cp, const std::string& path) {
    if (!cp.model_bits.empty() || !cp.model_rngs.empty()) return false;
    FdGuard file{::open(path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC)};
    if (file.fd < 0) return false;
    struct stat info {};
    if (::fstat(file.fd, &info) != 0 || !S_ISREG(info.st_mode) ||
        info.st_size < static_cast<off_t>(kCommitBytes + 1)) {
        return false;
    }
    const auto size = static_cast<std::uint64_t>(info.st_size);
    char tail[kCommitBytes + 1];
    if (::pread(file.fd, tail, sizeof(tail),
                static_cast<off_t>(size - sizeof(tail))) !=
        static_cast<ssize_t>(sizeof(tail))) {
        return false;
    }
    Commit disk;
    if (tail[0] != '\n' ||
        !parse_commit(std::string_view(tail + 1, kCommitBytes), disk) ||
        disk.file_bytes != size || disk.header != header_digest(cp)) {
        return false;
    }
    const std::vector<bayesopt::Trial>& trials = cp.bo.trials;
    if (trials.size() <= disk.trials) return false;
    const auto old_trials = static_cast<std::size_t>(disk.trials);
    if (fold_trials(kTrialSeed, trials, 0, old_trials) != disk.trial_digest) {
        return false;
    }
    Commit next = disk;
    next.trials = trials.size();
    next.trial_digest =
        fold_trials(disk.trial_digest, trials, old_trials, trials.size());
    if (!std::is_sorted(cp.cache.begin(), cp.cache.end(), key_less)) {
        return false;
    }
    const std::vector<std::size_t> fresh = new_cache_entries(cp, old_trials);
    std::uint64_t added = 0;
    for (const std::size_t i : fresh) added += cache_entry_digest(cp.cache[i]);
    next.cache = cp.cache.size();
    next.cache_digest = cache_digest(cp.cache);
    if (next.cache != disk.cache + fresh.size() ||
        next.cache_digest - disk.cache_digest != added) {
        return false;
    }

    Encoder out(-1, path);
    out.reserve(kDeltaHeaderBytes);
    write_progress(out, cp);
    write_trials(out, trials, old_trials);
    write_cache(out, cp, &fresh);
    const std::size_t payload = out.size() - kDeltaHeaderBytes;
    char* commit_line = out.reserve(kCommitBytes);
    const std::size_t record = out.size();
    if (out.overflowed() ||
        (size - disk.base_bytes) + record > disk.base_bytes) {
        return false;
    }
    char* header = out.data();
    std::memcpy(header, "delta ", 6);
    put_hex64(header + 6, payload);
    header[22] = ' ';
    put_hex64(header + 23, fold_bytes(0, std::string_view(
                                             header + kDeltaHeaderBytes,
                                             payload)));
    header[39] = '\n';
    next.file_bytes = size + record;
    next.deltas = disk.deltas + 1;
    write_commit(commit_line, next);
    write_all(file.fd, out.data(), record, path);
    sync_data(file.fd, path);
    return true;
}

// -------------------------------------------------------------- reader --

std::vector<std::string_view> split(std::string_view text) {
    constexpr std::string_view kSpace = " \t\r\v\f";
    std::vector<std::string_view> tokens;
    std::size_t at = text.find_first_not_of(kSpace);
    while (at != std::string_view::npos) {
        const std::size_t end = text.find_first_of(kSpace, at);
        tokens.push_back(text.substr(at, end - at));
        if (end == std::string_view::npos) break;
        at = text.find_first_not_of(kSpace, end);
    }
    return tokens;
}

/// Line-oriented reader over an in-memory file that tracks the path for
/// error messages and enforces the "key <payload>" shape of every record.
class Reader {
public:
    Reader(std::string_view text, const std::string& path)
        : text_(text), path_(path) {}

    std::size_t offset() const { return pos_; }

    /// Next non-empty line (without its '\n'); throws at the end.
    std::string_view line() {
        while (pos_ < text_.size()) {
            std::size_t end = text_.find('\n', pos_);
            if (end == std::string_view::npos) end = text_.size();
            const std::string_view text = text_.substr(pos_, end - pos_);
            pos_ = std::min(end + 1, text_.size());
            if (!text.empty()) return text;
        }
        fail("truncated file", path_);
    }

    /// True when nothing but empty lines remains.
    bool at_end() const {
        return text_.find_first_not_of('\n', pos_) == std::string_view::npos;
    }

    /// Next line split on whitespace, with the leading token checked.
    std::vector<std::string_view> record(std::string_view key) {
        const std::vector<std::string_view> out = split(line());
        if (out.empty() || out.front() != key) {
            fail("expected '" + std::string(key) + "' record", path_);
        }
        return out;
    }

    /// Like record(), but the payload is the raw remainder of the line
    /// (free-form strings such as run_id may contain spaces).
    std::string text_record(std::string_view key) {
        const std::string_view text = line();
        if (text.substr(0, key.size()) != key) {
            fail("expected '" + std::string(key) + "' record", path_);
        }
        std::size_t start = key.size();
        if (start < text.size() && text[start] == ' ') ++start;
        return std::string(text.substr(start));
    }

    std::uint64_t hex(std::string_view token) { return parse(token, 16); }
    std::uint64_t number(std::string_view token) { return parse(token, 10); }

    RngState rng(std::string_view key) {
        const std::vector<std::string_view> tokens = record(key);
        if (tokens.size() != 7) fail("malformed RNG record", path_);
        RngState state;
        for (std::size_t i = 0; i < 4; ++i) {
            state.lanes[i] = hex(tokens[1 + i]);
        }
        state.cached_normal_bits = hex(tokens[5]);
        state.has_cached_normal = number(tokens[6]) != 0;
        return state;
    }

    /// Reads a write_points block, handing each row to `emit(point,
    /// value)` (value 0 when the block carries none).
    template <class Emit>
    void points(std::string_view key, bool with_values, const Emit& emit) {
        const std::vector<std::string_view> header = record(key);
        if (header.size() != 3) fail("malformed point-block header", path_);
        const std::uint64_t count = number(header[1]);
        const std::uint64_t dims = number(header[2]);
        if (count > (1ULL << 24) || dims > (1ULL << 16) ||
            count * dims > (1ULL << 24)) {
            fail("implausible point-block size", path_);
        }
        const std::size_t width = dims + (with_values ? 1 : 0);
        for (std::uint64_t r = 0; r < count; ++r) {
            const std::vector<std::string_view> tokens = split(line());
            if (tokens.size() != width) fail("malformed point row", path_);
            std::vector<double> point(dims);
            for (std::size_t d = 0; d < dims; ++d) {
                point[d] = bits_double(hex(tokens[d]));
            }
            emit(std::move(point),
                 with_values ? bits_double(hex(tokens[dims])) : 0.0);
        }
    }

private:
    std::uint64_t parse(std::string_view token, int base) {
        std::uint64_t value = 0;
        const char* end = token.data() + token.size();
        const auto result = std::from_chars(token.data(), end, value, base);
        if (token.empty() || result.ec != std::errc() || result.ptr != end) {
            fail(std::string(base == 16 ? "malformed hex field '"
                                        : "malformed numeric field '") +
                     std::string(token) + "'",
                 path_);
        }
        return value;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    const std::string& path_;
};

/// Reads what write_progress wrote; v2 has no trust_region record, and the
/// trust region then keeps its default (length 0), which
/// BayesOpt::import_state treats as "use the configured initial edge".
void read_progress(Reader& reader, std::uint64_t version,
                   SearchCheckpoint& cp, const std::string& path) {
    cp.context_stamp = reader.number(reader.record("context_stamp").at(1));
    cp.trials_done = reader.number(reader.record("trials_done").at(1));
    cp.run_rng = reader.rng("run_rng");
    cp.bo.rng = reader.rng("bo_rng");
    cp.bo.initial_used = reader.number(reader.record("initial_used").at(1));
    if (version >= 3) {
        const std::vector<std::string_view> tr =
            reader.record("trust_region");
        if (tr.size() != 5) fail("malformed trust_region record", path);
        cp.bo.trust_region.length = bits_double(reader.hex(tr[1]));
        cp.bo.trust_region.successes = reader.number(tr[2]);
        cp.bo.trust_region.failures = reader.number(tr[3]);
        cp.bo.trust_region.restarts = reader.number(tr[4]);
    }
}

/// Appends a write_trials block to `trials`.
void read_trials(Reader& reader, std::vector<bayesopt::Trial>& trials,
                 const std::string& path) {
    const std::size_t from = trials.size();
    reader.points("trials", true, [&](std::vector<double>&& x, double y) {
        trials.push_back(bayesopt::Trial{std::move(x), y});
    });
    const std::vector<std::string_view> header =
        reader.record("trial_status");
    const std::size_t count = trials.size() - from;
    if (header.size() != 2 + count || reader.number(header[1]) != count) {
        fail("trial_status count disagrees with trials", path);
    }
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t code = reader.number(header[2 + i]);
        if (code > static_cast<std::uint64_t>(TrialStatus::kFailedTimeout)) {
            fail("unknown trial status code " + std::string(header[2 + i]),
                 path);
        }
        trials[from + i].status = static_cast<TrialStatus>(code);
    }
}

void read_cache(Reader& reader, std::vector<CacheEntry>& cache) {
    reader.points("cache", true, [&](std::vector<double>&& x, double y) {
        cache.emplace_back(std::move(x), y);
    });
}

/// Reads the delta + commit line at `pos`, checking the delta's checksum
/// and every commit field against `cp` with the delta applied.  On success
/// applies it to `cp`, advances `last` and returns true; on a torn or
/// corrupt record returns false and leaves `cp` untouched.
bool apply_delta(std::string_view text, const std::string& path,
                 SearchCheckpoint& cp, Commit& last) {
    const std::size_t pos = static_cast<std::size_t>(last.file_bytes);
    const std::string_view header = text.substr(pos, kDeltaHeaderBytes);
    std::uint64_t payload = 0;
    std::uint64_t checksum = 0;
    if (header.size() != kDeltaHeaderBytes ||
        header.substr(0, 6) != "delta " || header[22] != ' ' ||
        header[39] != '\n' || !parse_hex16(header.substr(6, 16), payload) ||
        !parse_hex16(header.substr(23, 16), checksum) ||
        payload > text.size() - pos - kDeltaHeaderBytes) {
        return false;
    }
    const std::string_view body =
        text.substr(pos + kDeltaHeaderBytes, payload);
    Commit commit;
    if (fold_bytes(0, body) != checksum ||
        !parse_commit(text.substr(pos + kDeltaHeaderBytes + payload,
                                  kCommitBytes),
                      commit)) {
        return false;
    }
    SearchCheckpoint step;
    try {
        Reader reader(body, path);
        read_progress(reader, SearchCheckpoint::kVersion, step, path);
        read_trials(reader, step.bo.trials, path);
        read_cache(reader, step.cache);
        if (!reader.at_end()) return false;
    } catch (const std::exception&) {  // malformed records, missing fields
        return false;
    }
    const std::uint64_t trials = last.trials + step.bo.trials.size();
    if (commit.trials != trials || step.trials_done != trials ||
        commit.trial_digest != fold_trials(last.trial_digest, step.bo.trials,
                                           0, step.bo.trials.size()) ||
        commit.cache != last.cache + step.cache.size() ||
        commit.cache_digest != last.cache_digest + cache_digest(step.cache) ||
        commit.header != last.header ||
        commit.base_bytes != last.base_bytes ||
        commit.file_bytes != pos + kDeltaHeaderBytes + payload + kCommitBytes ||
        commit.deltas != last.deltas + 1) {
        return false;
    }
    cp.context_stamp = step.context_stamp;
    cp.trials_done = step.trials_done;
    cp.run_rng = step.run_rng;
    cp.bo.rng = step.bo.rng;
    cp.bo.initial_used = step.bo.initial_used;
    cp.bo.trust_region = step.bo.trust_region;
    for (bayesopt::Trial& t : step.bo.trials) {
        cp.bo.trials.push_back(std::move(t));
    }
    for (auto& entry : step.cache) cp.cache.push_back(std::move(entry));
    last = commit;
    return true;
}

}  // namespace

std::string build_stamp() {
#ifdef BAYESFT_BUILD_STAMP
    return BAYESFT_BUILD_STAMP;
#else
    return "unknown";
#endif
}

void save_checkpoint(const SearchCheckpoint& checkpoint,
                     const std::string& path) {
    if (!append_delta(checkpoint, path)) write_base_file(checkpoint, path);
}

SearchCheckpoint load_checkpoint(const std::string& path,
                                 CheckpointLayout* layout) {
    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in) fail("cannot open", path);
        text.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
        if (in.bad()) fail("read failed", path);
    }
    Reader reader(text, path);

    const std::vector<std::string_view> header = reader.record(kMagic);
    if (header.size() != 2) fail("malformed header", path);
    const std::uint64_t version = reader.number(header[1]);
    if (version < SearchCheckpoint::kOldestReadableVersion ||
        version > SearchCheckpoint::kVersion) {
        fail("unsupported format version " + std::string(header[1]) +
                 " (this build reads " +
                 std::to_string(SearchCheckpoint::kOldestReadableVersion) +
                 ".." + std::to_string(SearchCheckpoint::kVersion) + ")",
             path);
    }

    SearchCheckpoint checkpoint;
    checkpoint.run_id = reader.text_record("run_id");
    checkpoint.build = reader.text_record("build");
    checkpoint.space_digest = reader.hex(reader.record("space_digest").at(1));
    checkpoint.scenario_digest =
        reader.hex(reader.record("scenario_digest").at(1));
    checkpoint.context_key = reader.hex(reader.record("context_key").at(1));
    read_progress(reader, version, checkpoint, path);
    reader.points("initial_plan", false,
                  [&](std::vector<double>&& point, double) {
                      checkpoint.bo.initial_plan.push_back(std::move(point));
                  });
    read_trials(reader, checkpoint.bo.trials, path);
    read_cache(reader, checkpoint.cache);
    {
        const std::vector<std::string_view> model = reader.record("model");
        if (model.size() != 3) fail("malformed model header", path);
        const std::uint64_t count = reader.number(model[1]);
        if (count > (1ULL << 26)) fail("implausible model size", path);
        checkpoint.model_digest = reader.hex(model[2]);
        checkpoint.model_bits.reserve(count);
        while (checkpoint.model_bits.size() < count) {
            for (const std::string_view token : split(reader.line())) {
                if (checkpoint.model_bits.size() == count) break;
                // Exactly the 8 hex digits the writer emits: a longer
                // token (e.g. two words fused by a lost separator) must
                // reject the file, not load truncated weights.
                if (token.size() != 8) {
                    fail("malformed model word '" + std::string(token) + "'",
                         path);
                }
                checkpoint.model_bits.push_back(
                    static_cast<std::uint32_t>(reader.hex(token)));
            }
        }
    }
    {
        const std::vector<std::string_view> header =
            reader.record("model_rngs");
        if (header.size() != 2) fail("malformed model_rngs header", path);
        const std::uint64_t count = reader.number(header[1]);
        if (count > (1ULL << 20)) fail("implausible model_rngs size", path);
        checkpoint.model_rngs.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            checkpoint.model_rngs.push_back(reader.rng("mrng"));
        }
    }
    if (reader.line() != "end") fail("missing end marker", path);
    if (checkpoint.trials_done != checkpoint.bo.trials.size()) {
        fail("trial count disagrees with trials_done", path);
    }

    CheckpointLayout found;
    found.version = static_cast<std::uint32_t>(version);
    found.base_trials = checkpoint.bo.trials.size();
    if (version < 4) {
        // Older formats end at the marker.  Anything after it is a journal
        // an old reader would skip, silently resuming a stale state.
        if (!reader.at_end()) {
            fail("unexpected bytes after the end marker", path);
        }
        found.base_bytes = text.size();
        if (layout != nullptr) *layout = found;
        return checkpoint;
    }

    // v4: the base's commit line, then the journal.
    Commit last;
    if (!parse_commit(std::string_view(text).substr(reader.offset(),
                                                    kCommitBytes),
                      last)) {
        fail("missing or corrupt base commit line", path);
    }
    const Commit expected = state_commit(checkpoint);
    const std::uint64_t base_bytes = reader.offset() + kCommitBytes;
    if (last.trials != expected.trials ||
        last.trial_digest != expected.trial_digest ||
        last.cache != expected.cache ||
        last.cache_digest != expected.cache_digest ||
        last.header != expected.header || last.base_bytes != base_bytes ||
        last.file_bytes != base_bytes || last.deltas != 0) {
        fail("base commit line disagrees with the base records", path);
    }
    const std::size_t base_cache = checkpoint.cache.size();
    while (last.file_bytes < text.size() &&
           apply_delta(text, path, checkpoint, last)) {
    }
    if (checkpoint.cache.size() != base_cache) {
        // Deltas append entries; restore export_cache's sorted order.
        std::stable_sort(checkpoint.cache.begin(), checkpoint.cache.end(),
                         key_less);
    }
    found.deltas = last.deltas;
    found.base_bytes = last.base_bytes;
    found.journal_bytes = last.file_bytes - last.base_bytes;
    found.torn_bytes = text.size() - last.file_bytes;
    if (layout != nullptr) *layout = found;
    return checkpoint;
}

bool checkpoint_exists(const std::string& path) {
    std::error_code error;
    return std::filesystem::is_regular_file(path, error);
}

void fsync_file(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) fail("cannot open for fsync", path);
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) fail("fsync failed", path);
}

void fsync_parent_dir(const std::string& path) {
    std::string dir = std::filesystem::path(path).parent_path().string();
    if (dir.empty()) dir = ".";
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return;  // best-effort (see header)
    ::fsync(fd);
    ::close(fd);
}

std::uint64_t mix_train_config(std::uint64_t key,
                               const nn::TrainConfig& train) {
    key = mix_key(key, static_cast<std::uint64_t>(train.epochs));
    key = mix_key(key, static_cast<std::uint64_t>(train.batch_size));
    const double reals[] = {train.learning_rate, train.momentum,
                            train.weight_decay, train.lr_decay};
    key = mix_key(key, reals, 4);
    return mix_key(key, static_cast<std::uint64_t>(train.use_adam ? 1 : 0));
}

std::uint64_t mix_bo_config(std::uint64_t key,
                            const bayesopt::BayesOptConfig& config) {
    key = mix_key(key,
                  static_cast<std::uint64_t>(config.initial_random_trials));
    key = mix_key(key, static_cast<std::uint64_t>(
                           config.latin_hypercube_init ? 1 : 0));
    key = mix_key(key, static_cast<std::uint64_t>(config.candidates));
    key = mix_key(key, static_cast<std::uint64_t>(config.local_candidates));
    const double reals[] = {config.local_sigma_fraction,
                            config.noise_variance,
                            config.duplicate_tolerance,
                            config.batch_separation_fraction};
    key = mix_key(key, reals, 4);
    // The fail policy shapes what the GP sees, hence the proposal stream —
    // unlike the resilience knobs (isolate/timeout/retries), which are
    // result-invariant and deliberately NOT digested (like thread count).
    key = mix_key(key, static_cast<std::uint64_t>(config.fail_policy));
    key = mix_key(key, &config.fail_penalty, 1);
    // Trust-region knobs are folded ONLY when the feature is on, so every
    // pre-existing (trust-region-off) scenario digest — and with it every
    // v2 checkpoint in the wild — stays valid under this build.
    if (config.trust_region.enabled) {
        const bayesopt::TrustRegionConfig& tr = config.trust_region;
        key = mix_key(key, std::string_view("trust-region"));
        key = mix_key(key, static_cast<std::uint64_t>(tr.activate_after));
        const double tr_reals[] = {tr.initial_length, tr.min_length,
                                   tr.max_length};
        key = mix_key(key, tr_reals, 3);
        key = mix_key(key, static_cast<std::uint64_t>(tr.success_tolerance));
        key = mix_key(key, static_cast<std::uint64_t>(tr.failure_tolerance));
        key = mix_key(key,
                      static_cast<std::uint64_t>(tr.max_local_trials));
    }
    return key;
}

std::uint64_t mix_rng_state(std::uint64_t key, const RngState& state) {
    for (std::uint64_t lane : state.lanes) key = mix_key(key, lane);
    key = mix_key(key, state.cached_normal_bits);
    return mix_key(key,
                   static_cast<std::uint64_t>(state.has_cached_normal));
}

void validate_checkpoint(const SearchCheckpoint& checkpoint,
                         std::uint64_t space_digest,
                         std::uint64_t scenario_digest,
                         const std::string& path) {
    if (checkpoint.space_digest != space_digest) {
        fail("search-space digest mismatch — the checkpoint was written for "
             "a different ParamSpace; delete it (or point --checkpoint "
             "elsewhere) to start fresh",
             path);
    }
    if (checkpoint.scenario_digest != scenario_digest) {
        fail("scenario digest mismatch — the checkpoint was written under a "
             "different objective/loop configuration (fault set, MC "
             "samples, iterations, batch, seed, ...); delete it to start "
             "fresh",
             path);
    }
}

namespace {

/// Deterministic pre-order walk over the module tree (collect_children is
/// the generic traversal every container supports).
void visit_modules(nn::Module& node,
                   const std::function<void(nn::Module&)>& fn) {
    fn(node);
    std::vector<nn::Module*> children;
    node.collect_children(children);
    for (nn::Module* child : children) visit_modules(*child, fn);
}

/// Get/set access to one layer's internal mask generator.
struct MaskRngSite {
    std::function<RngState()> get;
    std::function<void(const RngState&)> set;
};

/// THE single registry of RNG-bearing layer types: snapshot, restore, and
/// the structure digest all go through this collector, so a new
/// mask-drawing module type added here is automatically covered by all
/// three (miss it here and the torture tests' bitwise weight comparison
/// fails; there is no second place to forget).
std::vector<MaskRngSite> collect_mask_rng_sites(nn::Module& root) {
    std::vector<MaskRngSite> sites;
    visit_modules(root, [&](nn::Module& node) {
        if (auto* dropout = dynamic_cast<nn::Dropout*>(&node)) {
            sites.push_back(
                {[dropout] { return dropout->mask_rng_state(); },
                 [dropout](const RngState& state) {
                     dropout->set_mask_rng_state(state);
                 }});
        } else if (auto* alpha = dynamic_cast<nn::AlphaDropout*>(&node)) {
            sites.push_back(
                {[alpha] { return alpha->mask_rng_state(); },
                 [alpha](const RngState& state) {
                     alpha->set_mask_rng_state(state);
                 }});
        }
    });
    return sites;
}

}  // namespace

std::vector<std::uint32_t> snapshot_model(nn::Module& model) {
    std::vector<std::uint32_t> bits;
    for (const nn::Parameter* p : model.parameters()) {
        const float* data = p->value.data();
        for (std::size_t i = 0; i < p->value.size(); ++i) {
            std::uint32_t b = 0;
            std::memcpy(&b, &data[i], sizeof(float));
            bits.push_back(b);
        }
    }
    for (const Tensor* buffer : model.buffers()) {
        const float* data = buffer->data();
        for (std::size_t i = 0; i < buffer->size(); ++i) {
            std::uint32_t b = 0;
            std::memcpy(&b, &data[i], sizeof(float));
            bits.push_back(b);
        }
    }
    return bits;
}

std::vector<RngState> snapshot_model_rngs(nn::Module& model) {
    std::vector<RngState> states;
    for (const MaskRngSite& site : collect_mask_rng_sites(model)) {
        states.push_back(site.get());
    }
    return states;
}

void restore_model_rngs(nn::Module& model,
                        const std::vector<RngState>& states) {
    const std::vector<MaskRngSite> sites = collect_mask_rng_sites(model);
    if (sites.size() != states.size()) {
        throw std::runtime_error(
            "checkpoint: dropout RNG state count mismatch (" +
            std::to_string(states.size()) + " stored, " +
            std::to_string(sites.size()) + " layers)");
    }
    for (std::size_t i = 0; i < sites.size(); ++i) {
        sites[i].set(states[i]);
    }
}

std::uint64_t model_structure_digest(nn::Module& model) {
    std::uint64_t digest = mix_key(0, std::string_view("model-structure"));
    for (const nn::Parameter* p : model.parameters()) {
        digest = mix_key(digest, std::string_view(p->name));
        digest = mix_key(digest,
                         static_cast<std::uint64_t>(p->value.rank()));
        for (std::size_t d = 0; d < p->value.rank(); ++d) {
            digest = mix_key(digest,
                             static_cast<std::uint64_t>(p->value.dim(d)));
        }
    }
    for (const Tensor* buffer : model.buffers()) {
        digest = mix_key(digest, static_cast<std::uint64_t>(buffer->rank()));
        for (std::size_t d = 0; d < buffer->rank(); ++d) {
            digest = mix_key(digest,
                             static_cast<std::uint64_t>(buffer->dim(d)));
        }
    }
    return mix_key(digest, static_cast<std::uint64_t>(
                               collect_mask_rng_sites(model).size()));
}

void restore_model(nn::Module& model,
                   const std::vector<std::uint32_t>& bits) {
    std::size_t cursor = 0;
    auto copy_into = [&](float* data, std::size_t count) {
        if (cursor + count > bits.size()) {
            throw std::runtime_error(
                "checkpoint: model payload shorter than the live model");
        }
        for (std::size_t i = 0; i < count; ++i) {
            std::memcpy(&data[i], &bits[cursor + i], sizeof(float));
        }
        cursor += count;
    };
    for (nn::Parameter* p : model.parameters()) {
        copy_into(p->value.data(), p->value.size());
    }
    for (Tensor* buffer : model.buffers()) {
        copy_into(buffer->data(), buffer->size());
    }
    if (cursor != bits.size()) {
        throw std::runtime_error(
            "checkpoint: model payload longer than the live model");
    }
}

}  // namespace bayesft::core
