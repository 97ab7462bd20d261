// Run persistence: checkpoint file round trips (bit-exact doubles, digest
// and version validation, corruption rejection), engine memo-cache
// export/import, model snapshot/restore, the JSONL run store + report
// summaries, and the kill/resume torture tests — a search interrupted at
// every trial boundary and resumed from its checkpoint must produce final
// results (best point, GP trial history, model weights) bitwise equal to
// an uninterrupted run, for bayesft_search and arch_search at 1 and 4
// evaluation threads (docs/checkpointing.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/archsearch.hpp"
#include "core/bayesft.hpp"
#include "core/engine.hpp"
#include "core/persist.hpp"
#include "core/runstore.hpp"
#include "data/toy.hpp"
#include "models/zoo.hpp"
#include "utils/logging.hpp"

namespace bayesft::core {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
    return (fs::temp_directory_path() / ("bayesft_persist_" + name))
        .string();
}

std::vector<float> weights_of(nn::Module& net) {
    std::vector<float> values;
    for (const nn::Parameter* p : net.parameters()) {
        values.insert(values.end(), p->value.data(),
                      p->value.data() + p->value.size());
    }
    return values;
}

// ---------------------------------------------------------------- Rng ----

TEST(RngStateTest, SaveRestoreContinuesBitIdentically) {
    Rng rng(123);
    for (int i = 0; i < 7; ++i) rng.uniform();
    rng.normal();  // leaves a cached Box-Muller variate behind
    const RngState saved = rng.state();

    std::vector<double> expected;
    for (int i = 0; i < 16; ++i) expected.push_back(rng.normal());

    Rng other(999);  // unrelated seed; state() must fully override it
    other.set_state(saved);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(expected[static_cast<std::size_t>(i)], other.normal());
    }
}

// --------------------------------------------------- checkpoint file ----

SearchCheckpoint sample_checkpoint() {
    SearchCheckpoint cp;
    cp.run_id = "unit test run";
    cp.build = "v1-test-dirty";
    cp.space_digest = 0x1234ABCDULL;
    cp.scenario_digest = 0xFEDC4321ULL;
    cp.context_key = 77;
    cp.context_stamp = 3;
    cp.trials_done = 2;
    Rng rng(5);
    rng.normal();
    cp.run_rng = rng.state();
    cp.bo.rng = Rng(9).state();
    cp.bo.initial_used = 1;
    cp.bo.initial_plan = {{0.125, -0.0}, {0.6, 1e-300}};
    cp.bo.trials = {{{0.1, 0.2}, 0.875}, {{0.3, 0.4}, -1.5e-17}};
    cp.cache = {{{0.1, 0.2}, 0.875}};
    cp.model_bits = {0u, 0x3F800000u, 0x80000000u, 0x7F7FFFFFu, 1u};
    cp.model_rngs = {Rng(1).state(), Rng(2).state()};
    cp.model_digest = 0xD16E57ULL;
    cp.bo.trust_region.length = 0.2;
    cp.bo.trust_region.successes = 1;
    cp.bo.trust_region.failures = 4;
    cp.bo.trust_region.restarts = 2;
    return cp;
}

void expect_same_checkpoint(const SearchCheckpoint& a,
                            const SearchCheckpoint& b) {
    EXPECT_EQ(a.run_id, b.run_id);
    EXPECT_EQ(a.build, b.build);
    EXPECT_EQ(a.space_digest, b.space_digest);
    EXPECT_EQ(a.scenario_digest, b.scenario_digest);
    EXPECT_EQ(a.context_key, b.context_key);
    EXPECT_EQ(a.context_stamp, b.context_stamp);
    EXPECT_EQ(a.trials_done, b.trials_done);
    EXPECT_EQ(a.run_rng, b.run_rng);
    EXPECT_EQ(a.bo.rng, b.bo.rng);
    EXPECT_EQ(a.bo.initial_used, b.bo.initial_used);
    EXPECT_EQ(a.bo.initial_plan, b.bo.initial_plan);
    EXPECT_EQ(a.bo.trust_region.length, b.bo.trust_region.length);
    EXPECT_EQ(a.bo.trust_region.successes, b.bo.trust_region.successes);
    EXPECT_EQ(a.bo.trust_region.failures, b.bo.trust_region.failures);
    EXPECT_EQ(a.bo.trust_region.restarts, b.bo.trust_region.restarts);
    ASSERT_EQ(a.bo.trials.size(), b.bo.trials.size());
    for (std::size_t i = 0; i < a.bo.trials.size(); ++i) {
        EXPECT_EQ(a.bo.trials[i].x, b.bo.trials[i].x) << "trial " << i;
        EXPECT_EQ(a.bo.trials[i].y, b.bo.trials[i].y) << "trial " << i;
        EXPECT_EQ(a.bo.trials[i].status, b.bo.trials[i].status);
    }
    EXPECT_EQ(a.cache, b.cache);
    EXPECT_EQ(a.model_bits, b.model_bits);
    EXPECT_EQ(a.model_rngs, b.model_rngs);
    EXPECT_EQ(a.model_digest, b.model_digest);
}

TEST(CheckpointFileTest, RoundTripIsBitExact) {
    const std::string path = temp_path("roundtrip.ckpt");
    const SearchCheckpoint cp = sample_checkpoint();
    save_checkpoint(cp, path);
    const SearchCheckpoint loaded = load_checkpoint(path);
    expect_same_checkpoint(cp, loaded);
    // -0.0 must survive as -0.0 (bit pattern, not value, equality).
    ASSERT_EQ(loaded.bo.initial_plan.size(), 2U);
    EXPECT_TRUE(std::signbit(loaded.bo.initial_plan[0][1]));
    fs::remove(path);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/// The bytes of a v4 base up to and including its end marker, minus the
/// commit line after it.
std::string without_commit_line(const std::string& text) {
    const std::size_t end = text.rfind("\nend\n");
    EXPECT_NE(end, std::string::npos);
    return text.substr(0, end + 5);
}

TEST(CheckpointFileTest, LoadsVersion2WithoutTrustRegionRecord) {
    // A v2 file is a v3 base minus the trust_region record with a v2
    // header — exactly what the pre-v3 writer produced.  It must load with
    // the trust region at its "freshly initialized" default (length 0, so
    // BayesOpt::import_state installs the configured initial edge).
    const std::string path = temp_path("v2.ckpt");
    fs::remove(path);
    save_checkpoint(sample_checkpoint(), path);
    std::string text = without_commit_line(read_file(path));
    const std::string header = "bayesft-checkpoint 4\n";
    ASSERT_EQ(text.rfind(header, 0), 0U);
    text.replace(0, header.size(), "bayesft-checkpoint 2\n");
    const std::size_t tr_start = text.find("trust_region ");
    ASSERT_NE(tr_start, std::string::npos);
    const std::size_t tr_end = text.find('\n', tr_start);
    text.erase(tr_start, tr_end - tr_start + 1);
    write_file(path, text);

    CheckpointLayout layout;
    const SearchCheckpoint loaded = load_checkpoint(path, &layout);
    const SearchCheckpoint cp = sample_checkpoint();
    EXPECT_EQ(layout.version, 2U);
    EXPECT_EQ(cp.trials_done, loaded.trials_done);
    EXPECT_EQ(cp.bo.initial_used, loaded.bo.initial_used);
    EXPECT_EQ(cp.model_bits, loaded.model_bits);
    EXPECT_EQ(loaded.bo.trust_region.length, 0.0);
    EXPECT_EQ(loaded.bo.trust_region.successes, 0U);
    EXPECT_EQ(loaded.bo.trust_region.failures, 0U);
    EXPECT_EQ(loaded.bo.trust_region.restarts, 0U);

    // Bytes after a v2 end marker are a journal the old format cannot
    // describe: reject them rather than resume the stale base.
    write_file(path, text + "delta 0\n");
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);
    fs::remove(path);
}

/// tests/data/checkpoint_v3.ckpt: a toy_arch_blobs --quick search stopped
/// after 3 trials, written by the last v3 writer.
std::string v3_fixture_path() {
    return (fs::path(__FILE__).parent_path() / "data" / "checkpoint_v3.ckpt")
        .string();
}

TEST(CheckpointFileTest, LoadsCommittedVersion3Fixture) {
    CheckpointLayout layout;
    const SearchCheckpoint loaded = load_checkpoint(v3_fixture_path(), &layout);
    EXPECT_EQ(layout.version, 3U);
    EXPECT_EQ(layout.deltas, 0U);
    EXPECT_EQ(loaded.run_id, "arch_search:mlp-arch");
    EXPECT_EQ(loaded.trials_done, 3U);
    ASSERT_EQ(loaded.bo.trials.size(), 3U);
    EXPECT_EQ(loaded.bo.trials[0].x.size(), 12U);
    EXPECT_EQ(loaded.bo.initial_plan.size(), 2U);
    EXPECT_EQ(loaded.bo.initial_used, 2U);
    EXPECT_EQ(loaded.cache.size(), 3U);
    EXPECT_EQ(loaded.bo.trust_region.length, 0.4);
    EXPECT_TRUE(loaded.model_bits.empty());

    // The v4 base is the v3 file byte for byte under the new version
    // number, followed by its commit line.
    const std::string path = temp_path("v3_resaved.ckpt");
    fs::remove(path);
    save_checkpoint(loaded, path);
    std::string expected = read_file(v3_fixture_path());
    ASSERT_EQ(expected.rfind("bayesft-checkpoint 3\n", 0), 0U);
    expected[19] = '4';
    EXPECT_EQ(without_commit_line(read_file(path)), expected);

    // A v3 file with anything after its end marker is rejected.
    write_file(path, read_file(v3_fixture_path()) + "x\n");
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);
    fs::remove(path);
}

TEST(CheckpointFileTest, RejectsVersionsOutsideTheReadableRange) {
    const std::string path = temp_path("v1.ckpt");
    {
        std::ofstream out(path);
        out << "bayesft-checkpoint 1\n";
    }
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);
    {
        std::ofstream out(path);
        out << "bayesft-checkpoint 5\n";
    }
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);
    fs::remove(path);
}

TEST(ScenarioDigestTest, TrustRegionFoldsOnlyWhenEnabled) {
    // Disabled trust regions must leave every pre-existing scenario digest
    // (hence every v2 checkpoint) untouched, whatever the knob values;
    // enabling folds the knobs, so a resume under different trust-region
    // settings is rejected.
    bayesopt::BayesOptConfig base;
    const std::uint64_t plain = mix_bo_config(7, base);

    bayesopt::BayesOptConfig tweaked = base;
    tweaked.trust_region.activate_after = 123;
    tweaked.trust_region.initial_length = 0.7;
    EXPECT_EQ(mix_bo_config(7, tweaked), plain);

    bayesopt::BayesOptConfig enabled = base;
    enabled.trust_region.enabled = true;
    const std::uint64_t on = mix_bo_config(7, enabled);
    EXPECT_NE(on, plain);

    bayesopt::BayesOptConfig enabled_other = enabled;
    enabled_other.trust_region.activate_after += 1;
    EXPECT_NE(mix_bo_config(7, enabled_other), on);
}

TEST(CheckpointFileTest, SaveIsAtomicViaRename) {
    const std::string path = temp_path("atomic.ckpt");
    save_checkpoint(sample_checkpoint(), path);
    EXPECT_TRUE(checkpoint_exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    fs::remove(path);
}

TEST(CheckpointFileTest, LoadRejectsMissingCorruptAndForeignVersions) {
    EXPECT_THROW(load_checkpoint(temp_path("no_such_file.ckpt")),
                 std::runtime_error);

    const std::string path = temp_path("bad.ckpt");
    {
        std::ofstream out(path);
        out << "not a checkpoint at all\n";
    }
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);

    {
        std::ofstream out(path);
        out << "bayesft-checkpoint 999\n";
    }
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);

    // Truncation: drop the end marker (and the model_rngs payload).
    save_checkpoint(sample_checkpoint(), path);
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    {
        std::ofstream out(path);
        out << text.substr(0, text.size() / 2);
    }
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);
    fs::remove(path);
}

TEST(CheckpointFileTest, ValidateRejectsForeignScenario) {
    const SearchCheckpoint cp = sample_checkpoint();
    EXPECT_NO_THROW(validate_checkpoint(cp, cp.space_digest,
                                        cp.scenario_digest, "p"));
    EXPECT_THROW(
        validate_checkpoint(cp, cp.space_digest + 1, cp.scenario_digest,
                            "p"),
        std::runtime_error);
    EXPECT_THROW(
        validate_checkpoint(cp, cp.space_digest, cp.scenario_digest + 1,
                            "p"),
        std::runtime_error);
}

// ------------------------------------------------------------ journal ----

/// A self-contained 12-dim search's checkpoint after `rounds` one-trial
/// rounds.  Every successful trial is cached and the cache is sorted as
/// EvaluationEngine::export_cache sorts it; some trials repeat an earlier
/// point (memo hits, no new entry) and some fail (never cached).  Round r
/// extends round r-1, as a live search does.
SearchCheckpoint search_round(std::size_t rounds, std::uint64_t key = 7) {
    SearchCheckpoint cp;
    cp.run_id = "journal test";
    cp.build = "test";
    cp.space_digest = 11;
    cp.scenario_digest = 12;
    cp.context_key = key;
    Rng plan_rng(3);
    for (int i = 0; i < 4; ++i) {
        std::vector<double> row(12);
        for (double& v : row) v = plan_rng.uniform();
        cp.bo.initial_plan.push_back(row);
    }
    Rng rng(key);
    for (std::size_t r = 0; r < rounds; ++r) {
        bayesopt::Trial trial;
        trial.x.resize(12);
        for (double& v : trial.x) v = rng.uniform();
        if (r % 5 == 3) trial.x = cp.bo.trials[r - 2].x;
        trial.y = rng.normal();
        if (r % 7 == 6) trial.status = TrialStatus::kFailedCrash;
        const bool cached = std::any_of(
            cp.cache.begin(), cp.cache.end(),
            [&](const auto& entry) { return entry.first == trial.x; });
        if (trial.status == TrialStatus::kOk && !cached) {
            cp.cache.emplace_back(trial.x, trial.y);
        }
        cp.bo.trials.push_back(trial);
    }
    std::sort(cp.cache.begin(), cp.cache.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    cp.trials_done = rounds;
    cp.run_rng = rng.state();
    cp.bo.rng = Rng(rounds).state();
    cp.bo.initial_used = std::min<std::size_t>(rounds, 4);
    cp.bo.trust_region.length = 0.01 * static_cast<double>(rounds);
    cp.bo.trust_region.successes = rounds % 3;
    return cp;
}

TEST(CheckpointJournalTest, RoundsAppendFlatDeltasAndCompact) {
    const std::string path = temp_path("journal.ckpt");
    const std::string fresh = temp_path("journal_fresh.ckpt");
    fs::remove(path);
    std::uint64_t size = 0;
    std::uint64_t written = 0;    // bytes the journal writer wrote
    std::uint64_t rewritten = 0;  // bytes a full rewrite per round writes
    std::size_t bases = 0;
    std::vector<std::uint64_t> deltas;
    for (std::size_t round = 1; round <= 200; ++round) {
        const SearchCheckpoint cp = search_round(round);
        save_checkpoint(cp, path);
        CheckpointLayout layout;
        const SearchCheckpoint loaded = load_checkpoint(path, &layout);
        expect_same_checkpoint(cp, loaded);
        EXPECT_EQ(layout.version, 4U);
        EXPECT_EQ(layout.torn_bytes, 0U);
        const std::uint64_t now = fs::file_size(path);
        if (layout.deltas == 0) {
            ++bases;
            written += now;
        } else {
            deltas.push_back(now - size);
            written += now - size;
            EXPECT_LE(layout.journal_bytes, layout.base_bytes);
        }
        size = now;
        fs::remove(fresh);
        save_checkpoint(cp, fresh);
        rewritten += fs::file_size(fresh);
    }
    // Compaction rebases about log2(n) times: each new base is a constant
    // factor larger than the last.
    EXPECT_GE(bases, 2U);
    EXPECT_LE(bases, 16U);
    ASSERT_GT(deltas.size(), 150U);
    // Bytes per appended round do not grow with the trial count (a round
    // differs only by whether it cached a new entry and by the decimal
    // width of trials_done).
    const std::uint64_t early =
        *std::max_element(deltas.begin(), deltas.begin() + 10);
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        EXPECT_LE(deltas[i], early + 2) << "delta " << i;
    }
    EXPECT_LT(written * 10, rewritten);
    fs::remove(path);
    fs::remove(fresh);
}

/// Saves rounds 1..k into `path`, with k the first round from `from` on
/// whose save appended a delta.  Returns k; `before` receives the file as
/// it stood after round k-1.
std::size_t save_until_append(const std::string& path, std::size_t from,
                              std::string& before) {
    fs::remove(path);
    for (std::size_t round = 1;; ++round) {
        before = read_file(path);
        save_checkpoint(search_round(round), path);
        CheckpointLayout layout;
        load_checkpoint(path, &layout);
        if (round >= from && layout.deltas > 0) return round;
    }
}

TEST(CheckpointJournalTest, EveryTornTailLoadsThePreviousCommit) {
    const std::string path = temp_path("torn.ckpt");
    std::string before;
    const std::size_t k = save_until_append(path, 20, before);
    const std::string full = read_file(path);
    ASSERT_EQ(full.compare(0, before.size(), before), 0);
    const SearchCheckpoint previous = search_round(k - 1);
    for (std::size_t cut = before.size(); cut < full.size(); ++cut) {
        SCOPED_TRACE("cut at byte " + std::to_string(cut));
        write_file(path, full.substr(0, cut));
        CheckpointLayout layout;
        expect_same_checkpoint(previous, load_checkpoint(path, &layout));
        EXPECT_EQ(layout.torn_bytes, cut - before.size());
        if (cut % 97 == 1) {
            // The next save cannot append to a torn tail: it writes a
            // fresh base holding all k rounds.
            save_checkpoint(search_round(k), path);
            expect_same_checkpoint(search_round(k),
                                   load_checkpoint(path, &layout));
            EXPECT_EQ(layout.deltas, 0U);
            EXPECT_EQ(layout.base_trials, k);
        }
    }
    fs::remove(path);
}

TEST(CheckpointJournalTest, FlippedByteInTheLastDeltaIsRejected) {
    const std::string path = temp_path("flip.ckpt");
    std::string before;
    const std::size_t k = save_until_append(path, 20, before);
    const std::string full = read_file(path);
    CheckpointLayout committed;
    load_checkpoint(path, &committed);
    const SearchCheckpoint previous = search_round(k - 1);
    for (std::size_t at = before.size(); at < full.size(); ++at) {
        for (const unsigned char mask : {0x01, 0x20, 0xFF}) {
            SCOPED_TRACE("byte " + std::to_string(at) + " ^ " +
                         std::to_string(mask));
            std::string flipped = full;
            flipped[at] = static_cast<char>(flipped[at] ^ mask);
            write_file(path, flipped);
            CheckpointLayout layout;
            expect_same_checkpoint(previous, load_checkpoint(path, &layout));
            EXPECT_EQ(layout.deltas, committed.deltas - 1);
        }
    }
    fs::remove(path);
}

TEST(CheckpointJournalTest, SaveOntoAnotherFileWritesAFreshBase) {
    const std::string path = temp_path("rebase.ckpt");
    const auto expect_fresh_base = [&](const SearchCheckpoint& cp) {
        save_checkpoint(cp, path);
        CheckpointLayout layout;
        expect_same_checkpoint(cp, load_checkpoint(path, &layout));
        EXPECT_EQ(layout.deltas, 0U);
        EXPECT_EQ(layout.base_trials, cp.bo.trials.size());
    };
    const auto save_rounds = [&](std::size_t rounds, std::uint64_t key) {
        fs::remove(path);
        for (std::size_t round = 1; round <= rounds; ++round) {
            save_checkpoint(search_round(round, key), path);
        }
        CheckpointLayout layout;
        load_checkpoint(path, &layout);
        ASSERT_GT(layout.deltas, 0U);
    };

    // Foreign files: not a checkpoint, and a v3 checkpoint.
    write_file(path, "not a checkpoint\n");
    expect_fresh_base(search_round(3));
    write_file(path, read_file(v3_fixture_path()));
    expect_fresh_base(search_round(3));

    // A previous pass (another context key) at the same path.
    save_rounds(10, 7);
    expect_fresh_base(search_round(1, 8));
    save_checkpoint(search_round(2, 8), path);
    CheckpointLayout layout;
    load_checkpoint(path, &layout);
    EXPECT_EQ(layout.deltas, 1U);

    // Same header, but the trials no longer extend the file's.
    save_rounds(10, 7);
    SearchCheckpoint diverged = search_round(11);
    diverged.bo.trials[0].y += 1.0;
    expect_fresh_base(diverged);

    // No new trial, a cache entry no trial explains, and an unsorted cache.
    save_rounds(10, 7);
    expect_fresh_base(search_round(10));
    SearchCheckpoint extra = search_round(11);
    extra.cache.emplace_back(std::vector<double>(12, 2.0), 1.0);
    expect_fresh_base(extra);
    SearchCheckpoint unsorted = search_round(12);
    std::reverse(unsorted.cache.begin(), unsorted.cache.end());
    expect_fresh_base(unsorted);

    // Model payloads are never journaled.
    fs::remove(path);
    for (std::size_t round = 1; round <= 3; ++round) {
        SearchCheckpoint cp = search_round(round);
        cp.model_bits = {1u, 2u, static_cast<std::uint32_t>(round)};
        cp.model_digest = 5;
        expect_fresh_base(cp);
    }
    fs::remove(path);
}

// ------------------------------------------------- model snapshots ----

TEST(ModelSnapshotTest, RoundTripRestoresWeightsAndMaskStreams) {
    models::MlpOptions options;
    options.input_features = 2;
    options.hidden = 8;
    options.classes = 3;
    Rng rng(4);
    models::ModelHandle model = models::make_mlp(options, rng);
    const std::vector<std::uint32_t> bits = snapshot_model(*model.net);
    const std::vector<RngState> rngs = snapshot_model_rngs(*model.net);
    const std::uint64_t digest = model_structure_digest(*model.net);
    ASSERT_FALSE(bits.empty());
    ASSERT_EQ(rngs.size(), model.dropout_sites.size());

    // Perturb everything, then restore.
    for (nn::Parameter* p : model.net->parameters()) {
        for (std::size_t i = 0; i < p->value.size(); ++i) {
            p->value.data()[i] += 1.0F;
        }
    }
    restore_model(*model.net, bits);
    restore_model_rngs(*model.net, rngs);
    EXPECT_EQ(bits, snapshot_model(*model.net));
    EXPECT_EQ(digest, model_structure_digest(*model.net));

    // A structurally different model digests differently and rejects the
    // payload.
    models::MlpOptions other = options;
    other.hidden = 9;
    Rng other_rng(4);
    models::ModelHandle wrong = models::make_mlp(other, other_rng);
    EXPECT_NE(digest, model_structure_digest(*wrong.net));
    EXPECT_THROW(restore_model(*wrong.net, bits), std::runtime_error);
}

// ------------------------------------------------ engine memo cache ----

TEST(EngineCacheTest, ExportImportServesDuplicatesAcrossEngines) {
    EvaluationEngine engine(EngineConfig{1, true});
    EvalContext context;
    context.key = 42;
    std::size_t evaluations = 0;
    const PointEvaluator evaluator = [&](const Alpha& point, Rng&) {
        ++evaluations;
        return point[0] * 10.0;
    };
    const std::vector<Alpha> points = {{0.1}, {0.2}};
    engine.evaluate_points(points, evaluator, context);
    EXPECT_EQ(2u, evaluations);
    const auto entries = engine.export_cache();
    ASSERT_EQ(2u, entries.size());
    EXPECT_LT(entries[0].first, entries[1].first);  // deterministic order

    EvaluationEngine fresh(EngineConfig{1, true});
    fresh.import_cache(context, entries);
    const BatchOutcome outcome =
        fresh.evaluate_points(points, evaluator, context);
    EXPECT_EQ(2u, evaluations);  // both served from the imported cache
    EXPECT_EQ(2u, outcome.cache_hits);
    EXPECT_EQ(1.0, outcome.utilities[0]);
    EXPECT_EQ(2.0, outcome.utilities[1]);
}

// --------------------------------------------------------- run store ----

TEST(RunStoreTest, AppendParseAndSummarize) {
    const std::string root = temp_path("store_dir");
    fs::remove_all(root);
    RunStore store(root);

    auto trial = [&](std::uint64_t seed, std::uint64_t index,
                     double objective) {
        RunRecord r;
        r.kind = "trial";
        r.scenario = "toy";
        r.family = "toy";
        r.seed = seed;
        r.trial = index;
        r.point = "alpha0=0.100";
        r.objective = objective;
        r.build = "stamp";
        return r;
    };
    RunRecord summary;
    summary.kind = "summary";
    summary.scenario = "toy";
    summary.family = "toy";
    summary.seed = 0;
    summary.trials = 3;
    summary.best_trial = 2;
    summary.best_point = "alpha0=0.100";
    summary.best_objective = 0.9;
    summary.seconds = 1.25;
    summary.annotation = "norm=batch \"quoted\"";
    summary.build = "stamp";

    RunRecord summary1 = summary;
    summary1.seed = 1;
    summary1.trials = 2;
    summary1.best_trial = 1;
    summary1.best_objective = 0.8;
    store.append("toy", {trial(0, 0, 0.5), trial(0, 1, 0.7),
                         trial(0, 2, 0.9), summary});
    store.append("toy", {trial(1, 0, 0.6), trial(1, 1, 0.8), summary1});
    // Seed 2 was interrupted and never resumed (no summary): its partial
    // series — even with the highest single objective — must not enter
    // the aggregates.
    store.append("toy", {trial(2, 0, 0.95)});

    const std::vector<RunRecord> records = store.load_all();
    ASSERT_EQ(8u, records.size());
    EXPECT_EQ("trial", records[0].kind);
    EXPECT_EQ(0.5, records[0].objective);  // %.17g round trip is exact
    EXPECT_EQ("summary", records[3].kind);
    EXPECT_EQ("norm=batch \"quoted\"", records[3].annotation);
    EXPECT_EQ(1.25, records[3].seconds);

    const auto summaries = summarize_runs(records, 0.99);
    ASSERT_EQ(1u, summaries.size());
    const ScenarioSummary& s = summaries[0];
    EXPECT_EQ("toy", s.scenario);
    EXPECT_EQ(2u, s.runs);
    EXPECT_EQ(2u, s.seeds);  // seed 2 is incomplete
    EXPECT_EQ(6u, s.trial_records);
    EXPECT_EQ(0.9, s.best_objective);
    EXPECT_EQ(0u, s.best_seed);
    EXPECT_NEAR(0.85, s.mean_best, 1e-12);   // (0.9 + 0.8) / 2
    EXPECT_NEAR(0.05, s.stddev_best, 1e-12);
    // Seed 0 reaches 0.99 * 0.9 at trial 3; seed 1 at trial 2.
    EXPECT_NEAR(2.5, s.mean_trials_to_target, 1e-12);
    fs::remove_all(root);
}

TEST(RunStoreTest, ValidateOutputFileGivesClearErrors) {
    const std::string dir = temp_path("out_dir");
    fs::create_directories(dir);
    EXPECT_THROW(validate_output_file(dir), std::runtime_error);
    EXPECT_THROW(
        validate_output_file(temp_path("missing_parent") + "/x.json"),
        std::runtime_error);

    const std::string ok = temp_path("ok.json");
    fs::remove(ok);
    EXPECT_NO_THROW(validate_output_file(ok));
    EXPECT_FALSE(fs::exists(ok));  // the probe cleans up after itself

    // An existing file stays untouched (append-mode probe).
    {
        std::ofstream out(ok);
        out << "payload";
    }
    EXPECT_NO_THROW(validate_output_file(ok));
    std::ifstream in(ok);
    std::string text;
    std::getline(in, text);
    EXPECT_EQ("payload", text);
    fs::remove_all(dir);
    fs::remove(ok);
}

// ------------------------------------------- kill/resume: bayesft ----

class ResumeTortureFixture : public ::testing::Test {
protected:
    void SetUp() override {
        set_log_level(LogLevel::Error);
        Rng rng(21);
        const data::Dataset full = data::make_blobs(200, 3, 4.0, 0.6, rng);
        Rng split_rng(22);
        auto parts = data::split(full, 0.3, split_rng);
        train_ = std::move(parts.train);
        test_ = std::move(parts.test);
    }

    static models::ModelHandle make_model() {
        models::MlpOptions options;
        options.input_features = 2;
        options.hidden = 10;
        options.hidden_layers = 2;  // two searchable dropout sites
        options.classes = 3;
        Rng rng(31);
        return models::make_mlp(options, rng);
    }

    static BayesFTConfig bayesft_config(std::size_t batch,
                                        std::size_t threads) {
        BayesFTConfig config;
        config.iterations = 5;
        config.epochs_per_iteration = 1;
        config.train.epochs = 1;
        config.train.batch_size = 32;
        config.objective.sigmas = {0.5};
        config.objective.mc_samples = 1;
        config.bo.initial_random_trials = 2;
        config.bo.candidates = 64;
        config.bo.local_candidates = 16;
        config.warmup_epochs = 1;
        config.final_epochs = 1;
        config.max_dropout_rate = 0.5;
        config.batch = batch;
        config.eval_threads = threads;
        return config;
    }

    static ArchSearchConfig arch_config(std::size_t batch,
                                        std::size_t threads) {
        ArchSearchConfig config;
        config.iterations = 5;
        config.train.epochs = 1;
        config.objective.sigmas = {0.5};
        config.objective.mc_samples = 1;
        config.bo.initial_random_trials = 2;
        config.bo.candidates = 64;
        config.bo.local_candidates = 16;
        config.final_epochs = 1;
        config.batch = batch;
        config.eval_threads = threads;
        return config;
    }

    static models::ArchFamily tiny_family() {
        models::MlpOptions base;
        base.input_features = 2;
        base.hidden = 12;
        base.classes = 3;
        return models::mlp_arch_family(base, /*max_hidden_layers=*/2,
                                       /*max_dropout_rate=*/0.5);
    }

    static void expect_same_trials(const std::vector<bayesopt::Trial>& a,
                                   const std::vector<bayesopt::Trial>& b) {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].x, b[i].x) << "trial " << i;
            EXPECT_EQ(a[i].y, b[i].y) << "trial " << i;
        }
    }

    /// Interrupt after `stop` trials, resume to completion, and demand
    /// bitwise equality with `reference` (results + final weights).
    void check_bayesft_resume(const BayesFTConfig& base,
                              const BayesFTResult& reference,
                              const std::vector<float>& reference_weights,
                              std::size_t stop,
                              const std::string& path) const {
        fs::remove(path);
        BayesFTConfig config = base;
        config.checkpoint.path = path;
        config.checkpoint.stop_after = stop;
        {
            models::ModelHandle model = make_model();
            Rng rng(41);
            const BayesFTResult partial =
                bayesft_search(model, train_, test_, config, rng);
            ASSERT_FALSE(partial.completed) << "stop=" << stop;
            ASSERT_TRUE(checkpoint_exists(path));
        }
        models::ModelHandle model = make_model();
        Rng rng(41);
        config.checkpoint.stop_after = 0;
        const BayesFTResult resumed =
            bayesft_search(model, train_, test_, config, rng);
        EXPECT_TRUE(resumed.completed);
        EXPECT_GE(resumed.resumed_trials, stop);
        EXPECT_EQ(reference.best_alpha, resumed.best_alpha)
            << "stop=" << stop;
        EXPECT_EQ(reference.best_utility, resumed.best_utility)
            << "stop=" << stop;
        expect_same_trials(reference.trials, resumed.trials);
        EXPECT_EQ(reference.trial_points, resumed.trial_points);
        EXPECT_EQ(reference_weights, weights_of(*model.net))
            << "stop=" << stop;
        fs::remove(path);
    }

    void bayesft_torture(std::size_t batch, std::size_t threads,
                         const std::string& tag) const {
        const BayesFTConfig config = bayesft_config(batch, threads);
        models::ModelHandle reference_model = make_model();
        Rng reference_rng(41);
        const BayesFTResult reference = bayesft_search(
            reference_model, train_, test_, config, reference_rng);
        const std::vector<float> reference_weights =
            weights_of(*reference_model.net);
        const std::string path = temp_path("bayesft_" + tag + ".ckpt");

        // A checkpoint-enabled run that is never interrupted must already
        // be bit-identical (writing snapshots must not perturb anything).
        {
            fs::remove(path);
            BayesFTConfig checkpointed = config;
            checkpointed.checkpoint.path = path;
            models::ModelHandle model = make_model();
            Rng rng(41);
            const BayesFTResult straight =
                bayesft_search(model, train_, test_, checkpointed, rng);
            EXPECT_EQ(reference.best_alpha, straight.best_alpha);
            EXPECT_EQ(reference.best_utility, straight.best_utility);
            EXPECT_EQ(reference_weights, weights_of(*model.net));
            fs::remove(path);
        }
        // Interrupt at every trial(-group) boundary.
        for (std::size_t stop = 1; stop < config.iterations; ++stop) {
            check_bayesft_resume(config, reference, reference_weights, stop,
                                 path);
        }
    }

    data::Dataset train_;
    data::Dataset test_;
};

TEST_F(ResumeTortureFixture, BayesftResumeBitIdenticalSerial1Thread) {
    bayesft_torture(/*batch=*/1, /*threads=*/1, "serial");
}

TEST_F(ResumeTortureFixture, BayesftResumeBitIdenticalBatched4Threads) {
    bayesft_torture(/*batch=*/2, /*threads=*/4, "batched");
}

TEST_F(ResumeTortureFixture, BayesftResumeRejectsDifferentSeedOrConfig) {
    const std::string path = temp_path("bayesft_guard.ckpt");
    fs::remove(path);
    BayesFTConfig config = bayesft_config(1, 1);
    config.checkpoint.path = path;
    config.checkpoint.stop_after = 2;
    {
        models::ModelHandle model = make_model();
        Rng rng(41);
        bayesft_search(model, train_, test_, config, rng);
    }
    config.checkpoint.stop_after = 0;
    {
        // Different seed => different entry RNG state => digest mismatch.
        models::ModelHandle model = make_model();
        Rng rng(42);
        EXPECT_THROW(bayesft_search(model, train_, test_, config, rng),
                     std::runtime_error);
    }
    {
        // Different objective configuration is rejected too.
        BayesFTConfig other = config;
        other.objective.sigmas = {0.9};
        models::ModelHandle model = make_model();
        Rng rng(41);
        EXPECT_THROW(bayesft_search(model, train_, test_, other, rng),
                     std::runtime_error);
    }
    {
        // Different architecture: scenario digests match, model digest
        // must not.
        models::MlpOptions options;
        options.input_features = 2;
        options.hidden = 14;
        options.hidden_layers = 2;
        options.classes = 3;
        Rng model_rng(31);
        models::ModelHandle model = models::make_mlp(options, model_rng);
        Rng rng(41);
        EXPECT_THROW(bayesft_search(model, train_, test_, config, rng),
                     std::runtime_error);
    }
    fs::remove(path);
}

// ---------------------------------------- kill/resume: arch search ----

TEST_F(ResumeTortureFixture, ArchSearchResumeBitIdenticalSerialAndBatched) {
    for (const auto& [batch, threads, tag] :
         {std::tuple<std::size_t, std::size_t, const char*>{1, 1, "s"},
          std::tuple<std::size_t, std::size_t, const char*>{2, 4, "b"}}) {
        const models::ArchFamily family = tiny_family();
        const ArchSearchConfig config = arch_config(batch, threads);
        Rng reference_rng(51);
        const ArchSearchResult reference =
            arch_search(family, train_, test_, config, reference_rng);
        const std::vector<float> reference_weights =
            weights_of(*reference.best_model.net);
        const std::string path =
            temp_path(std::string("arch_") + tag + ".ckpt");

        for (std::size_t stop = 1; stop < config.iterations; ++stop) {
            fs::remove(path);
            ArchSearchConfig interrupted = config;
            interrupted.checkpoint.path = path;
            interrupted.checkpoint.stop_after = stop;
            {
                Rng rng(51);
                const ArchSearchResult partial = arch_search(
                    family, train_, test_, interrupted, rng);
                ASSERT_FALSE(partial.completed);
                ASSERT_FALSE(partial.best_model.net);
                ASSERT_TRUE(checkpoint_exists(path));
            }
            Rng rng(51);
            interrupted.checkpoint.stop_after = 0;
            const ArchSearchResult resumed =
                arch_search(family, train_, test_, interrupted, rng);
            EXPECT_TRUE(resumed.completed);
            EXPECT_EQ(reference.best_point.values,
                      resumed.best_point.values)
                << tag << " stop=" << stop;
            EXPECT_EQ(reference.best_utility, resumed.best_utility);
            expect_same_trials(reference.trials, resumed.trials);
            EXPECT_EQ(reference_weights,
                      weights_of(*resumed.best_model.net))
                << tag << " stop=" << stop;
            fs::remove(path);
        }
    }
}

TEST_F(ResumeTortureFixture, ArchSearchResumesFromEveryTornTail) {
    const models::ArchFamily family = tiny_family();
    const ArchSearchConfig config = arch_config(1, 1);
    Rng reference_rng(51);
    const ArchSearchResult reference =
        arch_search(family, train_, test_, config, reference_rng);
    const std::string path = temp_path("arch_torn.ckpt");
    ArchSearchConfig checkpointed = config;
    checkpointed.checkpoint.path = path;
    const auto run_until = [&](std::size_t stop) {
        fs::remove(path);
        ArchSearchConfig interrupted = checkpointed;
        interrupted.checkpoint.stop_after = stop;
        Rng rng(51);
        arch_search(family, train_, test_, interrupted, rng);
    };
    // The latest boundary whose save appended a journal delta.
    std::size_t k = 0;
    for (std::size_t stop = config.iterations - 1; stop >= 2 && k == 0;
         --stop) {
        run_until(stop);
        CheckpointLayout layout;
        load_checkpoint(path, &layout);
        if (layout.deltas > 0) k = stop;
    }
    ASSERT_NE(k, 0U);
    run_until(k - 1);
    const std::string before = read_file(path);
    const SearchCheckpoint previous = load_checkpoint(path);
    run_until(k);
    const std::string full = read_file(path);
    ASSERT_EQ(full.compare(0, before.size(), before), 0);

    for (std::size_t cut = before.size(); cut < full.size(); ++cut) {
        SCOPED_TRACE("cut at byte " + std::to_string(cut));
        write_file(path, full.substr(0, cut));
        expect_same_checkpoint(previous, load_checkpoint(path));
        Rng rng(51);
        const ArchSearchResult resumed =
            arch_search(family, train_, test_, checkpointed, rng);
        EXPECT_TRUE(resumed.completed);
        EXPECT_EQ(reference.best_point.values, resumed.best_point.values);
        expect_same_trials(reference.trials, resumed.trials);
    }
    fs::remove(path);
}

TEST_F(ResumeTortureFixture, ArchSearchResumesOneTrialPerProcess) {
    // Each invocation resumes the file the previous one left and observes
    // one more trial: later invocations append to journals earlier ones
    // wrote.
    const models::ArchFamily family = tiny_family();
    const ArchSearchConfig config = arch_config(1, 1);
    Rng reference_rng(51);
    const ArchSearchResult reference =
        arch_search(family, train_, test_, config, reference_rng);
    const std::string path = temp_path("arch_steps.ckpt");
    fs::remove(path);
    ArchSearchConfig stepped = config;
    stepped.checkpoint.path = path;
    stepped.checkpoint.stop_after = 1;
    std::size_t appended = 0;
    ArchSearchResult result;
    for (std::size_t step = 0; step < config.iterations; ++step) {
        Rng rng(51);
        result = arch_search(family, train_, test_, stepped, rng);
        CheckpointLayout layout;
        load_checkpoint(path, &layout);
        appended += layout.deltas > 0 ? 1 : 0;
        if (result.completed) break;
    }
    EXPECT_TRUE(result.completed);
    EXPECT_GT(appended, 0U);
    EXPECT_EQ(reference.best_point.values, result.best_point.values);
    EXPECT_EQ(reference.best_utility, result.best_utility);
    expect_same_trials(reference.trials, result.trials);
    fs::remove(path);
}

}  // namespace
}  // namespace bayesft::core
