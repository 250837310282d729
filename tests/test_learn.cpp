// Online learning subsystem tests (DESIGN.md §5k): scorecard drain
// cursor, replay-buffer determinism, drift hysteresis, serialized
// registry publishes, the background trainer end to end, and the
// contract that learning mode never perturbs served responses.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/format_selector.hpp"
#include "core/perf_model.hpp"
#include "core/study.hpp"
#include "learn/drift.hpp"
#include "learn/replay.hpp"
#include "learn/trainer.hpp"
#include "serve/model_registry.hpp"
#include "serve/request.hpp"
#include "serve/scorecard.hpp"
#include "serve/service.hpp"
#include "sparse/mmio.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"

namespace spmvml {
namespace {

using learn::DriftConfig;
using learn::DriftDetector;
using learn::OnlineTrainer;
using learn::ReplayBuffer;
using learn::TrainerConfig;
using serve::ModelRegistry;
using serve::Scorecard;
using serve::ScorecardEntry;
using serve::Service;
using serve::ServiceConfig;

/// Fabricated but distinct feature vector for sample `i`; the learning
/// loop only ever sees features through these arrays, so no corpus or
/// matrix generation is needed for the model-level tests.
std::array<double, kNumFeatures> fab_features(int i) {
  std::array<double, kNumFeatures> f{};
  f[kNRows] = 1000.0 + 13.0 * i;
  f[kNCols] = 1000.0 + 7.0 * i;
  f[kNnzTot] = 5000.0 + 31.0 * i;
  f[kNnzMu] = 5.0 + 0.1 * i;
  f[kNnzFrac] = 0.5;
  f[kNnzMax] = 12.0 + i;
  f[kNnzMin] = 1.0;
  f[kNnzSigma] = 2.5;
  f[kNnzbTot] = 4000.0 + 17.0 * i;
  f[kNnzbMu] = 4.0;
  f[kNnzbSigma] = 1.5;
  f[kNnzbMax] = 9.0;
  f[kNnzbMin] = 1.0;
  f[kSnzbMu] = 1.25;
  f[kSnzbSigma] = 0.5;
  f[kSnzbMax] = 6.0;
  f[kSnzbMin] = 1.0;
  return f;
}

ScorecardEntry fab_entry(int i, Format chosen, double measured_gflops,
                         double predicted_gflops = 0.0, bool probe = false) {
  ScorecardEntry e;
  e.features = fab_features(i);
  e.features_hash = serve::features_fingerprint(e.features);
  e.chosen = chosen;
  e.predicted_best = chosen;
  e.measured_gflops = measured_gflops;
  e.predicted_gflops = predicted_gflops;
  e.model_version = 1;
  e.probe = probe;
  return e;
}

/// Decision-tree selector fitted on fabricated rows (no corpus); every
/// sample is labeled `label` within kAllFormats.
std::shared_ptr<const FormatSelector> fab_selector(Format label) {
  auto s = std::make_shared<FormatSelector>(ModelKind::kDecisionTree,
                                            FeatureSet::kSet12, kAllFormats,
                                            /*fast=*/true);
  const int idx = static_cast<int>(
      std::find(kAllFormats.begin(), kAllFormats.end(), label) -
      kAllFormats.begin());
  ml::Matrix x;
  std::vector<int> y;
  for (int i = 0; i < 24; ++i) {
    FeatureVector fv;
    fv.values = fab_features(i);
    x.push_back(fv.select(FeatureSet::kSet12));
    y.push_back(idx);
  }
  s->fit(x, y);
  return s;
}

/// Per-format perf model over {CSR, ELL} where CSR runs at `csr_gflops`
/// and ELL at `ell_gflops` on every fabricated sample.
std::shared_ptr<const PerfModel> fab_perf(double csr_gflops,
                                          double ell_gflops) {
  const std::vector<Format> formats = {Format::kCsr, Format::kEll};
  auto p = std::make_shared<PerfModel>(RegressorKind::kDecisionTree,
                                       FeatureSet::kSet12, formats,
                                       /*fast=*/true);
  std::vector<ml::Matrix> x(2);
  std::vector<std::vector<double>> y(2);
  for (int i = 0; i < 24; ++i) {
    FeatureVector fv;
    fv.values = fab_features(i);
    const double nnz = fv[kNnzTot];
    for (int k = 0; k < 2; ++k) {
      const double g = (k == 0) ? csr_gflops : ell_gflops;
      x[static_cast<std::size_t>(k)].push_back(fv.select(FeatureSet::kSet12));
      y[static_cast<std::size_t>(k)].push_back(
          seconds_to_regression_target(2.0 * nnz / (g * 1e9)));
    }
  }
  p->fit_samples(x, y);
  return p;
}

// --- Scorecard drain cursor ---------------------------------------------

TEST(LearnScorecard, DrainSinceSurvivesWraparound) {
  Scorecard sc(8);
  for (int i = 0; i < 20; ++i)
    sc.record(fab_entry(i, Format::kCsr, 1.0 + i));

  // Cursor 0 after 20 records into a capacity-8 ring: 12 entries were
  // evicted before the caller drained, the retained 8 come back oldest
  // first with the cursor advanced past everything seen.
  const auto d = sc.drain_since(0);
  EXPECT_EQ(d.next_seq, 20u);
  EXPECT_EQ(d.dropped, 12u);
  ASSERT_EQ(d.entries.size(), 8u);
  for (std::size_t k = 0; k < d.entries.size(); ++k)
    EXPECT_DOUBLE_EQ(d.entries[k].measured_gflops, 1.0 + 12.0 + k);

  // A caught-up cursor pays for new entries only.
  const auto empty = sc.drain_since(d.next_seq);
  EXPECT_EQ(empty.next_seq, 20u);
  EXPECT_EQ(empty.dropped, 0u);
  EXPECT_TRUE(empty.entries.empty());

  sc.record(fab_entry(20, Format::kEll, 77.0));
  const auto one = sc.drain_since(d.next_seq);
  EXPECT_EQ(one.next_seq, 21u);
  ASSERT_EQ(one.entries.size(), 1u);
  EXPECT_EQ(one.entries[0].chosen, Format::kEll);
  EXPECT_EQ(one.dropped, 0u);
}

TEST(LearnScorecard, ChunkedDrainsSeeEveryRetainedEntryOnce) {
  // Interleave records and drains at an awkward cadence; the
  // concatenated drains must equal the full entry stream (no entry is
  // ever evicted under this cursor because the ring is large enough).
  Scorecard sc(64);
  std::vector<double> seen;
  std::uint64_t cursor = 0;
  int next = 0;
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < 3 + round; ++k)
      sc.record(fab_entry(next, Format::kCsr, 100.0 + next)), ++next;
    const auto d = sc.drain_since(cursor);
    cursor = d.next_seq;
    EXPECT_EQ(d.dropped, 0u);
    for (const auto& e : d.entries) seen.push_back(e.measured_gflops);
  }
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) EXPECT_DOUBLE_EQ(seen[i], 100.0 + i);
}

TEST(LearnScorecard, ProbeEntriesStayOutOfWindowAggregates) {
  Scorecard sc(16);
  // Two scored hits, one scored miss, and a pile of probes.
  auto hit = fab_entry(0, Format::kCsr, 10.0, 10.0);
  sc.record(hit);
  sc.record(hit);
  auto miss = fab_entry(1, Format::kCsr, 10.0, 5.0);
  miss.predicted_best = Format::kEll;
  sc.record(miss);
  for (int i = 0; i < 5; ++i) {
    auto probe = fab_entry(10 + i, Format::kHyb, 1.0, 99.0, /*probe=*/true);
    probe.predicted_best = Format::kCoo;  // would be a miss if counted
    sc.record(probe);
  }
  const auto s = sc.summary();
  EXPECT_EQ(s.total, 8u);
  EXPECT_EQ(s.window, 8u);
  EXPECT_EQ(s.scored, 3u);
  EXPECT_NEAR(s.accuracy, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.rme, (0.0 + 0.0 + 0.5) / 3.0, 1e-12);

  // Probes also stay out of eviction-time aggregate subtraction: wrap
  // the ring fully with probes and the scored aggregates zero out
  // instead of going negative.
  for (int i = 0; i < 16; ++i)
    sc.record(fab_entry(50 + i, Format::kCsr, 1.0, 1.0, /*probe=*/true));
  const auto after = sc.summary();
  EXPECT_EQ(after.scored, 0u);
  EXPECT_EQ(after.accuracy, 0.0);
}

// --- Replay buffer -------------------------------------------------------

TEST(ReplayBuffer, MergesEntriesByFingerprintIntoPerFormatMeans) {
  ReplayBuffer buf(8, /*seed=*/1);
  buf.add(fab_entry(0, Format::kCsr, 10.0));
  buf.add(fab_entry(0, Format::kCsr, 14.0));
  buf.add(fab_entry(0, Format::kEll, 3.0, 0.0, /*probe=*/true));
  ASSERT_EQ(buf.size(), 1u);
  const auto s = buf.snapshot().front();
  EXPECT_EQ(s.measured_formats(), 2);
  EXPECT_DOUBLE_EQ(s.mean_gflops(Format::kCsr), 12.0);
  EXPECT_DOUBLE_EQ(s.mean_gflops(Format::kEll), 3.0);
  EXPECT_EQ(s.best_format(), Format::kCsr);
  EXPECT_EQ(buf.stats().observations, 3u);
  EXPECT_EQ(buf.stats().inserted, 1u);
}

TEST(ReplayBuffer, SkipsEntriesWithoutMeasurement) {
  ReplayBuffer buf(8, 1);
  buf.add(fab_entry(0, Format::kCsr, 0.0));
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.stats().skipped, 1u);
}

TEST(ReplayBuffer, DeterministicAcrossDrainCadence) {
  // Same seed + same entry stream => identical contents no matter how
  // the stream was chunked (the satellite determinism contract). The
  // stream overfills a capacity-16 buffer so eviction (the only RNG
  // consumer) is exercised heavily.
  const std::uint64_t seed = 2018;
  std::vector<ScorecardEntry> stream;
  for (int i = 0; i < 150; ++i)
    stream.push_back(fab_entry(i, i % 2 == 0 ? Format::kCsr : Format::kHyb,
                               1.0 + i % 7));

  ReplayBuffer one_by_one(16, seed);
  for (const auto& e : stream) one_by_one.add(e);

  for (const std::size_t chunk : {3u, 7u, 50u, 150u}) {
    ReplayBuffer chunked(16, seed);
    // Chunking is a no-op for add order; this models a poller draining
    // the scorecard at a different cadence.
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      const std::size_t end = std::min(at + chunk, stream.size());
      for (std::size_t k = at; k < end; ++k) chunked.add(stream[k]);
    }
    EXPECT_EQ(chunked.snapshot(), one_by_one.snapshot())
        << "cadence " << chunk << " diverged";
    EXPECT_EQ(chunked.stats().evictions, one_by_one.stats().evictions);
  }
  EXPECT_GT(one_by_one.stats().evictions, 0u);
  EXPECT_EQ(one_by_one.size(), 16u);
}

TEST(ReplayBuffer, RepeatFingerprintsNeverConsumeRng) {
  // Re-observing retained fingerprints at a full buffer merges in place;
  // the next eviction victim must be unaffected by how many merges
  // happened in between.
  const std::uint64_t seed = 7;
  ReplayBuffer a(4, seed);
  ReplayBuffer b(4, seed);
  for (int i = 0; i < 4; ++i) {
    a.add(fab_entry(i, Format::kCsr, 5.0));
    b.add(fab_entry(i, Format::kCsr, 5.0));
  }
  for (int r = 0; r < 10; ++r) b.add(fab_entry(r % 4, Format::kEll, 2.0));
  a.add(fab_entry(100, Format::kCsr, 9.0));
  b.add(fab_entry(100, Format::kCsr, 9.0));
  // Same victim slot in both: the new fingerprint landed identically.
  std::vector<std::uint64_t> ha, hb;
  for (const auto& s : a.snapshot()) ha.push_back(s.features_hash);
  for (const auto& s : b.snapshot()) hb.push_back(s.features_hash);
  EXPECT_EQ(ha, hb);
}

// --- Drift detector ------------------------------------------------------

TEST(DriftDetector, TripsAfterConsecutiveBadWindowsAndRearmsAfterClear) {
  DriftConfig cfg;
  cfg.window = 4;
  cfg.rme_threshold = 0.5;
  cfg.accuracy_floor = 0.5;
  cfg.trip_after = 2;
  cfg.clear_after = 2;
  DriftDetector det(cfg);

  const auto feed_window = [&det](bool bad) {
    bool fired = false;
    for (int i = 0; i < 4; ++i) {
      auto e = fab_entry(i, Format::kCsr, 10.0, bad ? 1.0 : 10.0);
      if (bad) e.predicted_best = Format::kEll;
      fired = det.observe(e) || fired;
    }
    return fired;
  };

  EXPECT_FALSE(feed_window(false));  // clean
  EXPECT_FALSE(feed_window(true));   // 1st bad window: not yet
  EXPECT_TRUE(feed_window(true));    // 2nd: rising edge fires once
  EXPECT_FALSE(feed_window(true));   // latched: no refire
  EXPECT_FALSE(feed_window(false));  // 1st clean: still latched
  EXPECT_FALSE(feed_window(true));   // bad again: clean streak reset...
  EXPECT_FALSE(feed_window(false));
  EXPECT_FALSE(feed_window(false));  // 2nd consecutive clean: unlatch
  EXPECT_FALSE(feed_window(true));
  EXPECT_TRUE(feed_window(true));    // re-armed detector fires again

  const auto s = det.stats();
  EXPECT_EQ(s.trips, 2u);
  EXPECT_EQ(s.windows, 10u);
  EXPECT_TRUE(s.tripped);
  EXPECT_NEAR(s.last_rme, 0.9, 1e-12);
  EXPECT_EQ(s.last_accuracy, 0.0);
}

TEST(DriftDetector, TransientBurstDoesNotTrip) {
  DriftConfig cfg;
  cfg.window = 4;
  cfg.trip_after = 2;
  DriftDetector det(cfg);
  bool fired = false;
  for (int round = 0; round < 6; ++round) {
    const bool bad = round % 2 == 1;  // alternating: never 2 consecutive
    for (int i = 0; i < 4; ++i) {
      auto e = fab_entry(i, Format::kCsr, 10.0, bad ? 1.0 : 10.0);
      if (bad) e.predicted_best = Format::kEll;
      fired = det.observe(e) || fired;
    }
  }
  EXPECT_FALSE(fired);
  EXPECT_EQ(det.stats().trips, 0u);
}

// --- Registry publish serialization -------------------------------------

TEST(LearnRegistry, StaleCandidateIsDiscardedNotInstalled) {
  ModelRegistry registry;
  EXPECT_EQ(registry.install(fab_selector(Format::kCsr)), 1u);
  // A candidate pinned to a version that is no longer live is rejected.
  EXPECT_THROW(registry.install(fab_selector(Format::kEll), nullptr,
                                /*expected_version=*/0),
               Error);
  EXPECT_EQ(registry.version(), 1u);
  const auto history = registry.history();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].action, "install");
  EXPECT_EQ(history[1].action, "discard");
  EXPECT_EQ(history[1].version, 0u);
}

TEST(LearnRegistry, ConcurrentPublishersExactlyOneWins) {
  // The satellite race: admin swap vs background trainer publishing
  // concurrently, both pinned to the current version. Exactly one must
  // install; the loser is discarded, never half-installed. Run under
  // tsan via the Learn filter in check.sh.
  ModelRegistry registry;
  registry.install(fab_selector(Format::kCsr));
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t live = registry.version();
    std::atomic<int> wins{0}, losses{0};
    std::vector<std::thread> publishers;
    for (int t = 0; t < 2; ++t) {
      publishers.emplace_back([&, t] {
        try {
          registry.install(
              fab_selector(t == 0 ? Format::kCsr : Format::kEll), nullptr,
              live);
          wins.fetch_add(1);
        } catch (const Error&) {
          losses.fetch_add(1);
        }
      });
    }
    for (auto& p : publishers) p.join();
    EXPECT_EQ(wins.load(), 1);
    EXPECT_EQ(losses.load(), 1);
    EXPECT_EQ(registry.version(), live + 1);
    // The live bundle is always whole: a selector that answers.
    ASSERT_NE(registry.current(), nullptr);
    FeatureVector probe;
    probe.values = fab_features(3);
    (void)registry.current()->selector->select(probe);
  }
  // Journal: 1 seed install + kRounds wins + kRounds discards, and the
  // version sequence the installs carry is gapless.
  const auto history = registry.history();
  std::uint64_t installs = 0, discards = 0, last_version = 0;
  for (const auto& ev : history) {
    if (ev.action == "install") {
      ++installs;
      EXPECT_EQ(ev.version, last_version + 1);
      last_version = ev.version;
    } else if (ev.action == "discard") {
      ++discards;
      EXPECT_EQ(ev.version, 0u);
    }
  }
  EXPECT_EQ(installs, static_cast<std::uint64_t>(kRounds) + 1);
  EXPECT_EQ(discards, static_cast<std::uint64_t>(kRounds));
}

// --- PerfModel online refit ----------------------------------------------

TEST(LearnPerfModel, FitSamplesPredictsTheTrainingRegime) {
  const auto perf = fab_perf(/*csr_gflops=*/10.0, /*ell_gflops=*/1.0);
  FeatureVector fv;
  fv.values = fab_features(5);
  EXPECT_LT(perf->predict_seconds(fv, Format::kCsr),
            perf->predict_seconds(fv, Format::kEll));
}

// --- Background trainer --------------------------------------------------

TrainerConfig quick_trainer_config() {
  TrainerConfig cfg;
  cfg.enabled = true;
  cfg.replay_capacity = 256;
  cfg.poll_every_s = 0.01;
  cfg.min_samples = 12;
  cfg.min_labeled = 4;
  cfg.min_retrain_gap_s = 0.0;
  cfg.holdout_fraction = 0.3;
  cfg.seed = 2018;
  cfg.drift.window = 4;
  cfg.drift.rme_threshold = 0.3;
  cfg.drift.trip_after = 1;
  cfg.drift.clear_after = 1;
  return cfg;
}

/// Feed one fabricated sample's traffic: a scored entry (the served
/// format) plus a shadow probe of the other format, exactly like the
/// service's materialize path would.
void feed_sample(Scorecard& sc, int i, double csr_gflops, double ell_gflops,
                 double predicted_csr_gflops) {
  auto scored = fab_entry(i, Format::kCsr, csr_gflops, predicted_csr_gflops);
  if (predicted_csr_gflops < csr_gflops / 2.0)
    scored.predicted_best = Format::kEll;  // the live model disagrees
  sc.record(scored);
  sc.record(fab_entry(i, Format::kEll, ell_gflops, 0.0, /*probe=*/true));
}

TEST(LearnTrainer, DriftTriggersRetrainAndValidatedSwap) {
  Scorecard sc(1024);
  ModelRegistry registry;
  // Live bundle trained for an inverted world: believes ELL is 10x
  // faster than CSR. Measured traffic says the opposite.
  registry.install(fab_selector(Format::kEll), fab_perf(1.0, 10.0));
  const std::uint64_t live_version = registry.version();

  ThreadPool pool(2);
  OnlineTrainer trainer(quick_trainer_config(), sc, registry, pool);

  // 30 distinct matrices, CSR measured 10 GFLOPS vs ELL 1 — while the
  // live model predicts 1 GFLOPS for CSR (rel err 0.9 => drift).
  for (int i = 0; i < 30; ++i)
    feed_sample(sc, i, /*csr=*/10.0, /*ell=*/1.0, /*predicted_csr=*/1.0);

  OnlineTrainer::Stats stats;
  for (int spin = 0; spin < 1000; ++spin) {
    trainer.poke();
    stats = trainer.stats();
    if (stats.swaps >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  trainer.stop();
  stats = trainer.stats();

  ASSERT_GE(stats.swaps, 1u) << "drift never produced a published swap";
  EXPECT_GE(stats.drift.trips, 1u);
  EXPECT_GT(registry.version(), live_version);
  EXPECT_EQ(stats.last_published_version, registry.version());
  // Candidate beat the live bundle on the holdout slice.
  EXPECT_GE(stats.last_live_regret, stats.last_candidate_regret);

  // The published bundle learned the measured world: CSR now predicts
  // faster than ELL, and the journal's last event is a clean install.
  const auto bundle = registry.current();
  ASSERT_NE(bundle, nullptr);
  ASSERT_NE(bundle->perf, nullptr);
  FeatureVector fv;
  fv.values = fab_features(2);
  EXPECT_LT(bundle->perf->predict_seconds(fv, Format::kCsr),
            bundle->perf->predict_seconds(fv, Format::kEll));
  const auto history = registry.history();
  ASSERT_FALSE(history.empty());
  EXPECT_EQ(history.back().action, "install");
  EXPECT_EQ(history.back().version, registry.version());
}

TEST(LearnTrainer, CandidateThatCannotBeatLiveIsDiscarded) {
  Scorecard sc(1024);
  ModelRegistry registry;
  // Live bundle already matches the measured world; a periodic retrain
  // produces an equivalent candidate, which must NOT be published
  // (strictly-better contract).
  registry.install(fab_selector(Format::kCsr), fab_perf(10.0, 1.0));
  const std::uint64_t live_version = registry.version();

  ThreadPool pool(2);
  auto cfg = quick_trainer_config();
  cfg.drift.rme_threshold = 1e9;  // drift can never fire
  cfg.retrain_every_s = 0.02;     // periodic retrain does
  OnlineTrainer trainer(cfg, sc, registry, pool);

  for (int i = 0; i < 30; ++i)
    feed_sample(sc, i, 10.0, 1.0, /*predicted_csr=*/10.0);

  OnlineTrainer::Stats stats;
  for (int spin = 0; spin < 1000; ++spin) {
    trainer.poke();
    stats = trainer.stats();
    if (stats.discards + stats.aborted >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  trainer.stop();
  stats = trainer.stats();

  EXPECT_GE(stats.retrains, 1u);
  EXPECT_GE(stats.discards, 1u) << "equivalent candidate was not discarded";
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(registry.version(), live_version);
  EXPECT_EQ(stats.drift.trips, 0u);
}

TEST(LearnTrainer, DisabledTrainerIsInert) {
  Scorecard sc(64);
  ModelRegistry registry;
  registry.install(fab_selector(Format::kCsr));
  ThreadPool pool(1);
  TrainerConfig cfg;  // enabled = false
  OnlineTrainer trainer(cfg, sc, registry, pool);
  sc.record(fab_entry(0, Format::kCsr, 5.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  trainer.stop();
  const auto stats = trainer.stats();
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.polls, 0u);
  EXPECT_EQ(stats.replay.observations, 0u);
  EXPECT_EQ(registry.version(), 1u);
}

/// Poke the trainer until `done(stats)` or about five seconds pass.
template <typename Done>
OnlineTrainer::Stats poke_until(OnlineTrainer& trainer, Done done) {
  OnlineTrainer::Stats stats;
  for (int spin = 0; spin < 1000; ++spin) {
    trainer.poke();
    stats = trainer.stats();
    if (done(stats)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return stats;
}

TEST(LearnTrainer, RetrainWithoutLiveBundleAborts) {
  Scorecard sc(1024);
  ModelRegistry registry;  // nothing installed
  ThreadPool pool(2);
  auto cfg = quick_trainer_config();
  cfg.retrain_every_s = 0.02;
  OnlineTrainer trainer(cfg, sc, registry, pool);
  for (int i = 0; i < 30; ++i) feed_sample(sc, i, 10.0, 1.0, 10.0);

  poke_until(trainer, [](const auto& s) { return s.aborted >= 1; });
  trainer.stop();
  const auto stats = trainer.stats();
  EXPECT_GE(stats.retrains, 1u);
  EXPECT_GE(stats.aborted, 1u) << "a retrain with no live bundle ran on";
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(registry.current(), nullptr);
}

TEST(LearnTrainer, SingleFormatTrafficAbortsRetrain) {
  // Scored entries without shadow probes measure one format per matrix:
  // no sample says which format won, so no candidate may be trained.
  Scorecard sc(1024);
  ModelRegistry registry;
  registry.install(fab_selector(Format::kCsr), fab_perf(10.0, 1.0));
  const std::uint64_t live_version = registry.version();
  ThreadPool pool(2);
  auto cfg = quick_trainer_config();
  cfg.drift.rme_threshold = 1e9;  // drift can never fire
  cfg.retrain_every_s = 0.02;     // periodic retrain does
  OnlineTrainer trainer(cfg, sc, registry, pool);
  for (int i = 0; i < 30; ++i)
    sc.record(fab_entry(i, Format::kCsr, 10.0, /*predicted_gflops=*/10.0));

  poke_until(trainer, [](const auto& s) {
    return s.aborted + s.discards + s.swaps >= 1;
  });
  trainer.stop();
  const auto stats = trainer.stats();
  EXPECT_GE(stats.aborted, 1u);
  EXPECT_EQ(stats.discards, 0u);
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(registry.version(), live_version);
}

// --- Learn-off/-on response contract -------------------------------------

std::string canonical_json(serve::Response r) {
  r.queue_ms = r.latency_ms = r.server_ms = 0.0;
  r.est_wait_ms = 0.0;
  r.stage_features_ms = r.stage_classify_ms = 0.0;
  r.stage_regress_ms = r.stage_finalize_ms = 0.0;
  r.convert_ms = r.spmv_ms = 0.0;
  r.measured_gflops = 0.0;
  r.batch = 0;
  return serve::to_json(r);
}

TEST(LearnContract, LearningModeDoesNotPerturbResponses) {
  // The satellite contract, run under tsan: serving with the learning
  // loop off is byte-identical (modulo wall-clock fields) to serving
  // with it on while no retrain publishes — shadow probes and the poll
  // thread must never leak into responses. With learn off the trainer
  // is never even constructed, which is the "build without the
  // subsystem" half of the guarantee.
  const std::string path = "test_learn_contract.tmp.mtx";
  write_matrix_market(path, generate(make_small_plan(1, 4242).specs[0]));

  // A full-format perf model so indirect mode and probes both work.
  auto full_perf = [] {
    auto p = std::make_shared<PerfModel>(RegressorKind::kDecisionTree,
                                         FeatureSet::kSet12, kAllFormats,
                                         /*fast=*/true);
    std::vector<ml::Matrix> x(kAllFormats.size());
    std::vector<std::vector<double>> y(kAllFormats.size());
    for (int i = 0; i < 24; ++i) {
      FeatureVector fv;
      fv.values = fab_features(i);
      for (std::size_t k = 0; k < kAllFormats.size(); ++k) {
        x[k].push_back(fv.select(FeatureSet::kSet12));
        y[k].push_back(seconds_to_regression_target(
            2.0 * fv[kNnzTot] / ((2.0 + static_cast<double>(k)) * 1e9)));
      }
    }
    p->fit_samples(x, y);
    return std::shared_ptr<const PerfModel>(p);
  }();

  const std::vector<std::string> lines = {
      R"({"id":"c1","mode":"select","matrix":")" + path +
          R"(","materialize":true})",
      R"({"id":"c2","mode":"indirect","matrix":")" + path +
          R"(","materialize":true})",
      R"({"id":"c3","mode":"select","matrix":")" + path + R"("})",
      R"({"id":"c4","mode":"predict","matrix":")" + path + R"("})",
      R"({"id":"c5","mode":"select","matrix":")" + path +
          R"(","materialize":true})",
  };

  const auto run_pass = [&](bool learn_on) {
    ModelRegistry registry;
    registry.install(fab_selector(Format::kCsr), full_perf);
    ServiceConfig cfg;
    cfg.threads = 2;
    cfg.max_batch = 8;
    if (learn_on) {
      cfg.learn.enabled = true;
      cfg.learn.poll_every_s = 0.005;
      cfg.learn.drift.rme_threshold = 1e9;  // never drifts
      cfg.learn.retrain_every_s = 0.0;      // never retrains periodically
    }
    std::vector<std::string> out;
    std::size_t probes = 0;
    {
      Service service(cfg, registry);
      for (const auto& line : lines) {
        const auto parsed = serve::parse_request_line(line);
        out.push_back(canonical_json(service.call(parsed.request)));
      }
      for (const auto& e : service.scorecard().entries())
        probes += e.probe ? 1 : 0;
      service.shutdown();
    }
    if (learn_on) {
      // The learning plumbing really ran: every materialize request
      // shadow-probed one extra format.
      EXPECT_EQ(probes, 3u);
    } else {
      EXPECT_EQ(probes, 0u);
    }
    return out;
  };

  const auto off = run_pass(false);
  const auto on = run_pass(true);
  std::remove(path.c_str());
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i)
    EXPECT_EQ(off[i], on[i]) << "response " << i << " diverged";
}

}  // namespace
}  // namespace spmvml
