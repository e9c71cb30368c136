// QTACCEL-SNAPSHOT v2/v3 contract tests: the fuzzed pause/resume
// invariant (run(N); save; load; run(M) is bit-identical to an
// uninterrupted continuation — trace, stats, tables, AND telemetry,
// with the save format fuzzed across v2 text and v3 binary),
// cross-backend restores in both directions, v3 full/delta round trips
// and cross-format equivalence, v1 warm-start sniffing, the backend
// registry, and rejection of corrupted/foreign/truncated streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "env/grid_world.h"
#include "runtime/backend_registry.h"
#include "runtime/engine.h"
#include "runtime/snapshot.h"
#include "runtime/table_io.h"
#include "telemetry/metrics.h"
#include "telemetry/pipeline_telemetry.h"

namespace qta::runtime {
namespace {

env::GridWorldConfig grid8() {
  env::GridWorldConfig c;
  c.width = 8;
  c.height = 8;
  c.num_actions = 4;
  return c;
}

void expect_same_tables(const Engine& a, const Engine& b,
                        const env::Environment& env,
                        const std::string& tag) {
  for (StateId s = 0; s < env.num_states(); ++s) {
    for (ActionId act = 0; act < env.num_actions(); ++act) {
      ASSERT_EQ(a.q_raw(s, act), b.q_raw(s, act)) << tag;
      if (a.config().algorithm == qtaccel::Algorithm::kDoubleQ) {
        ASSERT_EQ(a.q2_raw(s, act), b.q2_raw(s, act)) << tag;
      }
    }
    ASSERT_EQ(a.qmax_entry(s).value, b.qmax_entry(s).value) << tag;
    ASSERT_EQ(a.qmax_entry(s).action, b.qmax_entry(s).action) << tag;
  }
}

void expect_same_stats(const qtaccel::PipelineStats& a,
                       const qtaccel::PipelineStats& b,
                       const std::string& tag) {
  EXPECT_EQ(a.iterations, b.iterations) << tag;
  EXPECT_EQ(a.samples, b.samples) << tag;
  EXPECT_EQ(a.episodes, b.episodes) << tag;
  EXPECT_EQ(a.bubbles, b.bubbles) << tag;
  EXPECT_EQ(a.cycles, b.cycles) << tag;
  EXPECT_EQ(a.issued, b.issued) << tag;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << tag;
  EXPECT_EQ(a.fwd_q_sa, b.fwd_q_sa) << tag;
  EXPECT_EQ(a.fwd_q_next, b.fwd_q_next) << tag;
  EXPECT_EQ(a.fwd_qmax, b.fwd_qmax) << tag;
  EXPECT_EQ(a.adder_saturations, b.adder_saturations) << tag;
}

// One fuzz case: random algorithm/qmax/hazard, random save and resume
// backends, random split point. The reference runs the SAME two chunks
// on one uninterrupted engine (on the resume backend — backends retire
// identical traces/stats, so this also covers the cross-backend pairs);
// the candidate pauses at the split through a serialized snapshot. The
// post-split trace, final stats, final tables, and the telemetry both
// sides aggregate over the second chunk must all be identical.
void check_resume_case(std::mt19937& rng, const std::string& tag) {
  env::GridWorld world(grid8());

  qtaccel::PipelineConfig base;
  base.algorithm =
      static_cast<qtaccel::Algorithm>(rng() % 4);
  base.qmax = static_cast<qtaccel::QmaxMode>(rng() % 2);
  base.hazard = static_cast<qtaccel::HazardMode>(rng() % 2);
  base.alpha = 0.2;
  base.gamma = 0.9;
  base.seed = 1 + rng() % 1000;
  base.max_episode_length = 128;

  const qtaccel::Backend save_backend = (rng() % 2 == 0)
                                            ? qtaccel::Backend::kCycleAccurate
                                            : qtaccel::Backend::kFast;
  const qtaccel::Backend resume_backend =
      (rng() % 2 == 0) ? qtaccel::Backend::kCycleAccurate
                       : qtaccel::Backend::kFast;
  const std::uint64_t split = 500 + rng() % 4000;
  const std::uint64_t total = split + 500 + rng() % 4000;
  const bool save_v3 = rng() % 2 == 0;

  const std::string what =
      tag + " [" + qtaccel::algorithm_name(base.algorithm) + " " +
      qtaccel::backend_name(save_backend) + "->" +
      qtaccel::backend_name(resume_backend) + " split=" +
      std::to_string(split) + " total=" + std::to_string(total) +
      (save_v3 ? " v3" : " v2") + "]";

  qtaccel::PipelineConfig rc = base;
  rc.backend = resume_backend;
  Engine ref(world, rc);
  std::vector<qtaccel::SampleTrace> ref_trace;
  ref.set_trace(&ref_trace);
  ref.run_samples(split);
  const std::size_t ref_prefix = ref_trace.size();

  qtaccel::PipelineConfig sc = base;
  sc.backend = save_backend;
  Engine saver(world, sc);
  saver.run_samples(split);
  std::stringstream snap;
  if (save_v3) {
    save_snapshot_v3(saver, snap);
  } else {
    save_snapshot(saver, snap);
  }

  Engine resumed(world, rc);
  load_snapshot(resumed, snap);
  std::vector<qtaccel::SampleTrace> resumed_trace;
  resumed.set_trace(&resumed_trace);

  // Both sinks attach at the same logical point (the split), so the
  // metrics each registry aggregates over the second chunk — cycle
  // attribution, forwarding hits, episode/stall histograms — must be
  // identical if the restore was truly bit-exact.
  telemetry::MetricsRegistry ref_metrics, resumed_metrics;
  {
    telemetry::PipelineTelemetry ref_sink(qtaccel::make_run_labels(rc),
                                          &ref_metrics, nullptr);
    telemetry::PipelineTelemetry resumed_sink(qtaccel::make_run_labels(rc),
                                              &resumed_metrics, nullptr);
    ref.set_telemetry(&ref_sink);
    resumed.set_telemetry(&resumed_sink);
    ref.run_samples(total);
    resumed.run_samples(total);
    ref.set_telemetry(nullptr);
    resumed.set_telemetry(nullptr);
  }

  ASSERT_EQ(ref_trace.size(), ref_prefix + resumed_trace.size()) << what;
  for (std::size_t i = 0; i < resumed_trace.size(); ++i) {
    ASSERT_TRUE(ref_trace[ref_prefix + i] == resumed_trace[i])
        << what << " trace diverged at " << i;
  }
  expect_same_stats(ref.stats(), resumed.stats(), what);
  EXPECT_EQ(ref.dsp_saturations(), resumed.dsp_saturations()) << what;
  expect_same_tables(ref, resumed, world, what);
  EXPECT_EQ(ref_metrics.json_text(), resumed_metrics.json_text()) << what;
}

TEST(SnapshotFuzz, RandomConfigAndSplitResumeBitExactly) {
  std::mt19937 rng(0xC0FFEE);
  for (int i = 0; i < 12; ++i) {
    check_resume_case(rng, "case " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

TEST(Snapshot, CrossBackendResumeBothDirections) {
  // The fuzz test hits cross-backend pairs probabilistically; this one
  // pins both directions explicitly for every algorithm.
  env::GridWorld world(grid8());
  for (const auto algorithm :
       {qtaccel::Algorithm::kQLearning, qtaccel::Algorithm::kSarsa,
        qtaccel::Algorithm::kExpectedSarsa, qtaccel::Algorithm::kDoubleQ}) {
    for (const bool save_on_cycle : {true, false}) {
      qtaccel::PipelineConfig sc;
      sc.algorithm = algorithm;
      sc.seed = 7;
      sc.max_episode_length = 128;
      sc.backend = save_on_cycle ? qtaccel::Backend::kCycleAccurate
                                 : qtaccel::Backend::kFast;
      qtaccel::PipelineConfig rc = sc;
      rc.backend = save_on_cycle ? qtaccel::Backend::kFast
                                 : qtaccel::Backend::kCycleAccurate;

      Engine ref(world, rc);
      ref.run_samples(4000);
      ref.run_samples(10000);

      Engine saver(world, sc);
      saver.run_samples(4000);
      std::stringstream snap;
      save_snapshot(saver, snap);
      Engine resumed(world, rc);
      load_snapshot(resumed, snap);
      resumed.run_samples(10000);

      const std::string tag =
          std::string(qtaccel::algorithm_name(algorithm)) +
          (save_on_cycle ? " cycle->fast" : " fast->cycle");
      expect_same_stats(ref.stats(), resumed.stats(), tag);
      expect_same_tables(ref, resumed, world, tag);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Snapshot, SniffsV1QtableMagicAsWarmStart) {
  // load_snapshot routes on the magic word: a v1 QTACCEL-QTABLE stream
  // warm-starts the Q table (preset_q + rebuild_qmax) instead of being
  // rejected as a foreign file.
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig c;
  c.seed = 5;
  c.max_episode_length = 128;
  Engine trained(world, c);
  trained.run_samples(30000);
  std::stringstream buf;
  save_q_table(buf, trained);  // writes the v1 format

  Engine fresh(world, c);
  load_snapshot(fresh, buf);
  for (StateId s = 0; s < world.num_states(); ++s) {
    for (ActionId a = 0; a < world.num_actions(); ++a) {
      ASSERT_EQ(fresh.q_raw(s, a), trained.q_raw(s, a));
    }
  }
  // Warm start, not a machine restore: counters stay at zero.
  EXPECT_EQ(fresh.stats().samples, 0u);
}

TEST(BackendRegistry, BuildsTheConfiguredBackend) {
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig c;
  c.backend = qtaccel::Backend::kCycleAccurate;
  const auto cycle = make_backend(world, c);
  EXPECT_EQ(cycle->kind(), qtaccel::Backend::kCycleAccurate);
  EXPECT_TRUE(cycle->has_waveforms());
  EXPECT_TRUE(cycle->has_single_cycle_step());
  EXPECT_NE(cycle->cycle_pipeline(), nullptr);

  c.backend = qtaccel::Backend::kFast;
  const auto fast = make_backend(world, c);
  EXPECT_EQ(fast->kind(), qtaccel::Backend::kFast);
  EXPECT_FALSE(fast->has_waveforms());
  EXPECT_FALSE(fast->has_port_audit());
  EXPECT_EQ(fast->cycle_pipeline(), nullptr);
}

std::unique_ptr<QrlBackend> aborting_factory(const env::Environment&,
                                             const qtaccel::PipelineConfig&) {
  QTA_CHECK_MSG(false, "out-of-tree backend factory invoked");
  return nullptr;
}

TEST(BackendRegistryDeath, RegisteredFactoryReplacesBuiltin) {
  // register_backend must win over the built-in adapter. Run inside the
  // death-test child so the parent process keeps the real fast backend.
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig c;
  c.backend = qtaccel::Backend::kFast;
  EXPECT_DEATH(
      {
        register_backend(qtaccel::Backend::kFast, &aborting_factory);
        Engine e(world, c);
      },
      "out-of-tree backend factory invoked");
}

std::string valid_snapshot_text(const env::Environment& env,
                                const qtaccel::PipelineConfig& c) {
  Engine e(env, c);
  e.run_samples(2000);
  std::stringstream buf;
  save_snapshot(e, buf);
  return buf.str();
}

TEST(SnapshotDeath, RejectsForeignAndCorruptedStreams) {
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig c;
  c.seed = 9;
  c.max_episode_length = 128;
  Engine target(world, c);
  const std::string good = valid_snapshot_text(world, c);

  {
    std::stringstream garbage("hello world");
    EXPECT_DEATH(load_snapshot(target, garbage),
                 "not a QTACCEL-QTABLE or QTACCEL-SNAPSHOT file");
  }
  {
    std::string future = good;
    future.replace(future.find("v2"), 2, "v9");
    std::stringstream in(future);
    EXPECT_DEATH(load_snapshot(target, in), "unsupported SNAPSHOT version");
  }
  {
    // Cut mid-payload: the word reads hit eof.
    std::stringstream in(good.substr(0, good.size() / 2));
    EXPECT_DEATH(load_snapshot(target, in), "truncated");
  }
  {
    // Remove the trailing sentinel only: every section parses, the
    // missing `end` is what catches it.
    std::string headless = good.substr(0, good.rfind("end"));
    std::stringstream in(headless);
    EXPECT_DEATH(load_snapshot(target, in),
                 "truncated or malformed snapshot header");
  }
}

TEST(Snapshot, TryLoadReportsFailuresWithoutAborting) {
  // try_load_snapshot is the non-aborting twin of load_snapshot (the
  // fuzz harness's entry point): same sniffing and diagnostics, but a
  // bad stream returns false and the message load_snapshot would have
  // died with.
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig c;
  c.seed = 9;
  c.max_episode_length = 128;
  Engine target(world, c);
  const std::string good = valid_snapshot_text(world, c);
  std::string error;

  {
    std::stringstream garbage("hello world");
    EXPECT_FALSE(try_load_snapshot(target, garbage, &error));
    EXPECT_NE(
        error.find("not a QTACCEL-QTABLE or QTACCEL-SNAPSHOT file"),
        std::string::npos);
  }
  {
    std::string future = good;
    future.replace(future.find("v2"), 2, "v9");
    std::stringstream in(future);
    EXPECT_FALSE(try_load_snapshot(target, in, &error));
    EXPECT_NE(error.find("unsupported SNAPSHOT version"),
              std::string::npos);
  }
  {
    std::stringstream in(good.substr(0, good.size() / 2));
    EXPECT_FALSE(try_load_snapshot(target, in, &error));
    EXPECT_NE(error.find("truncated"), std::string::npos);
  }
  {
    // The failure message carries the source context, exactly like the
    // aborting path's diagnostic.
    std::stringstream in("junk");
    EXPECT_FALSE(try_load_snapshot(target, in, &error,
                                   SnapshotSource{"ckpt.txt", 2}));
    EXPECT_NE(error.find("(ckpt.txt, pipe 2)"), std::string::npos);
    // A null error pointer is legal (caller only wants the bool).
    std::stringstream again("junk");
    EXPECT_FALSE(try_load_snapshot(target, again, nullptr));
  }
}

TEST(Snapshot, TryLoadSucceedsOnV2AndV1Streams) {
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig c;
  c.seed = 9;
  c.max_episode_length = 128;
  std::string error = "untouched on success";

  // v2 machine restore.
  const std::string good = valid_snapshot_text(world, c);
  Engine restored(world, c);
  std::stringstream in(good);
  EXPECT_TRUE(try_load_snapshot(restored, in, &error));
  EXPECT_EQ(error, "untouched on success");
  // Counters came from the snapshot (the pipeline may retire a few
  // in-flight samples past the requested 2000 before draining).
  EXPECT_GE(restored.stats().samples, 2000u);

  // v1 warm start through the same sniffing path.
  Engine trained(world, c);
  trained.run_samples(2000);
  std::stringstream v1;
  save_q_table(v1, trained);
  Engine warm(world, c);
  EXPECT_TRUE(try_load_snapshot(warm, v1, &error));
  EXPECT_EQ(warm.q_raw(0, 0), trained.q_raw(0, 0));
  EXPECT_EQ(warm.stats().samples, 0u);  // warm start, not a restore
}

TEST(Snapshot, TryLoadV2FailureLeavesEngineUntouched) {
  // The v2 path validates the whole stream before load_state, so a
  // failed try_load leaves the target exactly as it was.
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig c;
  c.seed = 9;
  c.max_episode_length = 128;
  const std::string good = valid_snapshot_text(world, c);

  Engine target(world, c);
  target.run_samples(777);
  const auto samples_before = target.stats().samples;
  const auto q00 = target.q_raw(0, 0);
  std::stringstream in(good.substr(0, good.size() / 2));
  EXPECT_FALSE(try_load_snapshot(target, in, nullptr));
  EXPECT_EQ(target.stats().samples, samples_before);
  EXPECT_EQ(target.q_raw(0, 0), q00);
}

TEST(SnapshotDeath, FileDiagnosticsNameThePath) {
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig c;
  c.seed = 9;
  c.max_episode_length = 128;
  Engine target(world, c);

  EXPECT_DEATH(
      load_snapshot_file(target, "/nonexistent/qta_snap_nope.txt"),
      "cannot open snapshot file for reading.*qta_snap_nope");

  // A corrupted file's parse diagnostic carries the path too.
  const std::string good = valid_snapshot_text(world, c);
  const std::string path =
      testing::TempDir() + "qta_snap_truncated.txt";
  {
    std::ofstream os(path);
    os << good.substr(0, good.size() / 2);
  }
  EXPECT_DEATH(load_snapshot_file(target, path),
               "truncated.*qta_snap_truncated");
}

TEST(Snapshot, SourceDescribeFormats) {
  EXPECT_EQ(SnapshotSource{}.describe(), "");
  EXPECT_EQ((SnapshotSource{"ckpt.txt", -1}).describe(), " (ckpt.txt)");
  EXPECT_EQ((SnapshotSource{"ckpt.txt", 3}).describe(),
            " (ckpt.txt, pipe 3)");
  EXPECT_EQ((SnapshotSource{"", 0}).describe(), " (pipe 0)");
}

TEST(SnapshotDeath, RejectsFingerprintAndGeometryMismatch) {
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig c;
  c.seed = 9;
  c.max_episode_length = 128;
  const std::string good = valid_snapshot_text(world, c);

  {
    qtaccel::PipelineConfig other = c;
    other.alpha = 0.25;
    Engine target(world, other);
    std::stringstream in(good);
    EXPECT_DEATH(load_snapshot(target, in),
                 "snapshot fingerprint does not match");
  }
  {
    env::GridWorldConfig gc = grid8();
    gc.width = 16;
    env::GridWorld bigger(gc);
    Engine target(bigger, c);
    std::stringstream in(good);
    EXPECT_DEATH(load_snapshot(target, in),
                 "snapshot geometry does not match");
  }
  {
    // Same geometry/rates but the wrong algorithm: the fingerprint (not
    // the table-shape check) must reject it.
    qtaccel::PipelineConfig other = c;
    other.algorithm = qtaccel::Algorithm::kSarsa;
    Engine target(world, other);
    std::stringstream in(good);
    EXPECT_DEATH(load_snapshot(target, in),
                 "snapshot fingerprint does not match");
  }
}

TEST(Snapshot, SeedAndBackendAreNotPartOfTheFingerprint) {
  // The live RNG registers travel in the snapshot; the seed only chose
  // their t=0 value. A restore into an engine built with a different
  // seed (or backend) must succeed and still resume bit-exactly.
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig c;
  c.seed = 3;
  c.max_episode_length = 128;
  Engine ref(world, c);
  ref.run_samples(3000);
  std::stringstream snap;
  save_snapshot(ref, snap);
  ref.run_samples(8000);

  qtaccel::PipelineConfig other = c;
  other.seed = 4444;
  other.backend = qtaccel::Backend::kFast;
  Engine resumed(world, other);
  load_snapshot(resumed, snap);
  resumed.run_samples(8000);
  expect_same_stats(ref.stats(), resumed.stats(), "seed/backend");
  expect_same_tables(ref, resumed, world, "seed/backend");
}

std::vector<qtaccel::Backend> all_backends() {
  return {qtaccel::Backend::kCycleAccurate, qtaccel::Backend::kFast,
          qtaccel::Backend::kLanes};
}

TEST(SnapshotV3, FullRoundTripBitExactOnAllBackends) {
  env::GridWorld world(grid8());
  for (const auto backend : all_backends()) {
    qtaccel::PipelineConfig c;
    c.backend = backend;
    c.seed = 11;
    c.max_episode_length = 128;
    const std::string tag =
        std::string("v3 full ") + qtaccel::backend_name(backend);

    Engine ref(world, c);
    ref.run_samples(3000);
    ref.run_samples(8000);

    Engine saver(world, c);
    saver.run_samples(3000);
    std::stringstream snap;
    save_snapshot_v3(saver, snap);
    Engine resumed(world, c);
    load_snapshot(resumed, snap);
    resumed.run_samples(8000);

    expect_same_stats(ref.stats(), resumed.stats(), tag);
    expect_same_tables(ref, resumed, world, tag);
    if (HasFatalFailure()) return;
  }
}

TEST(SnapshotV3, CrossFormatRoundTripIsByteIdentical) {
  // v2 -> v3 -> v2 must reproduce the original v2 text byte for byte:
  // both formats carry exactly the MachineState fields, nothing lossy.
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig c;
  c.algorithm = qtaccel::Algorithm::kDoubleQ;  // exercises q2 too
  c.seed = 11;
  c.max_episode_length = 128;
  Engine e(world, c);
  e.run_samples(5000);

  std::stringstream v2_text, v3_bin;
  save_snapshot(e, v2_text);
  save_snapshot_v3(e, v3_bin);
  // v3's size is a pure function of the geometry — fixed-width words,
  // unlike text whose size tracks the printed magnitude of every value.
  qtaccel::PipelineConfig other = c;
  other.seed = 4242;
  Engine e2(world, other);
  e2.run_samples(12000);
  std::stringstream v3_other;
  save_snapshot_v3(e2, v3_other);
  EXPECT_EQ(v3_bin.str().size(), v3_other.str().size());

  Engine via_v3(world, c);
  load_snapshot(via_v3, v3_bin);
  std::stringstream v2_again;
  save_snapshot(via_v3, v2_again);
  EXPECT_EQ(v2_again.str(), v2_text.str());
}

TEST(SnapshotV3, DeltaChainReplayMatchesFullStateOnAllBackends) {
  // Base + delta must reproduce the saver's state byte-identically AND
  // resume bit-exactly: run(N); base; run(M); delta; replay; run(K) ==
  // run(N); run(M); run(K) uninterrupted.
  env::GridWorld world(grid8());
  for (const auto backend : all_backends()) {
    for (const auto algorithm : {qtaccel::Algorithm::kQLearning,
                                 qtaccel::Algorithm::kDoubleQ}) {
      qtaccel::PipelineConfig c;
      c.backend = backend;
      c.algorithm = algorithm;
      c.seed = 13;
      c.max_episode_length = 128;
      const std::string tag = std::string("delta ") +
                              qtaccel::backend_name(backend) + " " +
                              qtaccel::algorithm_name(algorithm);

      Engine saver(world, c);
      saver.run_samples(2000);
      std::stringstream base;
      save_snapshot_v3(saver, base);
      saver.reset_dirty_rows();  // the delta epoch starts at the base
      saver.run_samples(4000);
      std::stringstream delta;
      write_snapshot_delta(delta, saver.config(), saver.environment(),
                           saver.save_state());

      qtaccel::MachineState ms = read_snapshot(base, c, world);
      apply_snapshot_delta(delta, c, world, ms);
      Engine resumed(world, c);
      resumed.load_state(ms);

      // Replayed state is byte-identical to the saver's...
      std::stringstream from_saver, from_replay;
      save_snapshot(saver, from_saver);
      save_snapshot(resumed, from_replay);
      ASSERT_EQ(from_replay.str(), from_saver.str()) << tag;

      // ...and resumes bit-exactly against an uninterrupted run.
      Engine ref(world, c);
      ref.run_samples(2000);
      ref.run_samples(4000);
      ref.run_samples(9000);
      resumed.run_samples(9000);
      expect_same_stats(ref.stats(), resumed.stats(), tag);
      expect_same_tables(ref, resumed, world, tag);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SnapshotV3, DeltaEpochTracksOnlyTouchedRows) {
  // On a big world a short epoch touches few rows, and the delta byte
  // estimate that motivates the whole format holds: the delta is far
  // smaller than a full image.
  env::GridWorldConfig gc;
  gc.width = 16;
  gc.height = 16;
  gc.num_actions = 4;
  env::GridWorld world(gc);
  qtaccel::PipelineConfig c;
  c.backend = qtaccel::Backend::kFast;
  c.seed = 17;
  c.max_episode_length = 64;

  Engine e(world, c);
  e.run_samples(500);
  std::stringstream base;
  save_snapshot_v3(e, base);
  e.reset_dirty_rows();
  EXPECT_EQ(e.dirty_row_count(), 0u);
  e.run_samples(600);  // a 100-sample epoch touches at most 100 rows
  EXPECT_GT(e.dirty_row_count(), 0u);
  EXPECT_LT(e.dirty_row_count(), world.num_states() / 2);

  std::stringstream delta;
  write_snapshot_delta(delta, e.config(), e.environment(), e.save_state());
  EXPECT_LT(delta.str().size(), base.str().size() / 2);
}

TEST(SnapshotV3, CrossBackendDeltaReplay) {
  // A delta written on one backend applies onto a base written on
  // another: DirtyRows is part of the backend-neutral machine state.
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig cycle_cfg;
  cycle_cfg.backend = qtaccel::Backend::kCycleAccurate;
  cycle_cfg.seed = 19;
  cycle_cfg.max_episode_length = 128;
  qtaccel::PipelineConfig fast_cfg = cycle_cfg;
  fast_cfg.backend = qtaccel::Backend::kFast;

  Engine cycle_engine(world, cycle_cfg);
  cycle_engine.run_samples(2000);
  std::stringstream base;
  save_snapshot_v3(cycle_engine, base);

  // Hand the state to the fast backend mid-epoch through the snapshot.
  Engine fast_engine(world, fast_cfg);
  {
    std::stringstream base_copy(base.str());
    load_snapshot(fast_engine, base_copy);
  }
  fast_engine.reset_dirty_rows();
  fast_engine.run_samples(4000);
  std::stringstream delta;
  write_snapshot_delta(delta, fast_engine.config(),
                       fast_engine.environment(), fast_engine.save_state());

  qtaccel::MachineState ms = read_snapshot(base, cycle_cfg, world);
  apply_snapshot_delta(delta, cycle_cfg, world, ms);
  Engine resumed(world, cycle_cfg);
  resumed.load_state(ms);
  std::stringstream expect_text, got_text;
  save_snapshot(fast_engine, expect_text);
  save_snapshot(resumed, got_text);
  EXPECT_EQ(got_text.str(), expect_text.str());
}

std::string valid_v3_snapshot(const env::Environment& env,
                              const qtaccel::PipelineConfig& c) {
  Engine e(env, c);
  e.run_samples(2000);
  std::stringstream buf;
  save_snapshot_v3(e, buf);
  return buf.str();
}

TEST(SnapshotV3Death, RejectsCorruptAndMisusedStreams) {
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig c;
  c.seed = 9;
  c.max_episode_length = 128;
  Engine target(world, c);
  const std::string good = valid_v3_snapshot(world, c);

  {
    // Truncation mid-payload: the binary reader names the byte offset.
    std::stringstream in(good.substr(0, good.size() / 2));
    EXPECT_DEATH(load_snapshot(target, in),
                 "truncated snapshot payload.* at byte ");
  }
  {
    // Chop the end sentinel: everything parses, the sentinel catches it.
    std::stringstream in(good.substr(0, good.size() - 9));
    EXPECT_DEATH(load_snapshot(target, in), "truncated snapshot payload");
  }
  {
    // Corrupt the sentinel in place.
    std::string bad = good;
    bad[bad.size() - 5] = 'X';
    std::stringstream in(bad);
    EXPECT_DEATH(load_snapshot(target, in),
                 "malformed snapshot end sentinel");
  }
  {
    // A standalone delta is not a full image.
    Engine e(world, c);
    e.run_samples(2000);
    std::stringstream delta;
    write_snapshot_delta(delta, e.config(), e.environment(),
                         e.save_state());
    EXPECT_DEATH(load_snapshot(target, delta),
                 "snapshot delta without a base image");
  }
  {
    // And a full image is not a delta.
    qtaccel::MachineState ms;
    std::stringstream in(good);
    EXPECT_DEATH(apply_snapshot_delta(in, c, world, ms),
                 "expected a delta snapshot");
  }
  {
    // Source context rides along exactly like the v2 diagnostics.
    std::stringstream in(good.substr(0, good.size() / 2));
    EXPECT_DEATH(
        read_snapshot(in, c, world, SnapshotSource{"ckpt.bin", 2}),
        "truncated snapshot payload \\(ckpt\\.bin, pipe 2\\) at byte ");
  }
}

TEST(SnapshotV3, TryApplyDeltaReportsFailuresWithoutAborting) {
  env::GridWorld world(grid8());
  qtaccel::PipelineConfig c;
  c.seed = 9;
  c.max_episode_length = 128;
  const std::string base_text = valid_v3_snapshot(world, c);

  Engine e(world, c);
  {
    std::stringstream base_in(base_text);
    load_snapshot(e, base_in);
  }
  e.reset_dirty_rows();
  e.run_samples(4000);
  std::stringstream delta;
  write_snapshot_delta(delta, e.config(), e.environment(), e.save_state());
  const std::string delta_bytes = delta.str();
  std::string error;

  {
    // The happy path: base + delta applies cleanly.
    std::stringstream base_in(base_text);
    qtaccel::MachineState ms = read_snapshot(base_in, c, world);
    std::stringstream delta_in(delta_bytes);
    EXPECT_TRUE(try_apply_snapshot_delta(delta_in, c, world, ms, &error))
        << error;
  }
  {
    std::stringstream base_in(base_text);
    qtaccel::MachineState ms = read_snapshot(base_in, c, world);
    std::stringstream truncated(
        delta_bytes.substr(0, delta_bytes.size() / 2));
    EXPECT_FALSE(try_apply_snapshot_delta(truncated, c, world, ms, &error));
    EXPECT_NE(error.find("truncated snapshot payload"), std::string::npos);
    EXPECT_NE(error.find(" at byte "), std::string::npos);
  }
  {
    // A v2 text stream is not a delta carrier.
    Engine v2e(world, c);
    v2e.run_samples(1000);
    std::stringstream v2_text;
    save_snapshot(v2e, v2_text);
    std::stringstream base_in(base_text);
    qtaccel::MachineState ms = read_snapshot(base_in, c, world);
    EXPECT_FALSE(try_apply_snapshot_delta(v2_text, c, world, ms, &error));
    EXPECT_NE(error.find("snapshot delta must be a v3 stream"),
              std::string::npos);
  }
}

// --- v3 format freeze ---
//
// tests/data/snapshot_v3_*.bin were written by the original word-at-a-
// time v3 codec from the engines golden_engine() builds: a full image
// after kGoldenBase samples, then a delta over the next kGoldenEpoch.
// The writer must keep reproducing them byte for byte and the reader
// must keep decoding them to the same machine state; the byte offsets
// below follow from the grammar in docs/runtime.md.

constexpr std::uint64_t kGoldenBase = 1500;
constexpr std::uint64_t kGoldenEpoch = 40;

env::GridWorldConfig golden_grid() {
  env::GridWorldConfig c;
  c.width = 4;
  c.height = 8;
  c.num_actions = 4;
  return c;
}

qtaccel::PipelineConfig golden_config(qtaccel::Algorithm algorithm) {
  qtaccel::PipelineConfig c;
  c.algorithm = algorithm;
  c.backend = qtaccel::Backend::kFast;
  c.seed = 5;
  c.max_episode_length = 64;
  return c;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(QTA_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.is_open()) << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string golden_prefix(qtaccel::Algorithm algorithm) {
  return algorithm == qtaccel::Algorithm::kDoubleQ ? "snapshot_v3_double_q"
                                                   : "snapshot_v3_q_learning";
}

std::string as_v2_text(const qtaccel::PipelineConfig& c,
                       const env::Environment& env,
                       const qtaccel::MachineState& ms) {
  std::ostringstream os;
  write_snapshot(os, c, env, ms);
  return os.str();
}

TEST(SnapshotV3Golden, WriterReproducesCommittedImages) {
  env::GridWorld world(golden_grid());
  for (const auto algorithm : {qtaccel::Algorithm::kQLearning,
                               qtaccel::Algorithm::kDoubleQ}) {
    const qtaccel::PipelineConfig c = golden_config(algorithm);
    const std::string prefix = golden_prefix(algorithm);
    Engine e(world, c);
    e.run_samples(kGoldenBase);
    std::ostringstream full;
    save_snapshot_v3(e, full);
    EXPECT_EQ(full.str(), read_golden(prefix + "_full.bin")) << prefix;
    e.reset_dirty_rows();
    e.run_samples(kGoldenBase + kGoldenEpoch);
    std::ostringstream delta;
    write_snapshot_delta(delta, c, world, e.save_state());
    EXPECT_EQ(delta.str(), read_golden(prefix + "_delta.bin")) << prefix;
  }
}

TEST(SnapshotV3Golden, ReaderDecodesCommittedImagesToTheSameState) {
  env::GridWorld world(golden_grid());
  for (const auto algorithm : {qtaccel::Algorithm::kQLearning,
                               qtaccel::Algorithm::kDoubleQ}) {
    const qtaccel::PipelineConfig c = golden_config(algorithm);
    const std::string prefix = golden_prefix(algorithm);
    Engine e(world, c);
    e.run_samples(kGoldenBase);
    std::istringstream full(read_golden(prefix + "_full.bin"));
    qtaccel::MachineState ms = read_snapshot(full, c, world);
    EXPECT_EQ(as_v2_text(c, world, ms), as_v2_text(c, world, e.save_state()))
        << prefix;
    e.run_samples(kGoldenBase + kGoldenEpoch);
    std::istringstream delta(read_golden(prefix + "_delta.bin"));
    apply_snapshot_delta(delta, c, world, ms);
    EXPECT_EQ(as_v2_text(c, world, ms), as_v2_text(c, world, e.save_state()))
        << prefix;
  }
}

// Payload offsets (counted from the byte after the "v3\n" prolog): kind
// 1 + fingerprint 71 + registers 193 = 265. A full image's q table
// words start after its u64 count; a delta's first row record starts
// after has_q2 (1) and the u64 row count.
constexpr std::size_t kV3PrologBytes = 20;  // "QTACCEL-SNAPSHOT v3\n"
constexpr std::size_t kV3FullQWords = 265 + 8;
constexpr std::size_t kV3DeltaRows = 265 + 1 + 8;

std::string load_error(const qtaccel::PipelineConfig& c,
                       const env::Environment& world,
                       const std::string& bytes) {
  Engine target(world, c);
  std::istringstream in(bytes);
  std::string error;
  EXPECT_FALSE(try_load_snapshot(target, in, &error));
  return error;
}

std::string delta_error(const qtaccel::PipelineConfig& c,
                        const env::Environment& world,
                        const std::string& delta) {
  std::istringstream base(read_golden(
      golden_prefix(c.algorithm) + "_full.bin"));
  qtaccel::MachineState ms = read_snapshot(base, c, world);
  std::istringstream in(delta);
  std::string error;
  EXPECT_FALSE(try_apply_snapshot_delta(in, c, world, ms, &error));
  return error;
}

void put_word(std::string& bytes, std::size_t payload_offset,
              std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[kV3PrologBytes + payload_offset + i] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

TEST(SnapshotV3Golden, BadWordReportsItsOwnOffset) {
  env::GridWorld world(golden_grid());
  const auto c = golden_config(qtaccel::Algorithm::kQLearning);
  const std::uint64_t out_of_range = std::uint64_t{1} << 40;
  {
    // Word 64 of the 128-word q table: the offset is just past it.
    std::string bad = read_golden("snapshot_v3_q_learning_full.bin");
    put_word(bad, kV3FullQWords + 8 * 64, out_of_range);
    EXPECT_EQ(load_error(c, world, bad),
              "snapshot value outside the fixed-point range at byte " +
                  std::to_string(kV3FullQWords + 8 * 65));
  }
  {
    // A Qmax action past the action count, mid qmaxa table: after the
    // q, q2 (empty) and qmaxv tables and the qmaxa count.
    const std::size_t qmaxa = kV3FullQWords + 8 * 128 + 8 + 8 + 8 * 32 + 8;
    std::string bad = read_golden("snapshot_v3_q_learning_full.bin");
    put_word(bad, qmaxa + 8 * 17, 4);
    EXPECT_EQ(load_error(c, world, bad),
              "snapshot Qmax action out of range at byte " +
                  std::to_string(qmaxa + 8 * 18));
  }
  for (const auto algorithm : {qtaccel::Algorithm::kQLearning,
                               qtaccel::Algorithm::kDoubleQ}) {
    // Word 2 of the first Q row of the second delta record (state id,
    // q row, q2 row for Double-Q, Qmax value and action).
    const auto dc = golden_config(algorithm);
    const std::size_t record =
        8 * (1 + 4 * (algorithm == qtaccel::Algorithm::kDoubleQ ? 2 : 1) + 2);
    const std::size_t word = kV3DeltaRows + record + 8 + 8 * 2;
    std::string bad = read_golden(golden_prefix(algorithm) + "_delta.bin");
    put_word(bad, word, out_of_range);
    EXPECT_EQ(delta_error(dc, world, bad),
              "snapshot value outside the fixed-point range at byte " +
                  std::to_string(word + 8))
        << golden_prefix(algorithm);
  }
  {
    // A delta row state id that does not ascend fails on that word.
    std::string bad = read_golden("snapshot_v3_q_learning_delta.bin");
    put_word(bad, kV3DeltaRows + 56, 0);
    EXPECT_EQ(delta_error(c, world, bad),
              "snapshot delta rows out of order at byte " +
                  std::to_string(kV3DeltaRows + 56 + 8));
  }
}

TEST(SnapshotV3Golden, TruncationInsideABulkReadNamesTheFirstMissingWord) {
  env::GridWorld world(golden_grid());
  const auto c = golden_config(qtaccel::Algorithm::kQLearning);
  {
    // Three bytes into q word 10: words 0-9 decoded, word 10 is missing.
    const std::string good = read_golden("snapshot_v3_q_learning_full.bin");
    EXPECT_EQ(load_error(c, world,
                         good.substr(0, kV3PrologBytes + kV3FullQWords +
                                            8 * 10 + 3)),
              "truncated snapshot payload at byte " +
                  std::to_string(kV3FullQWords + 8 * 10));
  }
  {
    // A bad word before the cut still wins: reading is in stream order.
    std::string bad = read_golden("snapshot_v3_q_learning_full.bin");
    put_word(bad, kV3FullQWords + 8 * 3, std::uint64_t{1} << 40);
    EXPECT_EQ(load_error(c, world,
                         bad.substr(0, kV3PrologBytes + kV3FullQWords +
                                           8 * 10 + 3)),
              "snapshot value outside the fixed-point range at byte " +
                  std::to_string(kV3FullQWords + 8 * 4));
  }
  {
    // Mid second delta record, five bytes into its Qmax value word.
    const std::string good =
        read_golden("snapshot_v3_q_learning_delta.bin");
    const std::size_t qmaxv = kV3DeltaRows + 56 + 8 + 8 * 4;
    EXPECT_EQ(delta_error(c, world,
                          good.substr(0, kV3PrologBytes + qmaxv + 5)),
              "truncated snapshot payload at byte " + std::to_string(qmaxv));
  }
}

TEST(SnapshotV3Golden, SectionsInAStreamReadWithoutOverreading) {
  // A pool checkpoint stream packs v3 and v2 sections back to back; each
  // read must stop exactly at its own end sentinel and newline.
  env::GridWorld world(golden_grid());
  const auto q = golden_config(qtaccel::Algorithm::kQLearning);
  const auto dq = golden_config(qtaccel::Algorithm::kDoubleQ);
  const std::string q_full = read_golden("snapshot_v3_q_learning_full.bin");
  const std::string dq_full = read_golden("snapshot_v3_double_q_full.bin");
  Engine text_engine(world, q);
  text_engine.run_samples(700);
  std::ostringstream text;
  save_snapshot(text_engine, text);

  std::istringstream pool(q_full + text.str() + dq_full + q_full + "tail\n");
  std::istringstream q_in(q_full), dq_in(dq_full);
  const std::string q_state = as_v2_text(q, world, read_snapshot(q_in, q, world));
  const std::string dq_state =
      as_v2_text(dq, world, read_snapshot(dq_in, dq, world));
  EXPECT_EQ(as_v2_text(q, world, read_snapshot(pool, q, world)), q_state);
  EXPECT_EQ(as_v2_text(q, world, read_snapshot(pool, q, world)), text.str());
  EXPECT_EQ(as_v2_text(dq, world, read_snapshot(pool, dq, world)), dq_state);
  EXPECT_EQ(as_v2_text(q, world, read_snapshot(pool, q, world)), q_state);
  std::string tail;
  pool >> tail;
  EXPECT_EQ(tail, "tail");
}

}  // namespace
}  // namespace qta::runtime
