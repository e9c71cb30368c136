#include "serve/session_manager.h"

#include <chrono>
#include <istream>
#include <streambuf>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/json_writer.h"
#include "runtime/snapshot.h"

namespace qta::serve {

namespace {

/// Reads a cold blob in place; istringstream would copy it first.
class BlobStream : private std::streambuf, public std::istream {
 public:
  explicit BlobStream(const std::string& blob) : std::istream(this) {
    // The get area is only read: istream never writes through it.
    char* p = const_cast<char*>(blob.data());
    setg(p, p, p + blob.size());
  }
};

}  // namespace

SessionManager::SessionManager(unsigned max_hot,
                               telemetry::MetricsRegistry* metrics,
                               telemetry::FlightRecorder* flight,
                               const SessionManagerOptions& options)
    : max_hot_(max_hot),
      metrics_(metrics),
      flight_(flight),
      options_(options) {
  QTA_CHECK_MSG(max_hot_ >= 1, "SessionManager needs at least one hot slot");
  if (metrics_ != nullptr) {
    lru_eviction_counter_ = &metrics_->counter(
        "qtserve_evictions_total", {{"reason", "lru"}},
        "sessions forced cold, by what drove the eviction: capacity "
        "pressure from a fresh acquire (lru), capacity pressure from a "
        "restoring acquire (restore), or an explicit Evict (request)");
    request_eviction_counter_ = &metrics_->counter(
        "qtserve_evictions_total", {{"reason", "request"}});
    restore_eviction_counter_ = &metrics_->counter(
        "qtserve_evictions_total", {{"reason", "restore"}});
    migrate_eviction_counter_ = &metrics_->counter(
        "qtserve_evictions_total", {{"reason", "migrate"}});
    restore_counter_ = &metrics_->counter(
        "qtserve_restores_total", {},
        "sessions rebuilt from their cold snapshot");
    migrate_out_counter_ = &metrics_->counter(
        "qtserve_migrations_total", {{"direction", "out"}},
        "sessions shipped between shards, by direction: exported off "
        "this worker (out) vs adopted onto it (in)");
    migrate_in_counter_ = &metrics_->counter(
        "qtserve_migrations_total", {{"direction", "in"}});
    // Deltas are always v3 binary, so three {format, kind} series per
    // direction cover the space; registered eagerly so the series exist
    // (at zero) before any churn.
    park_bytes_v2_full_ = &metrics_->counter(
        "qtserve_park_bytes_total", {{"format", "v2"}, {"kind", "full"}},
        "bytes serialized parking sessions cold, by snapshot format and "
        "checkpoint kind (full image vs dirty-row delta)");
    park_bytes_v3_full_ = &metrics_->counter(
        "qtserve_park_bytes_total", {{"format", "v3"}, {"kind", "full"}});
    park_bytes_v3_delta_ = &metrics_->counter(
        "qtserve_park_bytes_total", {{"format", "v3"}, {"kind", "delta"}});
    restore_bytes_v2_full_ = &metrics_->counter(
        "qtserve_restore_bytes_total",
        {{"format", "v2"}, {"kind", "full"}},
        "bytes decoded restoring sessions from their cold checkpoint "
        "chains, by snapshot format and checkpoint kind");
    restore_bytes_v3_full_ = &metrics_->counter(
        "qtserve_restore_bytes_total",
        {{"format", "v3"}, {"kind", "full"}});
    restore_bytes_v3_delta_ = &metrics_->counter(
        "qtserve_restore_bytes_total",
        {{"format", "v3"}, {"kind", "delta"}});
    checkpoint_phase_ = &metrics_->histogram(
        "qtserve_phase_us", {{"phase", "checkpoint"}},
        "engine-request phase durations (us): queue_wait, restore, "
        "execute, reply, plus checkpoint (park serialization)");
  }
}

SessionManager::~SessionManager() = default;

SessionId SessionManager::create(const SessionSpec& spec) {
  const SessionId id = next_id_++;
  Session& s = sessions_[id];
  s.spec = spec;
  s.config = make_config(spec);
  env::GridWorldConfig gc;
  gc.width = spec.width;
  gc.height = spec.height;
  gc.num_actions = spec.actions;
  s.env = std::make_unique<env::GridWorld>(gc);
  if (spec.telemetry && metrics_ != nullptr) {
    s.sink = std::make_unique<telemetry::PipelineTelemetry>(
        qtaccel::make_run_labels(s.config, static_cast<unsigned>(id)),
        metrics_, /*trace=*/nullptr, /*pid=*/static_cast<std::uint32_t>(id));
  }
  return id;
}

runtime::Engine* SessionManager::acquire(SessionId id, bool* restored) {
  if (restored != nullptr) *restored = false;
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  Session& s = it->second;
  if (s.park_pending) {
    // Re-acquired before the staged park serialized: the engine never
    // died, so cancel the park and treat this as a hot hit. Rejoining
    // the LRU may itself force a capacity eviction (the slot was
    // reusable while the park was staged).
    cancel_pending_park(id);
    while (lru_.size() >= max_hot_) {
      const SessionId victim = lru_.front();
      make_cold(victim, sessions_.at(victim), EvictReason::kLru);
    }
    lru_.push_back(id);
    s.lru_pos = std::prev(lru_.end());
  } else if (s.engine == nullptr) {
    make_hot(id, s, restored);
  } else {
    lru_.splice(lru_.end(), lru_, s.lru_pos);  // touch: move to MRU end
  }
  return s.engine.get();
}

bool SessionManager::evict(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  Session& s = it->second;
  if (s.engine != nullptr && !s.park_pending) {
    make_cold(id, s, EvictReason::kRequest);
  }
  return true;  // already cold or already on its way cold: no-op
}

bool SessionManager::close(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  Session& s = it->second;
  if (s.park_pending) {
    cancel_pending_park(id);  // staged parks left the LRU at enqueue
  } else if (s.engine != nullptr) {
    lru_.erase(s.lru_pos);
  }
  sessions_.erase(it);
  return true;
}

bool SessionManager::is_hot(SessionId id) const {
  auto it = sessions_.find(id);
  return it != sessions_.end() && it->second.engine != nullptr &&
         !it->second.park_pending;
}

const SessionSpec* SessionManager::spec(SessionId id) const {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second.spec;
}

std::string SessionManager::snapshot_text(SessionId id) {
  // Defensive: the server commits parks within the same pump, but a
  // direct caller could ask between enqueue and commit.
  if (!pending_parks_.empty()) flush_parks();
  auto it = sessions_.find(id);
  QTA_CHECK_MSG(it != sessions_.end(),
                "snapshot_text: unknown session id");
  const Session& s = it->second;
  if (s.engine != nullptr) {
    std::ostringstream os;
    runtime::save_snapshot(*s.engine, os);
    return std::move(os).str();
  }
  if (s.cold.empty()) return "";
  if (!s.cold.base_is_v3 && s.cold.deltas.empty()) {
    return s.cold.base;  // already v2 text: hand it back verbatim
  }
  return chain_as_v2_text(s);
}

bool SessionManager::should_park_delta(const Session& s) const {
  if (options_.park_format != ParkFormat::kV3Binary) return false;
  if (options_.max_delta_chain == 0) return false;
  if (s.cold.empty()) return false;  // nothing to delta against
  if (s.cold.deltas.size() >= options_.max_delta_chain) {
    return false;  // compaction: rebase the chain on a full image
  }
  const runtime::Engine& e = *s.engine;
  if (!e.caps().dirty_rows) return false;
  // Byte estimates from the v3 grammar (docs/runtime.md): a delta row
  // is its state id + the padded Q row(s) + the Qmax entry; a full
  // image is every table word. Headers/registers are common to both,
  // so comparing bodies is enough.
  const std::uint64_t states = e.environment().num_states();
  const std::uint64_t depth = e.address_map().depth();
  const std::uint64_t stride = std::uint64_t{1}
                               << e.address_map().action_bits;
  const std::uint64_t tables =
      s.config.algorithm == qtaccel::Algorithm::kDoubleQ ? 2 : 1;
  const std::uint64_t delta_bytes =
      e.dirty_row_count() * (8 + 8 * stride * tables + 16);
  const std::uint64_t full_bytes = 8 * depth * tables + 16 * states;
  return delta_bytes < full_bytes;
}

void SessionManager::make_cold(SessionId id, Session& s,
                               EvictReason reason) {
  PendingPark park;
  park.id = id;
  park.engine = s.engine.get();
  park.delta = should_park_delta(s);
  park.format = park.delta ? ParkFormat::kV3Binary : options_.park_format;
  park.reason = static_cast<int>(reason);
  // Leave the LRU now either way: a staged session must not be picked
  // as a victim again while its park is in flight.
  lru_.erase(s.lru_pos);
  if (options_.async_park) {
    s.park_pending = true;
    pending_parks_.push_back(std::move(park));
    return;
  }
  serialize_park(park);
  commit_park(park);
}

void SessionManager::serialize_park(PendingPark& park) {
  const auto t0 = std::chrono::steady_clock::now();
  const runtime::Engine& e = *park.engine;
  if (park.delta) {
    park.blob = runtime::encode_snapshot_delta(e.config(), e.environment(),
                                               e.save_state());
  } else if (park.format == ParkFormat::kV3Binary) {
    park.blob = runtime::encode_snapshot_v3(e.config(), e.environment(),
                                            e.save_state());
  } else {
    std::ostringstream os;
    runtime::save_snapshot(e, os);
    park.blob = std::move(os).str();
  }
  park.serialize_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

void SessionManager::commit_park(PendingPark& park) {
  Session& s = sessions_.at(park.id);
  const std::uint64_t blob_bytes = park.blob.size();
  telemetry::Counter* bytes_counter = nullptr;
  if (park.delta) {
    s.cold.deltas.push_back(std::move(park.blob));
    bytes_counter = park_bytes_v3_delta_;
  } else {
    s.cold.clear();
    s.cold.base = std::move(park.blob);
    s.cold.base_is_v3 = park.format == ParkFormat::kV3Binary;
    bytes_counter = s.cold.base_is_v3 ? park_bytes_v3_full_
                                      : park_bytes_v2_full_;
  }
  // Deliberately no sink flush: a flush would close the in-progress
  // stall burst and trace spans, making an evicted session's telemetry
  // diverge from an uninterrupted run. The sink survives and the
  // restored engine keeps feeding it. The dirty epoch needs no reset
  // here — the engine dies with the old epoch, and restore_chain opens
  // a fresh one at the chain tip.
  s.engine.reset();
  s.park_pending = false;
  if (bytes_counter != nullptr) bytes_counter->inc(blob_bytes);
  if (checkpoint_phase_ != nullptr) {
    checkpoint_phase_->observe(park.serialize_us);
  }
  const char* label = "request";
  switch (static_cast<EvictReason>(park.reason)) {
    case EvictReason::kRequest:
      if (request_eviction_counter_ != nullptr) {
        request_eviction_counter_->inc();
      }
      break;
    case EvictReason::kLru:
      ++lru_evictions_;
      label = "lru";
      if (lru_eviction_counter_ != nullptr) lru_eviction_counter_->inc();
      break;
    case EvictReason::kRestore:
      ++lru_evictions_;  // still a capacity eviction for the plain total
      label = "restore";
      if (restore_eviction_counter_ != nullptr) {
        restore_eviction_counter_->inc();
      }
      break;
    case EvictReason::kMigrate:
      // Not capacity pressure: the session is leaving this worker, so
      // it stays out of lru_evictions().
      label = "migrate";
      if (migrate_eviction_counter_ != nullptr) {
        migrate_eviction_counter_->inc();
      }
      break;
  }
  if (flight_ != nullptr) {
    telemetry::ServeEvent event;
    event.kind = telemetry::ServeEventKind::kEviction;
    event.session = park.id;
    event.label = label;
    event.value = blob_bytes;
    flight_->record(event);
  }
}

void SessionManager::commit_parks() {
  for (PendingPark& park : pending_parks_) commit_park(park);
  pending_parks_.clear();
}

void SessionManager::flush_parks() {
  for (PendingPark& park : pending_parks_) serialize_park(park);
  commit_parks();
}

void SessionManager::cancel_pending_park(SessionId id) {
  for (auto it = pending_parks_.begin(); it != pending_parks_.end(); ++it) {
    if (it->id == id) {
      pending_parks_.erase(it);
      break;
    }
  }
  sessions_.at(id).park_pending = false;
}

void SessionManager::restore_chain(Session& s) {
  if (!s.cold.base_is_v3 && s.cold.deltas.empty()) {
    // Pure-v2 cold: the exact historical restore path.
    BlobStream is(s.cold.base);
    runtime::load_snapshot(*s.engine, is);
    if (restore_bytes_v2_full_ != nullptr) {
      restore_bytes_v2_full_->inc(s.cold.base.size());
    }
  } else {
    BlobStream is(s.cold.base);
    qtaccel::MachineState ms =
        runtime::read_snapshot(is, s.config, *s.env);
    telemetry::Counter* base_counter = s.cold.base_is_v3
                                           ? restore_bytes_v3_full_
                                           : restore_bytes_v2_full_;
    if (base_counter != nullptr) base_counter->inc(s.cold.base.size());
    for (const std::string& delta : s.cold.deltas) {
      BlobStream ds(delta);
      runtime::apply_snapshot_delta(ds, s.config, *s.env, ms);
      if (restore_bytes_v3_delta_ != nullptr) {
        restore_bytes_v3_delta_->inc(delta.size());
      }
    }
    s.engine->load_state(ms);
  }
  // Open a fresh dirty epoch at the restore point: the next delta must
  // cover exactly the rows touched since this chain tip.
  s.engine->reset_dirty_rows();
}

std::string SessionManager::chain_as_v2_text(const Session& s) const {
  BlobStream is(s.cold.base);
  qtaccel::MachineState ms = runtime::read_snapshot(is, s.config, *s.env);
  for (const std::string& delta : s.cold.deltas) {
    BlobStream ds(delta);
    runtime::apply_snapshot_delta(ds, s.config, *s.env, ms);
  }
  std::ostringstream os;
  runtime::write_snapshot(os, s.config, *s.env, ms);
  return std::move(os).str();
}

void SessionManager::make_hot(SessionId id, Session& s, bool* restored) {
  // Attribute the capacity evictions this acquire forces to what the
  // acquire is doing: restoring a cold session (churn) vs warming a
  // fresh one. One eviction, one reason.
  const bool restoring = !s.cold.empty();
  while (lru_.size() >= max_hot_) {
    const SessionId victim = lru_.front();
    make_cold(victim, sessions_.at(victim),
              restoring ? EvictReason::kRestore : EvictReason::kLru);
  }
  s.engine = std::make_unique<runtime::Engine>(*s.env, s.config);
  if (s.sink != nullptr) s.engine->set_telemetry(s.sink.get());
  if (restoring) {
    restore_chain(s);
    ++restores_;
    if (restore_counter_ != nullptr) restore_counter_->inc();
    if (restored != nullptr) *restored = true;
    if (flight_ != nullptr) {
      telemetry::ServeEvent event;
      event.kind = telemetry::ServeEventKind::kRestore;
      event.session = id;
      event.value = static_cast<std::uint64_t>(s.cold.bytes());
      flight_->record(event);
    }
  }
  lru_.push_back(id);
  s.lru_pos = std::prev(lru_.end());
}

bool SessionManager::export_session(SessionId id, MigrationImage* image) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  Session& s = it->second;
  if (s.park_pending) {
    // A staged park holds the freshest state; finish it inline so the
    // image is complete (same outcome as if the batch had committed).
    for (auto pit = pending_parks_.begin(); pit != pending_parks_.end();
         ++pit) {
      if (pit->id == id) {
        serialize_park(*pit);
        commit_park(*pit);
        pending_parks_.erase(pit);
        break;
      }
    }
  } else if (s.engine != nullptr) {
    // Park inline under kMigrate even when async_park is on: the image
    // must carry the engine's current state when this returns.
    PendingPark park;
    park.id = id;
    park.engine = s.engine.get();
    park.delta = should_park_delta(s);
    park.format = park.delta ? ParkFormat::kV3Binary : options_.park_format;
    park.reason = static_cast<int>(EvictReason::kMigrate);
    lru_.erase(s.lru_pos);
    serialize_park(park);
    commit_park(park);
  }
  image->spec = s.spec;
  if (options_.migrate_format == ParkFormat::kV2Text && !s.cold.empty() &&
      (s.cold.base_is_v3 || !s.cold.deltas.empty())) {
    // Escape hatch: collapse the chain into interchange text (builds a
    // MachineState but still no engine).
    image->base = chain_as_v2_text(s);
    image->base_is_v3 = false;
    image->deltas.clear();
  } else {
    // The default: the chain moves verbatim, deltas and all.
    image->base = std::move(s.cold.base);
    image->deltas = std::move(s.cold.deltas);
    image->base_is_v3 = s.cold.base_is_v3;
  }
  const std::uint64_t image_bytes = [&] {
    std::uint64_t n = image->base.size();
    for (const std::string& d : image->deltas) n += d.size();
    return n;
  }();
  sessions_.erase(it);
  ++exports_;
  if (migrate_out_counter_ != nullptr) migrate_out_counter_->inc();
  if (flight_ != nullptr) {
    telemetry::ServeEvent event;
    event.kind = telemetry::ServeEventKind::kMigration;
    event.session = id;
    event.label = "out";
    event.value = image_bytes;
    flight_->record(event);
  }
  return true;
}

std::string SessionManager::adopt_session(SessionId id,
                                          const MigrationImage& image) {
  if (id == 0) return "migrate_in: session id must be nonzero";
  if (sessions_.count(id) != 0) {
    return "migrate_in: session id already exists on this worker";
  }
  const std::string spec_error = validate_spec(image.spec);
  if (!spec_error.empty()) return spec_error;
  // Cheap prolog sniff so obviously foreign bytes bounce as an error
  // reply instead of aborting at restore time; full structural
  // validation stays with the snapshot layer, same trust level as a
  // checkpoint file on disk.
  const auto looks_like_snapshot = [](const std::string& blob) {
    return blob.rfind(runtime::kSnapshotMagic, 0) == 0;
  };
  if (!image.base.empty() && !looks_like_snapshot(image.base)) {
    return "migrate_in: base is not QTACCEL-SNAPSHOT material";
  }
  if (image.base.empty() && !image.deltas.empty()) {
    return "migrate_in: deltas without a base image";
  }
  for (const std::string& delta : image.deltas) {
    if (!looks_like_snapshot(delta)) {
      return "migrate_in: delta is not QTACCEL-SNAPSHOT material";
    }
  }
  Session& s = sessions_[id];
  s.spec = image.spec;
  s.config = make_config(image.spec);
  env::GridWorldConfig gc;
  gc.width = image.spec.width;
  gc.height = image.spec.height;
  gc.num_actions = image.spec.actions;
  s.env = std::make_unique<env::GridWorld>(gc);
  if (image.spec.telemetry && metrics_ != nullptr) {
    s.sink = std::make_unique<telemetry::PipelineTelemetry>(
        qtaccel::make_run_labels(s.config, static_cast<unsigned>(id)),
        metrics_, /*trace=*/nullptr, /*pid=*/static_cast<std::uint32_t>(id));
  }
  s.cold.base = image.base;
  s.cold.deltas = image.deltas;
  s.cold.base_is_v3 = image.base_is_v3;
  if (id >= next_id_) next_id_ = id + 1;
  ++adopts_;
  if (migrate_in_counter_ != nullptr) migrate_in_counter_->inc();
  if (flight_ != nullptr) {
    telemetry::ServeEvent event;
    event.kind = telemetry::ServeEventKind::kMigration;
    event.session = id;
    event.label = "in";
    event.value = static_cast<std::uint64_t>(s.cold.bytes());
    flight_->record(event);
  }
  return "";
}

std::string SessionManager::summary_json(SessionId id) const {
  auto it = sessions_.find(id);
  QTA_CHECK_MSG(it != sessions_.end(), "summary_json: unknown session id");
  const Session& s = it->second;
  qta::JsonWriter json;
  json.begin_object();
  json.field("session", id);
  json.field("hot", s.engine != nullptr && !s.park_pending);
  json.field("has_snapshot", s.engine != nullptr || !s.cold.empty());
  json.field("cold_bytes", static_cast<std::uint64_t>(s.cold.bytes()));
  json.field("cold_deltas", static_cast<std::uint64_t>(s.cold.deltas.size()));
  json.field("telemetry", s.sink != nullptr);
  json.key("spec").begin_object();
  json.field("width", static_cast<std::uint64_t>(s.spec.width));
  json.field("height", static_cast<std::uint64_t>(s.spec.height));
  json.field("actions", static_cast<std::uint64_t>(s.spec.actions));
  json.field("algorithm", qtaccel::algorithm_name(s.spec.algorithm));
  json.field("backend", qtaccel::backend_name(s.spec.backend));
  json.field("alpha", s.spec.alpha);
  json.field("gamma", s.spec.gamma);
  json.field("epsilon", s.spec.epsilon);
  json.field("seed", s.spec.seed);
  json.field("max_episode_length", s.spec.max_episode_length);
  json.end_object();
  if (s.engine != nullptr) {
    const qtaccel::PipelineStats& stats = s.engine->stats();
    json.key("stats").begin_object();
    json.field("samples", stats.samples);
    json.field("episodes", stats.episodes);
    json.field("cycles", stats.cycles);
    json.end_object();
  }
  json.end_object();
  return json.str();
}

}  // namespace qta::serve
