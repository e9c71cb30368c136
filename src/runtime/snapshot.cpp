#include "runtime/snapshot.h"

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "common/check.h"

namespace qta::runtime {

std::string SnapshotSource::describe() const {
  if (name.empty() && pipe < 0) return "";
  std::string out = " (";
  if (!name.empty()) out += name;
  if (pipe >= 0) {
    if (!name.empty()) out += ", ";
    out += "pipe " + std::to_string(pipe);
  }
  out += ")";
  return out;
}

namespace {

constexpr const char* kQtableMagic = "QTACCEL-QTABLE";
constexpr const char* kQtableVersion = "v1";

/// Parse failure carrying the full diagnostic. Internal only: the
/// aborting entry points catch it and re-raise through QTA_CHECK_MSG
/// (preserving the historical abort-with-message behavior and its
/// death-test regexes); try_load_snapshot catches it and reports the
/// message through its out-parameter instead, which is what makes the
/// parser fuzzable.
struct SnapshotError {
  std::string message;
};

/// Fails the parse with the snapshot's source context appended — the
/// leading message text is unchanged so existing death-test regexes
/// keep matching; the suffix names the file and pipe.
void require(bool ok, const char* msg, const SnapshotSource& src) {
  if (ok) return;
  throw SnapshotError{msg + src.describe()};
}

[[noreturn]] void abort_with(const SnapshotError& e) {
  QTA_CHECK_MSG(false, e.message.c_str());
  std::abort();  // unreachable: QTA_CHECK_MSG(false, ...) terminates
}

void expect_key(std::istream& is, const char* key,
                const SnapshotSource& src) {
  std::string tok;
  is >> tok;
  require(static_cast<bool>(is) && tok == key,
          "truncated or malformed snapshot header", src);
}

template <typename T>
T read_value(std::istream& is, const SnapshotSource& src) {
  T v{};
  is >> v;
  require(static_cast<bool>(is), "truncated snapshot payload", src);
  return v;
}

void write_words(std::ostream& os, const char* key, std::size_t count,
                 const auto& values) {
  os << key << ' ' << count;
  for (std::size_t i = 0; i < count; ++i) {
    // Wrap every 16 words: keeps lines reviewable without affecting the
    // whitespace-agnostic reader.
    os << (i % 16 == 0 ? '\n' : ' ') << values[i];
  }
  os << '\n';
}

// --- v1 warm-start path (the old table_io loader, retargeted) ---

void load_qtable_v1_body(std::istream& is, Engine& engine,
                         const SnapshotSource& src) {
  std::string version, key;
  is >> version;
  require(static_cast<bool>(is) && version == kQtableVersion,
          "unsupported QTABLE version", src);

  StateId states = 0;
  ActionId actions = 0;
  unsigned width = 0, frac = 0;
  is >> key >> states;
  require(static_cast<bool>(is) && key == "states",
          "malformed header: states", src);
  is >> key >> actions;
  require(static_cast<bool>(is) && key == "actions",
          "malformed header: actions", src);
  is >> key >> width;
  require(static_cast<bool>(is) && key == "width",
          "malformed header: width", src);
  is >> key >> frac;
  require(static_cast<bool>(is) && key == "frac",
          "malformed header: frac", src);

  const env::Environment& env = engine.environment();
  const fixed::Format fmt = engine.config().q_fmt;
  require(states == env.num_states() && actions == env.num_actions(),
          "table geometry does not match the pipeline's environment", src);
  require(width == fmt.width && frac == fmt.frac,
          "fixed-point format does not match the pipeline's config", src);

  for (StateId s = 0; s < states; ++s) {
    for (ActionId a = 0; a < actions; ++a) {
      fixed::raw_t v = 0;
      is >> v;
      require(static_cast<bool>(is), "truncated QTABLE payload", src);
      require(v >= fmt.min_raw() && v <= fmt.max_raw(),
              "QTABLE value outside the fixed-point range", src);
      engine.preset_q(s, a, v);
    }
  }
  engine.rebuild_qmax();
}

qtaccel::MachineState read_snapshot_body(std::istream& is,
                                         const qtaccel::PipelineConfig& config,
                                         const env::Environment& env,
                                         const SnapshotSource& src) {
  // --- fingerprint ---
  expect_key(is, "algorithm", src);
  const auto algorithm = read_value<unsigned>(is, src);
  expect_key(is, "hazard", src);
  const auto hazard = read_value<unsigned>(is, src);
  expect_key(is, "qmax", src);
  const auto qmax = read_value<unsigned>(is, src);
  expect_key(is, "alpha", src);
  const auto alpha_bits = read_value<std::uint64_t>(is, src);
  expect_key(is, "gamma", src);
  const auto gamma_bits = read_value<std::uint64_t>(is, src);
  expect_key(is, "epsilon", src);
  const auto epsilon_bits_pattern = read_value<std::uint64_t>(is, src);
  expect_key(is, "epsilon_bits", src);
  const auto epsilon_bits = read_value<unsigned>(is, src);
  expect_key(is, "qfmt", src);
  const auto q_width = read_value<unsigned>(is, src);
  const auto q_frac = read_value<unsigned>(is, src);
  expect_key(is, "cfmt", src);
  const auto c_width = read_value<unsigned>(is, src);
  const auto c_frac = read_value<unsigned>(is, src);
  expect_key(is, "max_episode_length", src);
  const auto max_episode_length = read_value<std::uint64_t>(is, src);
  expect_key(is, "states", src);
  const auto states = read_value<StateId>(is, src);
  expect_key(is, "actions", src);
  const auto actions = read_value<ActionId>(is, src);

  require(states == env.num_states() && actions == env.num_actions(),
          "snapshot geometry does not match the engine's environment", src);
  require(
      algorithm == static_cast<unsigned>(config.algorithm) &&
          hazard == static_cast<unsigned>(config.hazard) &&
          qmax == static_cast<unsigned>(config.qmax) &&
          alpha_bits == std::bit_cast<std::uint64_t>(config.alpha) &&
          gamma_bits == std::bit_cast<std::uint64_t>(config.gamma) &&
          epsilon_bits_pattern == std::bit_cast<std::uint64_t>(
                                      config.epsilon) &&
          epsilon_bits == config.epsilon_bits &&
          q_width == config.q_fmt.width && q_frac == config.q_fmt.frac &&
          c_width == config.coeff_fmt.width &&
          c_frac == config.coeff_fmt.frac &&
          max_episode_length == config.max_episode_length,
      "snapshot fingerprint does not match the engine's config", src);

  qtaccel::MachineState ms;

  // --- registers ---
  expect_key(is, "rng", src);
  for (auto& w : ms.rng) w = read_value<std::uint64_t>(is, src);
  expect_key(is, "walk", src);
  ms.episode_start = read_value<unsigned>(is, src) != 0;
  ms.state = read_value<StateId>(is, src);
  ms.pending_action = read_value<ActionId>(is, src);
  ms.episode_steps = read_value<std::uint64_t>(is, src);
  require(ms.state < states, "snapshot walk state out of range", src);
  expect_key(is, "wb", src);
  for (auto& w : ms.wb_addrs) w = read_value<std::uint64_t>(is, src);
  expect_key(is, "stats", src);
  ms.stats.iterations = read_value<std::uint64_t>(is, src);
  ms.stats.samples = read_value<std::uint64_t>(is, src);
  ms.stats.episodes = read_value<std::uint64_t>(is, src);
  ms.stats.bubbles = read_value<std::uint64_t>(is, src);
  ms.stats.cycles = read_value<std::uint64_t>(is, src);
  ms.stats.issued = read_value<std::uint64_t>(is, src);
  ms.stats.stall_cycles = read_value<std::uint64_t>(is, src);
  ms.stats.fwd_q_sa = read_value<std::uint64_t>(is, src);
  ms.stats.fwd_q_next = read_value<std::uint64_t>(is, src);
  ms.stats.fwd_qmax = read_value<std::uint64_t>(is, src);
  ms.stats.adder_saturations = read_value<std::uint64_t>(is, src);
  expect_key(is, "dsp", src);
  for (auto& w : ms.dsp_saturations) w = read_value<std::uint64_t>(is, src);

  // --- tables ---
  const qtaccel::AddressMap map = qtaccel::make_address_map(env);
  const std::uint64_t depth = map.depth();
  const fixed::Format qf = config.q_fmt;
  const auto read_table = [&](const char* key, std::uint64_t expected,
                              bool may_be_empty,
                              std::vector<fixed::raw_t>& out) {
    expect_key(is, key, src);
    const auto count = read_value<std::uint64_t>(is, src);
    require(count == expected || (may_be_empty && count == 0),
            "snapshot table size does not match the engine's "
            "geometry",
            src);
    out.resize(count);
    for (auto& v : out) {
      v = read_value<fixed::raw_t>(is, src);
      require(v >= qf.min_raw() && v <= qf.max_raw(),
              "snapshot value outside the fixed-point range", src);
    }
  };
  read_table("q", depth, /*may_be_empty=*/false, ms.q);
  read_table("q2", depth, /*may_be_empty=*/true, ms.q2);
  require(ms.q2.empty() ==
              (config.algorithm != qtaccel::Algorithm::kDoubleQ),
          "snapshot and config disagree on the second Q table", src);
  read_table("qmaxv", states, /*may_be_empty=*/false, ms.qmax_value);
  expect_key(is, "qmaxa", src);
  const auto qmaxa_count = read_value<std::uint64_t>(is, src);
  require(qmaxa_count == states,
          "snapshot table size does not match the engine's geometry", src);
  ms.qmax_action.resize(qmaxa_count);
  for (auto& a : ms.qmax_action) {
    a = read_value<ActionId>(is, src);
    require(a < actions, "snapshot Qmax action out of range", src);
  }

  // The sentinel catches files truncated between sections, which token
  // reads alone would not (eof after a complete section parses cleanly).
  expect_key(is, "end", src);
  return ms;
}

// --- v3 binary payload (after the "QTACCEL-SNAPSHOT v3\n" prolog) ---
//
// Everything below the prolog is little-endian binary. Layout (see
// docs/runtime.md for the normative grammar):
//
//   u8  kind              0 = full image, 1 = dirty-row delta
//   fingerprint: u8 algorithm, u8 hazard, u8 qmax, u64 alpha_bits,
//     u64 gamma_bits, u64 epsilon_bits_pattern, u32 epsilon_bits,
//     u32 q_width, u32 q_frac, u32 c_width, u32 c_frac,
//     u64 max_episode_length, u64 states, u64 actions
//   registers: u64 rng[4], u8 episode_start, u64 state,
//     u64 pending_action, u64 episode_steps, u64 wb_addrs[3],
//     u64 stats[11], u64 dsp[3]
//   full tables: (u64 count, i64 words...) for q, q2, qmaxv, then
//     u64 count + u64 actions... for qmaxa — same counts and range
//     checks as v2
//   delta tables: u8 has_q2, u64 row_count, then per row (strictly
//     ascending state): u64 state, i64 q_row[stride],
//     i64 q2_row[stride] (if has_q2), i64 qmax_value, u64 qmax_action
//     — stride = 1 << action_bits, i.e. the padded row exactly as the
//     full table stores it
//   8-byte end sentinel "QSNAPEND", then '\n'
//
// The payload is length-aware (every array is counted), so v3 sections
// embed in pool/fleet checkpoint streams exactly like v2 text sections.

constexpr char kV3EndSentinel[8] = {'Q', 'S', 'N', 'A', 'P', 'E', 'N', 'D'};
constexpr std::uint8_t kV3KindFull = 0;
constexpr std::uint8_t kV3KindDelta = 1;

// The v3 size model (docs/runtime.md): 20 prolog bytes, then kind (1),
// fingerprint (71) and registers (193); a full image adds four u64 table
// counts, a delta adds has_q2 (1) and a u64 row count; both end with the
// sentinel and '\n' (9). Words and delta row records come on top.
constexpr std::size_t kV3FullFixedBytes = 20 + 1 + 71 + 193 + 4 * 8 + 9;
constexpr std::size_t kV3DeltaFixedBytes = 20 + 1 + 71 + 193 + 1 + 8 + 9;
static_assert(kV3FullFixedBytes == 326 && kV3DeltaFixedBytes == 303);

/// A host word in little-endian byte order, and back (the swap is its
/// own inverse); the identity on little-endian hosts.
template <typename T>
T le(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out = static_cast<T>((out << 8) | ((v >> (8 * i)) & 0xff));
    }
    return out;
  }
  return v;
}

/// Little-endian writer into one string reserved to the image's exact
/// size: fixed-width fields are single appends, tables and delta rows
/// are one append each, and the finished string has no slack capacity.
class BinWriter {
 public:
  BinWriter(std::size_t bytes, std::uint8_t kind) : bytes_(bytes) {
    buf_.reserve(bytes);
    buf_ += kSnapshotMagic;
    buf_ += ' ';
    buf_ += kSnapshotVersionV3;
    buf_ += '\n';
    u8(kind);
  }
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// `n` values, each widened to one u64 word.
  template <typename T>
  void words(const T* v, std::size_t n) {
    if constexpr (sizeof(T) == 8 &&
                  std::endian::native == std::endian::little) {
      buf_.append(reinterpret_cast<const char*>(v), 8 * n);
    } else {
      const std::size_t at = buf_.size();
      buf_.resize(at + 8 * n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto word = le(static_cast<std::uint64_t>(v[i]));
        std::memcpy(buf_.data() + at + 8 * i, &word, 8);
      }
    }
  }
  /// A counted table: u64 count, then the words.
  template <typename T>
  void table(const std::vector<T>& v) {
    u64(v.size());
    words(v.data(), v.size());
  }
  std::string finish() {
    buf_.append(kV3EndSentinel, sizeof(kV3EndSentinel));
    buf_ += '\n';
    QTA_CHECK(buf_.size() == bytes_);  // the size model is exact
    return std::move(buf_);
  }

 private:
  template <typename T>
  void put(T v) {
    v = le(v);
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }

  std::size_t bytes_;
  std::string buf_;
};

/// Byte-counting little-endian reader. Failures keep the v2-style
/// leading message text and source suffix, then append the offset into
/// the binary payload ("... (ckpt.bin, pipe 2) at byte 137"), so a
/// corrupt v3 image names both the offending stream and where in it the
/// parse died.
class BinReader {
 public:
  BinReader(std::istream& is, const SnapshotSource& src)
      : is_(is), src_(src) {}

  [[noreturn]] void fail(const char* msg) const {
    throw SnapshotError{msg + src_.describe() + " at byte " +
                        std::to_string(offset_)};
  }
  void check(bool ok, const char* msg) const {
    if (!ok) fail(msg);
  }

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  /// Reads `n` u64 words into `out` in one bulk read, then validates
  /// them in stream order: `bad(i, word)` returns the failure message
  /// for word i, or nullptr. Offsets match a word-at-a-time reader: a
  /// bad word fails just past itself, and a short read fails at the
  /// first missing word once the whole words before it have passed.
  template <typename Bad>
  void words(std::uint64_t* out, std::size_t n, Bad bad) {
    const std::size_t got = read(reinterpret_cast<char*>(out), 8 * n);
    const std::size_t whole = got / 8;
    for (std::size_t i = 0; i < whole; ++i) {
      out[i] = le(out[i]);
      if (const char* msg = bad(i, out[i])) {
        offset_ += 8 * (i + 1);
        fail(msg);
      }
    }
    offset_ += 8 * whole;
    if (whole < n) fail("truncated snapshot payload");
  }

  void expect_end_sentinel() {
    char b[sizeof(kV3EndSentinel)];
    if (read(b, sizeof(b)) != sizeof(b)) fail("truncated snapshot payload");
    offset_ += sizeof(b);
    for (std::size_t i = 0; i < sizeof(kV3EndSentinel); ++i) {
      check(b[i] == kV3EndSentinel[i], "malformed snapshot end sentinel");
    }
    // The writer appends one '\n' after the sentinel so v3 sections stay
    // line-delimited inside pool streams; consume it when present.
    if (is_.peek() == '\n') is_.get();
  }

 private:
  /// Up to `n` bytes straight from the stream buffer; a short read
  /// leaves the stream failed, as istream::read would.
  std::size_t read(char* out, std::size_t n) {
    const auto got = static_cast<std::size_t>(
        is_.rdbuf()->sgetn(out, static_cast<std::streamsize>(n)));
    if (got < n) is_.setstate(std::ios::eofbit | std::ios::failbit);
    return got;
  }

  template <typename T>
  T get() {
    T v;
    if (read(reinterpret_cast<char*>(&v), sizeof(v)) != sizeof(v)) {
      fail("truncated snapshot payload");
    }
    offset_ += sizeof(v);
    return le(v);
  }

  std::istream& is_;
  const SnapshotSource& src_;
  std::uint64_t offset_ = 0;
};

void write_v3_fingerprint(BinWriter& w, const qtaccel::PipelineConfig& config,
                          const env::Environment& env) {
  w.u8(static_cast<std::uint8_t>(config.algorithm));
  w.u8(static_cast<std::uint8_t>(config.hazard));
  w.u8(static_cast<std::uint8_t>(config.qmax));
  w.u64(std::bit_cast<std::uint64_t>(config.alpha));
  w.u64(std::bit_cast<std::uint64_t>(config.gamma));
  w.u64(std::bit_cast<std::uint64_t>(config.epsilon));
  w.u32(config.epsilon_bits);
  w.u32(config.q_fmt.width);
  w.u32(config.q_fmt.frac);
  w.u32(config.coeff_fmt.width);
  w.u32(config.coeff_fmt.frac);
  w.u64(config.max_episode_length);
  w.u64(env.num_states());
  w.u64(env.num_actions());
}

/// Reads and validates the v3 fingerprint with the same diagnostics the
/// v2 reader uses; returns {states, actions}.
std::pair<std::uint64_t, std::uint64_t> read_v3_fingerprint(
    BinReader& r, const qtaccel::PipelineConfig& config,
    const env::Environment& env) {
  const std::uint8_t algorithm = r.u8();
  const std::uint8_t hazard = r.u8();
  const std::uint8_t qmax = r.u8();
  const std::uint64_t alpha_bits = r.u64();
  const std::uint64_t gamma_bits = r.u64();
  const std::uint64_t epsilon_bits_pattern = r.u64();
  const std::uint32_t epsilon_bits = r.u32();
  const std::uint32_t q_width = r.u32();
  const std::uint32_t q_frac = r.u32();
  const std::uint32_t c_width = r.u32();
  const std::uint32_t c_frac = r.u32();
  const std::uint64_t max_episode_length = r.u64();
  const std::uint64_t states = r.u64();
  const std::uint64_t actions = r.u64();

  r.check(states == env.num_states() && actions == env.num_actions(),
          "snapshot geometry does not match the engine's environment");
  r.check(algorithm == static_cast<unsigned>(config.algorithm) &&
              hazard == static_cast<unsigned>(config.hazard) &&
              qmax == static_cast<unsigned>(config.qmax) &&
              alpha_bits == std::bit_cast<std::uint64_t>(config.alpha) &&
              gamma_bits == std::bit_cast<std::uint64_t>(config.gamma) &&
              epsilon_bits_pattern ==
                  std::bit_cast<std::uint64_t>(config.epsilon) &&
              epsilon_bits == config.epsilon_bits &&
              q_width == config.q_fmt.width &&
              q_frac == config.q_fmt.frac &&
              c_width == config.coeff_fmt.width &&
              c_frac == config.coeff_fmt.frac &&
              max_episode_length == config.max_episode_length,
          "snapshot fingerprint does not match the engine's config");
  return {states, actions};
}

void write_v3_registers(BinWriter& w, const qtaccel::MachineState& ms) {
  for (const auto v : ms.rng) w.u64(v);
  w.u8(ms.episode_start ? 1 : 0);
  w.u64(ms.state);
  w.u64(ms.pending_action);
  w.u64(ms.episode_steps);
  for (const auto v : ms.wb_addrs) w.u64(v);
  w.u64(ms.stats.iterations);
  w.u64(ms.stats.samples);
  w.u64(ms.stats.episodes);
  w.u64(ms.stats.bubbles);
  w.u64(ms.stats.cycles);
  w.u64(ms.stats.issued);
  w.u64(ms.stats.stall_cycles);
  w.u64(ms.stats.fwd_q_sa);
  w.u64(ms.stats.fwd_q_next);
  w.u64(ms.stats.fwd_qmax);
  w.u64(ms.stats.adder_saturations);
  for (const auto v : ms.dsp_saturations) w.u64(v);
}

void read_v3_registers(BinReader& r, qtaccel::MachineState& ms,
                       std::uint64_t states) {
  for (auto& v : ms.rng) v = r.u64();
  ms.episode_start = r.u8() != 0;
  ms.state = static_cast<StateId>(r.u64());
  ms.pending_action = static_cast<ActionId>(r.u64());
  ms.episode_steps = r.u64();
  r.check(ms.state < states, "snapshot walk state out of range");
  for (auto& v : ms.wb_addrs) v = r.u64();
  ms.stats.iterations = r.u64();
  ms.stats.samples = r.u64();
  ms.stats.episodes = r.u64();
  ms.stats.bubbles = r.u64();
  ms.stats.cycles = r.u64();
  ms.stats.issued = r.u64();
  ms.stats.stall_cycles = r.u64();
  ms.stats.fwd_q_sa = r.u64();
  ms.stats.fwd_q_next = r.u64();
  ms.stats.fwd_qmax = r.u64();
  ms.stats.adder_saturations = r.u64();
  for (auto& v : ms.dsp_saturations) v = r.u64();
}

/// BinReader::words validator for Q-table words in format `qf`.
auto value_check(fixed::Format qf) {
  return [lo = qf.min_raw(), hi = qf.max_raw()](
             std::size_t, std::uint64_t w) -> const char* {
    const auto v = static_cast<fixed::raw_t>(w);
    return v >= lo && v <= hi
               ? nullptr
               : "snapshot value outside the fixed-point range";
  };
}

/// v3 full-image table block: the kind byte and fingerprint/registers
/// have already been consumed.
qtaccel::MachineState read_v3_full_body(BinReader& r,
                                        const qtaccel::PipelineConfig& config,
                                        const env::Environment& env) {
  const auto [states, actions] = read_v3_fingerprint(r, config, env);
  qtaccel::MachineState ms;
  read_v3_registers(r, ms, states);

  const qtaccel::AddressMap map = qtaccel::make_address_map(env);
  const std::uint64_t depth = map.depth();
  const auto out_of_range = value_check(config.q_fmt);
  const auto read_count = [&](std::uint64_t expected, bool may_be_empty) {
    const std::uint64_t count = r.u64();
    r.check(count == expected || (may_be_empty && count == 0),
            "snapshot table size does not match the engine's geometry");
    return count;
  };
  const auto read_table = [&](std::uint64_t expected, bool may_be_empty,
                              std::vector<fixed::raw_t>& out) {
    out.resize(read_count(expected, may_be_empty));
    static_assert(sizeof(fixed::raw_t) == sizeof(std::uint64_t));
    r.words(reinterpret_cast<std::uint64_t*>(out.data()), out.size(),
            out_of_range);
  };
  read_table(depth, /*may_be_empty=*/false, ms.q);
  read_table(depth, /*may_be_empty=*/true, ms.q2);
  r.check(ms.q2.empty() ==
              (config.algorithm != qtaccel::Algorithm::kDoubleQ),
          "snapshot and config disagree on the second Q table");
  read_table(states, /*may_be_empty=*/false, ms.qmax_value);
  std::vector<std::uint64_t> qmaxa(read_count(states, false));
  r.words(qmaxa.data(), qmaxa.size(),
          [&](std::size_t, std::uint64_t a) -> const char* {
            return a < actions ? nullptr
                               : "snapshot Qmax action out of range";
          });
  ms.qmax_action.assign(qmaxa.begin(), qmaxa.end());
  r.expect_end_sentinel();
  return ms;
}

/// Reads the text prolog shared by v2 and v3 and returns the version
/// token; for v3 also consumes the single '\n' that separates the
/// prolog from the binary payload.
std::string read_snapshot_prolog(std::istream& is,
                                 const SnapshotSource& src) {
  std::string magic, version;
  is >> magic;
  require(static_cast<bool>(is) && magic == kSnapshotMagic,
          "not a QTACCEL-SNAPSHOT file", src);
  is >> version;
  require(static_cast<bool>(is) &&
              (version == kSnapshotVersion || version == kSnapshotVersionV3),
          "unsupported SNAPSHOT version", src);
  if (version == kSnapshotVersionV3) {
    require(is.get() == '\n', "truncated or malformed snapshot header", src);
  }
  return version;
}

/// v3 body dispatch after the prolog: full images parse to a state;
/// standalone deltas are rejected — they only apply onto a base image
/// (apply_snapshot_delta).
qtaccel::MachineState read_v3_stream(std::istream& is,
                                     const qtaccel::PipelineConfig& config,
                                     const env::Environment& env,
                                     const SnapshotSource& src) {
  BinReader r(is, src);
  const std::uint8_t kind = r.u8();
  r.check(kind == kV3KindFull || kind == kV3KindDelta,
          "malformed snapshot kind");
  r.check(kind == kV3KindFull, "snapshot delta without a base image");
  return read_v3_full_body(r, config, env);
}

void apply_snapshot_delta_impl(std::istream& is,
                               const qtaccel::PipelineConfig& config,
                               const env::Environment& env,
                               qtaccel::MachineState& base,
                               const SnapshotSource& src) {
  const std::string version = read_snapshot_prolog(is, src);
  require(version == kSnapshotVersionV3,
          "snapshot delta must be a v3 stream", src);
  BinReader r(is, src);
  const std::uint8_t kind = r.u8();
  r.check(kind == kV3KindDelta, "expected a delta snapshot");
  const auto [states, actions] = read_v3_fingerprint(r, config, env);

  const qtaccel::AddressMap map = qtaccel::make_address_map(env);
  const std::uint64_t depth = map.depth();
  const std::uint64_t stride = std::uint64_t{1} << map.action_bits;
  const bool double_q = config.algorithm == qtaccel::Algorithm::kDoubleQ;
  r.check(base.q.size() == depth &&
              base.q2.size() == (double_q ? depth : 0) &&
              base.qmax_value.size() == states &&
              base.qmax_action.size() == states,
          "snapshot delta applied to a mismatched base image");

  // Registers/stats travel whole in every delta: last delta wins.
  read_v3_registers(r, base, states);

  const std::uint8_t has_q2 = r.u8();
  r.check((has_q2 != 0) == double_q,
          "snapshot and config disagree on the second Q table");
  const std::uint64_t row_count = r.u64();
  r.check(row_count <= states,
          "snapshot table size does not match the engine's geometry");
  // One record per row, read whole: state id, Q row, Q2 row (Double-Q),
  // Qmax value, Qmax action.
  const std::size_t q_words = stride * (has_q2 != 0 ? 2 : 1);
  std::vector<std::uint64_t> rec(1 + q_words + 2);
  const auto out_of_range = value_check(config.q_fmt);
  std::uint64_t prev_plus_one = 0;  // rows are strictly ascending
  for (std::uint64_t i = 0; i < row_count; ++i) {
    r.words(rec.data(), rec.size(),
            [&](std::size_t j, std::uint64_t w) -> const char* {
              if (j == 0) {
                return w < states && w >= prev_plus_one
                           ? nullptr
                           : "snapshot delta rows out of order";
              }
              if (j == rec.size() - 1) {
                return w < actions ? nullptr
                                   : "snapshot Qmax action out of range";
              }
              return out_of_range(j, w);
            });
    const std::uint64_t s = rec[0];
    prev_plus_one = s + 1;
    const std::uint64_t* w = rec.data() + 1;
    std::memcpy(base.q.data() + s * stride, w, 8 * stride);
    if (has_q2 != 0) {
      std::memcpy(base.q2.data() + s * stride, w + stride, 8 * stride);
    }
    base.qmax_value[s] = static_cast<fixed::raw_t>(w[q_words]);
    base.qmax_action[s] = static_cast<ActionId>(w[q_words + 1]);
  }
  r.expect_end_sentinel();
  // The reconstructed state is of unknown epoch provenance; hand it to
  // load_state with the conservative default.
  base.dirty = qtaccel::DirtyRows{};
}

}  // namespace

void write_snapshot(std::ostream& os, const qtaccel::PipelineConfig& config,
                    const env::Environment& env,
                    const qtaccel::MachineState& ms) {
  os << kSnapshotMagic << ' ' << kSnapshotVersion << '\n';
  os << "algorithm " << static_cast<unsigned>(config.algorithm)
     << " hazard " << static_cast<unsigned>(config.hazard) << " qmax "
     << static_cast<unsigned>(config.qmax) << '\n';
  // Rates as IEEE-754 bit patterns: decimal round-trips of doubles lose
  // bits; the patterns never do.
  os << "alpha " << std::bit_cast<std::uint64_t>(config.alpha) << " gamma "
     << std::bit_cast<std::uint64_t>(config.gamma) << " epsilon "
     << std::bit_cast<std::uint64_t>(config.epsilon) << " epsilon_bits "
     << config.epsilon_bits << '\n';
  os << "qfmt " << config.q_fmt.width << ' ' << config.q_fmt.frac
     << " cfmt " << config.coeff_fmt.width << ' ' << config.coeff_fmt.frac
     << '\n';
  os << "max_episode_length " << config.max_episode_length << '\n';
  os << "states " << env.num_states() << " actions " << env.num_actions()
     << '\n';

  os << "rng";
  for (const auto w : ms.rng) os << ' ' << w;
  os << '\n';
  os << "walk " << (ms.episode_start ? 1 : 0) << ' ' << ms.state << ' '
     << ms.pending_action << ' ' << ms.episode_steps << '\n';
  os << "wb";
  for (const auto w : ms.wb_addrs) os << ' ' << w;
  os << '\n';
  os << "stats " << ms.stats.iterations << ' ' << ms.stats.samples << ' '
     << ms.stats.episodes << ' ' << ms.stats.bubbles << ' '
     << ms.stats.cycles << ' ' << ms.stats.issued << ' '
     << ms.stats.stall_cycles << ' ' << ms.stats.fwd_q_sa << ' '
     << ms.stats.fwd_q_next << ' ' << ms.stats.fwd_qmax << ' '
     << ms.stats.adder_saturations << '\n';
  os << "dsp";
  for (const auto w : ms.dsp_saturations) os << ' ' << w;
  os << '\n';

  write_words(os, "q", ms.q.size(), ms.q);
  write_words(os, "q2", ms.q2.size(), ms.q2);
  write_words(os, "qmaxv", ms.qmax_value.size(), ms.qmax_value);
  write_words(os, "qmaxa", ms.qmax_action.size(), ms.qmax_action);
  os << "end\n";
}

std::string encode_snapshot_v3(const qtaccel::PipelineConfig& config,
                               const env::Environment& env,
                               const qtaccel::MachineState& ms) {
  BinWriter w(kV3FullFixedBytes +
                  8 * (ms.q.size() + ms.q2.size() + ms.qmax_value.size() +
                       ms.qmax_action.size()),
              kV3KindFull);
  write_v3_fingerprint(w, config, env);
  write_v3_registers(w, ms);
  w.table(ms.q);
  w.table(ms.q2);
  w.table(ms.qmax_value);
  w.table(ms.qmax_action);
  return w.finish();
}

std::string encode_snapshot_delta(const qtaccel::PipelineConfig& config,
                                  const env::Environment& env,
                                  const qtaccel::MachineState& ms) {
  const qtaccel::AddressMap map = qtaccel::make_address_map(env);
  const std::uint64_t stride = std::uint64_t{1} << map.action_bits;
  const std::uint64_t states = env.num_states();
  const bool has_q2 = !ms.q2.empty();
  // A conservative epoch (all set, or a bitmap that does not match this
  // geometry) emits every row — correct, just not compact.
  const bool emit_all = ms.dirty.all || ms.dirty.rows.size() != states;
  const std::uint64_t row_count = ms.dirty.count(states);
  BinWriter w(kV3DeltaFixedBytes +
                  row_count * 8 * (1 + stride * (has_q2 ? 2 : 1) + 2),
              kV3KindDelta);
  write_v3_fingerprint(w, config, env);
  write_v3_registers(w, ms);
  w.u8(has_q2 ? 1 : 0);
  w.u64(row_count);
  for (std::uint64_t s = 0; s < states; ++s) {
    if (!emit_all && ms.dirty.rows[s] == 0) continue;
    w.u64(s);
    const std::uint64_t row = s * stride;
    w.words(ms.q.data() + row, stride);
    if (has_q2) w.words(ms.q2.data() + row, stride);
    w.i64(ms.qmax_value[s]);
    w.u64(ms.qmax_action[s]);
  }
  return w.finish();
}

void write_snapshot_v3(std::ostream& os,
                       const qtaccel::PipelineConfig& config,
                       const env::Environment& env,
                       const qtaccel::MachineState& ms) {
  const std::string bytes = encode_snapshot_v3(config, env, ms);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void write_snapshot_delta(std::ostream& os,
                          const qtaccel::PipelineConfig& config,
                          const env::Environment& env,
                          const qtaccel::MachineState& ms) {
  const std::string bytes = encode_snapshot_delta(config, env, ms);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

qtaccel::MachineState read_snapshot(std::istream& is,
                                    const qtaccel::PipelineConfig& config,
                                    const env::Environment& env,
                                    const SnapshotSource& source) {
  try {
    const std::string version = read_snapshot_prolog(is, source);
    if (version == kSnapshotVersion) {
      return read_snapshot_body(is, config, env, source);
    }
    return read_v3_stream(is, config, env, source);
  } catch (const SnapshotError& e) {
    abort_with(e);
  }
}

void apply_snapshot_delta(std::istream& is,
                          const qtaccel::PipelineConfig& config,
                          const env::Environment& env,
                          qtaccel::MachineState& base,
                          const SnapshotSource& source) {
  try {
    apply_snapshot_delta_impl(is, config, env, base, source);
  } catch (const SnapshotError& e) {
    abort_with(e);
  }
}

bool try_apply_snapshot_delta(std::istream& is,
                              const qtaccel::PipelineConfig& config,
                              const env::Environment& env,
                              qtaccel::MachineState& base,
                              std::string* error,
                              const SnapshotSource& source) {
  try {
    apply_snapshot_delta_impl(is, config, env, base, source);
    return true;
  } catch (const SnapshotError& e) {
    if (error != nullptr) *error = e.message;
    return false;
  }
}

void save_snapshot(const Engine& engine, std::ostream& os) {
  write_snapshot(os, engine.config(), engine.environment(),
                 engine.save_state());
}

void save_snapshot_v3(const Engine& engine, std::ostream& os) {
  write_snapshot_v3(os, engine.config(), engine.environment(),
                    engine.save_state());
}

namespace {

/// Shared by load_snapshot (aborting) and try_load_snapshot
/// (non-aborting); throws SnapshotError on any parse/validation failure.
void load_snapshot_impl(Engine& engine, std::istream& is,
                        const SnapshotSource& source) {
  std::string magic;
  is >> magic;
  require(static_cast<bool>(is) &&
              (magic == kSnapshotMagic || magic == kQtableMagic),
          "not a QTACCEL-QTABLE or QTACCEL-SNAPSHOT file", source);
  if (magic == kQtableMagic) {
    load_qtable_v1_body(is, engine, source);
    return;
  }
  std::string version;
  is >> version;
  require(static_cast<bool>(is) &&
              (version == kSnapshotVersion || version == kSnapshotVersionV3),
          "unsupported SNAPSHOT version", source);
  if (version == kSnapshotVersion) {
    engine.load_state(read_snapshot_body(is, engine.config(),
                                         engine.environment(), source));
    return;
  }
  require(is.get() == '\n', "truncated or malformed snapshot header",
          source);
  engine.load_state(read_v3_stream(is, engine.config(),
                                   engine.environment(), source));
}

}  // namespace

void load_snapshot(Engine& engine, std::istream& is,
                   const SnapshotSource& source) {
  try {
    load_snapshot_impl(engine, is, source);
  } catch (const SnapshotError& e) {
    abort_with(e);
  }
}

bool try_load_snapshot(Engine& engine, std::istream& is, std::string* error,
                       const SnapshotSource& source) {
  try {
    load_snapshot_impl(engine, is, source);
    return true;
  } catch (const SnapshotError& e) {
    if (error != nullptr) *error = e.message;
    return false;
  }
}

void save_snapshot_file(const Engine& engine, const std::string& path) {
  std::ofstream os(path);
  try {
    require(os.is_open(), "cannot open snapshot file for writing",
            SnapshotSource{path});
    save_snapshot(engine, os);
    os.flush();
    require(os.good(), "failed writing snapshot file", SnapshotSource{path});
  } catch (const SnapshotError& e) {
    abort_with(e);
  }
}

void load_snapshot_file(Engine& engine, const std::string& path) {
  std::ifstream is(path);
  try {
    require(is.is_open(), "cannot open snapshot file for reading",
            SnapshotSource{path});
  } catch (const SnapshotError& e) {
    abort_with(e);
  }
  load_snapshot(engine, is, SnapshotSource{path});
}

}  // namespace qta::runtime
