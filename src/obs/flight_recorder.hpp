#pragma once

/// \file flight_recorder.hpp
/// Hot-path-safe flight recorder: a fixed ring of the most recent network
/// records, kept so a violation found by tools/explore ships with its
/// last-N-events context (the dump lands next to the shrunken repro file).
///
/// Design constraints, enforced by the lint hot-path rules this file is
/// scoped under (docs/STATIC_ANALYSIS.md):
///   - zero heap allocation after construction: the ring is sized once in
///     the constructor and records are plain values overwritten in place;
///   - no locks and no clocks: the caller (SimTransport) passes simulated
///     time in and serializes the calls;
///   - no net/ dependency: message fields arrive as raw integers, the
///     rendered dump names message types through a local table that must
///     stay in sync with net::MsgType (net_test asserts it does).
///
/// Recording is O(1): bump a cursor, overwrite a slot.  The dump walks the
/// ring oldest-first.  See docs/OBSERVABILITY.md for the text format.

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace pqra::obs {

class Registry;

/// What happened to one message.  Values are stable (they appear in dumps).
enum class FlightEventKind : std::uint8_t {
  kSend = 0,     ///< transport accepted a send
  kDeliver = 1,  ///< receiver's on_message ran
  kDrop = 2,     ///< fault injection or a crashed endpoint ate it
};
inline constexpr std::size_t kNumFlightEventKinds = 3;

const char* flight_event_kind_name(FlightEventKind kind);

/// One ring slot: a fixed-size value type, no owned storage.
struct FlightRecord {
  double time = 0.0;  ///< simulated time (threaded: seconds since start)
  FlightEventKind event = FlightEventKind::kSend;
  std::uint8_t msg_type = 0;  ///< net::MsgType as an integer
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t reg = 0;
  std::uint64_t op = 0;
  std::uint64_t ts = 0;
  std::uint64_t trace = 0;  ///< causal ids (obs/span.hpp); 0 = untraced
  std::uint64_t span = 0;
};

class FlightRecorder {
 public:
  /// Allocates the ring once; no allocation happens after this returns.
  explicit FlightRecorder(std::size_t capacity);

  /// O(1), allocation-free: overwrites the oldest slot when full.
  void record(const FlightRecord& rec);

  std::size_t capacity() const { return ring_.size(); }
  /// Records currently held (<= capacity).
  std::size_t size() const;
  /// Total records ever pushed (size + overwritten).
  std::uint64_t recorded() const { return recorded_; }

  /// Copies the held records oldest-first (allocates; not for hot paths).
  std::vector<FlightRecord> snapshot() const;

  /// Text dump, oldest-first, one record per line:
  ///   [   12.5] deliver WriteReq 3->7 reg=2 op=17 ts=5 trace=4 span=6
  /// preceded by a header naming capacity / held / overwritten counts.
  void dump(std::ostream& out) const;

  /// Folds names::kFlightRec* counters into \p registry.
  void publish(Registry& registry) const;

 private:
  std::vector<FlightRecord> ring_;
  std::size_t next_ = 0;       ///< slot the next record lands in
  std::size_t held_ = 0;       ///< min(recorded_, capacity)
  std::uint64_t recorded_ = 0;
};

}  // namespace pqra::obs
