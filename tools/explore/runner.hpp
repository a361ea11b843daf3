#pragma once

/// \file runner.hpp
/// Executes one ScheduleProfile and judges the result.
///
/// run_profile is a pure function of the profile: it builds a private
/// Simulator, transport, servers and clients, installs the profile's fault
/// plan, drives the workload, and pipes the recorded history through the
/// core/spec batch checkers plus the runtime invariant probes
/// (core/spec/probes.hpp).  Two calls with the same profile produce the
/// same RunOutcome, fingerprint included — the property `--replay` asserts.
///
/// Two scenarios share the profile vocabulary (ScheduleProfile::alg1):
///
///   - direct register workload: each client is the single writer of its
///     own register and reads everyone's, under retries, faults and the
///     optional protocol extensions; checked against [R1]/[R2]/
///     single-writer (+[R4] when check_monotone) and the store/COW probes;
///   - Alg. 1: APSP on the paper's 5-chain run to convergence over the same
///     cluster shape; checked against [R2]/single-writer (+[R4]),
///     convergence of the monotone iteration, and the fixed-point/ACO-box
///     probe ("probe:alg1-fixed-point").

#include <cstdint>
#include <string>

#include "explore/profile.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/delay_model.hpp"

namespace pqra::explore {

/// What one execution produced.  `rule` is a stable id — a batch-checker
/// rule ("R1", "R2", "R4", "single-writer"), a probe id ("probe:store-ts",
/// "probe:value-cow", "probe:alg1-fixed-point") or "alg1-convergence" — and
/// is what the shrinker preserves while reducing a violating profile.
struct RunOutcome {
  bool violation = false;
  std::string rule;
  std::string detail;
  /// Schedule identity (Simulator::fingerprint / events_processed): equal
  /// pairs mean the exact same event schedule executed.
  std::uint64_t fingerprint = 0;
  std::uint64_t events_processed = 0;
  /// Operations the spec checkers saw.
  std::size_t ops_checked = 0;
  sim::Time sim_time = 0.0;
};

/// \p recorder (optional) is bound to the run's transport: every
/// send/deliver/drop lands in the ring, so a shrunken repro can ship with
/// the message-level tail of its failing execution (`--flightrec`).  The
/// recorder only observes — outcomes and fingerprints are unchanged.
RunOutcome run_profile(const ScheduleProfile& profile,
                       obs::FlightRecorder* recorder = nullptr);

}  // namespace pqra::explore
