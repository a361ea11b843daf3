#pragma once

/// \file profile.hpp
/// Schedule profiles: the fuzzer's unit of search.
///
/// A ScheduleProfile is a complete, value-typed description of one
/// simulated execution — cluster shape, client workload, protocol options,
/// delay model, fault schedule, horizon — such that running it is a pure
/// function of the profile (tools/explore/runner.hpp).  Profiles are
///
///   - generated from a bare seed (from_seed: every dimension drawn from
///     decorrelated util::Rng streams, including 1..6 FaultPlan::mutate
///     edits),
///   - serialized to a line-based text form and parsed back bit-identically
///     (the `--replay` file format, docs/EXPLORATION.md),
///   - compared by cost() during shrinking (smaller = simpler repro).

#include <cstdint>
#include <string>

#include "net/fault_plan.hpp"
#include "sim/delay_model.hpp"
#include "util/rng.hpp"

namespace pqra::explore {

struct ScheduleProfile {
  /// Seed of every RNG stream the run forks (clients, transport, gossip).
  std::uint64_t seed = 1;

  std::size_t num_servers = 5;
  std::size_t quorum_size = 2;
  std::size_t num_clients = 2;
  /// Operations per client in the direct register workload (ignored by the
  /// Alg. 1 scenario, which runs to convergence).
  std::size_t ops_per_client = 20;

  /// Protocol options under test (ClientOptions / Alg1Options).
  bool monotone = true;
  /// Run the [R4] monotone-reads checker.  from_seed keeps this equal to
  /// `monotone` (the rule only holds for monotone clients); regression
  /// hunts and tests/integration/explore_shrink_test set it independently
  /// to demonstrate that a non-monotone schedule is caught and shrunk.
  bool check_monotone = true;
  bool read_repair = false;
  bool write_back = false;
  bool snapshot_reads = false;

  /// Scenario switch: false = direct register workload (each client writes
  /// its own register, reads everyone's); true = Alg. 1 APSP on a 5-chain
  /// run to convergence under the same schedule dimensions.
  bool alg1 = false;

  /// Keyspace shape (docs/SHARDING.md).  The defaults reproduce the
  /// pre-sharding workload draw-for-draw: one key per client, uniform
  /// reads, single writer, full replication.  alg1 profiles keep the
  /// defaults (the iterative scenario owns its register layout).
  ///
  /// Keys per client: client i of c owns keys {i, i+c, i+2c, ...}, so the
  /// run's keyspace has keys_per_client * num_clients keys.
  std::size_t keys_per_client = 1;
  /// Zipfian theta in [0, 1) for read key choice; 0 = uniform (and, being
  /// the legacy value, preserves the legacy draw).  util::Zipfian.
  double key_skew = 0.0;
  /// Writers per key: client i writes the keys owned by clients
  /// i .. i+w-1 (mod c).  w > 1 means contended keys, so the runner drops
  /// the single-writer checker for such profiles.
  std::size_t writers_per_key = 1;
  /// Replica-group size under consistent hashing; 0 = every server
  /// replicates every key (the legacy full-replication layout).  When > 0
  /// the quorum system is sized to the group (quorum_size <= replicas) and
  /// snapshot reads are unavailable (whole-store reads don't shard).
  std::size_t replicas = 0;
  /// Virtual nodes per server on the ring (only read when replicas > 0).
  std::size_t ring_vnodes = 8;
  /// Test-only seeded bug (Replica::set_test_cross_key_probe_bug): replicas
  /// leak key k^1's entry into reads of key k.  Never drawn by from_seed;
  /// the shrink drill (tests/integration/explore_multikey_test.cpp) plants
  /// it to prove the key-partitioned [R2] checker catches cross-key
  /// contamination and shrinks it to a minimal keyspace.
  bool bug_cross_key = false;

  /// Durability (docs/DURABILITY.md): every server runs a MemDisk-backed
  /// DurableStore, crashes drop volatile storage, recoveries replay the
  /// durable prefix and the crash-replay-compare oracle cross-checks every
  /// recovery.  Never drawn by from_seed (existing seeds keep their
  /// byte-identical schedules); enabled by `--force-durable` and explicit
  /// profiles.  alg1 profiles stay non-durable (the iterative scenario owns
  /// its replica layout).
  bool durable = false;
  /// WAL appends between automatic checkpoints; 0 = never checkpoint.
  /// Only read when durable.
  std::size_t snapshot_every = 64;
  /// Test-only seeded bug (DurableStore::set_test_skip_crc_bug): recovery
  /// replays the WAL without CRC checking, so torn garbage surfaces as
  /// durable state.  Never drawn by from_seed; the durability drill
  /// (tests/integration/explore_durability_test.cpp) plants it to prove the
  /// crash-replay-compare oracle catches it and shrinks the repro.
  bool bug_skip_crc = false;

  /// Server anti-entropy period; 0 disables gossip.
  sim::Time gossip_interval = 0.0;

  /// Message-delay distribution.  The Alg. 1 scenario only distinguishes
  /// constant (synchronous) from everything else (asynchronous) because
  /// run_alg1 owns its delay model.
  sim::DelaySpec delay;

  /// Fault events live in [0, horizon]; at the horizon the runner recovers
  /// every server, heals partitions and clears message faults so pending
  /// operations can complete ([R1] stays checkable).
  sim::Time horizon = 120.0;

  net::FaultPlan faults;

  /// Draws a complete profile from \p seed: shape dimensions from one
  /// stream, then 1..6 FaultPlan::mutate edits from another.  alg1 profiles
  /// are forced monotone (plain registers need not converge) and get their
  /// drop/duplicate probabilities capped so convergence stays guaranteed.
  static ScheduleProfile from_seed(std::uint64_t seed);

  /// Line-based text form:
  ///
  ///   pqra-explore-profile v1
  ///   seed 17
  ///   servers 5
  ///   ...
  ///   delay exp:1
  ///   faults crash:1@10;recover:1@50;drop=0.02
  ///
  /// `faults -` encodes the empty plan.  Numbers use util::format_double,
  /// so serialize→parse→serialize is byte-identical.
  std::string serialize() const;

  /// Parses serialize()'s format.  Lines starting with '#' and blank lines
  /// are skipped (repro files carry `#` headers).  Throws std::logic_error
  /// naming the offending line on bad input.
  static ScheduleProfile parse(const std::string& text);

  /// Shrinking order: fault events + workload size + cluster size + message
  /// knobs + option flags + horizon.  The shrinker only accepts candidates
  /// whose cost does not grow.
  std::size_t cost() const;

  /// Total keys in the direct workload's keyspace.
  std::size_t num_keys() const { return keys_per_client * num_clients; }

  /// One random edit of the keyspace knobs (the keyspace analogue of
  /// FaultPlan::mutate, and the hook regression hunts use to push a profile
  /// into sharded shapes).  Keeps the profile valid: replicas stays within
  /// [quorum_size, num_servers] and snapshot reads are dropped when a ring
  /// appears.  bug_cross_key is not a schedule dimension and is never
  /// touched.
  void mutate_keyspace(util::Rng& rng);

  friend bool operator==(const ScheduleProfile&,
                         const ScheduleProfile&) = default;
};

/// The `--force-multikey` transform: a pure function of the profile's seed
/// (dedicated stream 3; from_seed uses 1 and 2), so sweeps stay
/// reproducible and --jobs-invariant.  Gives the profile at least two keys
/// per client and maybe read skew and a ring.  alg1 profiles are left alone
/// — the iterative scenario owns its register layout.
ScheduleProfile force_multikey(ScheduleProfile p);

/// The `--force-durable` transform: a pure function of the profile's seed
/// (dedicated stream 4).  Makes the run durable, draws a checkpoint cadence,
/// and lands at least one durability fault edit so the crash-replay-compare
/// oracle always has torn/lost syncs to chew on.  alg1 profiles are left
/// alone.
ScheduleProfile force_durable(ScheduleProfile p);

}  // namespace pqra::explore
