#pragma once

/// \file names.hpp
/// Well-known instrument names, so every layer reports into the same
/// registry entries and exporters/tests/dashboards can reference them
/// without string drift.  Convention: `pqra_<layer>_<what>`, counters
/// suffixed `_total`.  See docs/OBSERVABILITY.md.

namespace pqra::obs::names {

// Quorum register clients (QuorumRegisterClient, on the DES or driven by a
// threaded BlockingRegisterClient), aggregated over all client processes.
inline constexpr const char* kClientReads = "pqra_client_reads_total";
inline constexpr const char* kClientWrites = "pqra_client_writes_total";
inline constexpr const char* kClientRetries = "pqra_client_retries_total";
inline constexpr const char* kClientCacheHits =
    "pqra_client_monotone_cache_hits_total";
inline constexpr const char* kClientRepairs = "pqra_client_repairs_total";
inline constexpr const char* kClientWriteBacks =
    "pqra_client_write_backs_total";
inline constexpr const char* kClientReadLatency = "pqra_client_read_latency";
inline constexpr const char* kClientWriteLatency = "pqra_client_write_latency";
inline constexpr const char* kClientStaleDepth = "pqra_client_stale_depth";
// Recovery policy (docs/FAULTS.md): degraded completions accepted at the
// operation deadline, and operations that failed outright.
inline constexpr const char* kClientDegradedReads =
    "pqra_client_degraded_reads_total";
inline constexpr const char* kClientDegradedWrites =
    "pqra_client_degraded_writes_total";
inline constexpr const char* kClientOpFailures =
    "pqra_client_op_failures_total";

// Sharded multi-key store (core/keyspace, docs/SHARDING.md), aggregated
// over all store clients.  Per-key attribution lives in spans and the op
// trace (reg == key), not in per-key metric names: the keyspace is
// unbounded, metric names are not.
inline constexpr const char* kStoreGets = "pqra_store_gets_total";
inline constexpr const char* kStorePuts = "pqra_store_puts_total";
inline constexpr const char* kStoreKeysTouched = "pqra_store_keys_touched";
// Replica-side key population: keys created on a server by writes or gossip
// merges (first entry for a previously unknown key id).
inline constexpr const char* kServerKeysCreated =
    "pqra_server_keys_created_total";

// Fault injection (net/faults.hpp), aggregated over the whole network.
inline constexpr const char* kFaultsInjected = "pqra_faults_injected_total";
inline constexpr const char* kFaultsCrashes = "pqra_faults_crashes_total";
inline constexpr const char* kFaultsRecoveries =
    "pqra_faults_recoveries_total";
inline constexpr const char* kFaultsMsgDropped =
    "pqra_faults_messages_dropped_total";
inline constexpr const char* kFaultsMsgDuplicated =
    "pqra_faults_messages_duplicated_total";
inline constexpr const char* kFaultsMsgDelayed =
    "pqra_faults_messages_delayed_total";
// Storage-level injection (docs/DURABILITY.md): WAL syncs torn mid-record
// and WAL syncs silently lost inside an fsync-loss window.
inline constexpr const char* kFaultsTornWrites =
    "pqra_faults_torn_writes_total";
inline constexpr const char* kFaultsFsyncLoss =
    "pqra_faults_fsync_loss_total";

// Replica servers (ServerProcess, on the DES or run by a ThreadedServer).
inline constexpr const char* kServerRequests = "pqra_server_requests_total";
inline constexpr const char* kServerTsAdvances =
    "pqra_server_ts_advances_total";
inline constexpr const char* kServerGossipMerges =
    "pqra_server_gossip_merges_total";

// Transports (SimTransport + ThreadTransport).
inline constexpr const char* kTransportMessages =
    "pqra_transport_messages_total";
inline constexpr const char* kTransportDropped =
    "pqra_transport_dropped_total";
inline constexpr const char* kTransportPayloadBytes =
    "pqra_transport_payload_bytes_total";
/// Per message type: kTransportMessagesByType[MsgType].
inline constexpr const char* kTransportMessagesByType[] = {
    "pqra_transport_messages_read_req_total",
    "pqra_transport_messages_read_ack_total",
    "pqra_transport_messages_write_req_total",
    "pqra_transport_messages_write_ack_total",
    "pqra_transport_messages_gossip_total",
};

// Discrete-event simulator (published once per run; the hot loop is never
// instrumented directly).
inline constexpr const char* kSimEvents = "pqra_sim_events_total";
inline constexpr const char* kSimHeapHighWater = "pqra_sim_heap_high_water";
// Event-queue reorganizations.  Always 0 since the queue became a heap,
// which never reorganizes; kept because the benchmark suite
// (bench/suite/pqra_bench.cpp) reads it, until the benchmark drops it.
inline constexpr const char* kSimQueueBucketResizes =
    "pqra_sim_queue_bucket_resizes_total";
inline constexpr const char* kSimTime = "pqra_sim_time";
// Event-closure storage (sim/event_fn.hpp): heap allocations the event path
// performed (arena chunk growth + oversize fallbacks; 0 once the arena is
// warm) and the arena's live-block high-water mark.
inline constexpr const char* kSimEventHeapAllocs =
    "pqra_sim_event_heap_allocs_total";
inline constexpr const char* kSimEventBlocksHighWater =
    "pqra_sim_event_blocks_high_water";

// Alg. 1 executors.
inline constexpr const char* kAlg1Rounds = "pqra_alg1_rounds";
inline constexpr const char* kAlg1Pseudocycles = "pqra_alg1_pseudocycles";
inline constexpr const char* kAlg1Converged = "pqra_alg1_converged";

// Causal span tracing (obs/span.hpp, docs/OBSERVABILITY.md).  Published
// end-of-run by SpanSink::publish so span bookkeeping never touches the
// registry from inside the event loop.
inline constexpr const char* kSpanStarted = "pqra_span_started_total";
inline constexpr const char* kSpanCompleted = "pqra_span_completed_total";
/// Spans still open when the sink was published (ops in flight at the end
/// of a truncated run).
inline constexpr const char* kSpanOpen = "pqra_span_open";
/// Per span kind: kSpanByKind[SpanKind].
inline constexpr const char* kSpanByKind[] = {
    "pqra_span_client_op_total",
    "pqra_span_rpc_attempt_total",
    "pqra_span_retry_wait_total",
    "pqra_span_server_handle_total",
};

// Flight recorder (obs/flight_recorder.hpp): fixed ring of recent message
// records, published when a dump is taken.
inline constexpr const char* kFlightRecRecords = "pqra_flightrec_records_total";
inline constexpr const char* kFlightRecOverwritten =
    "pqra_flightrec_overwritten_total";
inline constexpr const char* kFlightRecCapacity = "pqra_flightrec_capacity";

// DES self-profiler (sim/profiler.hpp).  Only the deterministic fire counts
// are published into the registry; wall-time attribution goes to the run
// report's profile.json, which is nondeterministic by nature.
inline constexpr const char* kProfileFires = "pqra_profile_fires_total";
/// Per event tag: kProfileFiresByTag[sim::EventTag].
inline constexpr const char* kProfileFiresByTag[] = {
    "pqra_profile_fires_generic_total",
    "pqra_profile_fires_msg_deliver_total",
    "pqra_profile_fires_retry_timer_total",
    "pqra_profile_fires_deadline_total",
    "pqra_profile_fires_gossip_total",
    "pqra_profile_fires_fault_total",
    "pqra_profile_fires_workload_total",
    "pqra_profile_fires_probe_total",
};

// Schedule-exploration fuzzer (tools/explore, docs/EXPLORATION.md).
inline constexpr const char* kExploreRuns = "pqra_explore_runs_total";
inline constexpr const char* kExploreViolations =
    "pqra_explore_violations_total";
inline constexpr const char* kExploreOpsChecked =
    "pqra_explore_ops_checked_total";
inline constexpr const char* kExploreEvents =
    "pqra_explore_sim_events_total";
inline constexpr const char* kExploreShrinkAttempts =
    "pqra_explore_shrink_attempts_total";
inline constexpr const char* kExploreShrinkAccepted =
    "pqra_explore_shrink_accepted_total";
/// Fingerprint of the most recent run (gauge; see Simulator::fingerprint).
inline constexpr const char* kExploreLastFingerprint =
    "pqra_explore_last_fingerprint";

// Durable storage layer (src/storage, docs/DURABILITY.md), aggregated over
// all replicas of a run.
inline constexpr const char* kWalAppends = "pqra_wal_appends_total";
inline constexpr const char* kWalAppendBytes = "pqra_wal_append_bytes_total";
inline constexpr const char* kWalSyncs = "pqra_wal_syncs_total";
inline constexpr const char* kWalLostSyncs = "pqra_wal_lost_syncs_total";
inline constexpr const char* kWalTornSyncs = "pqra_wal_torn_syncs_total";
inline constexpr const char* kWalReplayedRecords =
    "pqra_wal_replayed_records_total";
inline constexpr const char* kWalTornDropped =
    "pqra_wal_torn_tails_dropped_total";
inline constexpr const char* kSnapshotInstalls =
    "pqra_snapshot_installs_total";
inline constexpr const char* kSnapshotLoads = "pqra_snapshot_loads_total";
inline constexpr const char* kStorageRecoveries =
    "pqra_storage_recoveries_total";

}  // namespace pqra::obs::names
