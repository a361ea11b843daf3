#pragma once

/// \file threaded_server.hpp
/// Replica server running on its own std::thread: the thread pulls each
/// envelope from its ThreadTransport mailbox and hands it to a
/// ServerProcess, the same request handling (Replica, server metrics,
/// whole-store reads) the simulated servers run.  Stops when the transport
/// is closed.

#include <thread>

#include "core/replica.hpp"
#include "core/server_process.hpp"
#include "net/thread_transport.hpp"

namespace pqra::core {

class ThreadedServer {
 public:
  /// Starts serving immediately.  Initial register values must be preloaded
  /// into \p preloaded before construction — the serving thread owns the
  /// replica from here on.  \p metrics: optional thread-safe registry the
  /// serving thread reports into (non-owning; must outlive the server).
  ThreadedServer(net::ThreadTransport& transport, NodeId self,
                 Replica preloaded = {}, obs::Registry* metrics = nullptr);

  ThreadedServer(const ThreadedServer&) = delete;
  ThreadedServer& operator=(const ThreadedServer&) = delete;

  /// Joins the server thread.  The transport must have been closed first
  /// (otherwise this blocks forever — by design, it is a usage error).
  ~ThreadedServer();

  /// Post-shutdown inspection only (after the transport is closed and the
  /// serving thread has exited).
  const Replica& replica() const { return process_.replica(); }

  NodeId id() const { return process_.id(); }

 private:
  net::ThreadTransport& transport_;
  ServerProcess process_;
  std::thread thread_;
};

}  // namespace pqra::core
