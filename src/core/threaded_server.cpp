#include "core/threaded_server.hpp"

#include <optional>
#include <utility>

#include "util/check.hpp"

namespace pqra::core {

namespace {

obs::Registry* require_thread_safe(obs::Registry* metrics) {
  PQRA_REQUIRE(metrics == nullptr ||
                   metrics->mode() == obs::Concurrency::kThreadSafe,
               "ThreadedServer needs a thread-safe registry");
  return metrics;
}

}  // namespace

ThreadedServer::ThreadedServer(net::ThreadTransport& transport, NodeId self,
                               Replica preloaded, obs::Registry* metrics)
    : transport_(transport),
      process_(transport, self, require_thread_safe(metrics)) {
  process_.replica() = std::move(preloaded);
  thread_ = std::thread([this] {
    while (std::optional<net::Envelope> env = transport_.recv(id())) {
      process_.on_message(env->from, std::move(env->msg));
    }
  });
}

ThreadedServer::~ThreadedServer() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace pqra::core
