// Engine choice for tests of the node pool and its recovery sweep. Those
// need a node queue, which a channel whose receive endpoints are rings does
// not have: such a test runs on the engine ULIPC_QUEUE_ENGINE names when it
// is a node engine, and on the two-lock queue otherwise.
#pragma once

#include "queue/queue_engine.hpp"

namespace ulipc::test {

inline QueueEngine node_engine_from_env() noexcept {
  const QueueEngine e = QueueEnginePolicy::from_env().server;
  return e == QueueEngine::kRing ? QueueEngine::kTwoLock : e;
}

}  // namespace ulipc::test
