#include "routing/registry.h"

#include <memory>

#include "routing/pull.h"
#include "routing/push.h"
#include "routing/spray.h"

namespace bsub::routing {

void register_baseline_protocols(sim::ProtocolRegistry& registry) {
  registry.add({
      "PUSH",
      {},
      "epidemic flooding: replicate every message to every encountered node",
      [](sim::ProtocolParams&) -> std::unique_ptr<sim::Protocol> {
        return std::make_unique<PushProtocol>();
      },
  });
  registry.add({
      "PULL",
      {},
      "one-hop interest-driven collection from direct neighbors, no relaying",
      [](sim::ProtocolParams&) -> std::unique_ptr<sim::Protocol> {
        return std::make_unique<PullProtocol>();
      },
  });
  registry.add({
      "SPRAY",
      {},
      "spray-and-wait: producer hands L copies to the first nodes met, "
      "relays deliver one hop",
      [](sim::ProtocolParams& params) -> std::unique_ptr<sim::Protocol> {
        const std::uint32_t copies = params.get_u32("copies", 3, 1);
        return std::make_unique<SprayProtocol>(copies);
      },
  });
}

}  // namespace bsub::routing
