#include "checks.h"

#include <bit>
#include <cstdint>

namespace perfbench {

namespace orc = mecra::orchestrator;

std::vector<double> residuals(const mecra::mec::MecNetwork& net) {
  std::vector<double> out(net.num_nodes());
  for (std::size_t v = 0; v < out.size(); ++v) {
    out[v] = net.residual(static_cast<mecra::graph::NodeId>(v));
  }
  return out;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b,
               std::string& why) {
  if (a.size() != b.size()) {
    why = "node counts differ";
    return false;
  }
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (std::bit_cast<std::uint64_t>(a[v]) !=
        std::bit_cast<std::uint64_t>(b[v])) {
      why = "residual of node " + std::to_string(v) + " differs";
      return false;
    }
  }
  return true;
}

bool same_state(const orc::Orchestrator& a, const orc::Orchestrator& b,
                std::string& why) {
  if (a.next_service_id() != b.next_service_id() ||
      a.next_instance_id() != b.next_instance_id()) {
    why = "id counters differ";
    return false;
  }
  const std::vector<orc::ServiceId> ids = a.services();
  if (ids != b.services()) {
    why = "live service ids differ";
    return false;
  }
  for (const orc::ServiceId id : ids) {
    const orc::Service& x = a.service(id);
    const orc::Service& y = b.service(id);
    bool same = x.request.chain == y.request.chain &&
                x.instances.size() == y.instances.size();
    for (std::size_t i = 0; same && i < x.instances.size(); ++i) {
      const orc::Instance& p = x.instances[i];
      const orc::Instance& q = y.instances[i];
      same = p.id == q.id && p.chain_pos == q.chain_pos &&
             p.cloudlet == q.cloudlet && p.role == q.role &&
             p.state == q.state;
    }
    if (!same) {
      why = "service " + std::to_string(id) + " differs";
      return false;
    }
  }
  return bit_equal(residuals(a.network()), residuals(b.network()), why);
}

}  // namespace perfbench
