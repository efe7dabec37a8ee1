#include "traffic.h"

#include "util/rng.h"

namespace perfbench {

namespace {

constexpr double kMeanHold = 1.0;
constexpr double kReadmitFraction = 0.1;
constexpr double kExpectation = 0.95;
constexpr std::size_t kChain = 4;

}  // namespace

std::vector<Arrival> make_traffic(const mecra::mec::VnfCatalog& catalog,
                                  std::size_t num_nodes, double rate,
                                  double horizon, std::uint64_t seed) {
  using namespace mecra;
  util::Rng rng(util::derive_seed(seed, 2));
  mec::RequestParams rp;
  rp.chain_length_low = kChain;
  rp.chain_length_high = kChain;
  rp.expectation = kExpectation;
  std::vector<Arrival> out;
  for (double t = rng.exponential(1.0 / rate); t < horizon;
       t += rng.exponential(1.0 / rate)) {
    Arrival a;
    a.time = t;
    a.request = mec::random_request(out.size(), catalog, num_nodes, rp, rng);
    a.hold = rng.exponential(kMeanHold);
    a.readmit = rng.uniform01() < kReadmitFraction;
    a.hold2 = rng.exponential(kMeanHold);
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace perfbench
