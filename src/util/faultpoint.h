// Deterministic fault-injection points for robustness testing.
//
// A fault point is a named site in production code that asks the global
// registry "should I fail here?". Sites are compiled to a constant `false`
// when MECRA_FAULTPOINTS is off (the default for release artifacts is ON in
// this repo so the chaos/CI suites can arm them; flip the CMake option to
// dead-code every site), and cost one relaxed atomic load per hit while
// nothing is armed.
//
// Arming is explicit and deterministic: a FaultSpec says how many hits to
// skip before firing, how many times to fire, and an optional firing
// probability drawn from a seeded RNG — the same (arming, seed, hit
// sequence) always fires at the same hits, so fault traces are
// reproducible. Specs can be armed programmatically (tests) or from the
// MECRA_FAULTS environment variable (CI smokes):
//
//   MECRA_FAULTS="orchestrator.shard_worker:times=1,journal.torn_write:skip=3"
//
// Sites wired in this repo (see ARCHITECTURE.md "Failure domains"):
//   orchestrator.shard_worker  admit_batch worker faults before staging
//   journal.torn_write         Journal::append writes a truncated frame
//   fallback.deadline          FallbackAugmenter treats the deadline as blown
//   fallback.tier_error        a fallback tier throws instead of answering
//
// Thread safety: should_fire() may be called from any thread (shard
// workers hit it concurrently); arming/disarming is meant for quiescent
// points (test setup) but is internally locked too.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/rng.h"
#include "util/thread_annotations.h"

namespace mecra::util {

/// Thrown by sites that inject failure by raising (distinguishable from
/// organic errors in logs and catch sites).
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& site)
      : std::runtime_error("injected fault at " + site) {}
};

/// When and how often an armed fault point fires.
struct FaultSpec {
  /// Hits to pass through unharmed before the first firing.
  std::uint64_t skip = 0;
  /// Maximum number of firings (default: every eligible hit).
  std::uint64_t times = ~static_cast<std::uint64_t>(0);
  /// Probability that an eligible hit actually fires, drawn from the
  /// registry's seeded RNG (1.0 = always).
  double probability = 1.0;
};

class FaultRegistry {
 public:
  /// The process-wide registry every MECRA_FAULT_POINT site consults.
  [[nodiscard]] static FaultRegistry& global();

  /// Arms (or re-arms, resetting counters) the named site.
  void arm(const std::string& site, FaultSpec spec = {}) MECRA_EXCLUDES(mutex_);
  void disarm(const std::string& site) MECRA_EXCLUDES(mutex_);
  /// Disarms everything and zeroes all counters (test teardown).
  void clear() MECRA_EXCLUDES(mutex_);

  /// Reseeds the probability stream (deterministic firing sequences).
  void reseed(std::uint64_t seed) MECRA_EXCLUDES(mutex_);

  /// Parses and arms from a MECRA_FAULTS-style spec string:
  /// comma-separated `site[:skip=N][:times=N][:prob=P]` entries.
  void arm_from_spec(const std::string& spec) MECRA_EXCLUDES(mutex_);
  /// arm_from_spec(getenv("MECRA_FAULTS")); called once per process by the
  /// first should_fire() hit, so env arming needs no code changes.
  void arm_from_env() MECRA_EXCLUDES(mutex_);

  /// One hit at the named site; true when the site should fail now.
  [[nodiscard]] bool should_fire(std::string_view site) MECRA_EXCLUDES(mutex_);

  /// Total hits / firings recorded for a site since arming (0 if never
  /// armed; counters survive disarm until clear()).
  [[nodiscard]] std::uint64_t hits(const std::string& site) const
      MECRA_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t fired(const std::string& site) const
      MECRA_EXCLUDES(mutex_);
  /// Firings across all sites (mirrors the obs `fault.injected` counter
  /// maintained by the firing sites themselves — util cannot depend on obs).
  [[nodiscard]] std::uint64_t total_fired() const;

 private:
  FaultRegistry() = default;

  struct Site {
    FaultSpec spec;
    bool armed = false;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
  };

  mutable Mutex mutex_;
  std::map<std::string, Site, std::less<>> sites_ MECRA_GUARDED_BY(mutex_);
  /// Lock-free fast-path gates; mutated under mutex_ but read without it.
  std::atomic<std::size_t> armed_count_{0};
  std::atomic<std::uint64_t> total_fired_{0};
  Rng rng_ MECRA_GUARDED_BY(mutex_){0xfa017ULL};
  std::atomic<bool> env_checked_{false};
};

/// Free-function front door for the macro below.
[[nodiscard]] bool fault_fire(std::string_view site);

}  // namespace mecra::util

// Sites go through the macro so a build with MECRA_FAULTPOINTS off
// dead-codes the call (and the branch around it) entirely.
#if defined(MECRA_FAULTPOINTS_DISABLED)
#define MECRA_FAULT_POINT(site) false
#else
#define MECRA_FAULT_POINT(site) (::mecra::util::fault_fire(site))
#endif
