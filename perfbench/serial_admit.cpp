// serial_admit: the per-request decision path. One thread serves a Poisson
// trace through Orchestrator::admit / teardown inline — no journal, windows,
// shard map or pool. The traced mode replays each decision as the calls
// admit makes (random_admission, BmcgapArena::build, augment_heuristic,
// validate + apply_placements) and each teardown as the releases it makes.
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "admission/admission.h"
#include "checks.h"
#include "core/augmentation.h"
#include "core/bmcgap_arena.h"
#include "core/heuristic_matching.h"
#include "core/validator.h"
#include "host.h"
#include "io/json.h"
#include "io/scenario_io.h"
#include "orchestrator/controller.h"
#include "orchestrator/journal.h"
#include "orchestrator/orchestrator.h"
#include "sim/workload.h"
#include "traffic.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mecra;
namespace orc = mecra::orchestrator;

constexpr std::size_t kChain = 4;
constexpr double kCapacityTolerance = 1e-6;  // mec::MecNetwork's

struct Params {
  std::size_t aps = 400;
  double rate = 40.0;       // arrivals per second of event time
  double horizon = 500.0;   // event seconds per round (~20k arrivals)
  // Restart drills per round, at evenly spaced event times. The live state
  // at one instant is small and seed-dependent (~40 services); the median
  // over many instants is what a restart typically needs.
  std::size_t checkpoints = 8;
  std::size_t min_rounds = 5;
};

Params params_for(const RunOptions& o) {
  Params p;
  if (o.tiny) {
    // The real network, so per-op work (and the traced run's self-time
    // coverage) is representative; only the trace is short.
    p.horizon = 30.0;
    p.checkpoints = 2;
    p.min_rounds = 1;
  }
  return p;
}

struct Inputs {
  std::string network_json;
  mec::VnfCatalog catalog;
  std::vector<Arrival> arrivals;
  std::uint64_t admit_seed = 0;
  double scenario_build_s = 0.0;
};

Inputs make_inputs(const Params& p, std::uint64_t seed) {
  Inputs in;
  // The BENCH_stream.json scenario, generated from that bench's own seed:
  // 400-AP Waxman (0.4, 0.2), 10 % cloudlets, 60 % residual, chains of 4.
  // The network stays fixed; --seed draws the traffic and admission RNG.
  sim::ScenarioParams sp;
  sp.num_aps = p.aps;
  sp.request.chain_length_low = kChain;
  sp.request.chain_length_high = kChain;
  sp.residual_fraction = 0.6;
  util::Rng rng(0x57EA4 + p.aps);
  const double t0 = now_s();
  std::optional<sim::Scenario> s = sim::make_scenario(sp, rng);
  in.scenario_build_s = now_s() - t0;
  if (!s.has_value()) throw std::runtime_error("serial_admit: no scenario");
  in.network_json = io::to_json(s->network).dump();
  in.catalog = s->catalog;
  in.arrivals = make_traffic(in.catalog, p.aps, p.rate, p.horizon, seed);
  in.admit_seed = util::derive_seed(seed, 3);
  return in;
}

/// The two ways a round serves its trace: the orchestrator's admit /
/// teardown, or the replay of the calls they make. `admit` returns the new
/// service id, `teardown` releases a live one, `request` reads its request.
template <typename Server>
struct Loop {
  std::vector<std::int64_t> decisions;  // service id, or -1 for a reject
  std::vector<double> admit_s;          // per admit call
  double wall_s = 0.0;
  std::uint64_t failed = 0;

  /// `tr` receives a bench.generate span around the loop's own
  /// scheduling between the server calls. `checkpoint(t)`, when set, runs
  /// at p.checkpoints evenly spaced event times with the wall clock
  /// paused: wall_s counts serving time only.
  void run(const Inputs& in, const Params& p, Server& server,
           Trace* tr = nullptr,
           const std::function<void(double)>& checkpoint = {}) {
    Scoped loop_span(tr, "bench.generate");
    std::priority_queue<Pending, std::vector<Pending>, Later> due;
    decisions.reserve(in.arrivals.size() * 2);
    admit_s.reserve(in.arrivals.size() * 2);
    std::size_t next_cp = 1;
    const std::size_t cps = checkpoint ? p.checkpoints : 0;
    auto cp_time = [&](std::size_t k) {
      return p.horizon * static_cast<double>(k) / static_cast<double>(cps);
    };
    double start = now_s();
    auto checkpoints_until = [&](double t) {
      while (next_cp <= cps && cp_time(next_cp) <= t) {
        wall_s += now_s() - start;
        checkpoint(cp_time(next_cp++));
        start = now_s();
      }
    };
    auto decide = [&](const mec::SfcRequest& req, std::size_t arrival,
                      double now, bool readmit) {
      const double t0 = now_s();
      std::optional<std::uint64_t> id;
      try {
        id = server.admit(req);
      } catch (const std::exception&) {
        ++failed;
      }
      admit_s.push_back(now_s() - t0);
      decisions.push_back(id.has_value() ? static_cast<std::int64_t>(*id) : -1);
      if (!id.has_value()) return;
      server.on_admitted(*id);
      const Arrival& a = in.arrivals[arrival];
      due.push({now + (readmit ? a.hold2 : a.hold), *id, arrival,
                !readmit && a.readmit});
    };
    std::size_t next = 0;
    for (;;) {
      const bool have_due = !due.empty() && due.top().time < p.horizon;
      const bool have_arrival = next < in.arrivals.size();
      if (!have_due && !have_arrival) break;
      if (have_due &&
          (!have_arrival || due.top().time <= in.arrivals[next].time)) {
        const Pending d = due.top();
        due.pop();
        checkpoints_until(d.time);
        if (d.readmit) {
          const mec::SfcRequest req = server.request(d.service);
          server.teardown(d.service);
          decide(req, d.arrival, d.time, true);
        } else {
          server.teardown(d.service);
        }
      } else {
        const Arrival& a = in.arrivals[next];
        checkpoints_until(a.time);
        decide(a.request, next, a.time, false);
        ++next;
      }
    }
    wall_s += now_s() - start;
    checkpoints_until(p.horizon);
  }
};

/// Orchestrator::admit / teardown, as served.
struct OrchServer {
  orc::Orchestrator& orch;
  util::Rng rng;
  DecisionTally tally;

  std::optional<std::uint64_t> admit(const mec::SfcRequest& req) {
    std::optional<std::uint64_t> id = orch.admit(req, rng);
    if (!id.has_value()) tally.reject();
    return id;
  }
  /// Scores an admission outside its timing: Eq. (1) reliability of the
  /// new service against its expectation.
  void on_admitted(std::uint64_t id) {
    const orc::Service& svc = orch.service(id);
    tally.admit(svc.current_reliability(orch.catalog()),
                svc.request.expectation);
  }
  void teardown(std::uint64_t id) { orch.teardown(id); }
  mec::SfcRequest request(std::uint64_t id) const {
    return orch.service(id).request;
  }
};

/// The same decisions as the calls Orchestrator::admit makes, one span
/// each; teardowns release every instance's demand in instance order.
struct ReplayServer {
  struct Live {
    mec::SfcRequest request;
    std::vector<std::pair<graph::NodeId, std::uint32_t>> instances;
  };
  ReplayServer(mec::MecNetwork& network, const mec::VnfCatalog& cat,
               std::uint64_t seed, Trace* trace)
      : net(network), catalog(cat), rng(seed), tr(trace) {}

  mec::MecNetwork& net;
  const mec::VnfCatalog& catalog;
  util::Rng rng;
  Trace* tr;
  core::BmcgapArena arena{core::BmcgapOptions{.l_hops = 1}};
  std::map<std::uint64_t, Live> live;
  std::uint64_t next_service = 0;
  std::uint64_t rejects = 0;
  double items = 0.0;
  std::uint64_t builds = 0;
  bool feasible = true;

  std::optional<std::uint64_t> admit(const mec::SfcRequest& req) {
    std::optional<admission::PrimaryPlacement> primaries;
    {
      Scoped s(tr, "admission.place", static_cast<std::int64_t>(req.id));
      primaries = admission::random_admission(net, catalog, req, rng);
    }
    if (!primaries.has_value()) {
      ++rejects;
      return std::nullopt;
    }
    const std::uint64_t id = next_service++;
    const core::BmcgapInstance* inst = nullptr;
    {
      Scoped s(tr, "core.model_build", static_cast<std::int64_t>(req.id));
      inst = &arena.build(net, catalog, req, *primaries);
    }
    items += static_cast<double>(inst->num_items());
    ++builds;
    core::AugmentationResult result;
    {
      Scoped s(tr, "core.augment_heuristic",
               static_cast<std::int64_t>(req.id));
      result = core::augment_heuristic(*inst, core::AugmentOptions{});
    }
    {
      Scoped s(tr, "core.validate_apply", static_cast<std::int64_t>(req.id));
      feasible = feasible && core::validate(*inst, result).feasible;
      core::apply_placements(net, *inst, result);
    }
    Live& l = live[id];
    l.request = req;
    for (std::uint32_t pos = 0; pos < req.length(); ++pos) {
      l.instances.emplace_back(primaries->cloudlet_of[pos], pos);
    }
    for (const core::SecondaryPlacement& sp : result.placements) {
      l.instances.emplace_back(sp.cloudlet, sp.chain_pos);
    }
    return id;
  }
  void on_admitted(std::uint64_t /*id*/) {}
  void teardown(std::uint64_t id) {
    Scoped s(tr, "orchestrator.teardown", static_cast<std::int64_t>(id));
    const Live& l = live.at(id);
    for (const auto& [cloudlet, pos] : l.instances) {
      net.release(cloudlet, catalog.function(l.request.chain[pos]).cpu_demand);
    }
    live.erase(id);
  }
  mec::SfcRequest request(std::uint64_t id) const {
    return live.at(id).request;
  }
};

orc::OrchestratorOptions orch_options() {
  orc::OrchestratorOptions o;
  o.l_hops = 1;
  return o;
}

mec::MecNetwork load_network(const Inputs& in, Trace* tr) {
  Scoped s(tr, "io.network_load");
  return io::network_from_json(io::Json::parse(in.network_json));
}

/// One untraced round: set-up, the served trace with its restart drills,
/// and the checks.
struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> recover_s;
  std::vector<double> recover_rss_mb;
  DecisionTally tally;
  std::uint64_t failed = 0;
  std::vector<double> admit_s;
  std::vector<std::int64_t> decisions;
  std::vector<double> final_residuals;
};

Round serve_round(const Inputs& in, const Params& p, Report& rep) {
  Round out;
  const double t0 = now_s();
  orc::Orchestrator orch(load_network(in, nullptr), in.catalog, orch_options());
  out.setup_s = now_s() - t0;
  const std::vector<double> initial = residuals(orch.network());

  // Restart drill: the service keeps no journal, so a restart resumes from a
  // snapshot of the live state, recovered through recover().
  MemFile file("perfbench-serial-snapshot");
  orc::RecoverOptions ropt;
  ropt.orchestrator = orch_options();
  auto drill = [&](double now) {
    // Serving has reached its steady state by the first drill (1/8 of the
    // trace is ~60 holding times): its high-water mark is the serving peak.
    if (out.recover_s.empty()) out.peak_rss_mb = hwm_mb();
    {
      orc::Controller controller(orch);
      orc::Journal journal(file.path());
      (void)journal.snapshot(orch, controller, now);
    }
    std::optional<orc::Recovered> rec;
    {
      HeapPeak heap;
      const double r0 = now_s();
      rec.emplace(orc::recover(file.path(), ropt));
      out.recover_s.push_back(now_s() - r0);
      out.recover_rss_mb.push_back(heap.stop());
    }
    std::string why;
    rep.check(same_state(orch, *rec->orch, why),
              "serial_admit: recovered state differs: " + why);
  };

  OrchServer server{orch, util::Rng(in.admit_seed), {}};
  Loop<OrchServer> loop;
  loop.run(in, p, server, nullptr, drill);
  out.wall_s = loop.wall_s;
  out.failed = loop.failed;
  out.admit_s = std::move(loop.admit_s);
  out.decisions = std::move(loop.decisions);
  out.tally = server.tally;

  std::vector<double> demand_at(initial.size(), 0.0);
  for (const orc::ServiceId id : orch.services()) {
    const orc::Service& svc = orch.service(id);
    for (const orc::Instance& inst : svc.instances) {
      demand_at[inst.cloudlet] +=
          in.catalog.function(svc.request.chain[inst.chain_pos]).cpu_demand;
    }
  }
  out.final_residuals = residuals(orch.network());
  bool conserved = true;
  for (std::size_t v = 0; v < initial.size(); ++v) {
    const double accounted = out.final_residuals[v] + demand_at[v];
    conserved =
        conserved && std::abs(initial[v] - accounted) <= kCapacityTolerance;
  }
  rep.check(conserved,
            "serial_admit: initial residual != final residual + live demand");
  return out;
}

}  // namespace

Report run_serial_admit(const RunOptions& options, Trace& trace) {
  Report rep;
  const Params p = params_for(options);
  const Inputs in = make_inputs(p, options.seed);

  if (!options.trace) {
    RoundBudget budget(options.seconds, p.min_rounds);
    std::vector<double> setup_s, recover_s, recover_mb, rate, admit_s;
    double peak_mb = 0.0;
    std::uint64_t calls = 0;
    DecisionTally tally;  // of the first round
    std::vector<std::int64_t> first;
    std::size_t rounds = 0;
    while (budget.more(rounds)) {
      const HostSample h0 = host_sample();
      Round r = serve_round(in, p, rep);
      const HostSample h1 = host_sample();
      if (rounds == 0) {
        peak_mb = r.peak_rss_mb;
        first = r.decisions;
        tally = r.tally;
      }
      // Every round replays the same traffic, so its ratios are the run's.
      rep.check(r.decisions == first && r.tally == tally,
                "serial_admit: rounds of one seed decided differently");
      ++rounds;
      setup_s.push_back(r.setup_s);
      recover_s.insert(recover_s.end(), r.recover_s.begin(),
                       r.recover_s.end());
      recover_mb.insert(recover_mb.end(), r.recover_rss_mb.begin(),
                        r.recover_rss_mb.end());
      rate.push_back(
          ratio(static_cast<double>(r.decisions.size()), r.wall_s));
      print_round("serial_admit", rounds, rate.back(),
                  1e3 * percentile(r.admit_s, 0.50).value_or(std::nan("")),
                  1e3 * percentile(r.admit_s, 0.99).value_or(std::nan("")),
                  r.setup_s, median(r.recover_s), steal_share(h0, h1));
      admit_s.insert(admit_s.end(), r.admit_s.begin(), r.admit_s.end());
      calls += r.decisions.size();
      rep.attempted += r.decisions.size();
      rep.failed += r.failed;
    }
    rep.set("setup_s", median(setup_s));
    rep.set("ops_per_s", median(rate));
    rep.set_percentile("op_ms_p50", admit_s, 0.50, 1e3);
    rep.set_percentile("op_ms_p99", admit_s, 0.99, 1e3);
    rep.set("admit_ratio", tally.admit_ratio());
    rep.set("expectation_met_ratio", tally.expectation_met_ratio());
    rep.set("quality_ratio", tally.quality_ratio());
    rep.set("recover_s", median(recover_s));
    rep.set("recover_rss_mb", median(recover_mb));
    rep.set("peak_rss_mb", peak_mb);
    std::printf("serial_admit: %zu rounds, %zu arrivals/round, %llu admit "
                "calls\n",
                rounds, in.arrivals.size(),
                static_cast<unsigned long long>(calls));
    return rep;
  }

  // Traced mode: per round an untraced round (the reference for
  // trace.overhead and orchestrator.admit_self_us) and the traced replay.
  RoundBudget budget(options.seconds, 1);
  double plain_wall = 0.0, plain_admit_s = 0.0, replay_wall = 0.0, cpu = 0.0;
  std::uint64_t plain_calls = 0, replay_calls = 0, rejects = 0, builds = 0;
  double items = 0.0;
  core::BmcgapArena::Stats arena;
  std::size_t rounds = 0;
  // Every admitted call runs the heuristic once: its p99 needs 1000 calls.
  while (budget.more(rounds, builds < 1000 + 10)) {
    const Round plain = serve_round(in, p, rep);
    plain_wall += plain.wall_s;
    plain_calls += plain.decisions.size();
    for (const double s : plain.admit_s) plain_admit_s += s;

    Scoped root(&trace, "serial_admit.replay",
                static_cast<std::int64_t>(rounds));
    mec::MecNetwork net = load_network(in, &trace);
    ReplayServer server(net, in.catalog, in.admit_seed, &trace);
    Loop<ReplayServer> loop;
    const HostSample h0 = host_sample();
    loop.run(in, p, server, &trace);
    const HostSample h1 = host_sample();
    replay_wall += loop.wall_s;
    replay_calls += loop.decisions.size();
    cpu += cpu_per_wall(h0, h1) * loop.wall_s;
    rejects += server.rejects;
    items += server.items;
    builds += server.builds;
    arena.misses += server.arena.stats().misses;
    arena.hits += server.arena.stats().hits;
    arena.refreshes += server.arena.stats().refreshes;
    rep.attempted += loop.decisions.size();
    rep.failed += loop.failed;

    Scoped checks(&trace, "bench.check");
    rep.check(server.feasible,
              "serial_admit: replayed augmentation is not capacity-feasible");
    rep.check(loop.decisions == plain.decisions,
              "serial_admit: replay decisions differ from the served run");
    std::string why;
    rep.check(bit_equal(residuals(net), plain.final_residuals, why),
              "serial_admit: replay residuals differ: " + why);
    ++rounds;
  }
  const std::vector<Span>& spans = trace.spans();
  const double calls = static_cast<double>(replay_calls);
  rep.set_percentile("admission.place_us_p50",
                     durations(spans, "admission.place"), 0.50, 1e6);
  rep.set("admission.reject_share", ratio(static_cast<double>(rejects), calls));
  rep.set_percentile("core.model_build_us_p50",
                     durations(spans, "core.model_build"), 0.50, 1e6);
  rep.set("core.arena_reuse_ratio",
          ratio(static_cast<double>(arena.hits + arena.refreshes),
                static_cast<double>(arena.misses + arena.hits +
                                    arena.refreshes)));
  const std::vector<double> heuristic =
      durations(spans, "core.augment_heuristic");
  rep.set_percentile("core.augment_heuristic_us_p50", heuristic, 0.50, 1e6);
  rep.set_percentile("core.augment_heuristic_us_p99", heuristic, 0.99, 1e6);
  rep.set("core.instance_items_mean",
          ratio(items, static_cast<double>(builds)));
  rep.set("core.validate_apply_us_mean",
          1e6 * mean(durations(spans, "core.validate_apply")));
  double layers_s = 0.0;
  for (const char* layer : {"admission.place", "core.model_build",
                            "core.augment_heuristic", "core.validate_apply"}) {
    layers_s += total_duration(spans, layer);
  }
  rep.set("orchestrator.admit_self_us",
          1e6 * (ratio(plain_admit_s, static_cast<double>(plain_calls)) -
                 layers_s / calls));
  rep.set("orchestrator.teardown_us_mean",
          1e6 * mean(durations(spans, "orchestrator.teardown")));
  rep.set("io.network_load_ms",
          1e3 * median(durations(spans, "io.network_load")));
  rep.set("sim.scenario_build_ms_mean", 1e3 * in.scenario_build_s);
  rep.set("process.cpu_per_wall", ratio(cpu, replay_wall));
  rep.set("trace.overhead",
          ratio(ratio(calls, replay_wall),
                ratio(static_cast<double>(plain_calls), plain_wall)));
  std::printf("serial_admit traced: %zu rounds, %llu admit calls\n", rounds,
              static_cast<unsigned long long>(replay_calls));
  return rep;
}

}  // namespace perfbench
