// stream_durable: the durable online service at city scale, driven in a
// closed loop through orchestrator::StreamingService, then recovered from
// its journal. The traced mode adds a replay that drives the same windows
// through the calls the service makes (streaming.h), one span per call.
#include <cmath>
#include <memory>
#include <numeric>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "checks.h"
#include "graph/topology.h"
#include "host.h"
#include "io/json.h"
#include "io/scenario_io.h"
#include "mec/network.h"
#include "mec/request.h"
#include "mec/vnf.h"
#include "orchestrator/controller.h"
#include "orchestrator/journal.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/streaming.h"
#include "traffic.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mecra;
namespace orc = mecra::orchestrator;

constexpr std::uint64_t kWorldSeed = 20200817;

struct Params {
  std::size_t aps = 4000;
  double rate = 400.0;    // arrivals per second of event time
  double window = 0.25;   // W
  // Windows per round. 150 keeps one periodic snapshot per round (window
  // 100) and the journal a round recovers from a few MB.
  std::size_t windows = 150;
  std::size_t snapshot_every = 100;
  // Shard workers of the served stream, which runs pinned to one CPU (see
  // README.md, "One CPU, one shard worker"): every window hands work
  // between threads, and each hand-off that wakes an idle vCPU of the
  // shared host waited on the hypervisor (8-22 % steal, ops/s 8.0k-16.5k
  // between runs). The traced mode replays the windows unpinned on the
  // 2-worker pool to show what the pool buys (util.pool.*).
  std::size_t threads = 1;
  std::size_t pool_threads = 2;
  std::size_t min_rounds = 5;
};

Params params_for(const RunOptions& o) {
  Params p;
  if (o.tiny) {
    p.aps = 300;
    p.window = 0.005;
    p.windows = 1000;
    p.min_rounds = 1;
  }
  return p;
}

struct Inputs {
  std::string network_json;  // the generated network; set-up parses it
  mec::VnfCatalog catalog;
  std::vector<Arrival> arrivals;
  std::uint64_t service_seed = 0;
};

Inputs make_inputs(const Params& p, std::uint64_t seed) {
  Inputs in;
  // The network is the deployment under test and stays fixed; --seed draws
  // the traffic (arrivals, requests, holding times, re-admits) and the
  // service's admission streams.
  util::Rng rng(kWorldSeed);
  graph::GeometricParams gp;
  gp.num_nodes = p.aps;
  gp.target_degree = 8.0;
  graph::GeneratedTopology topo = graph::random_geometric(gp, rng);
  mec::MecNetwork net =
      mec::MecNetwork::random(std::move(topo.graph), {}, rng);
  net.set_residual_fraction(0.6);
  in.catalog = mec::VnfCatalog::random({}, rng);
  in.network_json = io::to_json(net).dump();
  in.arrivals = make_traffic(in.catalog, p.aps, p.rate,
                             p.window * static_cast<double>(p.windows), seed);
  in.service_seed = util::derive_seed(seed, 3);
  return in;
}

orc::OrchestratorOptions orch_options(std::size_t threads, bool audit) {
  orc::OrchestratorOptions o;
  o.l_hops = 1;
  o.batch.threads = threads;
  o.batch.record_audit = audit;
  return o;
}

/// Everything set-up builds before the first event.
struct World {
  std::unique_ptr<orc::Orchestrator> orch;
  std::unique_ptr<orc::Controller> controller;
  std::unique_ptr<orc::Journal> journal;
};

World build_world(const Inputs& in, std::size_t threads, const MemFile& file,
                  Trace* tr, bool audit) {
  World w;
  mec::MecNetwork net;
  {
    Scoped s(tr, "io.network_load");
    net = io::network_from_json(io::Json::parse(in.network_json));
  }
  {
    Scoped s(tr, "orchestrator.construct");
    w.orch = std::make_unique<orc::Orchestrator>(std::move(net), in.catalog,
                                                 orch_options(threads, audit));
  }
  {
    Scoped s(tr, "mec.shard_map_build");
    (void)w.orch->shard_map();
  }
  {
    Scoped s(tr, "util.pool_start");
    (void)w.orch->batch_pool();
  }
  w.controller = std::make_unique<orc::Controller>(*w.orch);
  {
    Scoped s(tr, "orchestrator.journal.open");
    w.journal = std::make_unique<orc::Journal>(
        file.path(), orc::Journal::Mode::kTruncate,
        orc::Durability::per_window());
  }
  return w;
}

/// One window as the two callbacks saw it.
struct WindowLog {
  double decided_at = 0.0;
  double committed_at = 0.0;
  double admit_s = 0.0;
  double commit_s = 0.0;
  double close_time = 0.0;
  std::size_t candidates = 0;
};

/// One submitted event, kept for the replay.
struct Submitted {
  orc::StreamEventKind kind = orc::StreamEventKind::kArrival;
  double time = 0.0;
  std::uint64_t ticket = 0;
  orc::ServiceId service = 0;
};

/// What one serving round measured.
struct Serve {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t candidates = 0;
  std::uint64_t failed = 0;
  DecisionTally tally;
  double peak_rss_mb = 0.0;
  double recover_s = 0.0;
  double recover_rss_mb = 0.0;
  double scan_s = 0.0;
  std::vector<double> latency_s;
  std::vector<WindowLog> windows;
  std::vector<std::vector<Submitted>> cells;  // per window, submit order
  std::vector<double> final_residuals;
  std::string journal_bytes;
};

/// Pipeline- and commit-thread side of a round (callbacks).
struct Shared {
  std::mutex mu;
  std::vector<Pending> scheduled;
  std::vector<WindowLog> windows;
  std::size_t decided_windows = 0;
  DecisionTally tally;

  WindowLog& at(std::size_t seq) {
    if (windows.size() <= seq) windows.resize(seq + 1);
    return windows[seq];
  }
};

/// One serving round: set-up, the closed-loop stream, the drained stop()
/// and the journal recovery, with every check on the round's outputs. A
/// traced round (`tr` set) also keeps what the replay needs and times the
/// journal scan on its own.
Serve serve_round(const Inputs& in, const Params& p, MemFile& file,
                  Trace* tr, Report& rep) {
  const bool traced = tr != nullptr;
  Serve out;
  Shared sh;
  const double setup_start = now_s();
  World w = build_world(in, p.threads, file, tr, false);
  orc::Orchestrator& orch = *w.orch;
  const mec::VnfCatalog& catalog = orch.catalog();

  orc::StreamingOptions sopt;
  sopt.window_width = p.window;
  sopt.pipelined_commit = true;
  sopt.seed = in.service_seed;
  sopt.snapshot_every_windows = p.snapshot_every;
  sopt.snapshot_on_start = true;
  sopt.on_decided = [&](const std::vector<orc::StreamOutcome>& outcomes) {
    const double now = now_s();
    const std::lock_guard<std::mutex> lock(sh.mu);
    sh.at(sh.decided_windows++).decided_at = now;
    for (const orc::StreamOutcome& o : outcomes) {
      if (!o.admitted) {
        sh.tally.reject();
        continue;
      }
      // on_decided runs on the pipeline thread, the orchestrator's driver
      // thread, so the live service may be read here.
      const orc::Service& svc = orch.service(o.service);
      sh.tally.admit(svc.current_reliability(catalog),
                     svc.request.expectation);
      const Arrival& a = in.arrivals[o.ticket / 2];
      Pending next;
      next.service = o.service;
      next.arrival = o.ticket / 2;
      next.readmit = !o.readmit && a.readmit;
      next.time = o.time + (o.readmit ? a.hold2 : a.hold);
      sh.scheduled.push_back(next);
    }
  };
  sopt.on_commit = [&](const orc::WindowReport& r) {
    const double now = now_s();
    const std::lock_guard<std::mutex> lock(sh.mu);
    WindowLog& log = sh.at(r.seq);
    log.committed_at = now;
    log.admit_s = r.admit_seconds;
    log.commit_s = r.commit_seconds;
    log.close_time = r.close_time;
    log.candidates = r.arrivals + r.readmits;
  };
  std::optional<orc::StreamingService> service;
  {
    Scoped s(tr, "orchestrator.streaming.start");
    service.emplace(orch, std::move(sopt), w.controller.get(),
                    w.journal.get());
    service->start();
  }
  out.setup_s = now_s() - setup_start;

  const std::size_t n = in.arrivals.size();
  std::vector<double> submit_at(2 * n, 0.0);
  std::vector<std::uint32_t> window_of(2 * n, 0);
  std::vector<std::uint64_t> tickets;
  tickets.reserve(2 * n);
  std::priority_queue<Pending, std::vector<Pending>, Later> due;
  std::size_t next = 0;
  std::uint32_t seq = 0;
  HostSample h0;
  HostSample h1;
  {
    Scoped timed(tr, "bench.serve");
    h0 = host_sample();
    for (std::size_t g = 0; g < p.windows; ++g) {
      Scoped cell(tr, "bench.generate", static_cast<std::int64_t>(g));
      const double wend = static_cast<double>(g + 1) * p.window;
      {
        const std::lock_guard<std::mutex> lock(sh.mu);
        for (const Pending& s : sh.scheduled) due.push(s);
        sh.scheduled.clear();
      }
      std::vector<Submitted>* log =
          traced ? &out.cells.emplace_back() : nullptr;
      bool any = false;
      for (;;) {
        const bool have_due = !due.empty() && due.top().time < wend;
        const bool have_arrival =
            next < n && in.arrivals[next].time < wend;
        if (!have_due && !have_arrival) break;
        Submitted ev;
        if (have_due &&
            (!have_arrival || due.top().time <= in.arrivals[next].time)) {
          const Pending d = due.top();
          due.pop();
          ev.time = d.time;
          ev.service = d.service;
          ev.kind = d.readmit ? orc::StreamEventKind::kReadmit
                              : orc::StreamEventKind::kDeparture;
          ev.ticket = 2 * d.arrival + 1;
        } else {
          ev.time = in.arrivals[next].time;
          ev.ticket = 2 * next;
          ++next;
        }
        if (ev.kind != orc::StreamEventKind::kDeparture) {
          submit_at[ev.ticket] = now_s();
          window_of[ev.ticket] = seq;
          tickets.push_back(ev.ticket);
        }
        orc::SubmitStatus status;
        {
          Scoped s(tr, "orchestrator.streaming.submit",
                   static_cast<std::int64_t>(ev.ticket));
          switch (ev.kind) {
            case orc::StreamEventKind::kArrival:
              status = service->submit_arrival(
                  in.arrivals[ev.ticket / 2].request, ev.time, ev.ticket);
              break;
            case orc::StreamEventKind::kReadmit:
              status =
                  service->submit_readmit(ev.service, ev.time, ev.ticket);
              break;
            default:
              status = service->submit_departure(ev.service, ev.time);
              break;
          }
        }
        if (status != orc::SubmitStatus::kAccepted) ++out.failed;
        if (log != nullptr) log->push_back(ev);
        any = true;
      }
      if (any) {
        ++seq;
      } else if (log != nullptr) {
        out.cells.pop_back();
      }
      {
        Scoped s(tr, "orchestrator.streaming.flush");
        service->flush(wend);
      }
      Scoped s(tr, "orchestrator.streaming.wait",
               static_cast<std::int64_t>(g));
      service->wait_flushes_processed(g + 1);
    }
    {
      Scoped s(tr, "orchestrator.streaming.stop");
      service->stop();
    }
    h1 = host_sample();
  }
  out.wall_s = h1.wall_s - h0.wall_s;
  out.peak_rss_mb = hwm_mb();
  out.candidates = tickets.size();

  {
    Scoped checks(tr, "bench.check");
    const orc::StreamStats stats = service->stats();
    rep.check(!service->failed(), "stream_durable: service failed: " +
                                      service->error());
    rep.check(stats.shed_queue + stats.shed_slo == 0 && out.failed == 0,
              "stream_durable: events were shed");
    rep.check(stats.unknown_service == 0,
              "stream_durable: lifecycle event for a service not live");
    rep.check(sh.tally.decided == out.candidates,
              "stream_durable: decided candidates != submitted candidates");
    rep.check(stats.windows == seq && sh.windows.size() == seq &&
                  sh.decided_windows == seq,
              "stream_durable: committed windows != opened windows");
    out.tally = sh.tally;
    out.failed += out.candidates - std::min(out.candidates, sh.tally.decided);
    out.latency_s.reserve(tickets.size());
    for (const std::uint64_t t : tickets) {
      if (window_of[t] < sh.windows.size()) {
        out.latency_s.push_back(sh.windows[window_of[t]].committed_at -
                                submit_at[t]);
      }
    }
    out.windows = std::move(sh.windows);
    service.reset();
    w.journal.reset();  // closes the file; every window was flushed at commit
    out.final_residuals = residuals(orch.network());
    if (traced) out.journal_bytes = file.contents();
  }

  // Recovery: scan + replay of the round's journal into a fresh pair.
  orc::RecoverOptions ropt;
  ropt.orchestrator = orch_options(p.threads, false);
  if (traced) {
    Scoped s(tr, "orchestrator.journal.scan");
    const double t0 = now_s();
    const orc::JournalScan scan = orc::scan_journal(file.path());
    out.scan_s = now_s() - t0;
    rep.check(!scan.torn_tail, "stream_durable: journal has a torn tail");
  }
  std::optional<orc::Recovered> rec;
  {
    Scoped s(tr, "orchestrator.journal.recover");
    HeapPeak heap;
    const double t0 = now_s();
    rec.emplace(orc::recover(file.path(), ropt));
    out.recover_s = now_s() - t0;
    out.recover_rss_mb = heap.stop();
  }
  Scoped checks(tr, "bench.check");
  std::string why;
  rep.check(same_state(orch, *rec->orch, why),
            "stream_durable: recovered state differs from the live one: " +
                why);
  return out;
}

/// Replays a served round's windows through the calls the service makes
/// at window close, in its documented order, one span per call.
struct Replay {
  std::vector<double> admit_batch_s;  // per window with candidates
  double cpu_per_wall = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t batch_requests = 0;
  std::uint64_t rejected = 0;
  std::uint64_t parallel_admitted = 0;
  std::uint64_t fallback_admitted = 0;
  std::uint64_t windows = 0;
  double journal_bytes_windows = 0.0;
};

/// `threads` is the shard worker count; every count must reproduce the
/// served decisions bit for bit (streaming.h's determinism contract).
Replay replay_round(const Inputs& in, const Params& p, std::size_t threads,
                    const Serve& served, MemFile& file, Trace* tr,
                    Report& rep) {
  Replay out;
  const HostSample h0 = host_sample();
  World w = build_world(in, threads, file, tr, true);
  orc::Orchestrator& orch = *w.orch;
  orc::Controller& controller = *w.controller;
  orc::Journal& journal = *w.journal;
  {
    Scoped s(tr, "orchestrator.journal.snapshot");
    (void)journal.snapshot(orch, controller, 0.0);
    journal.flush();
  }
  const std::uint64_t start_bytes = file.size();

  struct Record {
    std::string_view kind;
    double time = 0.0;
    io::Json data;
  };
  std::uint64_t admission_windows = 0;
  for (std::size_t k = 0; k < served.cells.size(); ++k) {
    const auto id = static_cast<std::int64_t>(k);
    const std::vector<Submitted>& events = served.cells[k];
    const double close = served.windows[k].close_time;
    std::vector<Record> records;
    std::vector<std::optional<mec::SfcRequest>> readmits(events.size());
    // Lifecycle first, in event order.
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Submitted& ev = events[i];
      if (ev.kind == orc::StreamEventKind::kArrival) continue;
      if (!orch.has_service(ev.service)) continue;
      if (ev.kind == orc::StreamEventKind::kReadmit) {
        readmits[i] = orch.service(ev.service).request;
      }
      {
        Scoped s(tr, "orchestrator.journal.capture", id);
        records.push_back({orc::kJournalTeardown, ev.time,
                           orc::make_teardown_record(ev.service)});
      }
      {
        Scoped s(tr, "orchestrator.teardown",
                 static_cast<std::int64_t>(ev.ticket));
        orch.teardown(ev.service);
      }
      {
        Scoped s(tr, "orchestrator.controller.on_teardown", id);
        controller.on_teardown(ev.service);
      }
    }
    // One admit_batch over arrivals and re-admits, in event order.
    std::vector<mec::SfcRequest> requests;
    {
      Scoped s(tr, "bench.generate", id);
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i].kind == orc::StreamEventKind::kArrival) {
          requests.push_back(in.arrivals[events[i].ticket / 2].request);
        } else if (readmits[i].has_value()) {
          requests.push_back(*readmits[i]);
        }
      }
    }
    if (!requests.empty()) {
      util::Rng rng(util::derive_seed(in.service_seed, admission_windows++));
      std::vector<std::optional<orc::ServiceId>> ids;
      {
        Scoped s(tr, "orchestrator.batch.admit", id);
        const double t0 = now_s();
        ids = orch.admit_batch(requests, rng);
        out.admit_batch_s.push_back(now_s() - t0);
      }
      const orc::BatchAudit& audit = orch.last_batch_audit();
      out.batch_requests += requests.size();
      out.rejected += audit.rejected;
      out.parallel_admitted += audit.parallel_admitted;
      out.fallback_admitted += audit.fallback_admitted;
      std::vector<const orc::Service*> admitted;
      for (const std::optional<orc::ServiceId>& sid : ids) {
        if (!sid.has_value()) continue;
        admitted.push_back(&orch.service(*sid));
        ++out.admitted;
        Scoped s(tr, "orchestrator.controller.on_admit", id);
        controller.on_admit(*sid, close);
      }
      Scoped s(tr, "orchestrator.journal.capture", id);
      records.push_back(
          {orc::kJournalBatch, close, orc::make_batch_record(orch, admitted)});
    }
    if ((k + 1) % p.snapshot_every == 0) {
      Scoped s(tr, "orchestrator.journal.capture", id);
      records.push_back({orc::kJournalSnapshot, close,
                         orc::make_snapshot_record(orch, controller)});
    }
    {
      Scoped s(tr, "orchestrator.journal.append", id);
      for (Record& r : records) {
        (void)journal.append(r.kind, r.time, std::move(r.data));
      }
    }
    {
      Scoped s(tr, "orchestrator.journal.flush", id);
      journal.flush();
    }
    ++out.windows;
  }
  out.journal_bytes_windows = static_cast<double>(file.size() - start_bytes);
  out.cpu_per_wall = cpu_per_wall(h0, host_sample());

  Scoped checks(tr, "bench.check");
  const std::string on = " (" + std::to_string(threads) + " workers)";
  rep.check(out.admitted == served.tally.admitted,
            "stream_durable: replay admitted " + std::to_string(out.admitted) +
                ", the service " + std::to_string(served.tally.admitted) + on);
  std::string why;
  rep.check(bit_equal(residuals(orch.network()), served.final_residuals, why),
            "stream_durable: replay residuals differ: " + why + on);
  w.journal.reset();
  rep.check(file.contents() == served.journal_bytes,
            "stream_durable: replay journal bytes differ from the service's" +
                on);
  return out;
}

}  // namespace

Report run_stream_durable(const RunOptions& options, Trace& trace) {
  Report rep;
  const Params p = params_for(options);
  const Inputs in = make_inputs(p, options.seed);
  MemFile serve_file("perfbench-stream-journal");

  if (!options.trace) {
    RoundBudget budget(options.seconds, p.min_rounds);
    std::vector<double> setup_s, recover_s, recover_mb, rate, latency;
    std::uint64_t candidates = 0;
    DecisionTally first;
    double peak_mb = 0.0;
    std::size_t rounds = 0;
    const PinToOneCpu pin;
    while (budget.more(rounds)) {
      const HostSample h0 = host_sample();
      Serve s = serve_round(in, p, serve_file, nullptr, rep);
      const HostSample h1 = host_sample();
      if (rounds == 0) {
        peak_mb = s.peak_rss_mb;
        first = s.tally;
      }
      // Every round replays the same traffic, so its ratios are the run's.
      rep.check(s.tally == first,
                "stream_durable: rounds of one seed decided differently");
      ++rounds;
      setup_s.push_back(s.setup_s);
      recover_s.push_back(s.recover_s);
      recover_mb.push_back(s.recover_rss_mb);
      rate.push_back(ratio(static_cast<double>(s.candidates), s.wall_s));
      print_round("stream_durable", rounds, rate.back(),
                  1e3 * percentile(s.latency_s, 0.50).value_or(std::nan("")),
                  1e3 * percentile(s.latency_s, 0.99).value_or(std::nan("")),
                  s.setup_s, s.recover_s, steal_share(h0, h1));
      latency.insert(latency.end(), s.latency_s.begin(), s.latency_s.end());
      candidates += s.candidates;
      rep.attempted += s.candidates;
      rep.failed += s.failed;
    }
    rep.set("setup_s", median(setup_s));
    rep.set("ops_per_s", median(rate));
    rep.set_percentile("op_ms_p50", latency, 0.50, 1e3);
    rep.set_percentile("op_ms_p99", latency, 0.99, 1e3);
    rep.set("admit_ratio", first.admit_ratio());
    rep.set("expectation_met_ratio", first.expectation_met_ratio());
    rep.set("quality_ratio", first.quality_ratio());
    rep.set("recover_s", median(recover_s));
    rep.set("recover_rss_mb", median(recover_mb));
    rep.set("peak_rss_mb", peak_mb);
    std::printf("stream_durable: %zu rounds, %zu arrivals/round, %llu "
                "candidates\n",
                rounds, in.arrivals.size(),
                static_cast<unsigned long long>(candidates));
    return rep;
  }

  // Traced mode: per round an untraced serve (the overhead reference), a
  // traced serve, and the traced replay of the traced serve's windows.
  MemFile replay_file("perfbench-stream-replay");
  RoundBudget budget(options.seconds, 1);
  std::vector<double> admit_stage, commit_stage, commit_wait, scan_s, replay_s;
  std::vector<double> windows_candidates;
  double plain_wall = 0.0, traced_wall = 0.0;
  std::uint64_t plain_ops = 0, traced_ops = 0;
  Replay total;
  std::vector<double> pool_admit, pool_cpu;
  double inline_admit_total = 0.0;
  std::size_t rounds = 0;
  // The window-level p99s need 1000 windows beyond the wall budget.
  while (budget.more(rounds, admit_stage.size() < 1000 + 10)) {
    std::optional<PinToOneCpu> pin(std::in_place);
    const Serve plain = serve_round(in, p, serve_file, nullptr, rep);
    plain_wall += plain.wall_s;
    plain_ops += plain.candidates;

    Serve traced;
    {
      Scoped root(&trace, "stream_durable.serve",
                  static_cast<std::int64_t>(rounds));
      traced = serve_round(in, p, serve_file, &trace, rep);
    }
    traced_wall += traced.wall_s;
    traced_ops += traced.candidates;
    scan_s.push_back(traced.scan_s);
    replay_s.push_back(traced.recover_s - traced.scan_s);
    for (const WindowLog& wl : traced.windows) {
      admit_stage.push_back(wl.admit_s);
      commit_stage.push_back(wl.commit_s);
      commit_wait.push_back(wl.committed_at - wl.decided_at - wl.commit_s);
      windows_candidates.push_back(static_cast<double>(wl.candidates));
    }
    rep.attempted += traced.candidates;
    rep.failed += traced.failed;

    // Unpinned, so the pool's workers may use every CPU.
    pin.reset();
    const Replay pool = replay_round(in, p, p.pool_threads, traced,
                                     replay_file, nullptr, rep);
    pool_admit.insert(pool_admit.end(), pool.admit_batch_s.begin(),
                      pool.admit_batch_s.end());
    pool_cpu.push_back(pool.cpu_per_wall);

    pin.emplace();
    Scoped root(&trace, "stream_durable.replay",
                static_cast<std::int64_t>(rounds));
    const Replay r =
        replay_round(in, p, p.threads, traced, replay_file, &trace, rep);
    inline_admit_total += std::accumulate(r.admit_batch_s.begin(),
                                          r.admit_batch_s.end(), 0.0);
    total.admitted += r.admitted;
    total.batch_requests += r.batch_requests;
    total.rejected += r.rejected;
    total.parallel_admitted += r.parallel_admitted;
    total.fallback_admitted += r.fallback_admitted;
    total.windows += r.windows;
    total.journal_bytes_windows += r.journal_bytes_windows;
    ++rounds;
  }
  const std::vector<Span>& spans = trace.spans();
  const double windows = static_cast<double>(total.windows);
  rep.set_percentile("orchestrator.streaming.admit_stage_ms_p50", admit_stage,
                     0.50, 1e3);
  rep.set_percentile("orchestrator.streaming.admit_stage_ms_p99", admit_stage,
                     0.99, 1e3);
  rep.set_percentile("orchestrator.streaming.commit_stage_ms_p50",
                     commit_stage, 0.50, 1e3);
  rep.set_percentile("orchestrator.streaming.commit_stage_ms_p99",
                     commit_stage, 0.99, 1e3);
  rep.set_percentile("orchestrator.streaming.commit_wait_ms_p50", commit_wait,
                     0.50, 1e3);
  rep.set("orchestrator.streaming.driver_wait_share",
          share(spans, "orchestrator.streaming.wait", "bench.serve"));
  rep.set("orchestrator.streaming.submit_us_mean",
          1e6 * mean(durations(spans, "orchestrator.streaming.submit")));
  rep.set("orchestrator.streaming.candidates_per_window",
          mean(windows_candidates));
  const std::vector<double> batch =
      durations(spans, "orchestrator.batch.admit");
  rep.set_percentile("orchestrator.batch.admit_ms_p50", batch, 0.50, 1e3);
  rep.set_percentile("orchestrator.batch.admit_ms_p99", batch, 0.99, 1e3);
  rep.set("orchestrator.batch.fallback_share",
          ratio(static_cast<double>(total.fallback_admitted),
                static_cast<double>(total.parallel_admitted +
                                    total.fallback_admitted)));
  rep.set("orchestrator.controller.us_per_window",
          1e6 *
              ratio(total_duration(spans, "orchestrator.controller.on_admit") +
                        total_duration(spans,
                                       "orchestrator.controller.on_teardown"),
                    windows));
  rep.set("orchestrator.teardown_us_mean",
          1e6 * mean(durations(spans, "orchestrator.teardown")));
  rep.set("process.cpu_per_wall", median(pool_cpu));
  rep.set_percentile("util.pool.admit_ms_p50", pool_admit, 0.50, 1e3);
  rep.set("util.pool.speedup",
          ratio(inline_admit_total,
                std::accumulate(pool_admit.begin(), pool_admit.end(), 0.0)));
  rep.set("orchestrator.journal.capture_us_per_window",
          1e6 * ratio(total_duration(spans, "orchestrator.journal.capture"),
                      windows));
  rep.set("orchestrator.journal.append_us_per_window",
          1e6 * ratio(total_duration(spans, "orchestrator.journal.append"),
                      windows));
  const std::vector<double> flush =
      durations(spans, "orchestrator.journal.flush");
  rep.set_percentile("orchestrator.journal.flush_us_p50", flush, 0.50, 1e6);
  rep.set_percentile("orchestrator.journal.flush_us_p99", flush, 0.99, 1e6);
  rep.set("orchestrator.journal.bytes_per_window",
          ratio(total.journal_bytes_windows, windows));
  rep.set("orchestrator.journal.scan_s", median(scan_s));
  rep.set("orchestrator.journal.replay_s", median(replay_s));
  rep.set("orchestrator.journal.snapshot_ms",
          1e3 * median(durations(spans, "orchestrator.journal.snapshot")));
  rep.set("admission.reject_share",
          ratio(static_cast<double>(total.rejected),
                static_cast<double>(total.batch_requests)));
  rep.set("io.network_load_ms",
          1e3 * median(durations(spans, "io.network_load")));
  rep.set("mec.shard_map_build_ms",
          1e3 * median(durations(spans, "mec.shard_map_build")));
  rep.set("trace.overhead",
          ratio(ratio(static_cast<double>(traced_ops), traced_wall),
                ratio(static_cast<double>(plain_ops), plain_wall)));
  std::printf("stream_durable traced: %zu rounds, %zu windows\n", rounds,
              admit_stage.size());
  return rep;
}

}  // namespace perfbench
