// Machine-readable graph-core performance snapshot.
//
// Builds the CSR graph over three topology scales (1k Waxman APs, 10k and
// 100k cell-bucketed geometric APs) and measures, per scale:
//
//   * build cost: CsrGraph wall time and footprint;
//   * query throughput of the paper's N_l^+(v) ball: the bounded walk
//     graph::members_within against one full per-query BFS over the
//     adjacency-list Graph plus a filter;
//   * peak RSS — the 100k row doubles as proof that the index serves
//     continental scale without any O(V^2) table.
//
// Every measured query is also checked against the BFS answer, so the
// snapshot doubles as an end-to-end equivalence run. The query JSON keeps
// its `oracle_ms` / `oracle_qps` key names for the bounded walk, so older
// snapshots stay comparable.
//
// Flags (same scheme as perf_snapshot / batch_throughput):
//   --out <path>            output path (default BENCH_graph.json)
//   --quick                 fewer queries per op (CI mode; still builds
//                           the 100k index — that is the smoke test)
//   --queries <n>           override queries per op
//   --check-against <path>  compare baseline-normalized bounded-walk time
//                           (oracle_ms / bfs_ms, host speed cancels)
//                           against a committed snapshot; exit non-zero
//                           on regression beyond --regression-factor,
//                           when a topology's csr_bytes exceeds the
//                           committed value, or when a committed topology
//                           or query is missing from the fresh run
//   --regression-factor <x> regression threshold (default 2.0)
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/topology.h"
#include "io/json.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace mecra;

struct Workload {
  std::string key;
  graph::Graph legacy;  // the adjacency-list representation
  graph::CsrGraph csr;
  double csr_build_ms = 0.0;
};

Workload make_workload(const std::string& key, graph::Graph g) {
  Workload w;
  w.key = key;
  w.legacy = std::move(g);
  util::Timer csr_timer;
  w.csr = graph::CsrGraph::build(w.legacy);
  w.csr_build_ms = csr_timer.elapsed_ms();
  return w;
}

struct QueryResult {
  std::string key;
  std::size_t queries = 0;
  double bfs_ms = 0.0;
  double bounded_ms = 0.0;
};

QueryResult measure_members_within(const Workload& w, std::uint32_t l,
                                   std::size_t queries) {
  util::Rng rng(0xA11CE);
  std::vector<graph::NodeId> sources(queries);
  for (auto& v : sources) {
    v = static_cast<graph::NodeId>(rng.index(w.legacy.num_nodes()));
  }
  QueryResult r;
  r.key = "l_hop_members_l" + std::to_string(l);
  r.queries = queries;
  std::size_t bfs_sum = 0;
  std::size_t bounded_sum = 0;
  {
    const util::Timer t;
    for (graph::NodeId v : sources) {
      const auto dist = graph::bfs_hops(w.legacy, v);
      std::vector<graph::NodeId> ball;
      for (graph::NodeId u = 0; u < dist.size(); ++u) {
        if (dist[u] <= l) ball.push_back(u);
      }
      bfs_sum += ball.size();
    }
    r.bfs_ms = t.elapsed_ms();
  }
  {
    // One untimed query first: it sizes the walk's per-thread scratch to
    // this topology, a one-time cost that would otherwise weigh more on
    // --quick's 48 queries than on the full run's 256.
    (void)graph::members_within(w.csr, sources.front(), l);
    const util::Timer t;
    for (graph::NodeId v : sources) {
      bounded_sum += graph::members_within(w.csr, v, l).size();
    }
    r.bounded_ms = t.elapsed_ms();
  }
  MECRA_CHECK_MSG(bfs_sum == bounded_sum,
                  "members_within diverged from BFS");
  return r;
}

io::Json to_json(const QueryResult& r) {
  io::JsonObject o;
  o.set("key", r.key);
  o.set("queries", r.queries);
  o.set("bfs_ms", r.bfs_ms);
  o.set("oracle_ms", r.bounded_ms);
  const double speedup = r.bounded_ms > 0.0 ? r.bfs_ms / r.bounded_ms : 0.0;
  o.set("speedup", speedup);
  o.set("oracle_qps",
        r.bounded_ms > 0.0
            ? 1e3 * static_cast<double>(r.queries) / r.bounded_ms
            : 0.0);
  return io::Json(std::move(o));
}

double peak_rss_mb() {
  struct rusage usage {};
  MECRA_CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

int check_against(const io::Json& fresh, const std::string& path,
                  double factor) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "check-against: cannot open " << path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const io::Json committed = io::Json::parse(buf.str());

  int failures = 0;
  // Every committed topology and query must have a fresh match: an entry
  // the bench no longer measures fails instead of going unchecked.
  const auto find_key = [](const io::JsonArray& entries,
                           const std::string& key) -> const io::JsonObject* {
    for (const auto& e : entries) {
      if (e.as_object().at("key").as_string() == key) return &e.as_object();
    }
    return nullptr;
  };
  const auto& fresh_runs = fresh.as_object().at("topologies").as_array();
  for (const auto& committed_run :
       committed.as_object().at("topologies").as_array()) {
    const auto& cobj = committed_run.as_object();
    const std::string& key = cobj.at("key").as_string();
    const io::JsonObject* fobj = find_key(fresh_runs, key);
    if (fobj == nullptr) {
      std::cout << "MISSING   " << key << "  (committed, not measured)\n";
      ++failures;
      continue;
    }
    // Every topology is built from a fixed seed, in quick mode too, so the
    // footprint compares exactly: any growth is a layout change.
    const std::int64_t committed_bytes =
        cobj.at("build").as_object().at("csr_bytes").as_int();
    const std::int64_t fresh_bytes =
        fobj->at("build").as_object().at("csr_bytes").as_int();
    const bool grew = fresh_bytes > committed_bytes;
    std::cout << (grew ? "GREW      " : "ok        ") << key
              << "/csr_bytes  committed=" << committed_bytes
              << " fresh=" << fresh_bytes << "\n";
    failures += grew ? 1 : 0;
    const auto& fresh_queries = fobj->at("queries").as_array();
    for (const auto& cq : cobj.at("queries").as_array()) {
      const std::string& qkey = cq.as_object().at("key").as_string();
      const io::JsonObject* fq = find_key(fresh_queries, qkey);
      if (fq == nullptr) {
        std::cout << "MISSING   " << key << "/" << qkey
                  << "  (committed, not measured)\n";
        ++failures;
        continue;
      }
      // Compare BASELINE-NORMALIZED time (oracle_ms / bfs_ms): both run in
      // the same process on the same machine, so host speed cancels and
      // the committed snapshot is portable to CI runners.
      const auto relative = [](const io::JsonObject& q) {
        const double bfs = q.at("bfs_ms").as_double();
        const double bounded = q.at("oracle_ms").as_double();
        return bfs > 0.0 ? bounded / bfs : 1.0;
      };
      const double committed_rel = relative(cq.as_object());
      const double fresh_rel = relative(*fq);
      const bool regressed = fresh_rel > factor * committed_rel;
      std::cout << (regressed ? "REGRESSED " : "ok        ") << key << "/"
                << qkey << "  committed oracle_ms/bfs_ms=" << committed_rel
                << " fresh oracle_ms/bfs_ms=" << fresh_rel << "\n";
      failures += regressed ? 1 : 0;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(
      argc, argv, {"quick", "queries", "out", "check-against",
                   "regression-factor"});
  const bool quick = args.get_bool("quick", false);
  const std::size_t queries = static_cast<std::size_t>(
      args.get_int("queries", quick ? 48 : 256));

  io::JsonObject root;
  root.set("schema", "mecra-graph-snapshot-v1");
  root.set("description",
           "CSR graph + bounded N_l^+ walk (graph::members_within, timed as "
           "oracle_ms) vs one per-query adjacency-list BFS plus a filter. "
           "speedup = bfs_ms / oracle_ms on identical query streams; every "
           "answer is cross-checked.");
  root.set("queries_per_op", queries);
  root.set("quick", quick);

  io::JsonArray topologies;
  std::cout << "topology     op                  bfs total   bounded tot "
               "speedup\n";
  for (const std::string& key : {std::string("1k"), std::string("10k"),
                                 std::string("100k")}) {
    util::Rng rng(0x5EED);
    Workload w;
    if (key == "1k") {
      w = make_workload(
          key, graph::waxman({.num_nodes = 1000}, rng).graph);
    } else if (key == "10k") {
      w = make_workload(
          key,
          graph::random_geometric({.num_nodes = 10000}, rng).graph);
    } else {
      w = make_workload(
          key,
          graph::random_geometric({.num_nodes = 100000}, rng).graph);
    }

    io::JsonObject entry;
    entry.set("key", w.key);
    entry.set("nodes", w.legacy.num_nodes());
    entry.set("edges", w.legacy.num_edges());
    {
      io::JsonObject build;
      build.set("csr_ms", w.csr_build_ms);
      build.set("csr_bytes", w.csr.memory_bytes());
      entry.set("build", io::Json(std::move(build)));
    }

    io::JsonArray query_results;
    {
      const QueryResult r = measure_members_within(w, 2, queries);
      std::printf("%-12s %-18s %9.2fms %9.2fms %8.1fx\n", w.key.c_str(),
                  r.key.c_str(), r.bfs_ms, r.bounded_ms,
                  r.bounded_ms > 0.0 ? r.bfs_ms / r.bounded_ms : 0.0);
      query_results.push_back(to_json(r));
    }
    entry.set("queries", io::Json(std::move(query_results)));
    topologies.push_back(io::Json(std::move(entry)));
  }
  root.set("topologies", io::Json(std::move(topologies)));
  root.set("peak_rss_mb", peak_rss_mb());

  const io::Json snapshot(std::move(root));
  const std::string out_path = args.get("out", "BENCH_graph.json");
  {
    std::ofstream out(out_path);
    MECRA_CHECK_MSG(static_cast<bool>(out), "cannot write output file");
    out << snapshot.dump(2) << "\n";
  }
  std::cout << "\npeak rss " << peak_rss_mb() << " MB\nwrote " << out_path
            << "\n";

  if (args.has("check-against")) {
    const double factor = args.get_double("regression-factor", 2.0);
    return check_against(snapshot, args.get("check-against", ""), factor);
  }
  return 0;
}
