// mecra_perfbench: one workload per invocation, untraced (end-to-end
// metrics) or traced (per-layer metrics). The last stdout line is the JSON
// result; see README.md for the workloads and every metric.
//
//   mecra_perfbench --workload stream_durable|serial_admit|paper_solve
//                   --seed N --seconds S --trace 0|1
//                   [--spans-out PATH]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "host.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

void write_spans(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  const std::vector<Span>& spans = trace.spans();
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  out << "name,start_us,end_us,parent,id\n";
  for (const Span& s : spans) {
    out << s.name << ',' << 1e6 * (s.start - t0) << ',' << 1e6 * (s.end - t0)
        << ',' << s.parent << ',' << s.id << '\n';
  }
}

int usage() {
  std::cerr << "usage: mecra_perfbench --workload stream_durable|serial_admit|"
               "paper_solve --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string spans_out;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--spans-out" && has_value) {
      spans_out = argv[++i];
    } else {
      return usage();
    }
  }
  Report (*run)(const RunOptions&, Trace&) = nullptr;
  if (workload == "stream_durable") run = run_stream_durable;
  if (workload == "serial_admit") run = run_serial_admit;
  if (workload == "paper_solve") run = run_paper_solve;
  if (run == nullptr) return usage();

  try {
    const HostSample start = host_sample();
    Trace trace;
    Report rep = run(options, trace);
    const HostSample end = host_sample();
    const double steal = steal_share(start, end);
    std::printf("%s: host steal share %.4f over %.1f s\n", workload.c_str(),
                steal, end.wall_s - start.wall_s);
    if (options.trace) {
      const double unattributed = print_attribution(workload, trace);
      rep.set("host.steal_share", steal);
      rep.set("trace.unattributed_share", unattributed);
      rep.check(unattributed <= 0.05,
                workload + ": layer self times cover less than 95% of the "
                           "traced wall time");
      if (!spans_out.empty()) write_spans(spans_out, trace);
    }
    for (const std::string& e : rep.errors) {
      std::cerr << "CHECK FAILED: " << e << "\n";
    }
    std::cout << rep.json(options.trace ? per_layer_metrics()
                                        : end_to_end_metrics())
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
