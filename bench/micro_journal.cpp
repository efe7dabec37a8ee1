// Journal append-path micro-bench: per-record flush vs group commit.
//
// The write-ahead journal's historical discipline wrote and flushed every
// record as its own syscall pair (src/orchestrator/journal.cpp). Group
// commit frames records into a pending buffer and writes a whole group as
// one contiguous write+flush, leaving the bytes on disk identical. This
// bench quantifies that trade on the append hot path: records/sec and
// bytes/sec for
//
//   per_record   — flush every append (group size 1, the old behaviour)
//   group x8/64/512 — per_window durability with an explicit flush()
//                  every N appends (the streaming commit thread's pattern;
//                  64 approximates one 3s window of the 1M-request trace)
//
// over small teardown-shaped payloads and ~1 KiB admit-shaped payloads.
// The interesting number is the per-record-vs-grouped ratio, not the
// absolute rate: both legs build and CRC-frame identical records, so any
// gap is pure physical-write scheduling.
//
// Flags:
//   --records <n>   appends per configuration (default 200000)
//   --pad <bytes>   extra payload bytes for the "large" rows (default 1024)
//   --keep          keep the scratch journal files (default: deleted)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "io/json.h"
#include "orchestrator/journal.h"
#include "util/cli.h"
#include "util/timer.h"

namespace {

using namespace mecra;

struct Rates {
  double records_per_s = 0.0;
  double bytes_per_s = 0.0;
};

/// Appends `n` records under `durability`, flushing every `group` appends
/// (group <= 1 leaves flushing entirely to the policy). `pad` bytes of
/// filler approximate larger record kinds. The payload objects are built
/// OUTSIDE the timed region: payload construction is identical under every
/// policy, so timing it would only dilute the write-scheduling contrast
/// this bench exists to measure.
Rates run_case(const std::string& path,
               const orchestrator::Durability& durability, std::size_t group,
               std::size_t n, std::size_t pad) {
  const std::string filler(pad, 'x');
  std::vector<io::Json> payloads;
  payloads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    io::JsonObject data;
    data.set("service", static_cast<std::int64_t>(i));
    if (pad > 0) data.set("pad", filler);
    payloads.emplace_back(std::move(data));
  }

  orchestrator::Journal journal(path, orchestrator::Journal::Mode::kTruncate,
                                durability);
  const util::Timer timer;
  for (std::size_t i = 0; i < n; ++i) {
    (void)journal.append(orchestrator::kJournalTeardown,
                         static_cast<double>(i) * 1e-3,
                         std::move(payloads[i]));
    if (group > 1 && (i + 1) % group == 0) journal.flush();
  }
  journal.flush();
  const double seconds = std::max(timer.elapsed_seconds(), 1e-9);
  Rates rates;
  rates.records_per_s = static_cast<double>(n) / seconds;
  rates.bytes_per_s =
      static_cast<double>(std::filesystem::file_size(path)) / seconds;
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv, {"records", "pad", "keep"});
  const auto records =
      static_cast<std::size_t>(args.get_int("records", 200000));
  const auto pad = static_cast<std::size_t>(args.get_int("pad", 1024));
  const bool keep = args.get_bool("keep", false);
  const std::string path =
      (std::filesystem::temp_directory_path() / "micro_journal.bin").string();

  struct Case {
    const char* label;
    orchestrator::Durability durability;
    std::size_t group;
  };
  const Case cases[] = {
      {"per_record", orchestrator::Durability::per_record(), 1},
      {"group x8", orchestrator::Durability::per_window(), 8},
      {"group x64", orchestrator::Durability::per_window(), 64},
      {"group x512", orchestrator::Durability::per_window(), 512},
  };

  std::printf("%-12s %-7s %14s %14s %9s\n", "config", "payload", "records/s",
              "MiB/s", "vs pr");
  for (const std::size_t extra : {std::size_t{0}, pad}) {
    double per_record_rate = 0.0;
    for (const Case& c : cases) {
      const Rates r = run_case(path, c.durability, c.group, records, extra);
      if (c.group == 1 && c.durability.policy ==
                              orchestrator::Durability::Policy::kPerRecord) {
        per_record_rate = r.records_per_s;
      }
      std::printf("%-12s %-7s %14.0f %14.2f %8.2fx\n", c.label,
                  extra == 0 ? "small" : "large", r.records_per_s,
                  r.bytes_per_s / (1024.0 * 1024.0),
                  per_record_rate > 0.0 ? r.records_per_s / per_record_rate
                                        : 0.0);
    }
  }
  if (!keep) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  return 0;
}
