// Process and host measurements the benchmark reads around its timed
// regions: memory, CPU time, hypervisor steal, and a RAM-backed journal
// file.
#pragma once

#include <sched.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// High-water resident set size of the process so far, in MB (VmHWM).
[[nodiscard]] double hwm_mb();

/// Wall clock, process CPU time and host steal ticks at one instant.
struct HostSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t steal_ticks = 0;
};
[[nodiscard]] HostSample host_sample();
/// Process CPU seconds per wall second between two samples.
[[nodiscard]] double cpu_per_wall(const HostSample& a, const HostSample& b);
/// Host steal time between two samples as a share of the machine's
/// capacity: steal ticks / (wall x CPUs x ticks per second).
[[nodiscard]] double steal_share(const HostSample& a, const HostSample& b);

/// Peak growth of the live heap while it exists: the benchmark replaces the
/// global operator new/delete (host.cpp) and, from construction until
/// stop(), adds every allocation's usable size and subtracts every free's.
/// Unlike RSS growth this repeats for the same work whatever pages the
/// allocator happens to hold, up to the few bytes by which a chunk's usable
/// size depends on its free lists. Over-aligned allocations are not counted.
/// One instance at a time.
class HeapPeak {
 public:
  HeapPeak();
  ~HeapPeak();
  HeapPeak(const HeapPeak&) = delete;
  HeapPeak& operator=(const HeapPeak&) = delete;
  /// Stops counting and returns the highest growth seen, in MB.
  double stop();
};

/// Pins the calling thread, and every thread it starts while pinned, to the
/// lowest CPU it may run on; the destructor restores the previous mask.
class PinToOneCpu {
 public:
  PinToOneCpu();
  ~PinToOneCpu();
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// An anonymous in-memory file (memfd). The journal writes to it through
/// its /proc/self/fd path, so journal bytes never meet a disk and the
/// benchmark writes nothing outside its checkout.
class MemFile {
 public:
  explicit MemFile(const char* name);
  ~MemFile();
  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t size() const;
  [[nodiscard]] std::string contents() const;

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace perfbench
