#include "host.h"

#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>

#include "trace.h"

namespace perfbench {

double hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

HostSample host_sample() {
  HostSample s;
  s.wall_s = now_s();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t f[8] = {};
  if (in >> cpu && cpu == "cpu") {
    for (std::uint64_t& x : f) in >> x;
    s.steal_ticks = f[7];  // user nice system idle iowait irq softirq steal
  }
  return s;
}

double cpu_per_wall(const HostSample& a, const HostSample& b) {
  return ratio(b.cpu_s - a.cpu_s, b.wall_s - a.wall_s);
}

double steal_share(const HostSample& a, const HostSample& b) {
  const double capacity = (b.wall_s - a.wall_s) *
                          static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)) *
                          static_cast<double>(sysconf(_SC_CLK_TCK));
  return ratio(static_cast<double>(b.steal_ticks - a.steal_ticks), capacity);
}

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void count(std::int64_t delta) {
  const std::int64_t live =
      g_live.fetch_add(delta, std::memory_order_relaxed) + delta;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (g_counting.load(std::memory_order_relaxed)) {
    count(static_cast<std::int64_t>(malloc_usable_size(p)));
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed)) {
    count(-static_cast<std::int64_t>(malloc_usable_size(p)));
  }
  std::free(p);
}

}  // namespace

HeapPeak::HeapPeak() {
  g_live.store(0, std::memory_order_relaxed);
  g_peak.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
}

HeapPeak::~HeapPeak() { (void)stop(); }

double HeapPeak::stop() {
  g_counting.store(false, std::memory_order_seq_cst);
  return static_cast<double>(g_peak.load(std::memory_order_relaxed)) /
         (1024.0 * 1024.0);
}

PinToOneCpu::PinToOneCpu() {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (std::size_t cpu = 0; cpu < static_cast<std::size_t>(CPU_SETSIZE);
       ++cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

PinToOneCpu::~PinToOneCpu() {
  if (pinned_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
}

MemFile::MemFile(const char* name) : fd_(memfd_create(name, MFD_CLOEXEC)) {
  if (fd_ < 0) {
    throw std::runtime_error(std::string("memfd_create failed: ") +
                             std::strerror(errno));
  }
  path_ = "/proc/self/fd/" + std::to_string(fd_);
}

MemFile::~MemFile() {
  if (fd_ >= 0) close(fd_);
}

std::uint64_t MemFile::size() const {
  struct stat st {};
  if (fstat(fd_, &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

std::string MemFile::contents() const {
  std::string out(size(), '\0');
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = pread(fd_, out.data() + done, out.size() - done,
                            static_cast<off_t>(done));
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  out.resize(done);
  return out;
}

}  // namespace perfbench

// Global allocation functions of the benchmark binary, counted while a
// HeapPeak is active (a relaxed load otherwise).
void* operator new(std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new[](std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { perfbench::counted_free(p); }
void operator delete[](void* p) noexcept { perfbench::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
