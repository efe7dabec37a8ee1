#include "orchestrator/journal.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <filesystem>
#include <span>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "io/scenario_io.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/faultpoint.h"

namespace mecra::orchestrator {

namespace {

/// Slicing-by-8 tables: tables[0] is the bytewise CRC-32 table, and
/// tables[k][n] is the CRC of byte n followed by k zero bytes, so eight
/// lookups advance the checksum over eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][n] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      const std::uint32_t prev = tables[k - 1][n];
      tables[k][n] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

/// Little-endian u32 at `p`, assembled byte by byte (host-order free).
std::uint32_t load_u32_le(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3]))
          << 24);
}

// --- payload writers ---
//
// Every payload is serialized once, straight from live state, into one
// string with the io::dump_* building blocks: a value is written as the
// io::Json constructed from it would dump (numbers through double), keys
// are literals that need no escaping, and nothing is whitespace. The text
// is therefore the compact dump of the io::Json tree with the same
// members in the same order, byte for byte (tests/journal_test.cpp keeps
// such a tree-built reference and compares every writer with it).

template <typename T>
void put_value(std::string& out, T x) {
  if constexpr (std::is_same_v<T, bool>) {
    out += x ? "true" : "false";
    return;
  } else if constexpr (std::is_integral_v<T>) {
    // Below 2^53 the double path prints exactly the integer's digits.
    if (std::cmp_greater_equal(x, 0) && std::cmp_less(x, 1ULL << 53)) {
      char buf[24];
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x);
      out.append(buf, end);
      return;
    }
  }
  io::dump_number_append(out, static_cast<double>(x));
}

/// `text` (the punctuation and key before a member's value), then `x`.
template <typename T>
void put_member(std::string& out, std::string_view text, T x) {
  out += text;
  put_value(out, x);
}

/// `[put(x) for x in items]`.
template <typename Range, typename Put>
void put_array(std::string& out, const Range& items, Put put) {
  out += '[';
  bool first = true;
  for (const auto& x : items) {
    if (!first) out += ',';
    first = false;
    put(out, x);
  }
  out += ']';
}

void put_instance(std::string& out, const Instance& inst) {
  // Ids round-trip through double; anything near 2^53 (in particular the
  // orchestrator's pending-id sentinel) must never reach a record.
  MECRA_CHECK_MSG(inst.id < (1ULL << 53),
                  "journal: instance id too large to serialize");
  put_member(out, R"({"id":)", inst.id);
  put_member(out, R"(,"pos":)", inst.chain_pos);
  put_member(out, R"(,"cloudlet":)", inst.cloudlet);
  put_member(out, R"(,"role":)", static_cast<int>(inst.role));
  put_member(out, R"(,"state":)", static_cast<int>(inst.state));
  out += '}';
}

/// The request as io::to_json(const mec::SfcRequest&) writes it.
void put_request(std::string& out, const mec::SfcRequest& request) {
  put_member(out, R"({"id":)", request.id);
  out += R"(,"chain":)";
  put_array(out, request.chain, put_value<mec::FunctionId>);
  put_member(out, R"(,"expectation":)", request.expectation);
  put_member(out, R"(,"source":)", request.source);
  put_member(out, R"(,"destination":)", request.destination);
  out += '}';
}

void put_service(std::string& out, const Service& svc) {
  MECRA_CHECK_MSG(svc.id < (1ULL << 53),
                  "journal: service id too large to serialize");
  put_member(out, R"({"id":)", svc.id);
  out += R"(,"request":)";
  put_request(out, svc.request);
  put_member(out, R"(,"state":)", static_cast<int>(svc.state));
  out += R"(,"instances":)";
  put_array(out, svc.instances, put_instance);
  out += '}';
}

void put_controller_state(std::string& out, const ControllerState& state) {
  out += R"({"tracked":)";
  put_array(out, state.tracked,
            [](std::string& o, const ControllerState::Entry& entry) {
              put_member(o, R"({"service":)", entry.service);
              put_member(o, R"(,"dirty":)", entry.dirty);
              put_member(o, R"(,"not_before":)", entry.not_before);
              put_member(o, R"(,"backoff":)", entry.backoff);
              o += '}';
            });
  out += R"(,"repair_queue":)";
  put_array(out, state.repair_queue, [](std::string& o, const auto& entry) {
    put_member(o, "[", entry.first);
    put_member(o, ",", entry.second);
    o += ']';
  });
  put_member(out, R"(,"next_batch":)", state.next_batch);
  put_member(out, R"(,"last_now":)", state.last_now);
  const ControllerMetrics& m = state.metrics;
  put_member(out, R"(,"metrics":{"repairs":)", m.repairs);
  put_member(out, R"(,"reaugment_attempts":)", m.reaugment_attempts);
  put_member(out, R"(,"reaugment_successes":)", m.reaugment_successes);
  put_member(out, R"(,"reaugment_failures":)", m.reaugment_failures);
  put_member(out, R"(,"standbys_added":)", m.standbys_added);
  put_member(out, R"(,"revivals":)", m.revivals);
  out += "}}";
}

/// Post-event residuals of every cloudlet hosting an instance of the given
/// services, ascending node id, as [[node, residual], ...]. Replay
/// installs these verbatim (see the file comment on why the consume
/// arithmetic is not replayed).
void put_touched_residuals(std::string& out, const mec::MecNetwork& network,
                           std::span<const Service* const> services) {
  std::vector<graph::NodeId> nodes;
  for (const Service* svc : services) {
    for (const Instance& inst : svc->instances) nodes.push_back(inst.cloudlet);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  put_array(out, nodes, [&network](std::string& o, graph::NodeId v) {
    put_member(o, "[", v);
    put_member(o, ",", network.residual(v));
    o += ']';
  });
}

/// Payload of the cloudlet_outage and repair records.
io::Json cloudlet_record(graph::NodeId v) {
  std::string out;
  put_member(out, R"({"cloudlet":)", v);
  out += '}';
  return io::Json::raw(std::move(out));
}

// --- payload readers (recover) ---

Instance instance_from_json(const io::Json& json) {
  const io::JsonObject& o = json.as_object();
  Instance inst;
  inst.id = static_cast<InstanceId>(o.at("id").as_int());
  inst.chain_pos = static_cast<std::uint32_t>(o.at("pos").as_int());
  inst.cloudlet = static_cast<graph::NodeId>(o.at("cloudlet").as_int());
  inst.role = static_cast<InstanceRole>(o.at("role").as_int());
  inst.state = static_cast<InstanceState>(o.at("state").as_int());
  return inst;
}

Service service_from_json(const io::Json& json) {
  const io::JsonObject& o = json.as_object();
  Service svc;
  svc.id = static_cast<ServiceId>(o.at("id").as_int());
  svc.request = io::request_from_json(o.at("request"));
  svc.state = static_cast<ServiceState>(o.at("state").as_int());
  for (const io::Json& inst : o.at("instances").as_array()) {
    svc.instances.push_back(instance_from_json(inst));
  }
  return svc;
}

ControllerState controller_state_from_json(const io::Json& json) {
  const io::JsonObject& o = json.as_object();
  ControllerState state;
  for (const io::Json& entry : o.at("tracked").as_array()) {
    const io::JsonObject& e = entry.as_object();
    state.tracked.push_back(
        {static_cast<ServiceId>(e.at("service").as_int()),
         e.at("dirty").as_bool(), e.at("not_before").as_double(),
         e.at("backoff").as_double()});
  }
  for (const io::Json& pair : o.at("repair_queue").as_array()) {
    const io::JsonArray& p = pair.as_array();
    MECRA_CHECK(p.size() == 2);
    state.repair_queue.emplace_back(
        p[0].as_double(), static_cast<graph::NodeId>(p[1].as_int()));
  }
  state.next_batch = o.at("next_batch").as_double();
  state.last_now = o.at("last_now").as_double();
  const io::JsonObject& m = o.at("metrics").as_object();
  state.metrics.repairs = static_cast<std::size_t>(m.at("repairs").as_int());
  state.metrics.reaugment_attempts =
      static_cast<std::size_t>(m.at("reaugment_attempts").as_int());
  state.metrics.reaugment_successes =
      static_cast<std::size_t>(m.at("reaugment_successes").as_int());
  state.metrics.reaugment_failures =
      static_cast<std::size_t>(m.at("reaugment_failures").as_int());
  state.metrics.standbys_added =
      static_cast<std::size_t>(m.at("standbys_added").as_int());
  state.metrics.revivals = static_cast<std::size_t>(m.at("revivals").as_int());
  return state;
}

/// Applies a record's "residuals" array to the recovering orchestrator.
void apply_residuals(Orchestrator& orch, const io::Json& json) {
  for (const io::Json& pair : json.as_array()) {
    const io::JsonArray& p = pair.as_array();
    MECRA_CHECK(p.size() == 2);
    orch.restore_residual(static_cast<graph::NodeId>(p[0].as_int()),
                          p[1].as_double());
  }
}

void put_u32_le(std::string& out, std::uint32_t x) {
  out.push_back(static_cast<char>(x & 0xffu));
  out.push_back(static_cast<char>((x >> 8) & 0xffu));
  out.push_back(static_cast<char>((x >> 16) & 0xffu));
  out.push_back(static_cast<char>((x >> 24) & 0xffu));
}

/// Cursor over a payload's fixed envelope prefix
/// `{"v":V,"seq":N,"t":T,"kind":"K","data":` (exact bytes, no whitespace:
/// the form Journal::append writes).
struct EnvelopeCursor {
  std::string_view text;
  std::size_t pos = 0;

  bool literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }
  /// A JSON number, scanned and converted as io::Json::parse does.
  bool number(double& out) {
    const std::size_t start = pos;
    while (pos < text.size() &&
           ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' ||
            text[pos] == '-')) {
      ++pos;
    }
    const char* end = text.data() + pos;
    const auto [ptr, ec] = std::from_chars(text.data() + start, end, out);
    return pos > start && ec == std::errc() && ptr == end;
  }
  /// A string without escapes or control characters (record kinds are
  /// plain identifiers; Journal::append refuses anything else).
  bool plain_string(std::string_view& out) {
    if (!literal("\"")) return false;
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' || static_cast<unsigned char>(text[pos]) < 0x20) {
        return false;
      }
      ++pos;
    }
    if (pos == text.size()) return false;
    out = text.substr(start, pos - start);
    ++pos;
    return true;
  }
};

/// One complete, checked frame. `kind` and `data` view the walker's buffer
/// and stay valid until its next call to next().
struct Frame {
  std::uint64_t offset = 0;  // file offset of the frame header
  std::uint64_t seq = 0;
  double time = 0.0;
  std::string_view kind;
  std::string_view data;  // JSON text of the record's "data" member
};

/// The journal's only reader. Walks the file one frame at a time through
/// one reused payload buffer and checks every frame's length, CRC-32,
/// format version, sequence number and envelope before handing it out —
/// without building any JSON. A missing file walks as an empty one.
class FrameWalker {
 public:
  /// Starts at `offset`, where the frame carrying sequence number `seq`
  /// begins (the defaults walk the whole file).
  explicit FrameWalker(const std::string& path, std::uint64_t offset = 0,
                       std::uint64_t seq = 0)
      : path_(path), pos_(offset), used_(offset), expected_seq_(seq) {
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path_, ec);
    in_.open(path_, std::ios::binary);
    if (!ec && in_.is_open()) size_ = size;  // absent file == empty journal
    MECRA_CHECK_MSG(offset <= size_, "journal: offset past the end of " + path_);
    in_.seekg(static_cast<std::streamoff>(offset));
  }

  /// Reads and checks the next frame into `frame`. Returns false at the end
  /// of the file or at a torn tail (the file ends inside a frame, or the
  /// final frame's checksum fails). Throws util::CheckFailure on mid-file
  /// corruption, a sequence gap, an unsupported version or a malformed
  /// envelope, naming the frame's offset.
  bool next(Frame& frame) {
    if (torn_ || pos_ == size_) return false;
    if (size_ - pos_ < 8) return tear();  // crash inside a frame header
    char header[8];
    read(header, sizeof header);
    const std::uint32_t len = load_u32_le(header);
    const std::uint32_t crc = load_u32_le(header + 4);
    if (size_ - pos_ - 8 < len) return tear();  // crash inside the payload
    buf_.resize(len);
    read(buf_.data(), len);
    const std::string_view payload(buf_.data(), len);
    if (journal_crc32(payload) != crc) {
      // A bad checksum on the FINAL frame is a torn write (the length
      // header landed but the payload did not finish); anywhere else it is
      // silent corruption and must not be skipped over.
      MECRA_CHECK_MSG(pos_ + 8 + len == size_,
                      "journal corrupt: checksum mismatch mid-file at " +
                          where());
      return tear();
    }
    decode(payload, frame);
    ++expected_seq_;
    pos_ += 8 + len;
    used_ = pos_;
    return true;
  }

  [[nodiscard]] bool torn_tail() const noexcept { return torn_; }
  /// File offset just past the last complete frame walked.
  [[nodiscard]] std::uint64_t bytes_used() const noexcept { return used_; }

 private:
  bool tear() {
    torn_ = true;
    return false;
  }

  void read(char* out, std::size_t n) {
    in_.read(out, static_cast<std::streamsize>(n));
    MECRA_CHECK_MSG(in_.good(), "journal: read failed at " + where());
  }

  [[nodiscard]] std::string where() const {
    return "offset " + std::to_string(pos_) + " of " + path_;
  }

  /// Decodes the envelope of a checksum-valid payload.
  void decode(std::string_view payload, Frame& frame) const {
    EnvelopeCursor c{payload};
    double version = 0.0;
    MECRA_CHECK_MSG(c.literal(R"({"v":)") && c.number(version),
                    "journal corrupt: malformed record envelope at " +
                        where());
    MECRA_CHECK_MSG(version == kJournalFormatVersion,
                    "journal: unsupported format version at " + where());
    double seq = 0.0;
    const bool ok = c.literal(R"(,"seq":)") && c.number(seq) &&
                    c.literal(R"(,"t":)") && c.number(frame.time) &&
                    c.literal(R"(,"kind":)") && c.plain_string(frame.kind) &&
                    c.literal(R"(,"data":)") &&
                    c.pos + 1 < payload.size() && payload.back() == '}';
    // The data member's text runs to the final '}' with no whitespace
    // around it (the rest of it is left to io::Json::parse).
    const std::string_view data =
        ok ? payload.substr(c.pos, payload.size() - 1 - c.pos)
           : std::string_view();
    MECRA_CHECK_MSG(ok && !is_space(data.front()) && !is_space(data.back()),
                    "journal corrupt: malformed record envelope at " +
                        where());
    MECRA_CHECK_MSG(seq == static_cast<double>(expected_seq_),
                    "journal corrupt: sequence gap at " + where());
    frame.offset = pos_;
    frame.seq = expected_seq_;
    frame.data = data;
  }

  static bool is_space(char ch) {
    return ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r';
  }

  std::string path_;
  std::ifstream in_;
  std::uint64_t size_ = 0;
  std::uint64_t pos_;   // offset of the next frame header
  std::uint64_t used_;  // offset just past the last complete frame
  std::uint64_t expected_seq_;
  bool torn_ = false;
  std::string buf_;  // the current payload, reused across frames
};

/// Parses a walked frame's data, naming the frame on a malformed body.
io::Json parse_data(const Frame& frame, const std::string& path) {
  try {
    return io::Json::parse(frame.data);
  } catch (const util::CheckFailure& e) {
    throw util::CheckFailure("journal corrupt: record at offset " +
                             std::to_string(frame.offset) + " of " + path +
                             ": " + e.what());
  }
}

}  // namespace

std::uint32_t journal_crc32(std::string_view bytes) {
  static constexpr CrcTables kT = make_crc_tables();
  std::uint32_t crc = 0xFFFFFFFFu;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_u32_le(p);
    const std::uint32_t hi = load_u32_le(p + 4);
    crc = kT[7][lo & 0xffu] ^ kT[6][(lo >> 8) & 0xffu] ^
          kT[5][(lo >> 16) & 0xffu] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xffu] ^
          kT[2][(hi >> 8) & 0xffu] ^ kT[1][(hi >> 16) & 0xffu] ^
          kT[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kT[0][(crc ^ static_cast<unsigned char>(*p)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Durability Durability::parse(std::string_view text) {
  if (text == "per_record") {
    return per_record();
  }
  if (text == "per_window") {
    return per_window();
  }
  MECRA_CHECK_MSG(false,
                  "durability: expected per_record or per_window, got '" +
                      std::string(text) + "'");
}

std::string Durability::to_string() const {
  switch (policy) {
    case Policy::kPerRecord:
      return "per_record";
    case Policy::kPerGroup:
      return "per_window";
  }
  return "per_record";
}

Journal::Journal(std::string path, Mode mode, Durability durability)
    : path_(std::move(path)), durability_(durability) {
  if (mode == Mode::kContinue) {
    bool torn = false;
    std::uint64_t used = 0;
    {
      FrameWalker walker(path_);
      Frame frame;
      while (walker.next(frame)) next_seq_ = frame.seq + 1;
      torn = walker.torn_tail();
      used = walker.bytes_used();
    }
    if (torn) {
      // Drop the half-written frame so the next append starts a clean one.
      std::filesystem::resize_file(path_, used);
    }
    out_.open(path_, std::ios::binary | std::ios::app);
  } else {
    out_.open(path_, std::ios::binary | std::ios::trunc);
  }
  MECRA_CHECK_MSG(out_.is_open(), "journal: cannot open " + path_);
}

Journal::~Journal() {
  // Best effort: a pending group at destruction reaches the file like any
  // other flush, but failures (including an armed torn_write fault) are
  // swallowed — throwing from a destructor would terminate, and losing the
  // tail is exactly what the crash being simulated would do.
  try {
    flush_pending();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void Journal::set_durability(Durability durability) {
  flush_pending();
  durability_ = durability;
}

std::uint64_t Journal::append(std::string_view kind, double time,
                              io::Json data) {
  MECRA_CHECK_MSG(!wedged_, "journal is wedged after a torn write");
  MECRA_CHECK_MSG(
      std::all_of(kind.begin(), kind.end(),
                  [](char ch) {
                    return static_cast<unsigned char>(ch) >= 0x20 &&
                           ch != '"' && ch != '\\';
                  }),
      "journal: record kind must not need JSON escaping");
  // Hand-assembled record envelope, serialized straight into the reusable
  // scratch buffer. Building a JsonObject wrapper (five allocating inserts
  // plus the temporary dump() returns) costs more than the physical write
  // it frames; the io::dump_* building blocks produce output byte-identical
  // to that wrapper's dump (asserted in tests/journal_test.cpp). The typed
  // writers' data is already text (io::Json::raw), so dump_append copies
  // it: append only frames and checksums.
  std::string& payload = payload_scratch_;
  payload.clear();
  payload += "{\"v\":";
  io::dump_number_append(payload, kJournalFormatVersion);
  payload += ",\"seq\":";
  io::dump_number_append(payload, static_cast<double>(next_seq_));
  payload += ",\"t\":";
  io::dump_number_append(payload, time);
  payload += ",\"kind\":";
  io::dump_string_append(payload, kind);
  payload += ",\"data\":";
  data.dump_append(payload);
  payload += '}';
  MECRA_CHECK(payload.size() < 0xFFFFFFFFull);

  // Frame into the pending group. Frames are self-delimiting, so one
  // contiguous write of the group later is byte-identical to writing each
  // frame as it was appended.
  pending_frames_.push_back(pending_.size());
  pending_.reserve(pending_.size() + 8 + payload.size());
  put_u32_le(pending_, static_cast<std::uint32_t>(payload.size()));
  put_u32_le(pending_, journal_crc32(payload));
  pending_ += payload;

  const std::uint64_t seq = next_seq_++;
  switch (durability_.policy) {
    case Durability::Policy::kPerRecord:
      flush_pending();
      break;
    case Durability::Policy::kPerGroup:
      break;  // waits for an explicit flush()
  }
  return seq;
}

void Journal::flush() { flush_pending(); }

void Journal::flush_pending() {
  if (pending_.empty()) {
    return;
  }
  MECRA_CHECK_MSG(!wedged_, "journal is wedged after a torn write");

  if (MECRA_FAULT_POINT("journal.torn_write")) {
    // Crash mid-write: persist every complete frame before the buffer
    // midpoint plus half the payload of the frame containing it, wedge the
    // journal, and raise. scan_journal classifies the leftover as a torn
    // tail; recovery resumes from the last complete record. For a
    // single-record group this is the historical header-plus-half-payload
    // cut.
    if (obs::enabled()) {
      static obs::Counter& injected =
          obs::MetricsRegistry::global().counter("fault.injected");
      injected.add(1);
    }
    const std::size_t mid = pending_.size() / 2;
    std::size_t torn = 0;
    while (torn + 1 < pending_frames_.size() &&
           pending_frames_[torn + 1] <= mid) {
      ++torn;
    }
    const std::size_t start = pending_frames_[torn];
    const std::size_t end = torn + 1 < pending_frames_.size()
                                ? pending_frames_[torn + 1]
                                : pending_.size();
    const std::size_t cut = start + 8 + (end - start - 8) / 2;
    out_.write(pending_.data(), static_cast<std::streamsize>(cut));
    out_.flush();
    wedged_ = true;
    pending_.clear();
    pending_frames_.clear();
    throw util::InjectedFault("journal.torn_write");
  }

  out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
  out_.flush();
  MECRA_CHECK_MSG(out_.good(), "journal: write failed on " + path_);
  pending_.clear();
  pending_frames_.clear();
}

io::Json make_snapshot_record(const Orchestrator& orch,
                              const Controller& controller) {
  std::string out = R"({"network":)";
  // The network and catalog keep their one encoder (io/scenario_io.h).
  io::to_json(orch.network()).dump_append(out);
  out += R"(,"catalog":)";
  io::to_json(orch.catalog()).dump_append(out);
  out += R"(,"services":)";
  put_array(out, orch.services(), [&orch](std::string& o, ServiceId id) {
    put_service(o, orch.service(id));
  });
  out += R"(,"down":)";
  put_array(out, orch.down_cloudlets(), put_value<graph::NodeId>);
  put_member(out, R"(,"next_service":)", orch.next_service_id());
  put_member(out, R"(,"next_instance":)", orch.next_instance_id());
  put_member(out, R"(,"has_shard_map":)", orch.has_shard_map());
  out += R"(,"controller":)";
  put_controller_state(out, controller.state());
  out += '}';
  return io::Json::raw(std::move(out));
}

io::Json make_admit_record(const Orchestrator& orch, const Service& svc) {
  std::string out = R"({"service":)";
  put_service(out, svc);
  out += R"(,"residuals":)";
  const Service* const touched[] = {&svc};
  put_touched_residuals(out, orch.network(), touched);
  out += '}';
  return io::Json::raw(std::move(out));
}

io::Json make_batch_record(const Orchestrator& orch,
                           const std::vector<const Service*>& admitted) {
  // A streamed window's batch holds about 0.9 KB per service: one
  // allocation up front instead of a doubling chain of them.
  std::string out;
  out.reserve(64 + 1024 * admitted.size());
  out += R"({"services":)";
  put_array(out, admitted,
            [](std::string& o, const Service* svc) { put_service(o, *svc); });
  out += R"(,"residuals":)";
  put_touched_residuals(out, orch.network(), admitted);
  // Batches burn ids only for admitted requests, but recovery still resets
  // the counters explicitly so departed-then-crashed histories replay to
  // the same next ids.
  put_member(out, R"(,"next_service":)", orch.next_service_id());
  put_member(out, R"(,"next_instance":)", orch.next_instance_id());
  out += '}';
  return io::Json::raw(std::move(out));
}

io::Json make_teardown_record(ServiceId service) {
  std::string out;
  put_member(out, R"({"service":)", service);
  out += '}';
  return io::Json::raw(std::move(out));
}

std::uint64_t Journal::snapshot(const Orchestrator& orch,
                                const Controller& controller, double time) {
  return append(kJournalSnapshot, time, make_snapshot_record(orch, controller));
}

std::uint64_t Journal::admit(const Orchestrator& orch, const Service& svc,
                             double time) {
  return append(kJournalAdmit, time, make_admit_record(orch, svc));
}

std::uint64_t Journal::batch_commit(
    const Orchestrator& orch, const std::vector<const Service*>& admitted,
    double time) {
  return append(kJournalBatch, time, make_batch_record(orch, admitted));
}

std::uint64_t Journal::instance_failure(ServiceId service, InstanceId instance,
                                        double time) {
  std::string out;
  put_member(out, R"({"service":)", service);
  put_member(out, R"(,"instance":)", instance);
  out += '}';
  return append(kJournalInstanceFailure, time, io::Json::raw(std::move(out)));
}

std::uint64_t Journal::cloudlet_outage(graph::NodeId v, double time) {
  return append(kJournalCloudletOutage, time, cloudlet_record(v));
}

std::uint64_t Journal::repair(graph::NodeId v, double time) {
  return append(kJournalRepair, time, cloudlet_record(v));
}

std::uint64_t Journal::teardown(ServiceId service, double time) {
  return append(kJournalTeardown, time, make_teardown_record(service));
}

std::uint64_t Journal::reconcile_mark(double time) {
  return append(kJournalReconcile, time, io::Json::raw("{}"));
}

JournalScan scan_journal(const std::string& path) {
  JournalScan scan;
  FrameWalker walker(path);
  Frame frame;
  while (walker.next(frame)) {
    scan.records.push_back({.seq = frame.seq,
                            .time = frame.time,
                            .kind = std::string(frame.kind),
                            .body = parse_data(frame, path)});
  }
  scan.torn_tail = walker.torn_tail();
  scan.bytes_used = walker.bytes_used();
  return scan;
}

namespace {

/// Rebuilds the orchestrator + controller pair from a snapshot's data.
void restore_snapshot(Recovered& out, const io::JsonObject& s,
                      const RecoverOptions& options) {
  out.orch = std::make_unique<Orchestrator>(
      io::network_from_json(s.at("network")),
      io::catalog_from_json(s.at("catalog")), options.orchestrator);
  // Snapshot residuals already account for every installed instance, so
  // restores must not consume capacity a second time.
  for (const io::Json& svc : s.at("services").as_array()) {
    out.orch->restore_service(service_from_json(svc),
                              /*consume_capacity=*/false);
  }
  for (const io::Json& v : s.at("down").as_array()) {
    out.orch->restore_down_cloudlet(static_cast<graph::NodeId>(v.as_int()));
  }
  out.orch->set_id_counters(
      static_cast<ServiceId>(s.at("next_service").as_int()),
      static_cast<InstanceId>(s.at("next_instance").as_int()));
  if (s.at("has_shard_map").as_bool()) {
    // Reaugmentation candidate lists come from the shard map once it
    // exists; rebuild it so replayed reconciles see the same lists.
    out.orch->ensure_shard_map();
  }
  out.controller = std::make_unique<Controller>(*out.orch,
                                                options.controller);
  out.controller->restore(controller_state_from_json(s.at("controller")));
}

/// Applies one post-snapshot record to the recovering pair.
void apply_record(Recovered& out, std::string_view kind, double time,
                  const io::JsonObject& data) {
  if (kind == kJournalAdmit) {
    Service svc = service_from_json(data.at("service"));
    const ServiceId id = svc.id;
    // Effect replay: the record carries the exact post-admit residuals,
    // so the restore must not consume on top of them.
    out.orch->restore_service(std::move(svc), /*consume_capacity=*/false);
    apply_residuals(*out.orch, data.at("residuals"));
    out.controller->on_admit(id, time);
  } else if (kind == kJournalBatch) {
    for (const io::Json& sj : data.at("services").as_array()) {
      Service svc = service_from_json(sj);
      const ServiceId id = svc.id;
      out.orch->restore_service(std::move(svc), /*consume_capacity=*/false);
      out.controller->on_admit(id, time);
    }
    apply_residuals(*out.orch, data.at("residuals"));
    out.orch->set_id_counters(
        static_cast<ServiceId>(data.at("next_service").as_int()),
        static_cast<InstanceId>(data.at("next_instance").as_int()));
    // A batch commit implies the live run had built the shard map.
    out.orch->ensure_shard_map();
  } else if (kind == kJournalInstanceFailure) {
    const auto svc = static_cast<ServiceId>(data.at("service").as_int());
    (void)out.orch->fail_instance(
        svc, static_cast<InstanceId>(data.at("instance").as_int()));
    out.controller->on_instance_failed(svc, time);
  } else if (kind == kJournalCloudletOutage) {
    const auto v = static_cast<graph::NodeId>(data.at("cloudlet").as_int());
    out.orch->fail_cloudlet(v);
    out.controller->on_cloudlet_failed(v, time);
  } else if (kind == kJournalRepair) {
    out.orch->repair_cloudlet(
        static_cast<graph::NodeId>(data.at("cloudlet").as_int()));
  } else if (kind == kJournalTeardown) {
    const auto svc = static_cast<ServiceId>(data.at("service").as_int());
    out.orch->teardown(svc);
    out.controller->on_teardown(svc);
  } else if (kind == kJournalReconcile) {
    (void)out.controller->reconcile(time);
  } else {
    MECRA_CHECK_MSG(false,
                    "journal: unknown record kind " + std::string(kind));
  }
}

}  // namespace

Recovered recover(const std::string& path, const RecoverOptions& options) {
  // Pass 1: check every frame and find the last snapshot, parsing no JSON.
  Recovered out;
  std::uint64_t snap_offset = 0;
  std::uint64_t snap_seq = 0;
  bool snapshot = false;
  {
    FrameWalker walker(path);
    Frame frame;
    while (walker.next(frame)) {
      if (frame.kind == kJournalSnapshot) {
        snapshot = true;
        snap_offset = frame.offset;
        snap_seq = frame.seq;
      }
    }
    out.torn_tail = walker.torn_tail();
  }
  MECRA_CHECK_MSG(snapshot,
                  "journal recovery: no snapshot record in " + path);

  // Pass 2: restore that snapshot, then parse and apply the tail one
  // record at a time, so at most one tail record's tree is alive.
  FrameWalker walker(path, snap_offset, snap_seq);
  Frame frame;
  MECRA_CHECK(walker.next(frame) && frame.kind == kJournalSnapshot);
  restore_snapshot(out, parse_data(frame, path).as_object(), options);
  out.last_time = frame.time;
  out.last_seq = frame.seq;
  while (walker.next(frame)) {
    apply_record(out, frame.kind, frame.time,
                 parse_data(frame, path).as_object());
    ++out.replayed_events;
    out.last_time = frame.time;
    out.last_seq = frame.seq;
  }

  if (obs::enabled()) {
    static obs::Counter& replayed =
        obs::MetricsRegistry::global().counter("journal.replayed_events");
    replayed.add(out.replayed_events);
  }
  return out;
}

}  // namespace mecra::orchestrator
