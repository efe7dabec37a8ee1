#include "orchestrator/journal.h"

#include <array>
#include <filesystem>
#include <iterator>
#include <set>
#include <utility>

#include "io/scenario_io.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/faultpoint.h"

namespace mecra::orchestrator {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  return table;
}

io::Json instance_to_json(const Instance& inst) {
  // Ids round-trip through double; anything near 2^53 (in particular the
  // orchestrator's pending-id sentinel) must never reach a record.
  MECRA_CHECK_MSG(inst.id < (1ULL << 53),
                  "journal: instance id too large to serialize");
  io::JsonObject o;
  o.set("id", io::Json(inst.id));
  o.set("pos", io::Json(inst.chain_pos));
  o.set("cloudlet", io::Json(inst.cloudlet));
  o.set("role", io::Json(static_cast<int>(inst.role)));
  o.set("state", io::Json(static_cast<int>(inst.state)));
  return {std::move(o)};
}

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

io::Json service_to_json(const Service& svc) {
  MECRA_CHECK_MSG(svc.id < (1ULL << 53),
                  "journal: service id too large to serialize");
  io::JsonObject o;
  o.set("id", io::Json(svc.id));
  o.set("request", io::to_json(svc.request));
  o.set("state", io::Json(static_cast<int>(svc.state)));
  io::JsonArray instances;
  instances.reserve(svc.instances.size());
  for (const Instance& inst : svc.instances) {
    instances.push_back(instance_to_json(inst));
  }
  o.set("instances", io::Json(std::move(instances)));
  return {std::move(o)};
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

io::Json controller_state_to_json(const ControllerState& state) {
  io::JsonObject o;
  io::JsonArray tracked;
  tracked.reserve(state.tracked.size());
  for (const ControllerState::Entry& entry : state.tracked) {
    io::JsonObject e;
    e.set("service", io::Json(entry.service));
    e.set("dirty", io::Json(entry.dirty));
    e.set("not_before", io::Json(entry.not_before));
    e.set("backoff", io::Json(entry.backoff));
    tracked.push_back(io::Json(std::move(e)));
  }
  o.set("tracked", io::Json(std::move(tracked)));
  io::JsonArray repairs;
  repairs.reserve(state.repair_queue.size());
  for (const auto& [due, v] : state.repair_queue) {
    io::JsonArray pair;
    pair.push_back(io::Json(due));
    pair.push_back(io::Json(v));
    repairs.push_back(io::Json(std::move(pair)));
  }
  o.set("repair_queue", io::Json(std::move(repairs)));
  o.set("next_batch", io::Json(state.next_batch));
  o.set("last_now", io::Json(state.last_now));
  io::JsonObject m;
  m.set("repairs", io::Json(state.metrics.repairs));
  m.set("reaugment_attempts", io::Json(state.metrics.reaugment_attempts));
  m.set("reaugment_successes", io::Json(state.metrics.reaugment_successes));
  m.set("reaugment_failures", io::Json(state.metrics.reaugment_failures));
  m.set("standbys_added", io::Json(state.metrics.standbys_added));
  m.set("revivals", io::Json(state.metrics.revivals));
  o.set("metrics", io::Json(std::move(m)));
  return {std::move(o)};
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

/// Post-event residuals of every cloudlet hosting an instance of the given
/// services, ascending node id, as [[node, residual], ...]. Replay
/// installs these verbatim (see the file comment on why the consume
/// arithmetic is not replayed).
io::Json touched_residuals(const mec::MecNetwork& network,
                           const std::vector<const Service*>& services) {
  std::set<graph::NodeId> nodes;
  for (const Service* svc : services) {
    for (const Instance& inst : svc->instances) nodes.insert(inst.cloudlet);
  }
  // Assigned into pre-sized slots rather than push_back'd: moving Json
  // temporaries through vector growth trips a gcc-12 std::variant
  // -Wmaybe-uninitialized false positive under -O2.
  io::JsonArray arr(nodes.size());
  std::size_t i = 0;
  for (const graph::NodeId v : nodes) {
    io::JsonArray pair(2);
    pair[0] = io::Json(v);
    pair[1] = io::Json(network.residual(v));
    arr[i++] = io::Json(std::move(pair));
  }
  return io::Json(std::move(arr));
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

std::uint32_t get_u32_le(const std::string& bytes, std::size_t at) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at])) |
         (static_cast<std::uint32_t>(
              static_cast<unsigned char>(bytes[at + 1]))
          << 8) |
         (static_cast<std::uint32_t>(
              static_cast<unsigned char>(bytes[at + 2]))
          << 16) |
         (static_cast<std::uint32_t>(
              static_cast<unsigned char>(bytes[at + 3]))
          << 24);
}

}  // namespace

std::uint32_t journal_crc32(std::string_view bytes) {
  static constexpr std::array<std::uint32_t, 256> kTable = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    crc = kTable[(crc ^ static_cast<unsigned char>(c)) & 0xffu] ^ (crc >> 8);
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
    const JournalScan scan = scan_journal(path_);
    if (scan.torn_tail) {
      // Drop the half-written frame so the next append starts a clean one.
      std::filesystem::resize_file(path_, scan.bytes_used);
    }
    next_seq_ = scan.records.empty() ? 0 : scan.records.back().seq + 1;
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
  // Hand-assembled record envelope, serialized straight into the reusable
  // scratch buffer. Building a JsonObject wrapper (five allocating inserts
  // plus the temporary dump() returns) costs more than the physical write
  // it frames; the io::dump_* building blocks produce output byte-identical
  // to that wrapper's dump (asserted in tests/journal_test.cpp).
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
  io::JsonObject data;
  data.set("network", io::to_json(orch.network()));
  data.set("catalog", io::to_json(orch.catalog()));
  io::JsonArray services;
  for (const ServiceId id : orch.services()) {
    services.push_back(service_to_json(orch.service(id)));
  }
  data.set("services", io::Json(std::move(services)));
  io::JsonArray down;
  for (const graph::NodeId v : orch.down_cloudlets()) {
    down.push_back(io::Json(v));
  }
  data.set("down", io::Json(std::move(down)));
  data.set("next_service", io::Json(orch.next_service_id()));
  data.set("next_instance", io::Json(orch.next_instance_id()));
  data.set("has_shard_map", io::Json(orch.has_shard_map()));
  data.set("controller", controller_state_to_json(controller.state()));
  return io::Json(std::move(data));
}

io::Json make_admit_record(const Orchestrator& orch, const Service& svc) {
  io::JsonObject data;
  data.set("service", service_to_json(svc));
  data.set("residuals", touched_residuals(orch.network(), {&svc}));
  return io::Json(std::move(data));
}

io::Json make_batch_record(const Orchestrator& orch,
                           const std::vector<const Service*>& admitted) {
  io::JsonObject data;
  io::JsonArray services;
  services.reserve(admitted.size());
  for (const Service* svc : admitted) {
    services.push_back(service_to_json(*svc));
  }
  data.set("services", io::Json(std::move(services)));
  data.set("residuals", touched_residuals(orch.network(), admitted));
  // Batches burn ids only for admitted requests, but recovery still resets
  // the counters explicitly so departed-then-crashed histories replay to
  // the same next ids.
  data.set("next_service", io::Json(orch.next_service_id()));
  data.set("next_instance", io::Json(orch.next_instance_id()));
  return io::Json(std::move(data));
}

io::Json make_teardown_record(ServiceId service) {
  io::JsonObject data;
  data.set("service", io::Json(service));
  return io::Json(std::move(data));
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
  io::JsonObject data;
  data.set("service", io::Json(service));
  data.set("instance", io::Json(instance));
  return append(kJournalInstanceFailure, time, io::Json(std::move(data)));
}

std::uint64_t Journal::cloudlet_outage(graph::NodeId v, double time) {
  io::JsonObject data;
  data.set("cloudlet", io::Json(v));
  return append(kJournalCloudletOutage, time, io::Json(std::move(data)));
}

std::uint64_t Journal::repair(graph::NodeId v, double time) {
  io::JsonObject data;
  data.set("cloudlet", io::Json(v));
  return append(kJournalRepair, time, io::Json(std::move(data)));
}

std::uint64_t Journal::teardown(ServiceId service, double time) {
  return append(kJournalTeardown, time, make_teardown_record(service));
}

std::uint64_t Journal::reconcile_mark(double time) {
  return append(kJournalReconcile, time, io::Json(io::JsonObject{}));
}

JournalScan scan_journal(const std::string& path) {
  JournalScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return scan;  // absent file == empty journal
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::size_t pos = 0;
  std::uint64_t expected_seq = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {
      scan.torn_tail = true;  // crash inside a frame header
      break;
    }
    const std::uint32_t len = get_u32_le(bytes, pos);
    const std::uint32_t crc = get_u32_le(bytes, pos + 4);
    if (bytes.size() - pos - 8 < len) {
      scan.torn_tail = true;  // crash inside the payload
      break;
    }
    const std::string payload = bytes.substr(pos + 8, len);
    if (journal_crc32(payload) != crc) {
      // A bad checksum on the FINAL frame is a torn write (the length
      // header landed but the payload did not finish); anywhere else it is
      // silent corruption and must not be skipped over.
      MECRA_CHECK_MSG(
          pos + 8 + len == bytes.size(),
          "journal corrupt: checksum mismatch mid-file at offset " +
              std::to_string(pos) + " of " + path);
      scan.torn_tail = true;
      break;
    }
    JournalRecord rec;
    rec.payload = io::Json::parse(payload);
    const io::JsonObject& obj = rec.payload.as_object();
    MECRA_CHECK_MSG(obj.at("v").as_int() == kJournalFormatVersion,
                    "journal: unsupported format version in " + path);
    rec.seq = static_cast<std::uint64_t>(obj.at("seq").as_int());
    rec.time = obj.at("t").as_double();
    rec.kind = obj.at("kind").as_string();
    MECRA_CHECK_MSG(rec.seq == expected_seq,
                    "journal corrupt: sequence gap at offset " +
                        std::to_string(pos) + " of " + path);
    ++expected_seq;
    scan.records.push_back(std::move(rec));
    pos += 8 + len;
    scan.bytes_used = pos;
  }
  return scan;
}

Recovered recover(const std::string& path, const RecoverOptions& options) {
  const JournalScan scan = scan_journal(path);
  MECRA_CHECK_MSG(!scan.records.empty(),
                  "journal recovery: no complete records in " + path);
  std::size_t snap_index = scan.records.size();
  for (std::size_t i = scan.records.size(); i-- > 0;) {
    if (scan.records[i].kind == kJournalSnapshot) {
      snap_index = i;
      break;
    }
  }
  MECRA_CHECK_MSG(snap_index < scan.records.size(),
                  "journal recovery: no snapshot record in " + path);

  const JournalRecord& snap = scan.records[snap_index];
  const io::JsonObject& s = snap.data().as_object();
  Recovered out;
  out.torn_tail = scan.torn_tail;
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
  out.last_time = snap.time;
  out.last_seq = snap.seq;

  for (std::size_t i = snap_index + 1; i < scan.records.size(); ++i) {
    const JournalRecord& rec = scan.records[i];
    const io::JsonObject& data = rec.data().as_object();
    if (rec.kind == kJournalAdmit) {
      Service svc = service_from_json(data.at("service"));
      const ServiceId id = svc.id;
      // Effect replay: the record carries the exact post-admit residuals,
      // so the restore must not consume on top of them.
      out.orch->restore_service(std::move(svc), /*consume_capacity=*/false);
      apply_residuals(*out.orch, data.at("residuals"));
      out.controller->on_admit(id, rec.time);
    } else if (rec.kind == kJournalBatch) {
      for (const io::Json& sj : data.at("services").as_array()) {
        Service svc = service_from_json(sj);
        const ServiceId id = svc.id;
        out.orch->restore_service(std::move(svc),
                                  /*consume_capacity=*/false);
        out.controller->on_admit(id, rec.time);
      }
      apply_residuals(*out.orch, data.at("residuals"));
      out.orch->set_id_counters(
          static_cast<ServiceId>(data.at("next_service").as_int()),
          static_cast<InstanceId>(data.at("next_instance").as_int()));
      // A batch commit implies the live run had built the shard map.
      out.orch->ensure_shard_map();
    } else if (rec.kind == kJournalInstanceFailure) {
      const auto svc = static_cast<ServiceId>(data.at("service").as_int());
      (void)out.orch->fail_instance(
          svc, static_cast<InstanceId>(data.at("instance").as_int()));
      out.controller->on_instance_failed(svc, rec.time);
    } else if (rec.kind == kJournalCloudletOutage) {
      const auto v = static_cast<graph::NodeId>(data.at("cloudlet").as_int());
      out.orch->fail_cloudlet(v);
      out.controller->on_cloudlet_failed(v, rec.time);
    } else if (rec.kind == kJournalRepair) {
      out.orch->repair_cloudlet(
          static_cast<graph::NodeId>(data.at("cloudlet").as_int()));
    } else if (rec.kind == kJournalTeardown) {
      const auto svc = static_cast<ServiceId>(data.at("service").as_int());
      out.orch->teardown(svc);
      out.controller->on_teardown(svc);
    } else if (rec.kind == kJournalReconcile) {
      (void)out.controller->reconcile(rec.time);
    } else {
      MECRA_CHECK_MSG(false, "journal: unknown record kind " + rec.kind);
    }
    ++out.replayed_events;
    out.last_time = rec.time;
    out.last_seq = rec.seq;
  }

  if (obs::enabled()) {
    static obs::Counter& replayed =
        obs::MetricsRegistry::global().counter("journal.replayed_events");
    replayed.add(out.replayed_events);
  }
  return out;
}

}  // namespace mecra::orchestrator
