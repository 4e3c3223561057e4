#include "obs/journal.h"

#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace sdx::obs {

namespace {

struct TypeName {
  JournalEventType type;
  const char* name;
};

constexpr TypeName kTypeNames[] = {
    {JournalEventType::kBgpSessionRx, "bgp_session_rx"},
    {JournalEventType::kBgpSessionTx, "bgp_session_tx"},
    {JournalEventType::kBgpUpdateBegin, "bgp_update_begin"},
    {JournalEventType::kBgpUpdateEnd, "bgp_update_end"},
    {JournalEventType::kRsDecision, "rs_decision"},
    {JournalEventType::kRsExportSuppressed, "rs_export_suppressed"},
    {JournalEventType::kFecGroupCreate, "fec_group_create"},
    {JournalEventType::kVnhBind, "vnh_bind"},
    {JournalEventType::kCompileBegin, "compile_begin"},
    {JournalEventType::kCompileEnd, "compile_end"},
    {JournalEventType::kFlowRuleInstall, "flow_rule_install"},
    {JournalEventType::kFlowRuleDelete, "flow_rule_delete"},
    {JournalEventType::kFlowRulesBulk, "flow_rules_bulk"},
    {JournalEventType::kFlowRulesRetire, "flow_rules_retire"},
    {JournalEventType::kBatchBegin, "batch_begin"},
    {JournalEventType::kBatchEnd, "batch_end"},
    {JournalEventType::kUpdateCoalesced, "update_coalesced"},
    {JournalEventType::kCompileOptionsChanged, "compile_options_changed"},
    {JournalEventType::kUpdateEnqueued, "update_enqueued"},
    {JournalEventType::kRuntimeOptionsChanged, "runtime_options_changed"},
    {JournalEventType::kTelemetryOptionsChanged, "telemetry_options_changed"},
};

}  // namespace

const char* JournalEventTypeName(JournalEventType type) {
  for (const TypeName& entry : kTypeNames) {
    if (entry.type == type) return entry.name;
  }
  return "unknown";
}

bool JournalEventTypeFromName(const std::string& name,
                              JournalEventType* out) {
  for (const TypeName& entry : kTypeNames) {
    if (name == entry.name) {
      *out = entry.type;
      return true;
    }
  }
  return false;
}

Journal::Journal(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void Journal::Record(JournalEventType type, UpdateId update_id,
                     std::uint64_t arg0, std::uint64_t arg1,
                     std::uint64_t arg2, std::string detail) {
  JournalEvent& slot = ring_[total_ % ring_.size()];
  slot.seq = total_;
  slot.seconds = clock_.NowSeconds();
  slot.update_id = update_id;
  slot.type = type;
  slot.arg0 = arg0;
  slot.arg1 = arg1;
  slot.arg2 = arg2;
  slot.detail = std::move(detail);
  ++total_;
}

std::uint64_t Journal::oldest_seq() const {
  const std::uint64_t ring_floor =
      total_ < ring_.size() ? 0 : total_ - ring_.size();
  return cleared_below_ > ring_floor ? cleared_below_ : ring_floor;
}

std::size_t Journal::size() const {
  return static_cast<std::size_t>(total_ - oldest_seq());
}

std::vector<JournalEvent> Journal::TailSince(std::uint64_t since_seq) const {
  std::vector<JournalEvent> out;
  const std::uint64_t first = since_seq < oldest_seq() ? oldest_seq()
                                                       : since_seq;
  if (first >= total_) return out;
  out.reserve(static_cast<std::size_t>(total_ - first));
  for (std::uint64_t seq = first; seq < total_; ++seq) {
    out.push_back(ring_[seq % ring_.size()]);
  }
  return out;
}

void Journal::Clear() {
  // Forget the retained window; seq numbering and update ids continue, so
  // TailSince cursors held across a Clear() observe a gap, not a rewind.
  cleared_below_ = total_;
}

std::string Journal::ToJsonl() const { return ToJsonl(TailSince(0)); }

std::string Journal::ToJsonl(const std::vector<JournalEvent>& events) {
  std::ostringstream os;
  for (const JournalEvent& event : events) {
    os << "{\"seq\": " << event.seq
       << ", \"ts\": " << json::Number(event.seconds)
       << ", \"update\": " << event.update_id << ", \"type\": "
       << json::Quote(JournalEventTypeName(event.type)) << ", \"args\": ["
       << event.arg0 << ", " << event.arg1 << ", " << event.arg2
       << "], \"detail\": " << json::Quote(event.detail) << "}\n";
  }
  return os.str();
}

std::vector<JournalEvent> Journal::FromJsonl(const std::string& text) {
  std::vector<JournalEvent> out;
  std::size_t line_start = 0;
  std::size_t line_number = 0;
  while (line_start < text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    ++line_number;
    const std::string line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    json::Value v;
    try {
      v = json::Parse(line);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("journal line " + std::to_string(line_number) +
                               ": " + e.what());
    }
    if (!v.is_object()) {
      throw std::runtime_error("journal line " + std::to_string(line_number) +
                               ": not a JSON object");
    }
    JournalEvent event;
    event.seq = static_cast<std::uint64_t>(v.NumberAt("seq"));
    event.seconds = v.NumberAt("ts");
    event.update_id = static_cast<UpdateId>(v.NumberAt("update"));
    const std::string type_name = v.StringAt("type");
    if (!JournalEventTypeFromName(type_name, &event.type)) {
      throw std::runtime_error("journal line " + std::to_string(line_number) +
                               ": unknown event type '" + type_name + "'");
    }
    if (const json::Value* args = v.Find("args");
        args != nullptr && args->is_array()) {
      const auto arg = [&](std::size_t i) {
        return i < args->array.size() && args->array[i].is_number()
                   ? static_cast<std::uint64_t>(args->array[i].number)
                   : std::uint64_t{0};
      };
      event.arg0 = arg(0);
      event.arg1 = arg(1);
      event.arg2 = arg(2);
    }
    event.detail = v.StringAt("detail");
    out.push_back(std::move(event));
  }
  return out;
}

}  // namespace sdx::obs
