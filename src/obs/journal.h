// Control-plane flight recorder: a fixed-capacity ring buffer of typed,
// timestamped events, each tagged with the *update id* of the BGP update
// that caused it (see DESIGN.md §7).
//
// Update ids are assigned monotonically (starting at 1) at the earliest
// point an update enters the control plane — BgpSession::SendToPeer for
// session-delivered updates, SdxRuntime::ApplyBgpUpdate for directly
// injected ones — and threaded through the pipeline as causal provenance:
// route-server decision, prefix-group construction, VNH binding, and every
// flow rule the update ultimately installs or deletes carry the same id.
// Id 0 (`kNoUpdateId`) marks background/ambient work: setup, bulk RIB
// loading, and full compiles (which are generation swaps, journaled as
// aggregate events rather than per-entity ones).
//
// The ambient id is carried on the journal itself (`current_update_id`):
// layers that record on behalf of whatever operation is in flight (the
// flow table, the route server) read it instead of taking an id parameter
// through every call. UpdateIdScope sets and restores it RAII-style.
//
// Overwrite semantics: when the ring is full the oldest event is silently
// overwritten — a flight recorder keeps the recent past, not history.
// Sequence numbers are never reused, so `TailSince(seq)` cursors detect
// loss: if the oldest retained seq is greater than the cursor, events were
// dropped in between (`overwritten()` counts them).
//
// Like the rest of src/obs this header is dependency-free (standard
// library only), and every helper accepts a null Journal* and becomes a
// no-op — the same convention as trace.h — so instrumented code paths need
// no conditionals and the disabled path costs one pointer test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/timer.h"

namespace sdx::obs {

// Causal provenance tag; 0 = background/ambient (no single causing update).
using UpdateId = std::uint64_t;
inline constexpr UpdateId kNoUpdateId = 0;

// Typed control-plane events. The arg0..arg2 payload meaning per type is
// the schema table in DESIGN.md §7; `detail` is a short human-readable
// fragment (prefix, VNH, rule text) that hot paths may leave empty.
enum class JournalEventType : std::uint8_t {
  kBgpSessionRx,        // update entered over a session (arg0=sender AS)
  kBgpSessionTx,        // re-advertisement left over a session (arg0=receiver)
  kBgpUpdateBegin,      // fast path entered (arg0=sender AS, arg1=is_announce)
  kBgpUpdateEnd,        // fast path done (arg0=rules added, arg1=best changed)
  kRsDecision,          // best route changed (arg0=receiver, arg1=new, arg2=old)
  kRsExportSuppressed,  // export policy hid a candidate (arg0=rcvr, arg1=annc)
  kFecGroupCreate,      // prefix group built (arg0=id, arg1=#pfx, arg2=#sets)
  kVnhBind,             // VNH bound (arg0=group id, arg1=vnh as u32)
  kCompileBegin,        // full compile started
  kCompileEnd,          // full compile done (arg0=groups, arg1=rules, arg2=µs)
  kFlowRuleInstall,     // one rule (arg0=switch, arg1=priority, arg2=cookie)
  kFlowRuleDelete,      // one rule (arg0=switch, arg1=priority, arg2=cookie)
  kFlowRulesBulk,       // aggregate install (arg0=switch, arg1=count)
  kFlowRulesRetire,     // aggregate removal (arg0=switch, arg1=count, arg2=ck)
  kBatchBegin,          // batch drain started (arg0=raw, arg1=applied,
                        // arg2=coalesced away)
  kBatchEnd,            // batch done (arg0=prefixes changed, arg1=rules, arg2=µs)
  kUpdateCoalesced,     // update superseded pre-decision by a later one for
                        // the same (peer, prefix); update_id = the LOSER's
                        // provenance id (arg0=winning id, detail=prefix), so
                        // `sdxmon chain <loser>` still explains its fate
  kCompileOptionsChanged,  // SetCompileOptions (arg0/arg1 = new/old packed
                           // {parallel, incremental} bits, arg2 = new threads)
  kUpdateEnqueued,         // update entered the batch queue directly (no
                           // session hop); arg0=sender AS, arg1=is_announce,
                           // detail=prefix. The ingest stamp ConvergenceTracker
                           // measures queue-wait from.
  kRuntimeOptionsChanged,   // SdxRuntime::Configure (arg0/arg1 = new/old
                            // packed {compile.parallel, compile.incremental
                            // <<1, encoded_vmacs<<3, linear_backend<<4}; bit
                            // 2 is unused; arg2 = new batch window)
  kTelemetryOptionsChanged,  // ConfigureTelemetry (arg0/arg1 = new/old packed
                             // {journal, flow<<1, convergence<<2,
                             // timeseries<<3} enabled bits, arg2 = journal
                             // capacity)
};

// Stable wire name ("rs_decision") used by the JSONL export and sdxmon.
const char* JournalEventTypeName(JournalEventType type);
// Reverse lookup; false when `name` is not a known type.
bool JournalEventTypeFromName(const std::string& name, JournalEventType* out);

struct JournalEvent {
  std::uint64_t seq = 0;        // monotonic, never reused
  double seconds = 0.0;         // since the journal's construction
  UpdateId update_id = kNoUpdateId;
  JournalEventType type = JournalEventType::kBgpSessionRx;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint64_t arg2 = 0;
  std::string detail;
};

class Journal {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit Journal(std::size_t capacity = kDefaultCapacity);

  // Monotonic provenance ids, starting at 1 (0 is reserved for "none").
  UpdateId NextUpdateId() { return next_update_id_++; }

  // The ambient update id recorders fall back to when the triggering
  // message carries none. Managed by UpdateIdScope in normal use.
  UpdateId current_update_id() const { return current_update_id_; }
  void set_current_update_id(UpdateId id) { current_update_id_ = id; }

  void Record(JournalEventType type, UpdateId update_id,
              std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
              std::uint64_t arg2 = 0, std::string detail = {});

  // The clock every event timestamp comes from. Exposed so (a) tests can
  // inject a manual clock (`journal.clock().SetClockForTest(...)`) and make
  // flap windows / convergence latencies deterministic, and (b) consumers
  // that relate "now" to event timestamps (ConvergenceTracker) read the
  // same epoch the events were stamped against.
  ClockSource& clock() { return clock_; }
  const ClockSource& clock() const { return clock_; }
  double NowSeconds() const { return clock_.NowSeconds(); }

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const;                 // events currently retained
  bool empty() const { return size() == 0; }
  std::uint64_t total_recorded() const { return total_; }
  // Events recorded but no longer retained (ring overwrite or Clear()).
  std::uint64_t overwritten() const { return total_ - size(); }
  // Seq of the oldest retained event; equals next_seq() when empty.
  std::uint64_t oldest_seq() const;
  std::uint64_t next_seq() const { return total_; }

  // All retained events, oldest first.
  std::vector<JournalEvent> Events() const { return TailSince(0); }

  // Incremental-read cursor: retained events with seq >= `since_seq`,
  // oldest first. Resume with `since_seq = last.seq + 1` (or next_seq());
  // a gap between `since_seq` and the first returned seq means the ring
  // overwrote events in between.
  std::vector<JournalEvent> TailSince(std::uint64_t since_seq) const;

  // Drops all retained events; seq numbering and update ids continue.
  void Clear();

  // One JSON object per line, oldest first:
  //   {"seq":N,"ts":S,"update":U,"type":"name","args":[a0,a1,a2],
  //    "detail":"..."}
  std::string ToJsonl() const;
  static std::string ToJsonl(const std::vector<JournalEvent>& events);
  // Parses ToJsonl() output (blank lines ignored); throws
  // std::runtime_error on malformed lines or unknown event types.
  static std::vector<JournalEvent> FromJsonl(const std::string& text);

 private:
  std::vector<JournalEvent> ring_;      // slot = seq % capacity
  std::uint64_t total_ = 0;             // events ever recorded
  std::uint64_t cleared_below_ = 0;     // Clear() forgets seqs below this
  UpdateId next_update_id_ = 1;
  UpdateId current_update_id_ = kNoUpdateId;
  ClockSource clock_;
};

// RAII ambient-update-id scope: sets the journal's current id, restores
// the previous one on destruction. Null journal → no-op.
class UpdateIdScope {
 public:
  UpdateIdScope(Journal* journal, UpdateId id) : journal_(journal) {
    if (journal_ != nullptr) {
      previous_ = journal_->current_update_id();
      journal_->set_current_update_id(id);
    }
  }
  ~UpdateIdScope() {
    if (journal_ != nullptr) journal_->set_current_update_id(previous_);
  }

  UpdateIdScope(const UpdateIdScope&) = delete;
  UpdateIdScope& operator=(const UpdateIdScope&) = delete;

 private:
  Journal* journal_ = nullptr;
  UpdateId previous_ = kNoUpdateId;
};

// Null-safe record helper, mirroring the TraceSpan convention.
inline void JournalRecord(Journal* journal, JournalEventType type,
                          UpdateId update_id, std::uint64_t arg0 = 0,
                          std::uint64_t arg1 = 0, std::uint64_t arg2 = 0,
                          std::string detail = {}) {
  if (journal != nullptr) {
    journal->Record(type, update_id, arg0, arg1, arg2, std::move(detail));
  }
}

}  // namespace sdx::obs
