// The SDX runtime: the controller that ties everything together (§5.1).
//
// Owns the route server, the fabric data plane, the ARP responder, the
// participant registry (policies + border-router models), the FEC/VNH
// machinery, and the two-stage compilation pipeline:
//
//   * FullCompile()      — recompute FECs, allocate VNHs, re-advertise
//                          next hops (rebuild border-router FIBs + ARP),
//                          compose all policies, install one generation of
//                          flow rules, retire the previous generation and
//                          any fast-path rules. The paper's "optimal"
//                          compilation.
//   * ApplyUpdates()     — the unified control-plane ingest API (DESIGN.md
//                          §9): absorb a burst of BGP updates, coalesce
//                          per (peer, prefix) last-writer-wins, run every
//                          survivor through the decision process in one
//                          pass, then do a SINGLE §4.3.2 incremental
//                          compile + rule install + FIB/VNH re-advertise
//                          flush for all changed prefixes. EnqueueUpdate/
//                          Flush/SetBatchWindow expose the same pipeline
//                          as a standing queue with an auto-flush knob.
//   * ApplyBgpUpdate()   — one-update convenience wrapper: a batch of one
//                          through the same pipeline. Sub-second by design.
//
// Fast-path singletons accumulated by either ingest path are re-coalesced
// into minimal tables by the next FullCompile() (the background pass of
// §4.3.2).
//
// Traffic enters through InjectFromParticipant(), which models the
// participant's unmodified border router: FIB longest-prefix match, ARP
// resolution of the (virtual) next hop, MAC tagging, then the fabric.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "bgp/update_queue.h"
#include "dataplane/arp.h"
#include "dataplane/switch.h"
#include "obs/convergence.h"
#include "obs/drop_reason.h"
#include "obs/flow_recorder.h"
#include "obs/health.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sharded.h"
#include "obs/sinks.h"
#include "obs/telemetry_options.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "policy/cache.h"
#include "rs/route_server.h"
#include "sdx/composer.h"
#include "sdx/fec.h"
#include "sdx/group_table.h"
#include "sdx/options.h"
#include "sdx/participant.h"
#include "sdx/reach.h"
#include "sdx/vnh.h"
#include "sdx/vswitch.h"
#include "util/thread_pool.h"

namespace sdx::core {

struct CompileStats {
  std::size_t prefix_group_count = 0;
  std::size_t flow_rule_count = 0;
  std::size_t override_rule_count = 0;
  std::size_t default_rule_count = 0;
  std::size_t vnh_count = 0;
  // Whether this compile took the incremental path (dirty-tracking state
  // was valid), and how the composer's block compilations split between
  // memo reuse and recompilation.
  bool incremental = false;
  std::size_t blocks_total = 0;
  std::size_t blocks_reused = 0;
  std::size_t blocks_recompiled = 0;
  double seconds = 0.0;
  // Per-stage breakdown of this compilation, in start order (pre-order of
  // the span tree): recompute_groups{fec_compute, vnh_allocation},
  // readvertise_routes, policy_composition{inbound_blocks, override_blocks,
  // default_blocks, finalize_classifier}, rule_install.
  std::vector<obs::SpanRecord> stages;
};

struct UpdateStats {
  bool best_route_changed = false;
  std::size_t rules_added = 0;
  double seconds = 0.0;
  // §4.3.2 fast-path stages: rib_update, group_construction, slice_compile,
  // rule_install, readvertise (absent when the update changed no best
  // route).
  std::vector<obs::SpanRecord> stages;
};

// What happened to one prefix a drained batch touched (per applied update
// that survived coalescing). SessionFrontend uses these to re-advertise
// each changed prefix under the provenance id that caused the change.
struct BatchOutcome {
  net::IPv4Prefix prefix;
  obs::UpdateId cause_id = obs::kNoUpdateId;  // the applied update's id
  bool best_route_changed = false;
};

// One drained batch through the burst pipeline (DESIGN.md §9).
struct BatchStats {
  std::size_t updates_in = 0;         // raw updates offered to the batch
  std::size_t updates_applied = 0;    // survivors after coalescing
  std::size_t updates_coalesced = 0;  // absorbed by last-writer-wins
  std::size_t prefixes_changed = 0;   // distinct prefixes with a new best
  std::size_t rules_added = 0;        // fast-path rules installed
  // False when no best route changed anywhere: the compile/install/
  // readvertise stages were skipped entirely.
  bool compiled = false;
  double seconds = 0.0;
  // Batch stages, pre-order: rib_update, then (when compiled)
  // group_construction, slice_compile, rule_install, readvertise.
  std::vector<obs::SpanRecord> stages;
  // One entry per applied update, in drain order.
  std::vector<BatchOutcome> outcomes;
  // Always false: the decision pass is sequential (DESIGN.md §13). Kept
  // because perfbench's batch.decision_parallel_share still reads it.
  bool decision_parallel = false;
};

// Per-participant traffic totals derived from the fabric's port counters
// (operator monitoring: who sends/receives how much through the SDX).
struct ParticipantTraffic {
  std::uint64_t sent_packets = 0;      // entered the fabric from its ports
  std::uint64_t sent_bytes = 0;
  std::uint64_t received_packets = 0;  // delivered out of its ports
  std::uint64_t received_bytes = 0;
};

class SdxRuntime {
 public:
  SdxRuntime();

  // --- Setup --------------------------------------------------------------
  // Registers a participant with `physical_ports` fabric attachments (0 =
  // remote participant). Returns the participant for policy configuration.
  Participant& AddParticipant(AsNumber as, int physical_ports);

  // Both setters validate eagerly and throw std::invalid_argument with a
  // descriptive message on: unknown participant, clause targeting an
  // unknown participant or itself, ports that do not exist on the named
  // participant, remote participants without a hosting `via`, or chain
  // hops through nonexistent ports. Policies take effect at the next
  // FullCompile().
  void SetOutboundPolicy(AsNumber as, std::vector<OutboundClause> clauses);
  void SetInboundPolicy(AsNumber as, std::vector<InboundClause> clauses);

  // Announces `prefix` from `as` into the route server WITHOUT triggering
  // the fast path (bulk RIB loading; call FullCompile afterwards). The
  // AS path defaults to {as}; next hop is the participant's router address.
  void AnnouncePrefix(AsNumber as, const net::IPv4Prefix& prefix,
                      std::vector<bgp::AsNumber> as_path = {});

  // The router address the runtime assigned to a participant (used as the
  // real BGP next hop for its announcements).
  net::IPv4Address RouterIp(AsNumber as) const;

  // --- Compilation ----------------------------------------------------------
  CompileStats FullCompile();
  UpdateStats ApplyBgpUpdate(const bgp::BgpUpdate& update);

  // --- Batched ingest (DESIGN.md §9) -------------------------------------
  // Absorbs `updates` (plus anything already pending via EnqueueUpdate)
  // into one batch: coalesce per (peer, prefix) last-writer-wins, apply
  // every survivor to the route server, then run ONE fast-path compile +
  // rule install + re-advertise flush covering all changed prefixes.
  // Behavior-equivalent to replaying the same updates one at a time
  // through ApplyBgpUpdate (tests/oracle), at a fraction of the cost on
  // flap-heavy bursts.
  BatchStats ApplyUpdates(std::span<const bgp::BgpUpdate> updates);

  // Queues one update without draining. Returns true when reaching the
  // batch window auto-flushed the queue (inspect last_batch() for stats).
  bool EnqueueUpdate(bgp::BgpUpdate update);

  // Drains and applies everything pending; no-op (all-zero stats) when the
  // queue is empty.
  BatchStats Flush();

  // --- Runtime options (the consolidated knob surface) --------------------
  // Applies the whole RuntimeOptions value atomically: compile options,
  // batch window, data-plane backend, and VMAC encoding. Returns the
  // previous options and journals a runtime_options_changed event; compile
  // option changes additionally keep their own compile_options_changed
  // event and side effects.
  // The VMAC encoding takes effect at the next FullCompile().
  RuntimeOptions Configure(const RuntimeOptions& options);

  // The current consolidated options (what Configure would return).
  RuntimeOptions runtime_options() const {
    RuntimeOptions out;
    out.compile = options_;
    out.batch_window = batch_window_;
    out.backend = data_plane_.table().backend();
    out.vmac_encoding = vmac_encoding_;
    return out;
  }

  // The configured encoding mode, and what kAuto currently resolves to
  // (consults SDX_VMAC_ENCODING; see sdx/reach.h).
  VmacEncoding vmac_encoding() const { return vmac_encoding_; }
  VmacEncoding ResolvedVmacEncoding() const;
  // Whether the LAST FullCompile used the encoded mode (what the installed
  // rules and ARP answers currently speak).
  bool encoded_vmacs_active() const { return encoded_active_; }
  // The participant roster numbering of the last FullCompile (encoded-mode
  // next-hop index space).
  const Roster& roster() const { return roster_; }

  // DEPRECATED: use Configure(). Auto-flush threshold for EnqueueUpdate,
  // counted in raw (pre-coalesce) updates. 0 (the default) means only an
  // explicit Flush()/ApplyUpdates() drains the queue.
  void SetBatchWindow(std::size_t max_pending) {
    RuntimeOptions options = runtime_options();
    options.batch_window = max_pending;
    Configure(options);
  }
  std::size_t batch_window() const { return batch_window_; }

  // Raw updates currently queued (pre-coalesce count).
  std::size_t pending_updates() const { return queue_.pending_updates(); }

  // Stats of the most recent drained batch (EnqueueUpdate auto-flushes
  // included).
  const BatchStats& last_batch() const { return last_batch_; }

  // DEPRECATED: use Configure(). Takes effect at the next FullCompile().
  // Turning `incremental` off also drops all dirty-tracking state, so the
  // next compile is from scratch. Returns the previous options and journals
  // a compile_options_changed event, so option flips are auditable next to
  // the compiles they affect.
  CompileOptions SetCompileOptions(const CompileOptions& options);
  const CompileOptions& compile_options() const { return options_; }

  // --- Traffic ---------------------------------------------------------------
  // Border-router model: FIB lookup + ARP + tag, then the fabric. Empty
  // result = dropped (no route, unresolvable next hop, or fabric drop).
  std::vector<dataplane::Emission> InjectFromParticipant(AsNumber as,
                                                         net::Packet packet);

  // Middlebox model: re-injects a packet on a physical port as-is (no FIB
  // or ARP — transparent middleboxes return traffic with headers intact).
  // Used by service chains (§8).
  std::vector<dataplane::Emission> ReinjectFromPort(net::PortId port,
                                                    net::Packet packet);

  // Batched border-router injection: each packet FIB-looked-up, tagged,
  // then the whole burst through the fabric's batch path. Emissions in
  // packet order; per-packet drops are counted exactly as in
  // InjectFromParticipant.
  std::vector<dataplane::Emission> InjectFromParticipantBatch(
      AsNumber as, std::span<const net::Packet> packets);

  // DEPRECATED: use Configure(). Selects the data-plane lookup backend
  // (DESIGN.md §11): kCompiled is the production fast path, kLinear the
  // reference scan the equivalence oracle diffs against.
  void SetDataPlaneBackend(dataplane::FlowTable::Backend backend) {
    RuntimeOptions options = runtime_options();
    options.backend = backend;
    Configure(options);
  }

  // --- Introspection -----------------------------------------------------------
  rs::RouteServer& route_server() { return route_server_; }
  const rs::RouteServer& route_server() const { return route_server_; }
  dataplane::SwitchDataPlane& data_plane() { return data_plane_; }
  const dataplane::ArpResponder& arp() const { return arp_; }
  const VirtualTopology& topology() const { return topology_; }
  const GroupTable& groups() const { return groups_; }
  const Participant* FindParticipant(AsNumber as) const;
  const BorderRouter* FindRouter(AsNumber as) const;
  const policy::CompilationCache& cache() const { return cache_; }
  const std::map<AsNumber, Participant>& participants() const {
    return participants_;
  }
  const ClauseSetIds& clause_set_ids() const { return clause_set_ids_; }
  std::size_t fast_path_groups() const { return fast_groups_.size(); }

  // Traffic totals per participant, from the switch port counters.
  std::map<AsNumber, ParticipantTraffic> TrafficByParticipant() const;

  // --- Observability -----------------------------------------------------
  // The runtime-wide metrics registry. Compile/update latency histograms
  // are recorded live; component counters (drops, cache, route server,
  // traffic) are synced into it by SnapshotMetrics().
  obs::MetricsRegistry& metrics() { return metrics_; }

  // The runtime's observability backends bundled for construction-time
  // wiring of components (obs/sinks.h). The journal member tracks
  // Enable/DisableJournal — grab a fresh copy after toggling.
  obs::Sinks sinks() {
    return obs::Sinks{.metrics = &metrics_,
                      .journal = journal_.get(),
                      .tracer = &tracer_,
                      .flows = flow_recorder_.get()};
  }

  // Span tree of the most recent FullCompile()/ApplyBgpUpdate().
  const obs::Tracer& last_trace() const { return tracer_; }

  // --- Consolidated telemetry configuration -------------------------------
  // Applies the whole TelemetryOptions value (journal, flow telemetry,
  // convergence tracking, time series) atomically and idempotently: only
  // subsystems whose options actually changed are touched, so repeated
  // Configure calls with the same value never recreate a recorder.
  // Returns the previous options and journals a telemetry_options_changed
  // event into the (possibly new) journal. The four Enable*/Disable* pairs
  // below survive as thin delegating wrappers; new code should use this.
  // Ordering caveat folded in: the time-series sampler is stopped before
  // the convergence tracker it reads is replaced, then restarted.
  obs::TelemetryOptions ConfigureTelemetry(const obs::TelemetryOptions& options);

  // The current consolidated telemetry options (kept in sync by the
  // Enable*/Disable* wrappers too).
  const obs::TelemetryOptions& telemetry_options() const {
    return telemetry_options_;
  }

  // The control-plane flight recorder (DESIGN.md §7): typed events tagged
  // with per-update provenance ids, threaded from session delivery through
  // route-server decisions, group/VNH changes, and every flow-mod. Enabled
  // by default at Journal::kDefaultCapacity; nullptr when disabled (every
  // instrumented layer holds a null pointer then — the trace.h no-op
  // convention).
  obs::Journal* journal() { return journal_.get(); }
  const obs::Journal* journal() const { return journal_.get(); }

  // Recreates the journal at `capacity` (also how tests shrink the ring)
  // and rewires the route server and flow table. Sessions connected by a
  // SessionFrontend before the call keep their old pointer — (re)enable
  // before connecting sessions.
  void EnableJournal(std::size_t capacity = obs::Journal::kDefaultCapacity);
  // Detaches and destroys the journal; all recording becomes a no-op.
  void DisableJournal();

  // Sampled flow export (DESIGN.md §10, disabled by default): creates the
  // recorder, seeds its port→participant map from the topology, and wires
  // it into the data plane. Re-enabling replaces the recorder (records in
  // the old one are dropped — Drain first).
  void EnableFlowTelemetry(obs::FlowRecorder::Options options = {});
  // Detaches and destroys the recorder; packet sampling stops.
  void DisableFlowTelemetry();
  obs::FlowRecorder* flow_recorder() { return flow_recorder_.get(); }

  // One-stop runtime health introspection, evaluated against `thresholds`
  // (obs/health.h): ingest queue depth + batch lag, last decision/compile/
  // flush durations, RIB/flow-table sizes, per-participant flap rates from
  // the journal, and a coarse ok/degraded status with reasons.
  obs::HealthReport HealthSnapshot(
      const obs::HealthThresholds& thresholds = {}) const;

  // HealthSnapshot plus publication: mirrors the verdict into "health.*"
  // gauges (degraded, queue_depth, batch_lag_seconds, ...) so the
  // time-series sampler — which must not touch control-thread-only state —
  // picks the health trajectory up from the registry. Call it periodically
  // from the control thread while sampling.
  obs::HealthReport PublishHealth(const obs::HealthThresholds& thresholds = {});

  // --- Convergence tracking (DESIGN.md §12) ------------------------------
  // Per-update end-to-end convergence latency: ingest-stamped provenance
  // ids matched against batch flush completion, decomposed into
  // queue_wait/decision/compile/flush segments. Reads ingest stamps from
  // the journal — with the journal disabled every update counts as
  // chain-truncated. Disabled by default (zero cost when off).
  void EnableConvergenceTracking(
      std::size_t max_pending = std::size_t{1} << 16);
  // Stop the time-series sampler (DisableTimeSeries) before disabling if
  // it was enabled after the tracker — the sampler reads the tracker.
  void DisableConvergenceTracking();
  obs::ConvergenceTracker* convergence() { return convergence_.get(); }
  const obs::ConvergenceTracker* convergence() const {
    return convergence_.get();
  }

  // --- Time-series telemetry (DESIGN.md §12) -----------------------------
  // Starts a background thread sampling CollectTimeSeriesValues() every
  // `interval_seconds` into a ring of `capacity` samples. Re-enabling
  // replaces the series; DisableTimeSeries stops the thread but keeps the
  // collected samples readable via timeseries() until the next enable.
  void EnableTimeSeries(double interval_seconds = 0.05,
                        std::size_t capacity = obs::TimeSeries::kDefaultCapacity);
  void DisableTimeSeries();
  obs::TimeSeries* timeseries() { return timeseries_.get(); }
  obs::TimeSeriesSampler* timeseries_sampler() { return sampler_.get(); }
  // One synchronous sample (benches take a final sample before export).
  void SampleTimeSeriesNow() {
    if (sampler_ != nullptr) sampler_->SampleNow();
  }

  // The sampler's producer: a flat name→value map of batch/update
  // counters, selected latency-histogram percentiles, drop totals,
  // published "health.*" gauges, and convergence percentiles. Safe to
  // call from any thread (reads only thread-safe sources — never the
  // journal or the route server).
  std::map<std::string, double> CollectTimeSeriesValues() const;

  // Per-reason drop totals across the whole pipeline: border-router drops
  // (no_fib_route, arp_unresolved), injection-time isolation violations,
  // and the data plane's table_miss/explicit_drop counters. Every packet
  // the runtime refuses to deliver lands in exactly one bucket.
  obs::DropCounters DropCounts() const;

  // Syncs component counters into the registry and snapshots everything.
  obs::MetricsSnapshot SnapshotMetrics();

  // The next hop the route server advertises to `receiver` for `prefix`:
  // the prefix group's VNH (including fast-path singletons) when grouped,
  // the announcing participant's router address otherwise, nullopt when no
  // route is advertised. This is what SessionFrontend re-announces.
  std::optional<net::IPv4Address> AdvertisedNextHop(
      AsNumber receiver, const net::IPv4Prefix& prefix) const;

 private:
  static constexpr std::int32_t kNormalPriorityBase = 1'000;
  static constexpr std::int32_t kFastPathPriorityBase = 1'000'000;
  static constexpr dataplane::Cookie kFastPathCookie = 1;

  // Rebuilds behavior sets + FEC groups + VNH bindings from current
  // policies and RIBs. Emits fec_compute / vnh_allocation child spans.
  // When `incremental`, reuses memoized per-clause eligible sets and
  // per-prefix routing info for everything outside rib_touched_; `pool`
  // (nullable) fans the expensive per-clause / per-prefix route-server
  // queries out across workers. Fills dirty_prefixes_ for the incremental
  // re-advertisement pass.
  void RecomputeGroups(obs::Tracer* tracer, bool incremental,
                       util::ThreadPool* pool);

  // Observes the current trace into `<prefix>.seconds` (whole operation)
  // and `<prefix>.stage.<name>.seconds` histograms.
  void RecordTrace(const char* prefix, double total_seconds);

  // The shared batch pipeline behind ApplyUpdates/Flush/ApplyBgpUpdate:
  // journals provenance (coalesced losers, per-update begin/end), applies
  // every slot to the route server, and — when any best route changed —
  // runs one grouped fast-path compile/install/readvertise flush.
  // `raw_count` is the pre-coalesce update count; `aggregate` adds the
  // batch_begin/batch_end journal events and batch.* metrics (off for the
  // single-update wrapper, which must look exactly like the classic
  // ApplyBgpUpdate to observers).
  BatchStats RunBatch(std::vector<bgp::CoalescedUpdate> slots,
                      std::size_t raw_count, const char* root_span,
                      const char* metric_prefix, bool aggregate);

  // Ingest-time provenance: assigns an id to a not-yet-stamped update and
  // journals kUpdateEnqueued, so queue-wait is measurable from the moment
  // the update entered the standing queue (session-delivered updates are
  // already stamped at kBgpSessionRx). No-op without a journal.
  void StampIngress(bgp::BgpUpdate& update);

  // Re-advertises next hops into the border-router FIBs (one router per
  // worker when `pool` is set). Full mode rebuilds every FIB from scratch;
  // incremental mode touches only dirty_prefixes_ — sound because an
  // untouched prefix has an unchanged best route for every receiver AND an
  // unchanged VNH binding (both are in the dirty set by construction).
  void ReadvertiseRoutes(bool incremental, util::ThreadPool* pool);

  // True when every change since the last FullCompile flowed through the
  // runtime's tracked paths, so the memoized state + rib_touched_ fully
  // explain the route server's current contents.
  bool CanCompileIncrementally() const;

  // Participant roster + port layout; any change forces a full compile.
  std::uint64_t RosterFingerprint() const;

  // The worker pool per current options (nullptr = compile inline).
  util::ThreadPool* CompilePool();

  // Behavior-set membership of a single prefix (fast path).
  std::vector<std::uint32_t> SetsContaining(const net::IPv4Prefix& prefix)
      const;

  // Encoded-mode ARP answer for one group: default = best hop index with
  // no bits; per-requester overrides for `policy_senders` (the only senders
  // whose clause bits can be nonzero) plus the group's per-sender-best
  // keys, stored sparsely (only when they differ from the default).
  // Overflow-fallback senders get the legacy VMAC instead.
  dataplane::ArpResponder::EncodedEntry BuildEncodedArpEntry(
      const AnnotatedGroup& group,
      const std::vector<AsNumber>& policy_senders) const;

  // Senders that can need a non-default encoded ARP answer by policy: the
  // unique sender ASes of clause_set_ids_ (clause bits), including the
  // overflow-fallback ones (legacy answers).
  std::vector<AsNumber> PolicySenders() const;

  rs::RouteServer route_server_;
  dataplane::SwitchDataPlane data_plane_;
  dataplane::ArpResponder arp_;
  VirtualTopology topology_;
  std::map<AsNumber, Participant> participants_;
  std::map<AsNumber, BorderRouter> routers_;
  std::map<AsNumber, net::IPv4Address> router_ips_;
  VnhAllocator vnh_;
  GroupTable groups_;
  ClauseSetIds clause_set_ids_;
  Composer composer_;
  // Inbound-block policies of the current compilation generation, shared
  // with every fast-path slice so memoization hits across updates.
  InboundPolicies inbound_policies_;
  policy::CompilationCache cache_;

  // --- Incremental-compilation state (DESIGN.md §8) ----------------------
  CompileOptions options_;
  // Configured encoding mode; resolved (kAuto → env) at each FullCompile
  // into encoded_active_, which describes the installed rules/ARP answers.
  VmacEncoding vmac_encoding_ = VmacEncoding::kAuto;
  bool encoded_active_ = false;
  // Participant numbering of the last FullCompile (encoded next-hop space).
  Roster roster_;
  // Consolidated telemetry view, kept in sync by ConfigureTelemetry and
  // the Enable*/Disable* wrappers.
  obs::TelemetryOptions telemetry_options_;
  std::unique_ptr<util::ThreadPool> pool_;
  BlockMemo block_memo_;
  bool have_previous_compile_ = false;
  std::uint64_t roster_fp_ = 0;           // RosterFingerprint() at last compile
  std::uint64_t rs_config_seen_ = 0;      // rs config_version at last compile
  std::uint64_t rs_updates_seen_ = 0;     // rs updates_processed at last compile
  std::uint64_t tracked_updates_ = 0;     // updates this runtime issued since
  // Prefixes whose RIB entries may have changed since the last compile
  // (every update the runtime itself fed into the route server).
  std::set<net::IPv4Prefix> rib_touched_;
  // Per-clause eligible prefix sets (sorted), valid while the owning
  // participant's outbound_version matches; refreshed by rib_touched_
  // deltas otherwise.
  struct ClauseEligible {
    std::uint64_t outbound_version = ~0ull;
    std::vector<net::IPv4Prefix> prefixes;
  };
  std::map<std::pair<AsNumber, int>, ClauseEligible> clause_eligible_;
  // Per-prefix routing info (global best hop + per-sender exceptions) for
  // overridden prefixes. An entry is valid as long as the prefix's RIB
  // state is unchanged — touched prefixes are erased before reuse.
  struct PrefixInfo {
    AsNumber global_hop = 0;
    std::vector<std::pair<AsNumber, AsNumber>> exceptions;  // (sender, hop)
  };
  std::map<net::IPv4Prefix, PrefixInfo> prefix_info_;
  // Prefixes whose global best leads to a remote participant (grouped even
  // without a covering clause).
  std::set<net::IPv4Prefix> remote_overridden_;
  // Stable (VNH, VMAC) assignment: exact sorted prefix set -> binding from
  // the previous generation. A group that survives regrouping keeps its
  // binding, which keeps untouched FIB entries valid across compiles.
  std::map<std::vector<net::IPv4Prefix>, VnhBinding> stable_bindings_;
  // prefix -> its group VNH at the last compile (for binding-diff dirtying).
  std::map<net::IPv4Prefix, net::IPv4Address> prefix_vnh_;
  // FIB entries to re-advertise this compile (incremental mode only).
  std::set<net::IPv4Prefix> dirty_prefixes_;

  // --- Batched ingest state (DESIGN.md §9) -------------------------------
  bgp::UpdateQueue queue_;
  std::size_t batch_window_ = 0;  // 0 = explicit Flush() only
  BatchStats last_batch_;

  dataplane::Cookie generation_ = 2;  // 0 = none, 1 = fast path
  std::vector<AnnotatedGroup> fast_groups_;
  // Prefix -> index into fast_groups_ (the fast-path overlay of group_of).
  std::unordered_map<net::IPv4Prefix, std::size_t> fast_group_of_;
  std::uint32_t next_router_index_ = 1;

  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  std::unique_ptr<obs::Journal> journal_;
  std::unique_ptr<obs::FlowRecorder> flow_recorder_;
  // Drops decided before the fabric: border-router FIB/ARP failures and
  // injection-time isolation violations. Sharded: the border-router path
  // is a packet path (obs/sharded.h).
  obs::ShardedDropCounters ingress_drops_;
  // Updates decided so far, incremented live by the control thread per
  // slot. The time-series sampler reads it concurrently as
  // "decision.updates"; SnapshotMetrics syncs it into the registry.
  obs::ShardedCounter decision_updates_;

  // --- Health bookkeeping (DESIGN.md §10) --------------------------------
  // Wall-clock moment the standing queue went empty→nonempty; cleared by
  // Flush. Age of this = batch lag (how stale the oldest pending update is).
  std::optional<obs::Clock::time_point> oldest_pending_since_;
  double last_decision_seconds_ = 0.0;  // rib_update stage, last batch
  double last_compile_seconds_ = 0.0;   // last FullCompile wall time
  double last_flush_seconds_ = 0.0;     // last batch end-to-end wall time
  // Resolved once (ctor) so the ingest path publishes queue depth with one
  // relaxed store, no registry lookup.
  obs::Gauge* queue_depth_gauge_ = nullptr;

  // --- Convergence + time-series (DESIGN.md §12) -------------------------
  // Declared last: the sampler thread reads metrics_/convergence_/the drop
  // counters, so it must be destroyed (joined) before any of them.
  std::unique_ptr<obs::ConvergenceTracker> convergence_;
  std::unique_ptr<obs::TimeSeries> timeseries_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
};

}  // namespace sdx::core
