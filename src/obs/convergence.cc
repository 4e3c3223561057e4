#include "obs/convergence.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace sdx::obs {

namespace {

// One merged read of a sharded histogram plus interpolated percentiles.
struct MergedHistogram {
  std::uint64_t count;
  double sum, min, max;
  std::vector<std::uint64_t> buckets;

  explicit MergedHistogram(const ShardedHistogram& h)
      : count(h.count()),
        sum(h.sum()),
        min(h.min()),
        max(h.max()),
        buckets(h.bucket_counts()) {}

  double Percentile(const std::vector<double>& bounds, double q) const {
    return PercentileFromBuckets(bounds, buckets, count, min, max, q);
  }
};

}  // namespace

std::string ConvergenceStats::ToText() const {
  std::ostringstream os;
  const auto row = [&os](const char* name, const SegmentView& s) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  %-10s count=%8llu p50=%10.6fs p95=%10.6fs p99=%10.6fs "
                  "max=%10.6fs\n",
                  name, static_cast<unsigned long long>(s.count), s.p50,
                  s.p95, s.p99, s.max);
    os << buf;
  };
  os << "convergence: tracked=" << tracked
     << " coalesced_attributed=" << coalesced_attributed
     << " chain_truncated=" << chain_truncated << " pending=" << pending
     << "\n";
  row("e2e", e2e);
  row("queue_wait", queue_wait);
  row("decision", decision);
  row("compile", compile);
  row("flush", flush);
  if (!worst_by_as.empty()) {
    os << "  worst offenders (by slowest e2e):\n";
    for (const Offender& o : worst_by_as) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "    as%-6u updates=%6llu worst=%10.6fs mean=%10.6fs\n",
                    o.as, static_cast<unsigned long long>(o.updates),
                    o.worst_seconds,
                    o.updates > 0 ? o.total_seconds /
                                        static_cast<double>(o.updates)
                                  : 0.0);
      os << buf;
    }
  }
  return os.str();
}

ConvergenceTracker::ConvergenceTracker(std::size_t max_pending)
    : max_pending_(max_pending == 0 ? 1 : max_pending),
      e2e_(Histogram::LatencyBuckets()),
      queue_wait_(Histogram::LatencyBuckets()),
      decision_(Histogram::LatencyBuckets()),
      compile_(Histogram::LatencyBuckets()),
      flush_(Histogram::LatencyBuckets()) {
  pending_.reserve(max_pending_);
}

void ConvergenceTracker::AttachJournal(const Journal* journal) {
  std::lock_guard<std::mutex> lock(mu_);
  journal_ = journal;
  cursor_ = journal_ != nullptr ? journal_->oldest_seq() : 0;
  pending_.clear();
}

void ConvergenceTracker::SyncFromJournalLocked() {
  if (journal_ == nullptr) return;
  // In place: the tail holds every flow-mod event of the batch, each with
  // its rendered rule, and copying them cost more than the accounting.
  journal_->ForEachSince(cursor_, [this](const JournalEvent& e) {
    switch (e.type) {
      case JournalEventType::kBgpSessionRx:
      case JournalEventType::kUpdateEnqueued:
      case JournalEventType::kBgpUpdateBegin:
        break;
      default:
        return;
    }
    if (e.update_id == kNoUpdateId) return;
    if (pending_.size() >= max_pending_ &&
        pending_.find(e.update_id) == pending_.end()) {
      pending_overflow_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // First stamp wins: the earliest event in the chain is the true
    // ingest time (kBgpUpdateBegin is only the fallback for updates that
    // bypassed both the session and the queue).
    pending_.try_emplace(e.update_id,
                         Ingest{e.seconds, static_cast<std::uint32_t>(e.arg0)});
  });
  cursor_ = journal_->next_seq();
}

void ConvergenceTracker::AccountLocked(UpdateId id, std::uint32_t fallback_as,
                                       double start_seconds,
                                       double end_seconds, bool coalesced) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) {
    // Ingest stamp lost (ring overwrite, pending overflow, or no journal):
    // never fabricate an end-to-end time from a guessed ingest.
    chain_truncated_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const Ingest ingest = it->second;
  pending_.erase(it);
  const double e2e = std::max(0.0, end_seconds - ingest.seconds);
  batch_e2e_.push_back(e2e);
  batch_wait_.push_back(std::max(0.0, start_seconds - ingest.seconds));
  if (coalesced) {
    coalesced_attributed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    tracked_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint32_t as =
      ingest.sender_as != 0 ? ingest.sender_as : fallback_as;
  AsTally& tally = by_as_[as];
  ++tally.updates;
  tally.total_seconds += e2e;
  tally.worst_seconds = std::max(tally.worst_seconds, e2e);
}

void ConvergenceTracker::RecordBatch(const ConvergenceBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  SyncFromJournalLocked();
  decision_wall_seconds_ += batch.decision_seconds;
  const double start = batch.end_seconds - batch.batch_seconds;
  // Batch-local segments apply to every update the batch carried, whether
  // or not its ingest stamp survived.
  if (!batch.applied.empty()) {
    const std::uint64_t applied = batch.applied.size();
    decision_.Observe(batch.decision_seconds, applied);
    compile_.Observe(batch.compile_seconds, applied);
    flush_.Observe(batch.flush_seconds, applied);
  }
  for (const auto& [id, as] : batch.applied) {
    AccountLocked(id, as, start, batch.end_seconds, /*coalesced=*/false);
  }
  for (UpdateId id : batch.coalesced) {
    AccountLocked(id, 0, start, batch.end_seconds, /*coalesced=*/true);
  }
  e2e_.ObserveAll(batch_e2e_);
  queue_wait_.ObserveAll(batch_wait_);
  batch_e2e_.clear();
  batch_wait_.clear();
}

ConvergenceStats::SegmentView ConvergenceTracker::ViewOf(
    const ShardedHistogram& h) {
  const MergedHistogram m(h);
  ConvergenceStats::SegmentView view;
  view.count = m.count;
  view.sum = m.sum;
  view.max = m.count > 0 ? m.max : 0.0;
  view.p50 = m.Percentile(h.upper_bounds(), 0.50);
  view.p95 = m.Percentile(h.upper_bounds(), 0.95);
  view.p99 = m.Percentile(h.upper_bounds(), 0.99);
  return view;
}

ConvergenceStats ConvergenceTracker::Snapshot(
    std::size_t top_offenders) const {
  ConvergenceStats stats;
  stats.e2e = ViewOf(e2e_);
  stats.queue_wait = ViewOf(queue_wait_);
  stats.decision = ViewOf(decision_);
  stats.compile = ViewOf(compile_);
  stats.flush = ViewOf(flush_);
  stats.tracked = tracked();
  stats.chain_truncated = chain_truncated();
  stats.coalesced_attributed = coalesced_attributed();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.pending = pending_.size();
    stats.decision_wall_seconds = decision_wall_seconds_;
    stats.worst_by_as.reserve(by_as_.size());
    for (const auto& [as, tally] : by_as_) {
      stats.worst_by_as.push_back(
          {as, tally.updates, tally.worst_seconds, tally.total_seconds});
    }
  }
  std::sort(stats.worst_by_as.begin(), stats.worst_by_as.end(),
            [](const ConvergenceStats::Offender& a,
               const ConvergenceStats::Offender& b) {
              if (a.worst_seconds != b.worst_seconds) {
                return a.worst_seconds > b.worst_seconds;
              }
              return a.as < b.as;  // deterministic tie-break
            });
  if (stats.worst_by_as.size() > top_offenders) {
    stats.worst_by_as.resize(top_offenders);
  }
  return stats;
}

void ConvergenceTracker::FillMetrics(MetricsSnapshot* snapshot) const {
  if (snapshot == nullptr) return;
  const auto fill = [snapshot](const char* name, const ShardedHistogram& h) {
    MetricsSnapshot::HistogramView view;
    const MergedHistogram m(h);
    view.count = m.count;
    view.sum = m.sum;
    view.min = m.count > 0 ? m.min : 0.0;
    view.max = m.count > 0 ? m.max : 0.0;
    view.p50 = m.Percentile(h.upper_bounds(), 0.50);
    view.p95 = m.Percentile(h.upper_bounds(), 0.95);
    view.p99 = m.Percentile(h.upper_bounds(), 0.99);
    view.upper_bounds = h.upper_bounds();
    view.bucket_counts = m.buckets;
    snapshot->histograms[name] = std::move(view);
  };
  fill("convergence.e2e.seconds", e2e_);
  fill("convergence.queue_wait.seconds", queue_wait_);
  fill("convergence.decision.seconds", decision_);
  fill("convergence.compile.seconds", compile_);
  fill("convergence.flush.seconds", flush_);
  snapshot->counters["convergence.tracked"] = tracked();
  snapshot->counters["convergence.chain_truncated"] = chain_truncated();
  snapshot->counters["convergence.coalesced_attributed"] =
      coalesced_attributed();
  snapshot->counters["convergence.pending_overflow"] = pending_overflow();
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot->gauges["convergence.decision.wall_seconds_total"] =
        decision_wall_seconds_;
  }
}

void ConvergenceTracker::AppendSeries(std::map<std::string, double>* values,
                                      std::size_t top_offenders) const {
  if (values == nullptr) return;
  const ConvergenceStats stats = Snapshot(top_offenders);
  const auto put = [values](const std::string& prefix,
                            const ConvergenceStats::SegmentView& s) {
    (*values)[prefix + ".p50"] = s.p50;
    (*values)[prefix + ".p95"] = s.p95;
    (*values)[prefix + ".p99"] = s.p99;
    (*values)[prefix + ".max"] = s.max;
  };
  put("convergence.e2e", stats.e2e);
  put("convergence.queue_wait", stats.queue_wait);
  put("convergence.decision", stats.decision);
  put("convergence.compile", stats.compile);
  put("convergence.flush", stats.flush);
  (*values)["convergence.tracked"] = static_cast<double>(stats.tracked);
  (*values)["convergence.chain_truncated"] =
      static_cast<double>(stats.chain_truncated);
  (*values)["convergence.coalesced_attributed"] =
      static_cast<double>(stats.coalesced_attributed);
  (*values)["convergence.pending"] = static_cast<double>(stats.pending);
  (*values)["convergence.decision.wall_seconds_total"] =
      stats.decision_wall_seconds;
  for (const ConvergenceStats::Offender& o : stats.worst_by_as) {
    const std::string key = "convergence.as" + std::to_string(o.as);
    (*values)[key + ".updates"] = static_cast<double>(o.updates);
    (*values)[key + ".worst_seconds"] = o.worst_seconds;
  }
}

}  // namespace sdx::obs
