#include "sdx/two_stage.h"

namespace sdx::core {

bool TwoStageScheduler::MaybeOptimize(double now_s, bool force) {
  if (runtime_->fast_path_groups() == 0) return false;
  const bool idle = now_s - last_update_s_ >= config_.idle_threshold_s;
  const bool overful = runtime_->fast_path_groups() >= config_.max_outstanding;
  if (!force && !idle && !overful) return false;
  runtime_->FullCompile();
  ++background_runs_;
  return true;
}

BatchStats TwoStageScheduler::OnUpdate(const bgp::BgpUpdate& update) {
  const double now_s = static_cast<double>(bgp::UpdateTime(update)) / 1e6;
  // A long gap before this update means the previous burst ended: coalesce
  // its fast-path rules before handling the new burst.
  MaybeOptimize(now_s, /*force=*/false);
  last_update_s_ = now_s;
  BatchStats stats = runtime_->ApplyUpdates({&update, 1});
  ++fast_path_runs_;
  // Under a continuous stream, the outstanding-group cap still bounds
  // table growth.
  if (runtime_->fast_path_groups() >= config_.max_outstanding) {
    MaybeOptimize(now_s, /*force=*/true);
  }
  return stats;
}

bool TwoStageScheduler::Tick(double now_s) {
  return MaybeOptimize(now_s, /*force=*/false);
}

}  // namespace sdx::core
