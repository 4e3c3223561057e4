#include "bgp/update_queue.h"

namespace sdx::bgp {

bool UpdateQueue::Enqueue(BgpUpdate update) {
  ++raw_;
  const std::pair<AsNumber, net::IPv4Prefix> key{UpdateFrom(update),
                                                 UpdatePrefix(update)};
  auto [it, inserted] = index_.try_emplace(key, slots_.size());
  if (inserted) {
    CoalescedUpdate slot;
    slot.update = std::move(update);
    slots_.push_back(std::move(slot));
    return true;
  }
  // Last-writer-wins: the pending update for this key is superseded. Keep
  // the slot's queue position (first-enqueue order) and fold the loser's
  // provenance trail into the winner.
  CoalescedUpdate& slot = slots_[it->second];
  const std::uint64_t loser_id = UpdateProvenance(slot.update);
  if (loser_id != 0) slot.superseded.push_back(loser_id);
  ++slot.absorbed;
  slot.update = std::move(update);
  return false;
}

std::vector<CoalescedUpdate> UpdateQueue::Drain() {
  std::vector<CoalescedUpdate> out = std::move(slots_);
  slots_.clear();
  index_.clear();
  raw_ = 0;
  return out;
}

}  // namespace sdx::bgp
