#include "sdx/fib.h"

#include <algorithm>
#include <utility>

namespace sdx::core {

namespace {

constexpr std::size_t kMinSlots = 8;

}  // namespace

void Fib::Set(const net::IPv4Prefix& prefix, net::IPv4Address shared,
              std::vector<Exception> exceptions) {
  std::sort(exceptions.begin(), exceptions.end(),
            [](const Exception& a, const Exception& b) {
              return a.router < b.router;
            });
  // An exception that repeats the shared next hop says nothing.
  std::erase_if(exceptions, [&](const Exception& exception) {
    return exception.next_hop == shared;
  });
  if (shared.value() == 0 && exceptions.empty()) {
    Erase(prefix);
    return;
  }

  Table& table = tables_[prefix.length()];
  Slot& slot = Insert(table, prefix.network().value());
  lengths_ |= 1ull << prefix.length();
  if (slot.used != 0) {
    Account(slot.next_hop, slot.list == 0 ? nullptr : &lists_[slot.list - 1],
            -1);
  }
  slot.used = 1;
  slot.next_hop = shared.value();
  if (exceptions.empty()) {
    if (slot.list != 0) {
      free_lists_.push_back(slot.list - 1);
      lists_[slot.list - 1].clear();
      slot.list = 0;
    }
  } else {
    if (slot.list == 0) {
      if (free_lists_.empty()) {
        lists_.emplace_back();
        slot.list = static_cast<std::uint32_t>(lists_.size());
      } else {
        slot.list = free_lists_.back() + 1;
        free_lists_.pop_back();
      }
    }
    lists_[slot.list - 1] = std::move(exceptions);
  }
  Account(slot.next_hop, slot.list == 0 ? nullptr : &lists_[slot.list - 1],
          +1);
}

void Fib::Erase(const net::IPv4Prefix& prefix) {
  Table& table = tables_[prefix.length()];
  if (table.size == 0) return;
  const std::uint32_t network = prefix.network().value();
  const std::size_t mask = table.slots.size() - 1;
  std::size_t hole = Home(table, network);
  while (table.slots[hole].used != 0 && table.slots[hole].network != network) {
    hole = (hole + 1) & mask;
  }
  Slot& slot = table.slots[hole];
  if (slot.used == 0) return;
  Account(slot.next_hop, slot.list == 0 ? nullptr : &lists_[slot.list - 1],
          -1);
  if (slot.list != 0) {
    lists_[slot.list - 1].clear();
    free_lists_.push_back(slot.list - 1);
  }
  // Backward shift: pull each later entry of the probe run into the hole
  // unless the hole lies before its home slot.
  for (std::size_t next = (hole + 1) & mask; table.slots[next].used != 0;
       next = (next + 1) & mask) {
    const std::size_t home = Home(table, table.slots[next].network);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      table.slots[hole] = table.slots[next];
      hole = next;
    }
  }
  table.slots[hole] = Slot{};
  if (--table.size == 0) lengths_ &= ~(1ull << prefix.length());
}

void Fib::Clear() {
  for (Table& table : tables_) table = Table{};
  lengths_ = 0;
  lists_.clear();
  free_lists_.clear();
  shared_routes_ = 0;
  route_delta_.clear();
}

std::optional<net::IPv4Address> Fib::Find(
    std::uint32_t router, const net::IPv4Prefix& prefix) const {
  const Table& table = tables_[prefix.length()];
  if (table.size == 0) return std::nullopt;
  const Slot* slot = FindSlot(table, prefix.network().value());
  if (slot == nullptr) return std::nullopt;
  const std::uint32_t hop = HopAt(*slot, router);
  if (hop == 0) return std::nullopt;
  return net::IPv4Address(hop);
}

std::size_t Fib::RouteCount(std::uint32_t router) const {
  const std::int64_t delta =
      router < route_delta_.size() ? route_delta_[router] : 0;
  return static_cast<std::size_t>(static_cast<std::int64_t>(shared_routes_) +
                                  delta);
}

std::size_t Fib::size() const {
  std::size_t total = 0;
  for (const Table& table : tables_) total += table.size;
  return total;
}

Fib::Slot& Fib::Insert(Table& table, std::uint32_t network) {
  if ((table.size + 1) * 2 > table.slots.size()) Grow(table);
  const std::size_t mask = table.slots.size() - 1;
  std::size_t i = Home(table, network);
  while (table.slots[i].used != 0 && table.slots[i].network != network) {
    i = (i + 1) & mask;
  }
  Slot& slot = table.slots[i];
  if (slot.used == 0) {
    slot.network = network;
    ++table.size;
  }
  return slot;
}

void Fib::Grow(Table& table) {
  std::vector<Slot> old = std::move(table.slots);
  const std::size_t capacity = std::max(kMinSlots, old.size() * 2);
  table.slots.assign(capacity, Slot{});
  table.shift = 64 - std::countr_zero(capacity);
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.used == 0) continue;
    std::size_t i = Home(table, slot.network);
    while (table.slots[i].used != 0) i = (i + 1) & mask;
    table.slots[i] = slot;
  }
}

void Fib::Account(std::uint32_t shared, const std::vector<Exception>* list,
                  int sign) {
  if (shared != 0) {
    shared_routes_ = sign > 0 ? shared_routes_ + 1 : shared_routes_ - 1;
  }
  if (list == nullptr) return;
  const int base = shared != 0 ? 1 : 0;
  for (const Exception& exception : *list) {
    if (exception.router >= route_delta_.size()) {
      route_delta_.resize(exception.router + 1, 0);
    }
    const int has = exception.next_hop.value() != 0 ? 1 : 0;
    route_delta_[exception.router] += sign * (has - base);
  }
}

}  // namespace sdx::core
