#include "core/migration_table.h"

#include <stdexcept>

namespace laps {

namespace {

std::size_t checked(std::size_t capacity) {
  if (capacity == 0) throw std::invalid_argument("MigrationTable: capacity 0");
  return capacity;
}

}  // namespace

MigrationTable::MigrationTable(std::size_t capacity)
    : capacity_(checked(capacity)), pins_(capacity), index_(capacity) {
  clear();
}

void MigrationTable::link_newest(Id id) {
  pins_[id].older = newest_;
  pins_[id].newer = kNil;
  if (newest_ != kNil) {
    pins_[newest_].newer = id;
  } else {
    oldest_ = id;
  }
  newest_ = id;
}

void MigrationTable::unlink(Id id) {
  const Pin& pin = pins_[id];
  if (pin.older != kNil) {
    pins_[pin.older].newer = pin.newer;
  } else {
    oldest_ = pin.newer;
  }
  if (pin.newer != kNil) {
    pins_[pin.newer].older = pin.older;
  } else {
    newest_ = pin.older;
  }
}

void MigrationTable::release(Id id) {
  unlink(id);
  index_.erase(pins_[id].key);
  pins_[id].newer = free_;
  free_ = id;
  --size_;
}

void MigrationTable::add(std::uint64_t flow_key, CoreId core) {
  Id id = index_.find(flow_key);
  if (id != kNil) {
    // Refresh position: treat re-pin as newest.
    pins_[id].core = core;
    unlink(id);
    link_newest(id);
    return;
  }
  if (size_ == capacity_) release(oldest_);
  id = free_;
  free_ = pins_[id].newer;
  pins_[id].key = flow_key;
  pins_[id].core = core;
  index_.insert(flow_key, id);
  link_newest(id);
  ++size_;
}

bool MigrationTable::erase(std::uint64_t flow_key) {
  const Id id = index_.find(flow_key);
  if (id == kNil) return false;
  release(id);
  return true;
}

std::size_t MigrationTable::remove_core_entries(CoreId core) {
  std::size_t removed = 0;
  for (Id id = oldest_; id != kNil;) {
    const Id next = pins_[id].newer;
    if (pins_[id].core == core) {
      release(id);
      ++removed;
    }
    id = next;
  }
  return removed;
}

void MigrationTable::clear() {
  for (std::size_t i = 0; i < capacity_; ++i) {
    pins_[i].newer = i + 1 < capacity_ ? static_cast<Id>(i + 1) : kNil;
  }
  free_ = 0;
  oldest_ = kNil;
  newest_ = kNil;
  size_ = 0;
  index_.clear();
}

std::vector<std::uint64_t> MigrationTable::keys_in_order() const {
  std::vector<std::uint64_t> out;
  out.reserve(size_);
  for (Id id = oldest_; id != kNil; id = pins_[id].newer) {
    out.push_back(pins_[id].key);
  }
  return out;
}

}  // namespace laps
