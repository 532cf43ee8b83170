#include "src/nat/nat_table.h"

namespace natpunch {

bool NatTable::Entry::AllowsInbound(NatFiltering filtering, const Endpoint& remote, SimTime now,
                                    SimDuration session_timeout) const {
  switch (filtering) {
    case NatFiltering::kEndpointIndependent:
      return true;
    case NatFiltering::kAddressDependent:
      for (const Session& session : sessions) {
        if (session.remote.ip == remote.ip && now - session.last < session_timeout) {
          return true;
        }
      }
      return false;
    case NatFiltering::kAddressAndPortDependent:
      for (const Session& session : sessions) {
        if (session.remote == remote && now - session.last < session_timeout) {
          return true;
        }
      }
      return false;
  }
  return false;
}

NatTable::NatTable(NatMapping mapping, NatPortAllocation allocation, uint16_t port_base, Rng rng,
                   bool symmetric_on_contention)
    : mapping_(mapping),
      allocation_(allocation),
      symmetric_on_contention_(symmetric_on_contention),
      port_base_(port_base),
      next_port_udp_(port_base),
      next_port_tcp_(port_base),
      rng_(rng) {}

NatMapping NatTable::EffectiveMapping(IpProtocol protocol, const Endpoint& private_ep) const {
  if (symmetric_on_contention_) {
    const PortUsers* users = port_users_.Find(PortKey{protocol, private_ep.port});
    if (users != nullptr && users->multi) {
      return NatMapping::kAddressAndPortDependent;
    }
  }
  return mapping_;
}

NatTable::OutKey NatTable::MakeOutKey(IpProtocol protocol, const Endpoint& private_ep,
                                      const Endpoint& remote, NatMapping mapping) const {
  OutKey key{protocol, private_ep, Ipv4Address(), 0};
  switch (mapping) {
    case NatMapping::kEndpointIndependent:
      break;
    case NatMapping::kAddressDependent:
      key.remote_ip = remote.ip;
      break;
    case NatMapping::kAddressAndPortDependent:
      key.remote_ip = remote.ip;
      key.remote_port = remote.port;
      break;
  }
  return key;
}

bool NatTable::PortFree(IpProtocol protocol, uint16_t port) const {
  return !by_port_.Contains(PortKey{protocol, port});
}

uint16_t NatTable::AllocatePort(IpProtocol protocol, uint16_t private_port) {
  if (allocation_ == NatPortAllocation::kPortPreserving && private_port != 0 &&
      PortFree(protocol, private_port)) {
    return private_port;
  }
  if (allocation_ == NatPortAllocation::kRandom) {
    for (int attempt = 0; attempt < 4096; ++attempt) {
      const uint16_t port = static_cast<uint16_t>(
          port_base_ + rng_.NextBelow(static_cast<uint64_t>(65536 - port_base_)));
      if (PortFree(protocol, port)) {
        return port;
      }
    }
    return 0;
  }
  // Sequential (also the port-preserving fallback). Wraps within
  // [port_base_, 65535].
  uint16_t& next_port = protocol == IpProtocol::kTcp ? next_port_tcp_ : next_port_udp_;
  const int pool = 65536 - port_base_;
  for (int attempt = 0; attempt < pool; ++attempt) {
    const uint16_t port = next_port;
    next_port = next_port >= 65535 ? port_base_ : static_cast<uint16_t>(next_port + 1);
    if (PortFree(protocol, port)) {
      return port;
    }
  }
  return 0;
}

// --- Entry pool -------------------------------------------------------------

NatTable::Entry* NatTable::AcquireEntry() {
  if (free_list_ != nullptr) {
    Entry* entry = free_list_;
    free_list_ = entry->free_next;
    entry->free_next = nullptr;
    return entry;
  }
  arena_.push_back(std::make_unique<Entry>());
  return arena_.back().get();
}

void NatTable::ReleaseEntry(Entry* entry) {
  entry->sessions.clear();  // keeps capacity for the next tenant
  entry->tcp_inbound_seen = false;
  entry->tcp_established = false;
  entry->tcp_closing = false;
  entry->lru_prev = nullptr;
  entry->lru_next = nullptr;
  entry->chain_prev = nullptr;
  entry->chain_next = nullptr;
  entry->free_next = free_list_;
  free_list_ = entry;
}

// --- Intrusive expiry lists -------------------------------------------------

void NatTable::ListUnlink(Entry* entry) {
  List& list = lists_[entry->lru_class];
  if (entry->lru_prev != nullptr) {
    entry->lru_prev->lru_next = entry->lru_next;
  } else {
    list.head = entry->lru_next;
  }
  if (entry->lru_next != nullptr) {
    entry->lru_next->lru_prev = entry->lru_prev;
  } else {
    list.tail = entry->lru_prev;
  }
  entry->lru_prev = nullptr;
  entry->lru_next = nullptr;
}

void NatTable::ListAppend(int cls, Entry* entry) {
  List& list = lists_[cls];
  entry->lru_class = cls;
  entry->lru_prev = list.tail;
  entry->lru_next = nullptr;
  if (list.tail != nullptr) {
    list.tail->lru_next = entry;
  } else {
    list.head = entry;
  }
  list.tail = entry;
}

void NatTable::ListInsertSorted(int cls, Entry* entry) {
  List& list = lists_[cls];
  Entry* after = list.tail;
  while (after != nullptr && after->last_refresh > entry->last_refresh) {
    after = after->lru_prev;
  }
  entry->lru_class = cls;
  entry->lru_prev = after;
  if (after != nullptr) {
    entry->lru_next = after->lru_next;
    after->lru_next = entry;
  } else {
    entry->lru_next = list.head;
    list.head = entry;
  }
  if (entry->lru_next != nullptr) {
    entry->lru_next->lru_prev = entry;
  } else {
    list.tail = entry;
  }
}

void NatTable::MoveToListTail(Entry* entry) {
  // Refresh times are monotone, so tail append preserves the sort.
  if (lists_[entry->lru_class].tail == entry) {
    return;
  }
  const int cls = entry->lru_class;
  ListUnlink(entry);
  ListAppend(cls, entry);
}

// --- Private-endpoint chains ------------------------------------------------

void NatTable::ChainInsert(Entry* entry) {
  Entry** head = by_priv_.FindOrInsert(PrivKey{entry->protocol, entry->private_ep});
  entry->chain_prev = nullptr;
  entry->chain_next = *head;
  if (*head != nullptr) {
    (*head)->chain_prev = entry;
  }
  *head = entry;
}

void NatTable::ChainUnlink(Entry* entry) {
  if (entry->chain_next != nullptr) {
    entry->chain_next->chain_prev = entry->chain_prev;
  }
  if (entry->chain_prev != nullptr) {
    entry->chain_prev->chain_next = entry->chain_next;
  } else {
    const PrivKey key{entry->protocol, entry->private_ep};
    if (entry->chain_next != nullptr) {
      *by_priv_.Find(key) = entry->chain_next;
    } else {
      by_priv_.Erase(key);
    }
  }
  entry->chain_prev = nullptr;
  entry->chain_next = nullptr;
}

// --- Public API -------------------------------------------------------------

NatTable::Entry* NatTable::MapOutbound(IpProtocol protocol, const Endpoint& private_ep,
                                       const Endpoint& remote, SimTime now) {
  PortUsers* users = port_users_.FindOrInsert(PortKey{protocol, private_ep.port});
  if (!users->any) {
    users->any = true;
    users->first = private_ep.ip;
  } else if (users->first != private_ep.ip) {
    users->multi = true;
  }
  const OutKey key =
      MakeOutKey(protocol, private_ep, remote, EffectiveMapping(protocol, private_ep));
  bool inserted = false;
  Entry** slot = by_out_.FindOrInsert(key, &inserted);
  if (inserted) {
    const uint16_t port = AllocatePort(protocol, private_ep.port);
    if (port == 0) {
      by_out_.Erase(key);
      return nullptr;
    }
    Entry* entry = AcquireEntry();
    entry->protocol = protocol;
    entry->private_ep = private_ep;
    entry->public_port = port;
    entry->out_key = key;
    *slot = entry;
    by_port_.InsertOrAssign(PortKey{protocol, port}, entry);
    ChainInsert(entry);
    entry->Refresh(remote, now);
    ListAppend(ClassOf(*entry), entry);
    return entry;
  }
  Entry* entry = *slot;
  Touch(entry, remote, now);
  return entry;
}

NatTable::Entry* NatTable::FindOutbound(IpProtocol protocol, const Endpoint& private_ep,
                                        const Endpoint& remote) {
  Entry** slot = by_out_.Find(
      MakeOutKey(protocol, private_ep, remote, EffectiveMapping(protocol, private_ep)));
  return slot == nullptr ? nullptr : *slot;
}

NatTable::Entry* NatTable::FindByPublicPort(IpProtocol protocol, uint16_t public_port) {
  Entry** slot = by_port_.Find(PortKey{protocol, public_port});
  return slot == nullptr ? nullptr : *slot;
}

bool NatTable::AllowsInbound(const Entry& entry, NatFiltering filtering, const Endpoint& remote,
                             SimTime now, SimDuration session_timeout) const {
  if (filtering == NatFiltering::kEndpointIndependent) {
    return true;
  }
  Entry* const* head = by_priv_.Find(PrivKey{entry.protocol, entry.private_ep});
  for (const Entry* other = head == nullptr ? nullptr : *head; other != nullptr;
       other = other->chain_next) {
    if (other->AllowsInbound(filtering, remote, now, session_timeout)) {
      return true;
    }
  }
  return false;
}

NatTable::Entry* NatTable::FindByPrivateEndpoint(IpProtocol protocol,
                                                 const Endpoint& private_ep) {
  Entry* const* head = by_priv_.Find(PrivKey{protocol, private_ep});
  Entry* best = nullptr;
  for (Entry* other = head == nullptr ? nullptr : *head; other != nullptr;
       other = other->chain_next) {
    if (best == nullptr || other->public_port < best->public_port) {
      best = other;
    }
  }
  return best;
}

void NatTable::RemoveEntry(Entry* entry) {
  ListUnlink(entry);
  ChainUnlink(entry);
  by_port_.Erase(PortKey{entry->protocol, entry->public_port});
  by_out_.Erase(entry->out_key);
  ReleaseEntry(entry);
}

size_t NatTable::Expire(SimTime now, const Timeouts& timeouts) {
  const SimDuration limits[kClassCount] = {timeouts.udp, timeouts.tcp_established,
                                           timeouts.tcp_transitory};
  size_t expired = 0;
  // Pop stale heads. An entry whose TCP flags were flipped without a
  // Reclassify() call (unit tests poke the flags directly) is lazily
  // migrated to its true class list when it surfaces; the outer loop
  // re-scans because a migration can land an entry on an already-visited
  // list. Migration is idempotent, so this terminates.
  bool migrated = true;
  while (migrated) {
    migrated = false;
    for (int cls = 0; cls < kClassCount; ++cls) {
      while (Entry* head = lists_[cls].head) {
        const int actual = ClassOf(*head);
        if (actual != cls) {
          ListUnlink(head);
          ListInsertSorted(actual, head);
          migrated = true;
          continue;
        }
        if (now - head->last_refresh < limits[cls]) {
          break;
        }
        RemoveEntry(head);
        ++expired;
      }
    }
  }
  return expired;
}

void NatTable::Clear() {
  for (List& list : lists_) {
    Entry* entry = list.head;
    while (entry != nullptr) {
      Entry* next = entry->lru_next;
      ReleaseEntry(entry);
      entry = next;
    }
    list.head = nullptr;
    list.tail = nullptr;
  }
  by_out_.Clear();
  by_port_.Clear();
  by_priv_.Clear();
  port_users_.Clear();
}

}  // namespace natpunch
