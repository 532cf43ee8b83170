// The NAPT translation table.
//
// A mapping associates one private session endpoint (plus, for symmetric
// NATs, the remote destination) with one public port on the NAT. The table
// keeps three flat-hash indexes: an outbound key (shaped by the mapping
// behavior), the public port for inbound lookups, and the private endpoint
// for ICMP quotation translation. Filtering state — which remote endpoints
// the private host has contacted through each mapping — lives on the entry,
// because filtering is evaluated per mapping regardless of the mapping
// behavior that created it.
//
// Expiry is O(expired), not O(table): entries are threaded onto intrusive
// doubly-linked lists ordered by last_refresh, one per timeout class (UDP,
// TCP-established, TCP-transitory), and Expire() pops from each list head
// until it finds a fresh entry. List order — never hash-iteration order —
// drives expiry, so port reuse and every downstream RNG draw stay
// deterministic (see DESIGN.md "NAT datapath fast path").
//
// Entries are pooled: expiry and Clear() recycle them (keeping their
// sessions vector capacity), so steady-state mapping churn performs zero
// heap allocations once the table has reached its high-water size.

#ifndef SRC_NAT_NAT_TABLE_H_
#define SRC_NAT_NAT_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/nat/nat_config.h"
#include "src/netsim/address.h"
#include "src/netsim/packet.h"
#include "src/netsim/sim_time.h"
#include "src/util/flat_hash.h"
#include "src/util/rng.h"

namespace natpunch {

class NatTable {
 public:
  struct OutKey {
    IpProtocol protocol = IpProtocol::kUdp;
    Endpoint private_ep;
    // Zeroed unless the mapping behavior depends on them.
    Ipv4Address remote_ip;
    uint16_t remote_port = 0;

    bool operator==(const OutKey&) const = default;
  };
  struct PortKey {
    IpProtocol protocol = IpProtocol::kUdp;
    uint16_t port = 0;

    bool operator==(const PortKey&) const = default;
  };
  // Index key for the per-private-endpoint entry chain.
  struct PrivKey {
    IpProtocol protocol = IpProtocol::kUdp;
    Endpoint private_ep;

    bool operator==(const PrivKey&) const = default;
  };

  struct Entry {
    IpProtocol protocol = IpProtocol::kUdp;
    Endpoint private_ep;
    uint16_t public_port = 0;
    SimTime last_refresh;

    // Per-session activity (§3.6: "many NATs associate UDP idle timers with
    // individual UDP sessions defined by a particular pair of endpoints, so
    // sending keep-alives on one session will not keep other sessions
    // active"). Also the filtering state. Insertion-ordered; every query is
    // a time-gated boolean OR, so order is unobservable.
    struct Session {
      Endpoint remote;
      SimTime last;
    };
    std::vector<Session> sessions;

    // TCP lifetime tracking (§4: "the TCP state machine gives NATs a
    // standard way to determine the precise lifetime of a session").
    bool tcp_inbound_seen = false;
    bool tcp_established = false;
    bool tcp_closing = false;

    // Does the filtering policy admit inbound traffic from `remote`, given
    // that sessions idle past `session_timeout` no longer count?
    bool AllowsInbound(NatFiltering filtering, const Endpoint& remote, SimTime now,
                       SimDuration session_timeout) const;

    // last_refresh is the max over session refresh times by construction.
    SimTime NewestActivity() const { return last_refresh; }
    void Refresh(const Endpoint& remote, SimTime now) {
      for (Session& session : sessions) {
        if (session.remote == remote) {
          session.last = now;
          last_refresh = now;
          return;
        }
      }
      sessions.push_back(Session{remote, now});
      last_refresh = now;
    }

    // --- NatTable internals (intrusive links; never touch from outside) ---
    OutKey out_key;                 // for index removal at expiry
    Entry* lru_prev = nullptr;      // expiry list, oldest first
    Entry* lru_next = nullptr;
    int lru_class = 0;              // which expiry list this entry is on
    Entry* chain_prev = nullptr;    // per-(protocol, private_ep) chain
    Entry* chain_next = nullptr;
    Entry* free_next = nullptr;     // entry pool free list
  };

  NatTable(NatMapping mapping, NatPortAllocation allocation, uint16_t port_base, Rng rng,
           bool symmetric_on_contention = false);

  // Outbound: find or create the mapping for (private_ep -> remote),
  // refresh it, and record the remote for filtering. Returns nullptr only
  // when the port pool is exhausted.
  Entry* MapOutbound(IpProtocol protocol, const Endpoint& private_ep, const Endpoint& remote,
                     SimTime now);

  // Outbound lookup without creating or refreshing.
  Entry* FindOutbound(IpProtocol protocol, const Endpoint& private_ep, const Endpoint& remote);

  // Inbound: lookup by the public port the packet was addressed to.
  Entry* FindByPublicPort(IpProtocol protocol, uint16_t public_port);

  // Reverse lookup by private endpoint (used for translating outbound ICMP
  // error quotations). O(mappings of that endpoint) via the entry chain;
  // returns the lowest public port to match the old full-scan order.
  Entry* FindByPrivateEndpoint(IpProtocol protocol, const Endpoint& private_ep);

  // Filtering decision per RFC 4787 semantics: the filter state belongs to
  // the *internal endpoint*, so the remote is checked against the union of
  // fresh sessions across every mapping of entry.private_ep. (For a cone
  // NAT that union is one entry; for symmetric mappings it spans them.)
  bool AllowsInbound(const Entry& entry, NatFiltering filtering, const Endpoint& remote,
                     SimTime now, SimDuration session_timeout) const;

  // Refresh an entry through the table so its expiry-list position tracks
  // last_refresh. All production refreshes go through here (or MapOutbound).
  void Touch(Entry* entry, const Endpoint& remote, SimTime now) {
    entry->Refresh(remote, now);
    MoveToListTail(entry);
  }

  // Re-file `entry` under its current timeout class after TCP flag changes.
  void Reclassify(Entry* entry) {
    const int cls = ClassOf(*entry);
    if (cls != entry->lru_class) {
      ListUnlink(entry);
      ListInsertSorted(cls, entry);
    }
  }

  // Remove entries idle past their class timeout. Returns how many expired.
  struct Timeouts {
    SimDuration udp;
    SimDuration tcp_established;
    SimDuration tcp_transitory;
  };
  size_t Expire(SimTime now, const Timeouts& timeouts);

  size_t size() const { return by_port_.size(); }

  // Drop all state (failure injection: a NAT reboot).
  void Clear();

 private:
  struct OutKeyHash {
    size_t operator()(const OutKey& k) const {
      uint64_t h = static_cast<uint64_t>(k.protocol);
      h = h * 0x9e3779b97f4a7c15ULL + k.private_ep.ip.bits();
      h = h * 0x9e3779b97f4a7c15ULL + k.private_ep.port;
      h = h * 0x9e3779b97f4a7c15ULL + k.remote_ip.bits();
      h = h * 0x9e3779b97f4a7c15ULL + k.remote_port;
      return static_cast<size_t>(h);
    }
  };
  struct PortKeyHash {
    size_t operator()(const PortKey& k) const {
      return (static_cast<size_t>(k.protocol) << 16) | k.port;
    }
  };
  struct PrivKeyHash {
    size_t operator()(const PrivKey& k) const {
      uint64_t h = static_cast<uint64_t>(k.protocol);
      h = h * 0x9e3779b97f4a7c15ULL + k.private_ep.ip.bits();
      h = h * 0x9e3779b97f4a7c15ULL + k.private_ep.port;
      return static_cast<size_t>(h);
    }
  };
  // Which inside hosts are using a private port (§6.3 contention tracking).
  // EffectiveMapping only needs "more than one distinct IP".
  struct PortUsers {
    Ipv4Address first;
    bool any = false;
    bool multi = false;
  };

  // Timeout classes, indexing lists_.
  static constexpr int kClassUdp = 0;
  static constexpr int kClassTcpEstablished = 1;
  static constexpr int kClassTcpTransitory = 2;
  static constexpr int kClassCount = 3;
  struct List {
    Entry* head = nullptr;  // oldest last_refresh
    Entry* tail = nullptr;  // newest last_refresh
  };

  static int ClassOf(const Entry& entry) {
    if (entry.protocol != IpProtocol::kTcp) {
      return kClassUdp;
    }
    return (entry.tcp_established && !entry.tcp_closing) ? kClassTcpEstablished
                                                         : kClassTcpTransitory;
  }

  // Mapping behavior currently in force for this private endpoint: the
  // configured one, unless §6.3 port contention demoted it to symmetric.
  NatMapping EffectiveMapping(IpProtocol protocol, const Endpoint& private_ep) const;
  OutKey MakeOutKey(IpProtocol protocol, const Endpoint& private_ep, const Endpoint& remote,
                    NatMapping mapping) const;
  // 0 on pool exhaustion.
  uint16_t AllocatePort(IpProtocol protocol, uint16_t private_port);
  bool PortFree(IpProtocol protocol, uint16_t port) const;

  Entry* AcquireEntry();
  void ReleaseEntry(Entry* entry);
  // Unlink from every index and recycle.
  void RemoveEntry(Entry* entry);

  void ListUnlink(Entry* entry);
  void ListAppend(int cls, Entry* entry);
  // Insert keeping the list sorted by last_refresh (walks back from the
  // tail; used when re-filing an entry whose refresh time is not newest).
  void ListInsertSorted(int cls, Entry* entry);
  void MoveToListTail(Entry* entry);

  void ChainInsert(Entry* entry);
  void ChainUnlink(Entry* entry);

  NatMapping mapping_;
  NatPortAllocation allocation_;
  bool symmetric_on_contention_;
  FlatHashMap<PortKey, PortUsers, PortKeyHash> port_users_;
  uint16_t port_base_;
  // Independent sequential counters per transport protocol, matching real
  // NATs whose UDP and TCP port pools are disjoint.
  uint16_t next_port_udp_;
  uint16_t next_port_tcp_;
  Rng rng_;

  FlatHashMap<OutKey, Entry*, OutKeyHash> by_out_;
  FlatHashMap<PortKey, Entry*, PortKeyHash> by_port_;
  // Head of the doubly-linked chain of this endpoint's entries (symmetric
  // mappings give one endpoint many entries; cone NATs exactly one).
  FlatHashMap<PrivKey, Entry*, PrivKeyHash> by_priv_;

  List lists_[kClassCount];

  // Entry pool: arena of all entries ever created plus an intrusive free
  // list. Recycled entries keep their sessions vector capacity.
  std::vector<std::unique_ptr<Entry>> arena_;
  Entry* free_list_ = nullptr;
};

}  // namespace natpunch

#endif  // SRC_NAT_NAT_TABLE_H_
