// Unit tests for src/netsim: virtual time, event loop determinism,
// addressing, LAN delivery, routing, loss, and trace capture.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/netsim/address.h"
#include "src/netsim/event_loop.h"
#include "src/netsim/network.h"
#include "src/netsim/packet.h"

namespace natpunch {
namespace {

TEST(SimTimeTest, Arithmetic) {
  SimTime t0;
  SimTime t1 = t0 + Millis(5);
  EXPECT_EQ((t1 - t0).micros(), 5000);
  EXPECT_LT(t0, t1);
  EXPECT_EQ((Seconds(2) + Millis(500)).micros(), 2'500'000);
  EXPECT_EQ((Seconds(1) / 4).millis(), 250);
}

TEST(SimTimeTest, Formatting) {
  EXPECT_EQ(Seconds(3).ToString(), "3s");
  EXPECT_EQ(Millis(250).ToString(), "250ms");
  EXPECT_EQ(Micros(7).ToString(), "7us");
}

TEST(EventLoopTest, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(SimTime(300), [&] { order.push_back(3); });
  loop.ScheduleAt(SimTime(100), [&] { order.push_back(1); });
  loop.ScheduleAt(SimTime(200), [&] { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().micros(), 300);
}

TEST(EventLoopTest, SameTimeFifoOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(SimTime(50), [&order, i] { order.push_back(i); });
  }
  loop.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoopTest, CancelPreventsFiring) {
  EventLoop loop;
  bool fired = false;
  auto id = loop.ScheduleAfter(Millis(1), [&] { fired = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // second cancel is a no-op
  loop.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, RunUntilAdvancesClockPastLastEvent) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(SimTime(100), [&] { ++count; });
  loop.ScheduleAt(SimTime(900), [&] { ++count; });
  loop.RunUntil(SimTime(500));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now().micros(), 500);
  loop.RunUntil(SimTime(1000));
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, EventsCanScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      loop.ScheduleAfter(Millis(1), recurse);
    }
  };
  loop.ScheduleAfter(Millis(1), recurse);
  loop.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now().micros(), 5000);
}

TEST(EventLoopTest, RunUntilIdleHonorsCap) {
  EventLoop loop;
  std::function<void()> forever = [&] { loop.ScheduleAfter(Micros(1), forever); };
  loop.ScheduleAfter(Micros(1), forever);
  EXPECT_EQ(loop.RunUntilIdle(100), 100u);
}

TEST(EventLoopTest, CancelAfterFireReturnsFalse) {
  EventLoop loop;
  int fired = 0;
  const auto id = loop.ScheduleAt(SimTime(10), [&] { ++fired; });
  loop.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(loop.Cancel(id));  // already fired
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopTest, CancelFromInsideCallback) {
  EventLoop loop;
  bool second_fired = false;
  EventLoop::EventId second = EventLoop::kInvalidEventId;
  second = loop.ScheduleAt(SimTime(20), [&] { second_fired = true; });
  loop.ScheduleAt(SimTime(10), [&] { EXPECT_TRUE(loop.Cancel(second)); });
  loop.RunUntilIdle();
  EXPECT_FALSE(second_fired);
  EXPECT_TRUE(loop.idle());
}

TEST(EventLoopTest, CancelSameInstantSiblingPreservesOrder) {
  EventLoop loop;
  std::vector<int> order;
  EventLoop::EventId doomed = EventLoop::kInvalidEventId;
  loop.ScheduleAt(SimTime(50), [&] { order.push_back(0); });
  doomed = loop.ScheduleAt(SimTime(50), [&] { order.push_back(1); });
  loop.ScheduleAt(SimTime(50), [&] { order.push_back(2); });
  EXPECT_TRUE(loop.Cancel(doomed));
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventLoopTest, PendingCountTracksCancellation) {
  EventLoop loop;
  const auto a = loop.ScheduleAt(SimTime(10), [] {});
  const auto b = loop.ScheduleAt(SimTime(20), [] {});
  EXPECT_EQ(loop.pending_count(), 2u);
  EXPECT_FALSE(loop.idle());
  EXPECT_TRUE(loop.Cancel(a));
  EXPECT_EQ(loop.pending_count(), 1u);
  EXPECT_TRUE(loop.Cancel(b));
  EXPECT_EQ(loop.pending_count(), 0u);
  EXPECT_TRUE(loop.idle());
  EXPECT_FALSE(loop.RunOne());
}

TEST(EventLoopTest, SchedulingInThePastClampsToNow) {
  EventLoop loop;
  loop.ScheduleAt(SimTime(100), [] {});
  loop.RunUntilIdle();
  EXPECT_EQ(loop.now().micros(), 100);
  int64_t fired_at = -1;
  loop.ScheduleAt(SimTime(5), [&] { fired_at = loop.now().micros(); });
  loop.RunUntilIdle();
  EXPECT_EQ(fired_at, 100);
}

// Reference model with the original std::map<(time, seq)> semantics; the
// heap-based EventLoop must agree with it on every observable: Cancel()
// return values, firing order, event payload identity, and clock position.
class ModelLoop {
 public:
  uint64_t Schedule(int64_t at, int payload) {
    const int64_t t = std::max(at, now_);
    const uint64_t id = next_id_++;
    queue_.emplace(std::make_pair(t, id), payload);
    return id;
  }
  bool Cancel(uint64_t id) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->first.second == id) {
        queue_.erase(it);
        return true;
      }
    }
    return false;
  }
  bool RunOne(std::vector<int>* fired) {
    if (queue_.empty()) {
      return false;
    }
    auto it = queue_.begin();
    now_ = it->first.first;
    fired->push_back(it->second);
    queue_.erase(it);
    return true;
  }
  int64_t now() const { return now_; }
  size_t pending() const { return queue_.size(); }

 private:
  int64_t now_ = 0;
  uint64_t next_id_ = 1;
  std::map<std::pair<int64_t, uint64_t>, int> queue_;
};

// Drives an EventLoop and a ModelLoop in lockstep. Deterministic LCG so
// failures replay exactly. One closure in eight waits far ahead, so slots
// stay held while the others recycle theirs, and the random cancels of
// fired, cancelled and pending ids check that a stale id never cancels the
// event that now holds its slot. Four TimerHandles join in; to the model a
// timer is one more event, and a re-arm is a cancel plus a schedule. Some
// handles are destroyed and rebuilt while their key sits in the heap, so a
// stale timer key must not reach the handle, or the slot, that replaced
// it. One in-order channel takes a reserved sequence per event and keeps
// only its head armed, re-arming before the head's work runs, as a Lan
// does; to the model each channel event is a schedule made at reservation
// time. Events work while they run: they schedule a closure, arm a handle
// (a timer re-arms itself at now), cancel an id from the history or append
// to the channel, so a dispatch makes zero, one or two pushes, and a handle
// that re-arms itself takes back the slot its dispatch just freed.
class LoopModelHarness {
 public:
  static constexpr int kTimers = 4;

  LoopModelHarness() {
    for (int k = 0; k < kTimers; ++k) {
      Rebuild(k);
    }
    channel_timer_.Bind<&LoopModelHarness::ChannelFire>(this);
  }

  uint64_t Next(uint64_t bound) {
    rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng_ >> 33) % bound;
  }

  // Near now (sometimes in the past → clamps), or far ahead.
  int64_t PickTime() {
    const int64_t ahead = Next(8) == 0 ? 100'000 + static_cast<int64_t>(Next(100'000))
                                       : static_cast<int64_t>(Next(40)) - 5;
    return loop_.now().micros() + ahead;
  }

  void ScheduleClosure() {
    const int64_t at = PickTime();
    const int p = payload_++;
    const auto lid = loop_.ScheduleAt(SimTime(at), [this, p] { Fired(p, -1); });
    ids_.emplace_back(lid, model_.Schedule(at, p));
  }

  // Cancel a random id from the history — pending, fired, or already
  // cancelled; the two implementations must agree on the return value.
  void CancelFromHistory() {
    if (!ids_.empty()) {
      const auto& [lid, mid] = ids_[Next(ids_.size())];
      EXPECT_EQ(loop_.Cancel(lid), model_.Cancel(mid));
    }
  }

  void ArmTimer(int k, int64_t at) {
    ModelCancelTimer(k);
    Timer& timer = *timers_[k];
    timer.payload = payload_++;
    loop_.ScheduleTimerAt(SimTime(at), &timer.handle);
    timer_mids_[k] = model_.Schedule(at, timer.payload);
  }

  void CancelTimer(int k) {
    const bool model_was_armed = ModelCancelTimer(k);
    EXPECT_EQ(timers_[k]->handle.Cancel(), model_was_armed);
  }

  // Destroy timer k (its destructor cancels it) and build a fresh one.
  void Rebuild(int k) {
    if (timers_[k] != nullptr) {
      const size_t wheel_before = loop_.wheel_pending();
      const bool pending = timers_[k]->handle.pending();
      EXPECT_EQ(pending, ModelCancelTimer(k));
      timers_[k].reset();
      if (pending && loop_.wheel_pending() == wheel_before) {
        ++heap_rebuilds_;
      }
    }
    timers_[k] = std::make_unique<Timer>();
    timers_[k]->harness = this;
    timers_[k]->index = k;
    timers_[k]->handle.Bind<&Timer::Fire>(timers_[k].get());
  }

  // Append at `at`, or at the tail's time if that is later: the channel
  // stays sorted, as a Lan's queue does.
  void ChannelAppend(int64_t at) {
    at = std::max(at, loop_.now().micros());
    if (!channel_.empty()) {
      at = std::max(at, channel_.back().time);
    }
    const int p = payload_++;
    const EventLoop::EventId id = loop_.ReserveSequence();
    model_.Schedule(at, p);
    channel_.push_back(ChannelEvent{at, id, p});
    if (channel_.size() == 1) {
      loop_.ScheduleReserved(SimTime(at), id, &channel_timer_);
    }
  }

  // One main-loop operation: 5 in 11 schedule, 3 run, 2 cancel from the
  // history and 1 drives the timers and the channel.
  void Step() {
    const uint64_t op = Next(11);
    if (op < 5) {
      ScheduleClosure();
    } else if (op < 8) {
      RunOne();
    } else if (op < 10) {
      CancelFromHistory();
    } else {
      const uint64_t what = Next(8);
      const int k = static_cast<int>(Next(kTimers));
      if (what < 3) {
        ArmTimer(k, PickTime());
      } else if (what < 4) {
        CancelTimer(k);
      } else if (what < 6) {
        Rebuild(k);
      } else {
        ChannelAppend(PickTime());
      }
    }
  }

  // The model fires first, so the loop's event finds the model in its
  // post-dispatch state when it works.
  bool RunOne() {
    const bool model_ran = model_.RunOne(&model_fired_);
    EXPECT_EQ(loop_.RunOne(), model_ran);
    EXPECT_EQ(loop_.now().micros(), model_.now());
    return model_ran;
  }

  // The loop counts a busy channel once; the model counts its events.
  size_t loop_pending_as_model() const {
    return loop_.pending_count() - (channel_.empty() ? 0 : 1) + channel_.size();
  }
  size_t model_pending() const { return model_.pending(); }
  const std::vector<int>& loop_fired() const { return loop_fired_; }
  const std::vector<int>& model_fired() const { return model_fired_; }
  int heap_rebuilds() const { return heap_rebuilds_; }
  EventLoop& loop() { return loop_; }

 private:
  struct Timer {
    LoopModelHarness* harness = nullptr;
    int index = 0;
    int payload = 0;
    TimerHandle handle;
    void Fire() { harness->TimerFired(index); }
  };
  struct ChannelEvent {
    int64_t time;
    EventLoop::EventId id;
    int payload;
  };

  bool ModelCancelTimer(int k) {
    const bool was_armed = timer_mids_[k] != 0 && model_.Cancel(timer_mids_[k]);
    timer_mids_[k] = 0;
    return was_armed;
  }

  void TimerFired(int k) {
    timer_mids_[k] = 0;
    Fired(timers_[k]->payload, k);
  }

  void ChannelFire() {
    const ChannelEvent head = channel_.front();
    channel_.pop_front();
    if (!channel_.empty()) {
      loop_.ScheduleReserved(SimTime(channel_.front().time), channel_.front().id,
                             &channel_timer_);
    }
    Fired(head.payload, -1);
  }

  // What a running event does; `self` is the firing timer, or -1.
  void Fired(int payload, int self) {
    loop_fired_.push_back(payload);
    switch (Next(8)) {
      case 0:
        ScheduleClosure();
        break;
      case 1: {
        const int k = self >= 0 && Next(2) == 0 ? self : static_cast<int>(Next(kTimers));
        ArmTimer(k, k == self ? loop_.now().micros() : PickTime());
        break;
      }
      case 2:
        CancelFromHistory();
        break;
      case 3:
        ScheduleClosure();
        ArmTimer(static_cast<int>(Next(kTimers)), PickTime());
        break;
      case 4:
        ChannelAppend(PickTime());
        break;
      default:
        break;  // no push
    }
  }

  EventLoop loop_;
  ModelLoop model_;
  uint64_t rng_ = 12345;
  int payload_ = 0;
  int heap_rebuilds_ = 0;
  std::vector<int> loop_fired_;
  std::vector<int> model_fired_;
  std::vector<std::pair<EventLoop::EventId, uint64_t>> ids_;  // (loop id, model id)
  std::unique_ptr<Timer> timers_[kTimers];
  uint64_t timer_mids_[kTimers] = {};  // each timer's model id while armed
  std::deque<ChannelEvent> channel_;
  TimerHandle channel_timer_;
};

// 22,000 main-loop steps: about 10,000 schedules, 6,000 runs, 4,000 history
// cancels and 2,000 timer and channel operations (310 of them rebuild a
// heap-resident timer). The 6,100 events those runs fire add about 1,500
// schedules, 1,560 arms, 800 appends and 780 history cancels, so history
// cancels stay at 18% of all operations. The drain then runs the remaining
// 5,000 events and whatever they schedule until both queues are empty.
TEST(EventLoopTest, RandomizedAgainstMapModel) {
  LoopModelHarness h;
  for (int step = 0; step < 22000; ++step) {
    h.Step();
    ASSERT_EQ(h.loop_pending_as_model(), h.model_pending()) << "diverged at step " << step;
    ASSERT_EQ(h.loop_fired().size(), h.model_fired().size()) << "diverged at step " << step;
  }
  while (h.RunOne()) {
  }
  EXPECT_FALSE(h.loop().RunOne());
  EXPECT_EQ(h.loop_fired(), h.model_fired());
  EXPECT_GE(h.heap_rebuilds(), 100);
}

// A handle may outlive the loop it was armed on (a session destroyed after
// its Network). The loop detaches its handles when it dies, and an idle
// handle's Cancel never touches its loop, so both handles here read
// !pending() and their destructors run cleanly; under ASan a call into the
// freed loop would be a heap-use-after-free.
TEST(EventLoopTest, ArmedHandlesOutliveTheirLoop) {
  struct Owner {
    TimerHandle handle;
    void Fire() {}
  };
  Owner in_wheel;
  Owner in_heap;
  in_wheel.handle.Bind<&Owner::Fire>(&in_wheel);
  in_heap.handle.Bind<&Owner::Fire>(&in_heap);
  auto loop = std::make_unique<EventLoop>();
  loop->ScheduleTimerAt(SimTime() + Seconds(10), &in_wheel.handle);
  loop->ScheduleReserved(SimTime(5), loop->ReserveSequence(), &in_heap.handle);
  ASSERT_EQ(loop->pending_count(), 2u);
  ASSERT_EQ(loop->wheel_pending(), 1u);
  loop.reset();
  EXPECT_FALSE(in_wheel.handle.pending());
  EXPECT_FALSE(in_heap.handle.pending());
  EXPECT_FALSE(in_wheel.handle.Cancel());
  EXPECT_FALSE(in_heap.handle.Cancel());
}

TEST(AddressTest, ParseAndFormat) {
  auto a = Ipv4Address::Parse("155.99.25.11");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->ToString(), "155.99.25.11");
  EXPECT_EQ(*a, Ipv4Address::FromOctets(155, 99, 25, 11));
}

TEST(AddressTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::Parse("").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("256.1.1.1").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1..2.3").has_value());
}

TEST(AddressTest, PrivateRanges) {
  EXPECT_TRUE(Ipv4Address::FromOctets(10, 0, 0, 1).IsPrivate());
  EXPECT_TRUE(Ipv4Address::FromOctets(172, 16, 0, 1).IsPrivate());
  EXPECT_TRUE(Ipv4Address::FromOctets(172, 31, 255, 255).IsPrivate());
  EXPECT_TRUE(Ipv4Address::FromOctets(192, 168, 1, 1).IsPrivate());
  EXPECT_FALSE(Ipv4Address::FromOctets(172, 32, 0, 1).IsPrivate());
  EXPECT_FALSE(Ipv4Address::FromOctets(18, 181, 0, 31).IsPrivate());
  EXPECT_FALSE(Ipv4Address::FromOctets(155, 99, 25, 11).IsPrivate());
}

TEST(AddressTest, ComplementIsInvolution) {
  const Ipv4Address a = Ipv4Address::FromOctets(10, 1, 1, 3);
  EXPECT_NE(a, a.Complement());
  EXPECT_EQ(a, a.Complement().Complement());
}

TEST(EndpointTest, ParseAndFormat) {
  auto e = Endpoint::Parse("138.76.29.7:31000");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->ToString(), "138.76.29.7:31000");
  EXPECT_EQ(e->port, 31000);
  EXPECT_FALSE(Endpoint::Parse("1.2.3.4").has_value());
  EXPECT_FALSE(Endpoint::Parse("1.2.3.4:99999").has_value());
  EXPECT_FALSE(Endpoint::Parse("1.2.3.4:").has_value());
}

TEST(PrefixTest, Contains) {
  auto p = Ipv4Prefix::Parse("10.0.0.0/24");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Contains(Ipv4Address::FromOctets(10, 0, 0, 200)));
  EXPECT_FALSE(p->Contains(Ipv4Address::FromOctets(10, 0, 1, 1)));
  auto all = Ipv4Prefix::Parse("0.0.0.0/0");
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->Contains(Ipv4Address::FromOctets(255, 255, 255, 255)));
}

TEST(PacketTest, WireSizeAccountsHeaders) {
  Packet udp;
  udp.protocol = IpProtocol::kUdp;
  udp.payload = Bytes(100);
  EXPECT_EQ(udp.WireSize(), 20u + 8u + 100u);
  Packet tcp;
  tcp.protocol = IpProtocol::kTcp;
  EXPECT_EQ(tcp.WireSize(), 40u);
}

TEST(PacketTest, SummaryShowsFlags) {
  Packet p;
  p.protocol = IpProtocol::kTcp;
  p.tcp.syn = true;
  p.tcp.ack = true;
  p.set_src(Endpoint(Ipv4Address::FromOctets(1, 2, 3, 4), 10));
  p.set_dst(Endpoint(Ipv4Address::FromOctets(5, 6, 7, 8), 20));
  const std::string s = p.Summary();
  EXPECT_NE(s.find("SYN,ACK"), std::string::npos);
  EXPECT_NE(s.find("1.2.3.4:10"), std::string::npos);
}

// A trivial sink node recording what it receives.
class SinkNode : public Node {
 public:
  SinkNode(Network* net, std::string name) : Node(net, std::move(name)) {}
  void HandlePacket(int iface, Packet&& packet) override {
    (void)iface;
    received.push_back(std::move(packet));
  }
  std::vector<Packet> received;
};

TEST(LanTest, DeliversToOwnerWithLatency) {
  Network net(1);
  Lan* lan = net.CreateLan("lan", LanConfig{.latency = Millis(5)});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  b->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2));

  Packet p;
  p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
  ASSERT_TRUE(a->SendPacket(std::move(p)));
  net.RunFor(Millis(4));
  EXPECT_TRUE(b->received.empty());
  net.RunFor(Millis(2));
  ASSERT_EQ(b->received.size(), 1u);
  // Source filled in from the egress interface.
  EXPECT_EQ(b->received[0].src_ip, Ipv4Address::FromOctets(10, 0, 0, 1));
}

TEST(LanTest, NoRouteDropRecorded) {
  Network net(1);
  net.trace().set_enabled(true);
  Lan* lan = net.CreateLan("lan", LanConfig{});
  auto* a = net.Create<SinkNode>("a");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  Packet p;
  p.set_dst(Endpoint(Ipv4Address::FromOctets(99, 0, 0, 1), 9));
  EXPECT_FALSE(a->SendPacket(std::move(p)));  // off-subnet, no default route
  EXPECT_EQ(net.trace().Count(TraceEvent::kDropNoRoute), 1u);
}

TEST(LanTest, MissingNextHopDropRecorded) {
  Network net(1);
  net.trace().set_enabled(true);
  Lan* lan = net.CreateLan("lan", LanConfig{});
  auto* a = net.Create<SinkNode>("a");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  Packet p;
  p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 99), 9));  // on-subnet, absent
  EXPECT_TRUE(a->SendPacket(std::move(p)));
  net.RunUntilIdle();
  EXPECT_EQ(net.trace().Count(TraceEvent::kDropNoNextHop), 1u);
}

TEST(LanTest, PrivateLeakOnGlobalRealm) {
  Network net(1);
  net.trace().set_enabled(true);
  Lan* internet = net.CreateLan("internet", LanConfig{.is_global = true});
  auto* a = net.Create<SinkNode>("a");
  const int iface = a->AttachTo(internet, Ipv4Address::FromOctets(18, 0, 0, 1), 8);
  a->AddRoute(Ipv4Prefix(Ipv4Address(0), 0), iface);
  Packet p;
  p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 1, 1, 3), 9));
  EXPECT_TRUE(a->SendPacket(std::move(p)));
  net.RunUntilIdle();
  EXPECT_EQ(net.trace().Count(TraceEvent::kDropPrivateLeak), 1u);
}

TEST(LanTest, LossDropsDeterministically) {
  Network net(42);
  net.trace().set_enabled(true);
  Lan* lan = net.CreateLan("lossy", LanConfig{.loss = 0.5});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  b->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2));
  for (int i = 0; i < 200; ++i) {
    Packet p;
    p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
    a->SendPacket(std::move(p));
  }
  net.RunUntilIdle();
  const size_t delivered = b->received.size();
  EXPECT_GT(delivered, 60u);
  EXPECT_LT(delivered, 140u);
  EXPECT_EQ(delivered + net.trace().Count(TraceEvent::kDropLoss), 200u);
}

TEST(LanTest, BandwidthSerializesPackets) {
  Network net(1);
  // 1 Mbit/s, negligible propagation: a 1028-byte packet (1000 payload +
  // 28 headers) takes ~8.2 ms on the wire, so 10 back-to-back packets
  // arrive spread over ~82 ms instead of simultaneously.
  Lan* lan = net.CreateLan("slow", LanConfig{.latency = Micros(1), .bandwidth_bps = 1e6});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  b->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2));
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.protocol = IpProtocol::kUdp;
    p.payload = Bytes(1000);
    p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
    a->SendPacket(std::move(p));
  }
  net.RunFor(Millis(50));
  EXPECT_LT(b->received.size(), 10u);  // still serializing
  net.RunFor(Millis(50));
  EXPECT_EQ(b->received.size(), 10u);
  EXPECT_GT(net.now().micros(), 80'000);
}

TEST(LanTest, InfiniteBandwidthDeliversConcurrently) {
  Network net(1);
  Lan* lan = net.CreateLan("fast", LanConfig{.latency = Millis(1)});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  b->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2));
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.payload = Bytes(1000);
    p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
    a->SendPacket(std::move(p));
  }
  net.RunFor(Millis(1));
  EXPECT_EQ(b->received.size(), 10u);  // all arrive after one latency
}

// Sends every packet it receives straight back to its source on the same
// Lan, while its echo budget lasts, and logs each arrival to a shared list.
class EchoNode : public Node {
 public:
  using Arrival = std::tuple<int64_t, std::string, uint64_t>;  // (time, node, packet id)

  EchoNode(Network* net, std::string name, std::vector<Arrival>* log, int echoes)
      : Node(net, std::move(name)), log_(log), echoes_(echoes) {}

  void HandlePacket(int iface, Packet&& packet) override {
    (void)iface;
    log_->emplace_back(network()->now().micros(), name(), packet.id);
    if (echoes_ > 0) {
      --echoes_;
      const Endpoint from = packet.src();
      packet.set_src(packet.dst());
      packet.set_dst(from);
      SendPacket(std::move(packet));
    }
  }

 private:
  std::vector<Arrival>* log_;
  int echoes_;
};

// A delivery whose handler transmits on the same Lan: the new packet joins
// the link while older ones are still in flight on it, and with zero
// latency it lands at the very instant being dispatched.
TEST(LanTest, DeliveryTransmitsAgainOnSameLan) {
  for (const SimDuration latency : {Micros(0), Millis(5)}) {
    Network net(1);
    Lan* lan = net.CreateLan("lan", LanConfig{.latency = latency});
    std::vector<EchoNode::Arrival> log;
    auto* a = net.Create<EchoNode>("a", &log, 3);
    auto* b = net.Create<EchoNode>("b", &log, 6);
    a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
    b->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2));
    for (int i = 0; i < 3; ++i) {
      Packet p;
      p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
      ASSERT_TRUE(a->SendPacket(std::move(p)));
    }
    net.RunUntilIdle();
    // Each wave arrives one latency after the previous one, in send order:
    // b's first three echoes, a's three, then b's last three.
    std::vector<EchoNode::Arrival> want;
    const int64_t l = latency.micros();
    for (int wave = 1; wave <= 4; ++wave) {
      for (uint64_t id = 1; id <= 3; ++id) {
        want.emplace_back(wave * l, wave % 2 == 1 ? "b" : "a", id);
      }
    }
    EXPECT_EQ(log, want) << "latency " << latency.ToString();
  }
}

// Forwards every packet it receives as `fanout` numbered packets on its
// second interface.
class FanoutNode : public Node {
 public:
  FanoutNode(Network* net, std::string name, Ipv4Address to, int fanout)
      : Node(net, std::move(name)), to_(to), fanout_(fanout) {}

  void HandlePacket(int, Packet&&) override {
    for (int i = 0; i < fanout_; ++i) {
      Packet p;
      p.payload = FanoutPayload(i);
      p.set_dst(Endpoint(to_, 9));
      SendPacket(std::move(p));
    }
  }

  // Packet i's payload, distinct for every i < 6,400: 1 + i % 100 bytes
  // (inline and heap), each i's low byte.
  static Bytes FanoutPayload(int i) {
    return Bytes(static_cast<size_t>(1 + i % 100), static_cast<uint8_t>(i));
  }

 private:
  Ipv4Address to_;
  int fanout_;
};

// A delivery on one Lan whose handler puts a burst on another Lan: the
// shared delivery pool grows while the first delivery's Deliver is still on
// the stack, and every packet of the burst still arrives once, in order,
// with its payload.
TEST(LanTest, DeliveryGrowsThePoolUnderItself) {
  constexpr int kFanout = 1000;
  Network net(1);
  Lan* in = net.CreateLan("in", LanConfig{.latency = Millis(1)});
  Lan* out = net.CreateLan("out", LanConfig{.latency = Millis(1)});
  auto* a = net.Create<SinkNode>("a");
  auto* fan = net.Create<FanoutNode>("fan", Ipv4Address::FromOctets(10, 0, 1, 2), kFanout);
  auto* b = net.Create<SinkNode>("b");
  a->AttachTo(in, Ipv4Address::FromOctets(10, 0, 0, 1));
  fan->AttachTo(in, Ipv4Address::FromOctets(10, 0, 0, 2));
  fan->AttachTo(out, Ipv4Address::FromOctets(10, 0, 1, 1));
  b->AttachTo(out, Ipv4Address::FromOctets(10, 0, 1, 2));

  Packet trigger;
  trigger.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
  ASSERT_TRUE(a->SendPacket(std::move(trigger)));
  net.RunUntilIdle();

  ASSERT_EQ(b->received.size(), static_cast<size_t>(kFanout));
  for (int i = 0; i < kFanout; ++i) {
    EXPECT_EQ(b->received[static_cast<size_t>(i)].payload.ToBytes(),
              FanoutNode::FanoutPayload(i))
        << "packet " << i;
  }
  EXPECT_EQ(net.now().micros(), 2000);
}

// Two attachments own one IP: a third node reaches the first owner, each
// owner reaches the other one rather than itself, and a lone owner
// addressing its own IP gets the packet back.
TEST(LanTest, SharedAddressPrefersAnOwnerOtherThanTheSender) {
  Network net(1);
  Lan* lan = net.CreateLan("lan", LanConfig{.latency = Millis(1)});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  auto* c = net.Create<SinkNode>("c");
  const Ipv4Address a_ip = Ipv4Address::FromOctets(10, 0, 0, 1);
  const Ipv4Address shared = Ipv4Address::FromOctets(10, 0, 0, 9);
  a->AttachTo(lan, a_ip);
  b->AttachTo(lan, shared);
  c->AttachTo(lan, shared);
  const auto send = [&](SinkNode* from, Ipv4Address to) {
    Packet p;
    p.set_dst(Endpoint(to, 9));
    ASSERT_TRUE(from->SendPacket(std::move(p)));
    net.RunFor(Millis(2));
  };
  send(a, shared);
  EXPECT_EQ(b->received.size(), 1u);
  EXPECT_EQ(c->received.size(), 0u);
  send(b, shared);
  EXPECT_EQ(c->received.size(), 1u);
  send(c, shared);
  EXPECT_EQ(b->received.size(), 2u);
  EXPECT_EQ(c->received.size(), 1u);
  send(a, a_ip);
  EXPECT_EQ(a->received.size(), 1u);
  EXPECT_TRUE(lan->HasAddress(shared));
  EXPECT_FALSE(lan->HasAddress(Ipv4Address::FromOctets(10, 0, 0, 2)));
}

// Two nodes trade bursts over a jittered link, so each direction carries
// deliveries both in and out of transmit order. Runs `run_for` and returns
// the trace.
std::string JitteredBursts(Network& net, SimDuration run_for) {
  net.trace().set_enabled(true);
  Lan* lan = net.CreateLan("lan", LanConfig{.latency = Millis(5), .jitter = Micros(3)});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  const Ipv4Address a_ip = Ipv4Address::FromOctets(10, 0, 0, 1);
  const Ipv4Address b_ip = Ipv4Address::FromOctets(10, 0, 0, 2);
  a->AttachTo(lan, a_ip);
  b->AttachTo(lan, b_ip);
  for (int i = 0; i < 20; ++i) {
    for (const auto& [from, to] : {std::pair{a, b_ip}, std::pair{b, a_ip}}) {
      Packet p;
      p.payload = Bytes(static_cast<size_t>(i) * 10);  // inline and heap payloads
      p.set_dst(Endpoint(to, 9));
      from->SendPacket(std::move(p));
    }
  }
  net.RunFor(run_for);
  return net.trace().Dump();
}

// Reset with deliveries still in flight drops them (and the payloads they
// own) cleanly, and the reused Network then replays a fresh one exactly.
TEST(NetworkTest, ResetWithPacketsInFlightMatchesFreshNetwork) {
  Network fresh(7);
  const std::string want = JitteredBursts(fresh, Millis(10));
  Network reused(7);
  const std::string partial = JitteredBursts(reused, Micros(5001));
  EXPECT_LT(partial.size(), want.size());
  EXPECT_FALSE(reused.event_loop().idle());
  reused.Reset(7);
  EXPECT_TRUE(reused.event_loop().idle());
  EXPECT_EQ(JitteredBursts(reused, Millis(10)), want);
}

TEST(NodeTest, LongestPrefixMatchWins) {
  Network net(1);
  Lan* lan1 = net.CreateLan("l1", LanConfig{});
  Lan* lan2 = net.CreateLan("l2", LanConfig{});
  auto* r = net.Create<SinkNode>("r");
  const int i1 = r->AttachTo(lan1, Ipv4Address::FromOctets(10, 0, 0, 1), 8);
  const int i2 = r->AttachTo(lan2, Ipv4Address::FromOctets(10, 0, 1, 1), 24);
  Ipv4Address next_hop;
  EXPECT_EQ(r->RouteLookup(Ipv4Address::FromOctets(10, 0, 1, 7), &next_hop), i2);
  EXPECT_EQ(r->RouteLookup(Ipv4Address::FromOctets(10, 9, 9, 9), &next_hop), i1);

  // A route added after traffic to a destination steers the next packet to
  // that destination.
  const Ipv4Address dst = Ipv4Address::FromOctets(10, 9, 9, 9);
  Packet first;
  first.set_dst(Endpoint(dst, 9));
  ASSERT_TRUE(r->SendPacket(std::move(first)));
  EXPECT_EQ(lan1->packets_transmitted(), 1u);
  EXPECT_EQ(lan2->packets_transmitted(), 0u);
  r->AddRoute(Ipv4Prefix(dst, 32), i2);
  Packet second;
  second.set_dst(Endpoint(dst, 9));
  ASSERT_TRUE(r->SendPacket(std::move(second)));
  EXPECT_EQ(lan1->packets_transmitted(), 1u);
  EXPECT_EQ(lan2->packets_transmitted(), 1u);
}

TEST(NodeTest, GatewayRouteSetsNextHop) {
  Network net(1);
  Lan* lan = net.CreateLan("l", LanConfig{});
  auto* h = net.Create<SinkNode>("h");
  const int iface = h->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2), 24);
  h->AddDefaultRoute(iface, Ipv4Address::FromOctets(10, 0, 0, 1));
  Ipv4Address next_hop;
  EXPECT_EQ(h->RouteLookup(Ipv4Address::FromOctets(8, 8, 8, 8), &next_hop), iface);
  EXPECT_EQ(next_hop, Ipv4Address::FromOctets(10, 0, 0, 1));
  // On-link destinations resolve to themselves.
  EXPECT_EQ(h->RouteLookup(Ipv4Address::FromOctets(10, 0, 0, 7), &next_hop), iface);
  EXPECT_EQ(next_hop, Ipv4Address::FromOctets(10, 0, 0, 7));
}

TEST(TraceTest, RecordsAndCounts) {
  Network net(1);
  net.trace().set_enabled(true);
  Packet p;
  p.id = 7;
  net.trace().Record(net.now(), "n1", TraceEvent::kSend, p);
  net.trace().Record(net.now(), "n2", TraceEvent::kSend, p);
  net.trace().Record(net.now(), "n1", TraceEvent::kDeliver, p, "note");
  EXPECT_EQ(net.trace().Count(TraceEvent::kSend), 2u);
  EXPECT_EQ(net.trace().Count(TraceEvent::kSend, "n1"), 1u);
  EXPECT_NE(net.trace().Dump().find("note"), std::string::npos);
  net.trace().Clear();
  EXPECT_TRUE(net.trace().records().empty());
}

TEST(TraceTest, DisabledRecordsNothing) {
  Network net(1);
  Packet p;
  net.trace().Record(net.now(), "n", TraceEvent::kSend, p);
  EXPECT_TRUE(net.trace().records().empty());
}

}  // namespace
}  // namespace natpunch
