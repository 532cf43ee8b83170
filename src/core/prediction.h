// Port prediction for symmetric NATs (§5.1).
//
// A symmetric NAT allocates a fresh public port per destination, so the
// endpoint S observed is useless for punching. But "many symmetric NATs
// allocate port numbers for successive sessions in a fairly predictable
// way": sample two successive mappings via STUN-like echoes, extrapolate
// the next port, exchange predictions through S, and punch at the predicted
// endpoints. The paper is explicit that this is "chasing a moving target";
// the prediction ablation benchmark quantifies how cross-traffic and random
// allocation break it.

#ifndef SRC_CORE_PREDICTION_H_
#define SRC_CORE_PREDICTION_H_

#include "src/core/udp_puncher.h"

namespace natpunch {

class PredictivePuncher {
 public:
  // Shares the rendezvous client's socket (and therefore its NAT mapping
  // chain — prediction must sample the same chain it punches on). Claims
  // the puncher's raw-traffic hook and the kPredicted forward handler.
  PredictivePuncher(UdpHolePuncher* puncher, Endpoint stun1, Endpoint stun2);

  void ConnectToPeer(uint64_t peer_id, UdpHolePuncher::SessionCallback cb);

 private:
  struct Sample {
    uint64_t txn = 0;
    int stage = 0;  // 0: waiting on stun1, 1: waiting on stun2
    int attempts = 0;
    Endpoint e1;
    std::function<void(Result<Endpoint>)> cb;
    EventLoop::EventId timer = EventLoop::kInvalidEventId;
  };

  // Measure two successive mappings and extrapolate the next public
  // endpoint this socket's NAT will hand out.
  void SamplePrediction(std::function<void(Result<Endpoint>)> cb);
  void SendSample(std::shared_ptr<Sample> sample);
  void OnRaw(const Endpoint& from, const Payload& payload);
  void OnForward(const RendezvousMessage& fwd);

  static Bytes EncodePredicted(const Endpoint& predicted);
  static std::optional<Endpoint> DecodePredicted(ConstByteSpan payload);

  UdpHolePuncher* puncher_;
  UdpRendezvousClient* rendezvous_;
  Endpoint stun1_;
  Endpoint stun2_;
  std::shared_ptr<Sample> active_sample_;
  std::map<uint64_t, UdpHolePuncher::SessionCallback> pending_;  // by nonce
};

}  // namespace natpunch

#endif  // SRC_CORE_PREDICTION_H_
