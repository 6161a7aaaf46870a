// The three activities: forward, churn, tenant_cycle. See workloads.h.
#include "workloads.h"

#include <cstring>
#include <deque>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace h4bench {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kWorkers = 2;

h4_options base_options() {
  h4_options o;
  h4_options_init(&o);
  o.workers = kWorkers;
  return o;
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// The `pct` percentile of `v`, with a note giving its sample count (and a
// flag when fewer than ten samples lie beyond it).
std::string tail_note(const std::string& name, const std::vector<double>& v, double pct) {
  return name + " is p" + std::to_string(static_cast<int>(pct)) + " of " +
         std::to_string(v.size()) + " samples" +
         (tail_has_support(v.size(), pct) ? "" : " (under 10 beyond it: noisy)");
}

// Median of `v` into metric `p50`; when `tl` is named, its fixed
// percentile `pct` into metric `tl`.
void latency_metrics(PhaseResult& r, const std::vector<double>& v, const std::string& p50,
                     const std::string& tl = "", double pct = 0) {
  r.metrics[p50] = median(v);
  if (tl.empty()) return;
  r.metrics[tl] = quantile(v, pct / 100.0);
  r.notes.push_back(tail_note(tl, v, pct));
}

struct Rule {
  std::size_t dev = 0;
  std::string table, action;
  std::vector<std::string> keys, args;
  int priority = -1;
};

bool add_rules(Client& c, const std::vector<h4_vdev>& devs, const std::vector<Rule>& rules,
               std::vector<std::uint64_t>* handles = nullptr) {
  bool ok = true;
  for (const Rule& r : rules) {
    const auto h = c.rule_add(devs[r.dev], r.table.c_str(), r.action.c_str(), r.keys, r.args,
                              r.priority);
    ok = ok && h.has_value();
    if (handles != nullptr) handles->push_back(h.value_or(0));
  }
  return ok;
}

// One burst step: inject `frames`, drain, take the outputs. Returns the
// step duration; `st` gets the drain stats.
std::int64_t burst(Client& c, const std::vector<const Frame*>& frames,
                   std::vector<h4_packet>& pkts, h4_drain_stats& st) {
  pkts.resize(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i)
    pkts[i] = h4_packet{frames[i]->in_port, frames[i]->bytes.data(), frames[i]->bytes.size()};
  st = h4_drain_stats{};
  c.rec().begin_step(kBurst);
  c.inject(pkts.data(), pkts.size());
  c.drain(&st);
  c.drain_outputs();
  return c.rec().end_step();
}

// Checks a burst's drain stats and every output (port and bytes, in
// injection order) against the frames' expectations.
void check_burst(Client& c, const std::vector<const Frame*>& frames, const h4_drain_stats& st,
                 const char* what) {
  std::size_t want = 0;
  for (const Frame* f : frames) want += f->drop ? 0 : 1;
  bool ok = st.packets == frames.size() && st.outputs == want && c.nouts == want &&
            st.drops == frames.size() - want;
  std::size_t o = 0;
  for (std::size_t i = 0; ok && i < frames.size(); ++i) {
    const Frame& f = *frames[i];
    if (f.drop) continue;
    const h4_output& out = c.outs[o++];
    ok = out.port == f.out_port && out.len == f.expect.size() &&
         std::memcmp(c.bytes.data() + out.offset, f.expect.data(), f.expect.size()) == 0;
  }
  if (!ok) {
    c.rec().check(false, std::string(what) + ": packets " + std::to_string(st.packets) +
                             " outputs " + std::to_string(st.outputs) + "/" +
                             std::to_string(want) + " drops " + std::to_string(st.drops) +
                             (o > 0 ? ", output " + std::to_string(o - 1) + " differs" : ""));
  } else {
    c.rec().check(true, what);
  }
}

// Throughput that a short host stall does not skew: the median, over
// consecutive groups of `per` samples, of work units per second, where
// samples[i] is the seconds one unit of `units_each` took.
double grouped_rate(const std::vector<double>& samples, std::size_t per, double units_each) {
  std::vector<double> rates;
  for (std::size_t i = 0; i + per <= samples.size(); i += per) {
    double t = 0;
    for (std::size_t j = i; j < i + per; ++j) t += samples[j];
    if (t > 0) rates.push_back(static_cast<double>(per) * units_each / t);
  }
  return median(rates);
}

// ---- per-layer: engine and VM counters over the traced slices --------------

// Counter deltas summed over every traced slice. Absent keys read as 0: a
// renamed counter never fails the run.
class EngineDelta {
 public:
  void start(Client& c) {
    m0_ = c.metrics_json();
    d0_ = c.diagnostics_json();
  }

  void stop(Client& c) {
    const std::string m1 = c.metrics_json();
    const std::string d1 = c.diagnostics_json();
    for (const char* k : {"packets", "resubmits", "recirculates", "batches", "consumer_waits",
                          "merge_stall_ns", "drain_wait_ns", "backpressure_waits",
                          "arena_fresh_allocs", "control_ops"})
      sum_[k] += json_counter(m1, k).value_or(0) - json_counter(m0_, k).value_or(0);
    for (const char* k : {"packets_bytecode", "recompiles"})
      sum_[k] += json_counter(d1, k).value_or(0) - json_counter(d0_, k).value_or(0);
    for (const std::string h : {"packet_latency_us", "stages_per_packet"}) {
      const auto a = json_histogram(m0_, h), b = json_histogram(m1, h);
      if (!a || !b) continue;
      sum_[h + ".count"] += b->first - a->first;
      sum_[h + ".sum"] += b->second - a->second;
    }
  }

  void finish(Client& c, double bursts, double control_ops, PhaseResult& r) {
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const double packets = sum_["packets"];
    r.layer["engine.packet_us"] =
        ratio(sum_["packet_latency_us.sum"], sum_["packet_latency_us.count"]);
    r.layer["engine.stages_per_packet"] =
        ratio(sum_["stages_per_packet.sum"], sum_["stages_per_packet.count"]);
    r.layer["engine.resubmits_per_packet"] = ratio(sum_["resubmits"], packets);
    r.layer["engine.recirculates_per_packet"] = ratio(sum_["recirculates"], packets);
    r.layer["engine.packets_per_batch"] = ratio(packets, sum_["batches"]);
    r.layer["engine.consumer_waits_per_burst"] = ratio(sum_["consumer_waits"], bursts);
    r.layer["engine.merge_stall_ns_per_burst"] = ratio(sum_["merge_stall_ns"], bursts);
    r.layer["engine.drain_wait_ns_per_burst"] = ratio(sum_["drain_wait_ns"], bursts);
    r.layer["engine.backpressure_waits"] = sum_["backpressure_waits"];
    r.layer["engine.arena_fresh_allocs"] = sum_["arena_fresh_allocs"];
    r.layer["engine.control_ops_per_op"] = ratio(sum_["control_ops"], control_ops);
    r.layer["vm.bytecode_share"] = ratio(sum_["packets_bytecode"], packets);
    r.layer["vm.recompiles_per_op"] = ratio(sum_["recompiles"], control_ops);
    r.layer["state.snapshot_bytes"] = static_cast<double>(c.snapshot_bytes());
  }

 private:
  std::string m0_, d0_;
  std::map<std::string, double> sum_;
};

}  // namespace

void run_rounds(const std::vector<Activity*>& acts, const std::vector<double>& seconds,
                int rounds, bool traced) {
  std::vector<LoopStats> off(acts.size()), on(acts.size());
  std::vector<EngineDelta> delta(acts.size());
  for (int k = 0; k < rounds; ++k) {
    const bool tr = traced && k % 2 == 1;
    for (std::size_t i = 0; i < acts.size(); ++i) {
      Client& c = acts[i]->client();
      c.rec().activity = static_cast<std::uint8_t>(i);
      c.rec().tracing = tr;
      acts[i]->pre_slice();
      if (tr) delta[i].start(c);
      const LoopStats s =
          acts[i]->slice(now_ns() + static_cast<std::int64_t>(seconds[i] / rounds * 1e9));
      if (tr) delta[i].stop(c);
      c.rec().tracing = false;
      (tr ? on : off)[i] += s;
    }
  }
  if (!traced) return;
  auto rate = [](const LoopStats& s) { return s.busy_s > 0 ? s.units / s.busy_s : 0.0; };
  for (std::size_t i = 0; i < acts.size(); ++i) {
    acts[i]->client().rec().activity = static_cast<std::uint8_t>(i);
    acts[i]->result.untraced_rate = rate(off[i]);
    acts[i]->result.traced_rate = rate(on[i]);
    delta[i].finish(acts[i]->client(), on[i].bursts, on[i].control_ops, acts[i]->result);
  }
}

namespace {

// ============================================================================
// forward: the four paper apps, each on its own ingress port, tables of a
// few hundred entries, large mixed bursts with no control ops while timed.

struct FwdSize {
  int l2_macs, fw_macs, fw_acls, fw_l4, routes, nhops, arp_ips, arp_hosts, pool, burst;
};

FwdSize fwd_size(Size s) {
  switch (s) {
    case Size::kFull: return {384, 256, 96, 32, 256, 64, 192, 192, 4096, 256};
    case Size::kSmall: return {48, 32, 12, 4, 32, 8, 24, 24, 1024, 256};
    case Size::kTiny: break;
  }
  return {8, 8, 4, 2, 8, 4, 4, 4, 128, 32};
}

enum App { kL2, kFw, kRouter, kArp };
constexpr std::uint16_t kAppIn[4] = {1, 2, 3, 4};
constexpr std::uint16_t kAppOut[4][2] = {{11, 12}, {21, 22}, {31, 32}, {41, 42}};

struct FwdModel {
  std::vector<Rule> rules;
  std::vector<Frame> pool;
};

FwdModel make_forward(Rng& r, const FwdSize& z) {
  FwdModel m;
  auto port_of = [](App a, std::size_t i) { return kAppOut[a][i % 2]; };
  auto fresh_mac = [&](std::uint64_t tag) { return mac_of((tag << 40) | (r.next() & 0xffffffffffull)); };

  // l2_switch: dmac -> port, plus source MACs in smac.
  std::vector<Mac> l2_macs;
  for (int i = 0; i < z.l2_macs; ++i) {
    l2_macs.push_back(fresh_mac(0x02));
    m.rules.push_back({kL2, "dmac", "forward", {mac_str(l2_macs.back())},
                       {std::to_string(port_of(kL2, i))}});
  }
  for (int i = 0; i < z.l2_macs / 3; ++i)
    m.rules.push_back({kL2, "smac", "nop", {mac_str(fresh_mac(0x04))}, {}});

  // firewall: dmac, ip_filter blocking 10.66.k.0/24 (k even) or
  // 11.66.k.0/24 (k odd), l4_filter blocking tcp 7000+j / udp 8000+j.
  std::vector<Mac> fw_macs;
  for (int i = 0; i < z.fw_macs; ++i) {
    fw_macs.push_back(fresh_mac(0x06));
    m.rules.push_back({kFw, "dmac", "forward", {mac_str(fw_macs.back())},
                       {std::to_string(port_of(kFw, i))}});
  }
  for (int k = 0; k < z.fw_acls; ++k) {
    const std::string net = ip_str((k % 2 == 0 ? 0x0a420000u : 0x0b420000u) | (k << 8));
    std::vector<std::string> keys = {"0.0.0.0&&&0x0", "0.0.0.0&&&0x0"};
    keys[k % 2] = net + "&&&0xffffff00";
    m.rules.push_back({kFw, "ip_filter", "fw_drop", keys, {}, k + 1});
  }
  for (int j = 0; j < z.fw_l4; ++j) {
    const bool tcp = j % 2 == 0;
    const std::string port = std::to_string((tcp ? 7000 : 8000) + j / 2) + "&&&0xffff";
    m.rules.push_back({kFw, "l4_filter", "fw_drop",
                       tcp ? std::vector<std::string>{"1", port, "0", "0&&&0"}
                           : std::vector<std::string>{"0", "0&&&0", "1", port},
                       {}, j + 1});
  }

  // ipv4_router: accepted MACs, /24 routes under 20/8 and /16 under 30/8,
  // next hops with their MACs, per-port source MACs.
  const Mac router_mac = fresh_mac(0x08);
  m.rules.push_back({kRouter, "dmac_check", "nop", {mac_str(router_mac)}, {}});
  std::vector<Mac> nhop_mac;
  for (int n = 0; n < z.nhops; ++n) {
    nhop_mac.push_back(fresh_mac(0x0a));
    m.rules.push_back({kRouter, "forward", "set_dmac", {ip_str(0xac100000u | n)},
                       {mac_str(nhop_mac.back())}});
  }
  const Mac port_mac[2] = {fresh_mac(0x0c), fresh_mac(0x0c)};
  for (int p = 0; p < 2; ++p)
    m.rules.push_back({kRouter, "send_frame", "rewrite_mac",
                       {std::to_string(kAppOut[kRouter][p])}, {mac_str(port_mac[p])}});
  struct Route { std::uint32_t net, mask; int nhop; };
  std::vector<Route> routes;
  for (int k = 0; k < z.routes; ++k) {
    const bool wide = k % 16 == 15;
    const Route rt = wide ? Route{0x1e000000u | (static_cast<std::uint32_t>(k) << 16), 0xffff0000u,
                                  static_cast<int>(r.below(z.nhops))}
                          : Route{0x14000000u | (static_cast<std::uint32_t>(k) << 8), 0xffffff00u,
                                  static_cast<int>(r.below(z.nhops))};
    routes.push_back(rt);
    m.rules.push_back({kRouter, "ipv4_lpm", "set_nhop",
                       {ip_str(rt.net) + (wide ? "/16" : "/24")},
                       {ip_str(0xac100000u | rt.nhop), std::to_string(port_of(kRouter, rt.nhop))}});
  }

  // arp_proxy: proxied IPs answered with their MAC, hosts forwarded by dmac.
  std::vector<Mac> hosts;
  for (int j = 0; j < z.arp_hosts; ++j) {
    hosts.push_back(fresh_mac(0x0e));
    m.rules.push_back({kArp, "dmac", "forward", {mac_str(hosts.back())},
                       {std::to_string(port_of(kArp, j))}});
    if (j < z.arp_hosts / 3) m.rules.push_back({kArp, "smac", "nop", {mac_str(hosts.back())}, {}});
  }
  std::vector<std::pair<std::uint32_t, Mac>> proxied;
  for (int k = 0; k < z.arp_ips; ++k) {
    proxied.emplace_back(0xc0a80000u | k, fresh_mac(0x10));
    m.rules.push_back({kArp, "arp_resp", "arp_reply",
                       {"1", "1&&&0xffff", ip_str(proxied.back().first) + "&&&0xffffffff"},
                       {mac_str(proxied.back().second)}, 10});
  }

  // The pool: distinct flows, each with its expected result.
  for (int i = 0; i < z.pool; ++i) {
    Frame f;
    const std::uint32_t pick = r.below(100);
    const App app = pick < 20 ? kL2 : pick < 55 ? kFw : pick < 85 ? kRouter : kArp;
    f.in_port = kAppIn[app];
    const std::size_t len = frame_len(r);
    const Mac src = fresh_mac(0x12);
    // Sources 10.1-63.x.x: never inside a firewall block.
    FiveTuple t = random_tuple(r, 0x0a000000u, 0x003fffffu);
    t.src |= 0x00010000u;
    if (((t.dst >> 16) & 0xff) == 0x42) t.dst ^= 0x00010000u;
    switch (app) {
      case kL2: {
        const bool known = r.chance(0.95);
        const std::size_t k = r.below(z.l2_macs);
        f.bytes = ipv4_frame(known ? l2_macs[k] : fresh_mac(0x14), src, t, 64, len);
        f.drop = !known;
        f.out_port = port_of(kL2, k);
        break;
      }
      case kFw: {
        const std::size_t k = r.below(z.fw_macs);
        const std::uint32_t block = r.below(100);
        if (block < 6 && z.fw_acls > 0) {  // inside a blocked /24
          const std::uint32_t acl = r.below(z.fw_acls);
          const std::uint32_t host = (0x42u << 16) | (acl << 8) | r.below(256);
          (acl % 2 == 0 ? t.src : t.dst) = (acl % 2 == 0 ? 0x0a000000u : 0x0b000000u) | host;
        } else if (block < 10 && z.fw_l4 > 0) {  // a blocked l4 port
          const std::uint32_t j = r.below(z.fw_l4);
          t.proto = j % 2 == 0 ? 6 : 17;
          t.dport = static_cast<std::uint16_t>((j % 2 == 0 ? 7000 : 8000) + j / 2);
        }
        f.bytes = ipv4_frame(fw_macs[k], src, t, 64, len);
        f.drop = block < 10;
        f.out_port = port_of(kFw, k);
        break;
      }
      case kRouter: {
        const bool routed = r.chance(0.95);
        const Route& rt = routes[r.below(z.routes)];
        t.dst = routed ? rt.net | (static_cast<std::uint32_t>(r.next()) & ~rt.mask)
                       : 0x28000000u | (static_cast<std::uint32_t>(r.next()) & 0xffffff);
        const std::uint8_t ttl = static_cast<std::uint8_t>(2 + r.below(250));
        f.bytes = ipv4_frame(router_mac, src, t, ttl, len);
        f.drop = !routed;
        f.out_port = port_of(kRouter, rt.nhop);
        if (routed) {
          f.expect = f.bytes;
          put_mac(f.expect, 0, nhop_mac[rt.nhop]);
          put_mac(f.expect, 6, port_mac[rt.nhop % 2]);
          f.expect[22] = static_cast<std::uint8_t>(ttl - 1);
          ipv4_fix_checksum(f.expect);
        }
        break;
      }
      case kArp: {
        const std::size_t h = r.below(z.arp_hosts);
        f.out_port = port_of(kArp, h);
        if (r.chance(0.5)) {
          const auto& [ip, mac] = proxied[r.below(z.arp_ips)];
          f.bytes = arp_request(hosts[h], 0xc0a8c800u | static_cast<std::uint32_t>(h), ip);
          f.expect = arp_reply_of(f.bytes, mac);
        } else {
          f.bytes = ipv4_frame(hosts[h], src, t, 64, len);
        }
        break;
      }
    }
    if (!f.drop && f.expect.empty()) f.expect = f.bytes;
    m.pool.push_back(std::move(f));
  }
  return m;
}

bool setup_forward(Client& c, const Env& env, const FwdModel& m) {
  if (!c.open(base_options())) return false;
  const std::string* src[4] = {&env.src.l2, &env.src.firewall, &env.src.router, &env.src.arp};
  const char* names[4] = {"l2_switch", "firewall", "ipv4_router", "arp_proxy"};
  std::vector<h4_vdev> devs;
  bool ok = true;
  for (int a = 0; a < 4; ++a) {
    const h4_vdev v = c.load(names[a], *src[a]);
    ok = ok && v != 0 && c.attach(v, {kAppIn[a], kAppOut[a][0], kAppOut[a][1]}) &&
         c.bind(v, kAppIn[a]);
    devs.push_back(v);
  }
  return ok && add_rules(c, devs, m.rules);
}

class Forward : public Activity {
 public:
  Forward(Env& env, Rng rng, Size size)
      : Activity(env), z_(fwd_size(size)), pick_(rng.fork(2)), frames_(z_.burst) {
    Rng gen = rng.fork(1);
    m_ = make_forward(gen, z_);
  }

  bool setup(int reps) override {
    for (int i = 0; i < reps; ++i) {
      c_.close();  // tearing down the last set-up is not part of this one
      const std::int64_t t0 = now_ns();
      if (!setup_forward(c_, env_, m_)) return false;
      result.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    for (int w = 0; w < 4; ++w) {  // warm-up: arenas, caches
      next_burst();
      burst(c_, frames_, pkts_, st_);
      check_burst(c_, frames_, st_, "forward warm-up burst");
    }
    return true;
  }

  LoopStats slice(std::int64_t deadline) override {
    LoopStats s;
    while (now_ns() < deadline) {
      next_burst();
      const std::int64_t ns = burst(c_, frames_, pkts_, st_);
      check_burst(c_, frames_, st_, "forward burst");
      s.units += static_cast<double>(frames_.size());
      s.busy_s += static_cast<double>(ns) / 1e9;
      s.bursts += 1;
      lat_.push_back(us(ns));
      burst_s_.push_back(static_cast<double>(ns) / 1e9);
    }
    return s;
  }

  void finish(bool /*traced*/) override {
    c_.close();
    result.metrics["fwd_pps"] = grouped_rate(burst_s_, 8, static_cast<double>(z_.burst));
    latency_metrics(result, lat_, "fwd_burst_p50_us");
    // Not an end-to-end metric: on a shared host its run-to-run spread
    // exceeds the largest bound the benchmark may set.
    result.notes.push_back(tail_note("forward burst tail", lat_, 90) + ": " +
                           std::to_string(static_cast<long long>(quantile(lat_, 0.9))) + " us");
    result.notes.push_back("forward: " + std::to_string(lat_.size()) + " bursts of " +
                           std::to_string(z_.burst) + " packets, " +
                           std::to_string(m_.rules.size()) + " rules over 4 vdevs");
  }

 private:
  void next_burst() {
    for (auto& f : frames_) f = &m_.pool[pick_.below(static_cast<std::uint32_t>(m_.pool.size()))];
  }

  FwdSize z_;
  FwdModel m_;
  Rng pick_;
  std::vector<const Frame*> frames_;
  std::vector<h4_packet> pkts_;
  h4_drain_stats st_{};
  std::vector<double> lat_, burst_s_;
};

}  // namespace

std::unique_ptr<Activity> make_forward(Env& env, Rng rng, Size size) {
  return std::make_unique<Forward>(env, rng, size);
}

// ============================================================================
// churn: ~8 firewall tenants with ternary ACLs; add one rule, delete the
// oldest, so table size stays constant; a small fully-delivered burst
// every few ops. Churned rules block 198.18/15, which no traffic uses.

namespace {

struct ChurnSize {
  int tenants, acls, macs, burst_every /* rounds of add+delete */, burst_size;
};

ChurnSize churn_size(Size s) {
  switch (s) {
    case Size::kFull: return {8, 120, 16, 4, 16};
    case Size::kSmall: return {2, 48, 8, 4, 16};
    case Size::kTiny: break;
  }
  return {2, 8, 4, 2, 8};
}

Rule churn_acl(Rng& r, std::size_t tenant) {
  const std::uint32_t src = 0xc6120000u | (static_cast<std::uint32_t>(r.next()) & 0x1ffff);
  const bool host = r.chance(0.5);
  return {tenant,
          "ip_filter",
          "fw_drop",
          {ip_str(host ? src : src & 0xffffff00u) + (host ? "&&&0xffffffff" : "&&&0xffffff00"),
           ip_str(static_cast<std::uint32_t>(r.next()) & 0xffff0000u) + "&&&0xffff0000"},
          {},
          static_cast<int>(1 + r.below(1000))};
}

class Churn : public Activity {
 public:
  Churn(Env& env, Rng rng, Size size)
      : Activity(env), z_(churn_size(size)), ops_(rng.fork(4)), frames_(z_.burst_size) {
    Rng gen = rng.fork(3);
    acls_.resize(z_.tenants);
    for (int t = 0; t < z_.tenants; ++t) {
      const std::uint16_t in = static_cast<std::uint16_t>(1 + t);
      const std::uint16_t out = static_cast<std::uint16_t>(40 + t);
      std::vector<Mac> macs;
      for (int i = 0; i < z_.macs; ++i) {
        macs.push_back(mac_of((0x20ull << 40) | gen.next()));
        rules_.push_back({static_cast<std::size_t>(t), "dmac", "forward",
                          {mac_str(macs.back())}, {std::to_string(out)}});
      }
      for (int k = 0; k < z_.acls; ++k) acls_[t].push_back(churn_acl(gen, t));
      for (int i = 0; i < 32; ++i) {
        Frame f;
        f.in_port = in;
        f.bytes = ipv4_frame(macs[gen.below(z_.macs)], mac_of(gen.next()),
                             random_tuple(gen, 0x0a000000u, 0x00ffffffu), 64, frame_len(gen));
        f.out_port = out;
        f.expect = f.bytes;
        traffic_.push_back(std::move(f));
      }
    }
  }

  bool setup(int reps) override {
    ten_.assign(z_.tenants, {});
    for (int i = 0; i < reps; ++i) {
      c_.close();  // tearing down the last set-up is not part of this one
      const std::int64_t t0 = now_ns();
      if (!c_.open(base_options())) return false;
      std::vector<h4_vdev> devs;
      bool ok = true;
      for (int t = 0; t < z_.tenants; ++t) {
        const std::uint16_t in = static_cast<std::uint16_t>(1 + t);
        const h4_vdev v = c_.load("tenant" + std::to_string(t), env_.src.firewall);
        ok = ok && v != 0 && c_.attach(v, {in, static_cast<std::uint16_t>(40 + t)}) &&
             c_.bind(v, in);
        devs.push_back(v);
        ten_[t] = Tenant{v, {}};
      }
      ok = ok && add_rules(c_, devs, rules_);
      for (int t = 0; t < z_.tenants && ok; ++t) {
        std::vector<std::uint64_t> h;
        ok = add_rules(c_, devs, acls_[t], &h);
        ten_[t].fifo.assign(h.begin(), h.end());
      }
      if (!ok) return false;
      result.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    small_burst();  // warm-up
    return true;
  }

  // One round: add an ACL to the next tenant, delete its oldest; every
  // `burst_every` rounds a small burst.
  LoopStats slice(std::int64_t deadline) override {
    LoopStats s;
    while (now_ns() < deadline) {
      Tenant& t = ten_[next_];
      const Rule acl = churn_acl(ops_, next_);
      next_ = (next_ + 1) % ten_.size();
      c_.rec().begin_step(kRuleOp);
      const auto h = c_.rule_add(t.dev, acl.table.c_str(), acl.action.c_str(), acl.keys,
                                 acl.args, acl.priority);
      std::int64_t ops_ns = c_.rec().end_step();
      op_lat_.push_back(us(ops_ns));
      if (h) t.fifo.push_back(*h);
      if (!t.fifo.empty()) {
        const std::uint64_t oldest = t.fifo.front();
        t.fifo.pop_front();
        c_.rec().begin_step(kRuleOp);
        c_.rule_delete(t.dev, oldest);
        const std::int64_t ns = c_.rec().end_step();
        ops_ns += ns;
        op_lat_.push_back(us(ns));
      }
      op_pair_s_.push_back(static_cast<double>(ops_ns) / 1e9);
      s.units += 2;
      s.control_ops += 2;
      s.busy_s += static_cast<double>(ops_ns) / 1e9;
      if (++rounds_ % z_.burst_every == 0) {
        const std::int64_t ns = small_burst();
        burst_lat_.push_back(us(ns));
        s.bursts += 1;
        s.busy_s += static_cast<double>(ns) / 1e9;
      }
    }
    return s;
  }

  void finish(bool /*traced*/) override {
    c_.close();
    // Rule ops per second of rule-op time; the bursts have their own metric.
    result.metrics["rule_ops_per_s"] = grouped_rate(op_pair_s_, 16, 2);
    latency_metrics(result, op_lat_, "rule_op_p50_us", "rule_op_tail_us", 90);
    latency_metrics(result, burst_lat_, "churn_burst_p50_us");
    result.notes.push_back("churn: " + std::to_string(op_lat_.size()) + " rule ops, " +
                           std::to_string(burst_lat_.size()) + " bursts of " +
                           std::to_string(z_.burst_size) + ", " + std::to_string(z_.tenants) +
                           " tenants x " + std::to_string(z_.acls + z_.macs) + " rules");
  }

 private:
  struct Tenant {
    h4_vdev dev = 0;
    std::deque<std::uint64_t> fifo;  // live ACL handles, oldest first
  };

  std::int64_t small_burst() {
    for (auto& f : frames_) f = &traffic_[ops_.below(static_cast<std::uint32_t>(traffic_.size()))];
    const std::int64_t ns = burst(c_, frames_, pkts_, st_);
    check_burst(c_, frames_, st_, "churn burst (must be fully delivered)");
    return ns;
  }

  ChurnSize z_;
  Rng ops_;
  std::vector<Rule> rules_;  // dev = tenant index
  std::vector<std::vector<Rule>> acls_;
  std::vector<Frame> traffic_;
  std::vector<Tenant> ten_;
  std::vector<const Frame*> frames_;
  std::vector<h4_packet> pkts_;
  h4_drain_stats st_{};
  std::size_t next_ = 0;
  std::uint64_t rounds_ = 0;
  std::vector<double> op_lat_, burst_lat_, op_pair_s_;
};

}  // namespace

std::unique_ptr<Activity> make_churn(Env& env, Rng rng, Size size) {
  return std::make_unique<Churn>(env, rng, size);
}

// ============================================================================
// tenant_cycle: a durable store with background tenants. Each cycle onboards
// a tenant (load 2-3 programs from source, chain, rules, a probe burst
// through the chain), hot-swaps its first link, and unloads it; every K
// cycles a checkpoint. Before every slice the store is closed and reopened.

namespace {

struct TenantSize {
  int background, bg_acls, bg_macs, checkpoint_every, probe;
};

TenantSize tenant_size(Size s) {
  switch (s) {
    case Size::kFull: return {4, 160, 20, 4, 8};
    case Size::kSmall: return {1, 60, 10, 4, 8};
    case Size::kTiny: break;
  }
  return {1, 8, 4, 2, 4};
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  return total;
}

// Background tenant b: chain [firewall, l2_switch] over ports 100+b -> 110+b.
bool setup_tenants(Client& c, const Env& env, const std::string& dir, const TenantSize& z,
                   const std::vector<std::vector<Rule>>& bg_rules) {
  h4_options o = base_options();
  o.durable_dir = dir.c_str();
  if (!c.open(o)) return false;
  bool ok = true;
  for (int b = 0; b < z.background && ok; ++b) {
    const std::vector<std::uint16_t> ports = {static_cast<std::uint16_t>(100 + b),
                                              static_cast<std::uint16_t>(110 + b)};
    const std::vector<h4_vdev> devs = {c.load("bg" + std::to_string(b) + "-fw", env.src.firewall),
                                       c.load("bg" + std::to_string(b) + "-l2", env.src.l2)};
    ok = devs[0] != 0 && devs[1] != 0 && c.chain(devs, ports) && add_rules(c, devs, bg_rules[b]);
  }
  return ok;
}

class Tenant : public Activity {
 public:
  Tenant(Env& env, Rng rng, Size size)
      : Activity(env),
        z_(tenant_size(size)),
        cyc_(rng.fork(6)),
        root_(env.tmp + "/tenant-" + std::to_string(static_cast<int>(size))) {
    Rng gen = rng.fork(5);
    bg_.resize(z_.background);
    for (int b = 0; b < z_.background; ++b) {
      const std::string out = std::to_string(110 + b);
      for (int i = 0; i < z_.bg_macs; ++i) {
        const std::string mac = mac_str(mac_of((0x30ull << 40) | gen.next()));
        bg_[b].push_back({0, "dmac", "forward", {mac}, {out}});
        bg_[b].push_back({1, "dmac", "forward", {mac}, {out}});
      }
      for (int k = 0; k < z_.bg_acls; ++k) bg_[b].push_back(churn_acl(gen, 0));
    }
  }

  // Each set-up builds a fresh store in its own directory.
  bool setup(int reps) override {
    for (int i = 0; i < reps; ++i) {
      c_.close();
      if (!dir_.empty()) fs::remove_all(dir_);
      dir_ = root_ + "/store" + std::to_string(i);
      fs::create_directories(dir_);
      const std::int64_t t0 = now_ns();
      if (!setup_tenants(c_, env_, dir_, z_, bg_)) return false;
      result.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    return true;
  }

  // Every slice is preceded by a restart.
  void pre_slice() override {
    restart();
  }

  LoopStats slice(std::int64_t deadline) override {
    LoopStats s;
    while (now_ns() < deadline) cycle(s, false);
    return s;
  }

  void finish(bool traced) override {
    c_.close();
    fs::remove_all(root_);

    // Groups of one checkpoint period: every group holds one checkpoint.
    result.metrics["cycles_per_s"] = grouped_rate(cycle_s_, z_.checkpoint_every, 1);
    latency_metrics(result, onboard_, "onboard_p50_ms", "onboard_tail_ms", 75);
    latency_metrics(result, swap_, "swap_p50_ms");
    latency_metrics(result, ckpt_, "checkpoint_p50_ms");
    latency_metrics(result, reopen_, "recover_ms");
    if (traced) {
      result.layer["state.journal_bytes_per_op"] =
          journaled_ops_ > 0 ? journal_growth_ / journaled_ops_ : 0;
      result.layer["state.replayed_records"] = replayed_;
    }
    result.notes.push_back("tenant_cycle: " + std::to_string(cycle_s_.size()) + " cycles, " +
                           std::to_string(ckpt_.size()) + " checkpoints, " +
                           std::to_string(reopen_.size()) + " restarts, " +
                           std::to_string(z_.background) + " background tenants");
  }

 private:
  // A restart: checkpoint, onboard a three-link tenant (so the journal
  // tail recovery replays is the same every time), close, reopen (timed),
  // check the recovery report and that the digest survived, offboard.
  void restart() {
    c_.checkpoint();
    LoopStats unsampled;
    const std::vector<h4_vdev> devs = cycle(unsampled, true);
    const std::optional<std::uint64_t> before = c_.digest();
    c_.close();
    h4_options o = base_options();
    o.durable_dir = dir_.c_str();
    c_.rec().begin_step(kRecover);
    const bool opened = c_.open(o);
    reopen_.push_back(ms(c_.rec().end_step()));
    if (!opened) return;
    const std::string rep = c_.recovery_report();
    const auto after = c_.digest();
    const std::size_t at = rep.find("replayed: ");
    if (at != std::string::npos) replayed_ = std::strtod(rep.c_str() + at + 10, nullptr);
    c_.rec().check(rep.find("all ok") != std::string::npos &&
                       rep.find(" 0 deterministic failure") != std::string::npos,
                   "recovery report digest_ok with no replay failures: " + rep);
    c_.rec().check(before && after && *before == *after,
                   "recovered state digest equals the pre-close digest");
    for (auto it = devs.rbegin(); it != devs.rend(); ++it) c_.unload(*it);
  }

  // One cycle on ports 90 -> 91 through firewall[, arp_proxy], l2_switch.
  // `last`: onboard a three-link tenant only, unsampled, and leave it
  // loaded. Returns the tenant's devices.
  std::vector<h4_vdev> cycle(LoopStats& s, bool last) {
    static const std::vector<std::uint16_t> ports = {90, 91};
    const std::string tag = "t" + std::to_string(n_++);
    const bool three = cyc_.chance(0.5) || last;
    const std::vector<const std::string*> srcs =
        three ? std::vector<const std::string*>{&env_.src.firewall, &env_.src.arp, &env_.src.l2}
              : std::vector<const std::string*>{&env_.src.firewall, &env_.src.l2};
    const Mac mac = mac_of((0x40ull << 40) | cyc_.next());
    std::vector<Rule> rules;
    for (std::size_t d = 0; d < srcs.size(); ++d)
      rules.push_back({d, "dmac", "forward", {mac_str(mac)}, {"91"}});
    for (int k = 0; k < 6; ++k) rules.push_back(churn_acl(cyc_, 0));
    std::vector<Frame> probe(z_.probe);
    std::vector<const Frame*> frames;
    for (Frame& f : probe) {
      f.in_port = 90;
      f.bytes = ipv4_frame(mac, mac_of(cyc_.next()),
                           random_tuple(cyc_, 0x0a000000u, 0x00ffffffu), 64, frame_len(cyc_));
      f.out_port = 91;
      f.expect = f.bytes;
      frames.push_back(&f);
    }
    std::vector<h4_packet> pkts(frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i)
      pkts[i] = h4_packet{90, frames[i]->bytes.data(), frames[i]->bytes.size()};
    h4_drain_stats st{};
    const bool trace = c_.rec().tracing;
    if (trace)  // frontend + compiler cost alone, outside the timed step
      for (const std::string* src : srcs) c_.compile(*src);
    const std::uint64_t dir0 = trace ? dir_bytes(dir_) : 0;

    // Onboard: load -> chain -> rules -> probe delivered.
    c_.rec().begin_step(kOnboard);
    std::vector<h4_vdev> devs;
    for (std::size_t d = 0; d < srcs.size(); ++d)
      devs.push_back(c_.load(tag + "-" + std::to_string(d), *srcs[d]));
    c_.chain(devs, ports);
    add_rules(c_, devs, rules);
    c_.inject(pkts.data(), pkts.size());
    c_.drain(&st);
    c_.drain_outputs();
    std::int64_t ns = c_.rec().end_step();
    check_burst(c_, frames, st, "tenant onboarding probe");
    if (last) return devs;
    std::int64_t total = ns;
    onboard_.push_back(ms(ns));
    if (trace) {
      journal_growth_ += static_cast<double>(dir_bytes(dir_) - dir0);
      journaled_ops_ += static_cast<double>(devs.size() + 1 + rules.size());
    }
    s.bursts += 1;
    s.control_ops += static_cast<double>(devs.size() + 1 + rules.size());

    // Hot-swap the first link; re-chain; re-add its rules; probe again.
    c_.rec().begin_step(kSwap);
    devs[0] = c_.hot_swap(devs[0], env_.src.firewall);
    c_.chain(devs, ports);
    std::vector<Rule> first;
    for (const Rule& rule : rules)
      if (rule.dev == 0) first.push_back(rule);
    add_rules(c_, devs, first);
    c_.inject(pkts.data(), pkts.size());
    c_.drain(&st);
    c_.drain_outputs();
    ns = c_.rec().end_step();
    total += ns;
    swap_.push_back(ms(ns));
    check_burst(c_, frames, st, "tenant probe after hot swap");
    s.bursts += 1;
    s.control_ops += static_cast<double>(2 + first.size());

    // Offboard.
    c_.rec().begin_step(kOffboard);
    for (auto it = devs.rbegin(); it != devs.rend(); ++it) c_.unload(*it);
    total += c_.rec().end_step();
    s.control_ops += static_cast<double>(devs.size());

    if (n_ % static_cast<std::uint64_t>(z_.checkpoint_every) == 0) {
      c_.rec().begin_step(kCheckpointStep);
      c_.checkpoint();
      ns = c_.rec().end_step();
      total += ns;
      ckpt_.push_back(ms(ns));
    }
    cycle_s_.push_back(static_cast<double>(total) / 1e9);
    s.units += 1;
    s.busy_s += static_cast<double>(total) / 1e9;
    return devs;
  }

  TenantSize z_;
  Rng cyc_;
  std::string root_, dir_;
  std::vector<std::vector<Rule>> bg_;
  std::uint64_t n_ = 0;
  double replayed_ = 0;
  std::vector<double> onboard_, swap_, ckpt_, cycle_s_, reopen_;
  double journal_growth_ = 0, journaled_ops_ = 0;
};

}  // namespace

std::unique_ptr<Activity> make_tenant(Env& env, Rng rng, Size size) {
  return std::make_unique<Tenant>(env, rng, size);
}

}  // namespace h4bench
