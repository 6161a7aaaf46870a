// h4bench: the repository benchmark, one process over the HyPer4 C ABI.
//
//   h4bench --workload forward|churn|tenant_cycle --seed N --seconds S
//           --trace 0|1 [--p4-dir DIR] [--tmp DIR] [--spans-out FILE]
//           [--self-test]
//
// One client thread drives each instance in a closed loop (every call
// waits for its reply) against workers = 2 engine threads; only `workers`
// and `durable_dir` are set on top of h4_options_init, so the default
// packet path is what gets measured. --trace 0 prints the end-to-end
// metrics; --trace 1 records a span around every ABI call and prints the
// per-layer metrics. The last stdout line is the JSON result; the exit
// code is 1 when any ABI call or output check failed.
#include <hyper4/hyper4.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "client.h"
#include "workloads.h"

namespace {

using namespace h4bench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string p4_dir = "examples/p4";
  std::string tmp = ".bench_build/tmp";
  std::string spans_out;
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "h4bench: %s\nusage: h4bench --workload forward|churn|tenant_cycle --seed N "
               "--seconds S --trace 0|1 [--p4-dir DIR] [--tmp DIR] [--spans-out FILE] "
               "[--self-test]\n",
               msg);
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return !out.empty();
}

// The end-to-end metrics and their units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},           {"fwd_pps", "pkt/s"},         {"fwd_burst_p50_us", "us"},
    {"rule_ops_per_s", "op/s"}, {"rule_op_p50_us", "us"},
    {"rule_op_tail_us", "us"},  {"churn_burst_p50_us", "us"}, {"cycles_per_s", "cycle/s"},
    {"onboard_p50_ms", "ms"},   {"onboard_tail_ms", "ms"},    {"swap_p50_ms", "ms"},
    {"checkpoint_p50_ms", "ms"}, {"recover_ms", "ms"}};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"abi.inject_batch_us", "us"},
    {"abi.drain_us", "us"},
    {"abi.drain_outputs_us", "us"},
    {"abi.rule_add_us", "us"},
    {"abi.rule_delete_us", "us"},
    {"abi.vdev_load_us", "us"},
    {"abi.chain_us", "us"},
    {"abi.hot_swap_us", "us"},
    {"abi.vdev_unload_us", "us"},
    {"abi.checkpoint_us", "us"},
    {"abi.open_us", "us"},
    {"hp4.compile_us", "us"},
    {"hp4.install_us", "us"},
    {"engine.packet_us", "us"},
    {"engine.stages_per_packet", "count"},
    {"engine.resubmits_per_packet", "count"},
    {"engine.recirculates_per_packet", "count"},
    {"engine.packets_per_batch", "count"},
    {"engine.consumer_waits_per_burst", "count"},
    {"engine.merge_stall_ns_per_burst", "ns"},
    {"engine.drain_wait_ns_per_burst", "ns"},
    {"engine.backpressure_waits", "count"},
    {"engine.arena_fresh_allocs", "count"},
    {"engine.control_ops_per_op", "count"},
    {"vm.bytecode_share", "ratio"},
    {"vm.recompiles_per_op", "count"},
    {"state.snapshot_bytes", "bytes"},
    {"state.journal_bytes_per_op", "bytes"},
    {"state.replayed_records", "count"},
    {"bench.unattributed_share", "ratio"},
    {"bench.tracing_overhead", "ratio"}};

std::string host_json() {
  std::int32_t maj = 0, min = 0, pat = 0;
  h4_version(&maj, &min, &pat);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\":%ld,\"build_type\":\"%s\",\"sanitizer\":\"%s\",\"compiler\":\"%s\","
                "\"abi_version\":\"%d.%d.%d\",\"workers\":2,\"client_threads\":1}",
                sysconf(_SC_NPROCESSORS_ONLN), H4BENCH_BUILD_TYPE, H4BENCH_SANITIZER, __VERSION__,
                maj, min, pat);
  return buf;
}

bool optimized_build() {
  const std::string bt = H4BENCH_BUILD_TYPE;
  return (bt == "Release" || bt == "RelWithDebInfo" || bt == "MinSizeRel") &&
         std::string(H4BENCH_SANITIZER).empty();
}

// Median span duration (us) of `call` made by `activity` (-1: any).
double span_median(const Recorder& rec, Call call, int activity) {
  std::vector<double> v;
  for (const Span& s : rec.spans)
    if (s.call == call && (activity < 0 || s.activity == activity))
      v.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  return median(v);
}

// Share of traced step time not covered by the ABI spans inside the steps.
double unattributed_share(const Recorder& rec) {
  double step_ns = 0, covered_ns = 0;
  for (const StepRecord& s : rec.steps) step_ns += static_cast<double>(s.end_ns - s.start_ns);
  for (const Span& s : rec.spans)
    if (s.step_id != 0) covered_ns += static_cast<double>(s.end_ns - s.start_ns);
  return step_ns > 0 ? (step_ns - covered_ns) / step_ns : 0;
}

void write_spans(const Recorder& rec, const std::string& path) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "h4bench: cannot write %s\n", path.c_str());
    return;
  }
  for (const StepRecord& s : rec.steps)
    std::fprintf(f, "{\"step\":\"%s\",\"step_id\":%u,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 step_name(s.kind), s.id, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  for (const Span& s : rec.spans)
    std::fprintf(f,
                 "{\"name\":\"abi.%s\",\"parent\":\"%s\",\"step_id\":%u,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 call_name(s.call), step_name(s.parent), s.step_id,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (k == "--self-test") {
      a.self_test = true;
    } else if ((v = val()) == nullptr) {
      return usage(("missing value for " + k).c_str());
    } else if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::string(v) == "1";
    } else if (k == "--p4-dir") {
      a.p4_dir = v;
    } else if (k == "--tmp") {
      a.tmp = v;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      return usage(("unknown argument " + k).c_str());
    }
  }
  const std::vector<std::string> kWorkloads = {"forward", "churn", "tenant_cycle"};
  std::size_t primary = kWorkloads.size();
  for (std::size_t i = 0; i < kWorkloads.size(); ++i)
    if (kWorkloads[i] == a.workload) primary = i;
  if (primary == kWorkloads.size()) return usage(("unknown workload '" + a.workload + "'").c_str());
  if (!(a.seconds > 0)) return usage("--seconds must be positive");

  const std::string host = host_json();
  std::printf("host: %s\n", host.c_str());
  if (!optimized_build() && !a.self_test) {
    std::fprintf(stderr,
                 "h4bench: refusing to time a %s build (sanitizer '%s'); rebuild with "
                 "CMAKE_BUILD_TYPE=Release and no sanitizer, or use --self-test\n",
                 H4BENCH_BUILD_TYPE, H4BENCH_SANITIZER);
    return 3;
  }

  Sources src;
  const std::pair<const char*, std::string*> files[] = {{"l2_switch.p4", &src.l2},
                                                        {"firewall.p4", &src.firewall},
                                                        {"ipv4_router.p4", &src.router},
                                                        {"arp_proxy.p4", &src.arp}};
  for (const auto& [name, dst] : files)
    if (!read_file(a.p4_dir + "/" + name, *dst)) {
      std::fprintf(stderr, "h4bench: cannot read %s/%s\n", a.p4_dir.c_str(), name);
      return 2;
    }

  Recorder rec;
  const std::string tmp = a.tmp + "/run-" + std::to_string(getpid());
  std::filesystem::create_directories(tmp);
  Env env{rec, src, tmp};

  // The primary activity runs at full size for 60% of the time and its
  // set-up is timed kSetupReps times (churn's short set-up more often, as
  // its engine hand-offs make single set-ups vary most); the others run
  // at small size for 20% each. Rounds of about a second interleave the
  // three.
  constexpr int kSetupReps[3] = {5, 9, 5};
  using Maker = std::unique_ptr<Activity> (*)(Env&, Rng, Size);
  const Maker makers[3] = {make_forward, make_churn, make_tenant};
  Rng rng(a.seed ^ (0x6a09e667f3bcc909ull * (primary + 1)));
  std::vector<std::unique_ptr<Activity>> acts;
  std::vector<Activity*> order;
  std::vector<double> seconds;
  bool ready = true;
  for (std::size_t i = 0; i < 3; ++i) {
    const bool main = i == primary;
    rec.activity = static_cast<std::uint8_t>(i);
    acts.push_back(makers[i](env, rng.fork(i),
                             a.self_test ? Size::kTiny : main ? Size::kFull : Size::kSmall));
    ready = ready && acts.back()->setup(main && !a.self_test ? kSetupReps[i] : 1);
    order.push_back(acts.back().get());
    seconds.push_back(a.seconds * (main ? 0.6 : 0.2));
  }
  if (ready) run_rounds(order, seconds, std::max(2, static_cast<int>(a.seconds + 0.5)), a.trace);
  for (std::size_t i = 0; i < 3; ++i) {
    rec.activity = static_cast<std::uint8_t>(i);
    acts[i]->finish(a.trace);
  }
  std::filesystem::remove_all(tmp);

  std::map<std::string, double> metrics;
  const PhaseResult& prim = acts[primary]->result;
  if (!a.trace) {
    for (const auto& act : acts)
      for (const auto& [k, v] : act->result.metrics) metrics[k] = v;
    metrics["setup_s"] = median(prim.setup_s);
  } else {
    for (const auto& [k, v] : prim.layer) metrics[k] = v;
    for (const auto& [k, v] : acts[2]->result.layer)
      if (k.rfind("state.", 0) == 0 && k != "state.snapshot_bytes") metrics[k] = v;
    // ABI spans: from the primary activity when it made the call, else from
    // all of the run's activities.
    const std::pair<const char*, Call> abi[] = {
        {"abi.inject_batch_us", kInjectBatch}, {"abi.drain_us", kDrain},
        {"abi.drain_outputs_us", kDrainOutputs}, {"abi.rule_add_us", kRuleAdd},
        {"abi.rule_delete_us", kRuleDelete}, {"abi.vdev_load_us", kVdevLoad},
        {"abi.chain_us", kChain}, {"abi.hot_swap_us", kHotSwap},
        {"abi.vdev_unload_us", kVdevUnload}, {"abi.checkpoint_us", kCheckpoint},
        {"abi.open_us", kOpen}, {"hp4.compile_us", kCompile}};
    for (const auto& [name, call] : abi) {
      const double v = span_median(rec, call, static_cast<int>(primary));
      metrics[name] = v > 0 ? v : span_median(rec, call, -1);
    }
    metrics["hp4.install_us"] = metrics["abi.vdev_load_us"] - metrics["hp4.compile_us"];
    metrics["bench.unattributed_share"] = unattributed_share(rec);
    metrics["bench.tracing_overhead"] =
        prim.traced_rate > 0 ? prim.untraced_rate / prim.traced_rate - 1 : 0;
    if (!a.spans_out.empty()) write_spans(rec, a.spans_out);
  }

  const auto& wanted = a.trace ? kPerLayer : kEndToEnd;
  const bool correct = rec.failed == 0;
  std::printf("workload %s seed %llu: %s, %llu ABI calls and checks, %llu failed\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? "traced (per-layer)" : "untraced (end-to-end)",
              static_cast<unsigned long long>(rec.attempted),
              static_cast<unsigned long long>(rec.failed));
  for (const auto& [name, unit] : wanted)
    std::printf("  %-34s %16.4f %s\n", name.c_str(), metrics[name], unit.c_str());
  for (const auto& act : acts)
    for (const std::string& n : act->result.notes) std::printf("  # %s\n", n.c_str());
  if (!a.trace && !prim.setup_s.empty()) {
    std::printf("  # setup_s is the median of %zu set-ups:", prim.setup_s.size());
    for (const double s : prim.setup_s) std::printf(" %.3f", s);
    std::printf(" s\n");
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(rec.attempted),
              static_cast<unsigned long long>(rec.failed));
  bool first = true;
  for (const auto& [name, unit] : wanted) {
    const double v = std::isfinite(metrics[name]) ? metrics[name] : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), v, unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
