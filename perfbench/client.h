// Accounting and tracing wrapper around the HyPer4 C ABI.
//
// Every ABI call the benchmark makes goes through Client::call, which
// counts it as attempted (and as failed on a nonzero return), and — in a
// traced run — records a span (call name, start, end, enclosing step).
// Steps are the units the end-to-end metrics time: one packet burst, one
// rule op, one tenant onboarding. Spans stay in memory and are written
// out when the run ends.
#ifndef H4BENCH_CLIENT_H_
#define H4BENCH_CLIENT_H_

#include <hyper4/hyper4.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace h4bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ABI entry points the benchmark times, in span-name order.
enum Call : std::uint8_t {
  kOpen, kClose, kCompile, kVdevLoad, kVdevUnload, kAttachPorts, kBind,
  kChain, kRuleAdd, kRuleDelete, kHotSwap, kSnapshot, kStateDigest,
  kCheckpoint, kRecoveryReport, kInjectBatch, kDrain, kDrainOutputs,
  kMetricsJson, kDiagnosticsJson, kCallCount
};

inline const char* call_name(Call c) {
  static const char* const names[kCallCount] = {
      "open", "close", "compile", "vdev_load", "vdev_unload", "attach_ports",
      "bind", "chain", "rule_add", "rule_delete", "hot_swap", "snapshot",
      "state_digest", "checkpoint", "recovery_report", "inject_batch",
      "drain", "drain_outputs", "metrics_json", "diagnostics_json"};
  return names[c];
}

// Step kinds: what one timed unit of client work is.
enum StepKind : std::uint8_t {
  kNoStep, kBurst, kRuleOp, kOnboard, kSwap, kOffboard, kCheckpointStep,
  kRecover, kStepKindCount
};

inline const char* step_name(StepKind k) {
  static const char* const names[kStepKindCount] = {
      "none", "burst", "rule_op", "onboard", "swap", "offboard",
      "checkpoint", "recover"};
  return names[k];
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t step_id = 0;  // 0: outside any step
  Call call = kOpen;
  StepKind parent = kNoStep;
  std::uint8_t activity = 0;  // which of the run's activities made the call
};

struct StepRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  StepKind kind = kNoStep;
  std::uint8_t activity = 0;
};

// Owns the run's accounting: attempted/failed counts, the span and step
// logs of a traced run, and the first few failure messages.
class Recorder {
 public:
  bool tracing = false;
  std::uint8_t activity = 0;  // stamped on spans and steps
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Span> spans;
  std::vector<StepRecord> steps;

  Recorder() {
    spans.reserve(1 << 16);
    steps.reserve(1 << 14);
  }

  // A failed ABI call or output check. The first messages go to stderr.
  void fail(const std::string& what) {
    ++failed;
    if (++reported_ <= 10) std::fprintf(stderr, "h4bench: FAILED %s\n", what.c_str());
  }

  // An output check: attempted once, failed when !ok.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail("check: " + what);
  }

  void begin_step(StepKind kind) {
    cur_kind_ = kind;
    cur_id_ = ++next_step_;
    cur_start_ = now_ns();
  }

  // Ends the current step; returns its duration in ns.
  std::int64_t end_step() {
    const std::int64_t end = now_ns();
    if (tracing) steps.push_back({cur_start_, end, cur_id_, cur_kind_, activity});
    cur_kind_ = kNoStep;
    cur_id_ = 0;
    return end - cur_start_;
  }

  void record(Call c, std::int64_t start, std::int64_t end) {
    if (tracing) spans.push_back({start, end, cur_id_, c, cur_kind_, activity});
  }

 private:
  std::uint32_t next_step_ = 0;
  std::uint32_t cur_id_ = 0;
  StepKind cur_kind_ = kNoStep;
  std::int64_t cur_start_ = 0;
  int reported_ = 0;
};

// One h4_instance driven through the recorder.
class Client {
 public:
  explicit Client(Recorder& rec) : rec_(rec) {}
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Recorder& rec() { return rec_; }

  // Runs `fn` (returning an h4 error code) as ABI call `c`. `ok_code` is
  // one more code that is protocol, not failure (H4_ERR_NOSPACE in the
  // size-query half of a buffer call).
  template <class Fn>
  int call(Call c, Fn&& fn, int ok_code = H4_OK) {
    ++rec_.attempted;
    const std::int64_t t0 = rec_.tracing ? now_ns() : 0;
    const int rc = fn();
    if (rec_.tracing) rec_.record(c, t0, now_ns());
    if (rc != H4_OK && rc != ok_code) {
      std::string msg = std::string(call_name(c)) + ": " + h4_err_str(rc);
      if (inst_ != nullptr) msg += " (" + last_error() + ")";
      rec_.fail(msg);
    }
    return rc;
  }

  bool open(const h4_options& opts) {
    close();
    return call(kOpen, [&] { return h4_open(&opts, &inst_); }) == H4_OK;
  }

  void close() {
    if (inst_ == nullptr) return;
    h4_instance* victim = inst_;
    inst_ = nullptr;
    call(kClose, [&] { return h4_close(victim); });
  }

  h4_vdev load(const std::string& name, const std::string& src) {
    h4_vdev v = 0;
    call(kVdevLoad, [&] { return h4_vdev_load(inst_, name.c_str(), src.c_str(), &v); });
    return v;
  }

  bool unload(h4_vdev v) {
    return call(kVdevUnload, [&] { return h4_vdev_unload(inst_, v); }) == H4_OK;
  }

  bool attach(h4_vdev v, const std::vector<std::uint16_t>& ports) {
    return call(kAttachPorts, [&] {
             return h4_vdev_attach_ports(inst_, v, ports.data(), ports.size());
           }) == H4_OK;
  }

  bool bind(h4_vdev v, int port) {
    return call(kBind, [&] { return h4_vdev_bind(inst_, v, port); }) == H4_OK;
  }

  bool chain(const std::vector<h4_vdev>& devs, const std::vector<std::uint16_t>& ports) {
    return call(kChain, [&] {
             return h4_chain(inst_, devs.data(), devs.size(), ports.data(), ports.size());
           }) == H4_OK;
  }

  // Returns the virtual rule handle, or nullopt on failure.
  std::optional<std::uint64_t> rule_add(h4_vdev v, const char* table, const char* action,
                                        const std::vector<std::string>& keys,
                                        const std::vector<std::string>& args,
                                        int priority = -1) {
    const char* k[8];
    const char* a[8];
    for (std::size_t i = 0; i < keys.size() && i < 8; ++i) k[i] = keys[i].c_str();
    for (std::size_t i = 0; i < args.size() && i < 8; ++i) a[i] = args[i].c_str();
    std::uint64_t h = 0;
    const int rc = call(kRuleAdd, [&] {
      return h4_rule_add(inst_, v, table, action, k, std::min<std::size_t>(keys.size(), 8), a,
                         std::min<std::size_t>(args.size(), 8), priority, &h);
    });
    if (rc != H4_OK) return std::nullopt;
    return h;
  }

  bool rule_delete(h4_vdev v, std::uint64_t h) {
    return call(kRuleDelete, [&] { return h4_rule_delete(inst_, v, h); }) == H4_OK;
  }

  h4_vdev hot_swap(h4_vdev v, const std::string& src) {
    h4_vdev out = 0;
    call(kHotSwap, [&] { return h4_vdev_hot_swap(inst_, v, src.c_str(), &out); });
    return out;
  }

  bool compile(const std::string& src) {
    char buf[256];
    std::size_t need = 0;
    return call(kCompile, [&] {
             return h4_compile(inst_, src.c_str(), buf, sizeof(buf), &need);
           }) == H4_OK;
  }

  bool checkpoint() {
    std::uint64_t lsn = 0;
    return call(kCheckpoint, [&] { return h4_checkpoint(inst_, &lsn); }) == H4_OK;
  }

  std::optional<std::uint64_t> digest() {
    std::uint64_t d = 0;
    if (call(kStateDigest, [&] { return h4_state_digest(inst_, &d); }) != H4_OK)
      return std::nullopt;
    return d;
  }

  bool inject(const h4_packet* pkts, std::size_t n) {
    return call(kInjectBatch, [&] { return h4_inject_batch(inst_, pkts, n); }) == H4_OK;
  }

  bool drain(h4_drain_stats* st) {
    return call(kDrain, [&] { return h4_drain(inst_, st); }) == H4_OK;
  }

  // Takes the retained outputs into the client's reusable buffers.
  bool drain_outputs() {
    std::size_t nout = 0, nbytes = 0;
    int rc = call(kDrainOutputs, [&] {
      return h4_drain_outputs(inst_, outs.data(), outs.size(), bytes.data(), bytes.size(),
                              &nout, &nbytes);
    }, H4_ERR_NOSPACE);
    if (rc == H4_ERR_NOSPACE) {
      outs.resize(nout * 2);
      bytes.resize(nbytes * 2);
      rc = call(kDrainOutputs, [&] {
        return h4_drain_outputs(inst_, outs.data(), outs.size(), bytes.data(), bytes.size(),
                                &nout, &nbytes);
      });
    }
    nouts = rc == H4_OK ? nout : 0;
    return rc == H4_OK;
  }

  // String-returning buffer calls (metrics, diagnostics, recovery report).
  template <class Fn>
  std::string fetch(Call c, Fn&& fn) {
    std::size_t need = 0;
    int rc = call(c, [&] { return fn(nullptr, 0, &need); }, H4_ERR_NOSPACE);
    if (rc != H4_ERR_NOSPACE && rc != H4_OK) return {};
    std::string s(need, '\0');
    rc = call(c, [&] { return fn(s.data(), s.size(), &need); });
    if (rc != H4_OK) return {};
    s.resize(need > 0 ? need - 1 : 0);
    return s;
  }
  std::string metrics_json() {
    return fetch(kMetricsJson, [&](char* b, std::size_t cap, std::size_t* n) {
      return h4_metrics_json(inst_, b, cap, n);
    });
  }
  std::string diagnostics_json() {
    return fetch(kDiagnosticsJson, [&](char* b, std::size_t cap, std::size_t* n) {
      return h4_diagnostics_json(inst_, b, cap, n);
    });
  }
  std::string recovery_report() {
    return fetch(kRecoveryReport, [&](char* b, std::size_t cap, std::size_t* n) {
      return h4_recovery_report(inst_, b, cap, n);
    });
  }

  std::size_t snapshot_bytes() {
    std::size_t need = 0;
    const int rc = call(kSnapshot, [&] { return h4_snapshot(inst_, nullptr, 0, &need); },
                        H4_ERR_NOSPACE);
    if (rc != H4_ERR_NOSPACE && rc != H4_OK) return 0;
    std::vector<std::uint8_t> img(need);
    if (call(kSnapshot, [&] { return h4_snapshot(inst_, img.data(), img.size(), &need); }) !=
        H4_OK)
      return 0;
    return need;
  }

  // Outputs of the last drain_outputs.
  std::vector<h4_output> outs = std::vector<h4_output>(1024);
  std::vector<std::uint8_t> bytes = std::vector<std::uint8_t>(1 << 20);
  std::size_t nouts = 0;

 private:
  std::string last_error() {
    char buf[512];
    std::size_t need = 0;
    if (h4_last_error(inst_, buf, sizeof(buf), &need) != H4_OK) return "?";
    return buf;
  }

  Recorder& rec_;
  h4_instance* inst_ = nullptr;
};

// ---- sample statistics ----------------------------------------------------

inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// A tail metric is one fixed percentile, so the same name measures the
// same thing on every commit whatever the sample count. It is meant to
// have at least ten samples beyond it; fewer is flagged, not failed.
// Percentiles above p90 are not used: on a shared host they measure host
// stalls more than the program, and their run-to-run spread exceeds any
// usable bound.
inline bool tail_has_support(std::size_t samples, double pct) {
  return static_cast<double>(samples) * (1.0 - pct / 100.0) >= 10.0;
}

// ---- tolerant JSON counter reader ------------------------------------------
//
// Reads numbers out of h4_metrics_json / h4_diagnostics_json. An absent or
// renamed key reads as nullopt — never an error — so a later rename of the
// engine's metric names leaves the end-to-end run intact.

inline std::optional<double> json_number_after(const std::string& json, std::size_t pos) {
  if (pos == std::string::npos || pos >= json.size()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(json.c_str() + pos, &end);
  if (end == json.c_str() + pos) return std::nullopt;
  return v;
}

// `"name":<number>` anywhere in the document.
inline std::optional<double> json_counter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return std::nullopt;
  return json_number_after(json, at + key.size());
}

// count and sum of histogram `name` ({"buckets":[...],"count":N,"sum":S}).
inline std::optional<std::pair<double, double>> json_histogram(const std::string& json,
                                                               const std::string& name) {
  const std::size_t at = json.find("\"" + name + "\":{\"buckets\":");
  if (at == std::string::npos) return std::nullopt;
  const std::size_t c = json.find("],\"count\":", at);
  const std::size_t s = json.find(",\"sum\":", at);
  if (c == std::string::npos || s == std::string::npos) return std::nullopt;
  const auto count = json_number_after(json, c + 10);
  const auto sum = json_number_after(json, s + 7);
  if (!count || !sum) return std::nullopt;
  return std::make_pair(*count, *sum);
}

}  // namespace h4bench

#endif  // H4BENCH_CLIENT_H_
