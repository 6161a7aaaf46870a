// The benchmark's three activities over the C ABI. Every run performs all
// three — packet bursts through the four paper apps (forward), virtual
// rule churn (churn), tenant onboarding/hot-swap/offboarding on a durable
// store (tenant_cycle) — each on its own instance. The --workload names
// the primary activity: it runs at full size for 60% of the measured
// time and its set-up is the one setup_s times; the other two run at a
// small size for 20% each, so that every run reports every end-to-end
// metric.
#ifndef H4BENCH_WORKLOADS_H_
#define H4BENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "traffic.h"

namespace h4bench {

enum class Size { kFull, kSmall, kTiny };

struct Sources {
  std::string l2, firewall, router, arp;
};

struct Env {
  Recorder& rec;
  const Sources& src;
  std::string tmp;        // scratch directory for durable stores
};

// What one activity measured. `metrics` holds end-to-end values by name;
// `notes` the sample counts and tail percentiles behind them.
struct PhaseResult {
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;
  std::vector<double> setup_s;  // one per timed set-up
  // Traced runs only.
  double untraced_rate = 0, traced_rate = 0;  // throughput in each kind of slice
  std::map<std::string, double> layer;        // per-layer values
};

// What one slice of an activity's loop did.
struct LoopStats {
  double units = 0, busy_s = 0, bursts = 0, control_ops = 0;
  LoopStats& operator+=(const LoopStats& o) {
    units += o.units;
    busy_s += o.busy_s;
    bursts += o.bursts;
    control_ops += o.control_ops;
    return *this;
  }
};

// One activity on its own instance: set up, run in slices, finish.
class Activity {
 public:
  explicit Activity(Env& env) : env_(env), c_(env.rec) {}
  virtual ~Activity() = default;
  Activity(const Activity&) = delete;
  Activity& operator=(const Activity&) = delete;

  // Builds the instance `reps` times, timing each; the last one stays up.
  virtual bool setup(int reps) = 0;
  // Work before a slice that is not part of its loop (and may replace the
  // instance, so it stays outside the slice's engine counter deltas).
  virtual void pre_slice() {}
  // Runs the activity's loop until `deadline_ns`.
  virtual LoopStats slice(std::int64_t deadline_ns) = 0;
  // Ends the activity and fills in its end-to-end metrics (and, when
  // `traced`, its own per-layer ones).
  virtual void finish(bool traced) = 0;

  Client& client() { return c_; }
  PhaseResult result;

 protected:
  Env& env_;
  Client c_;
};

std::unique_ptr<Activity> make_forward(Env& env, Rng rng, Size size);
std::unique_ptr<Activity> make_churn(Env& env, Rng rng, Size size);
std::unique_ptr<Activity> make_tenant(Env& env, Rng rng, Size size);

// Runs the activities in `rounds` rounds; in each round activity i runs
// for seconds[i] / rounds. Interleaving spreads every activity's samples
// over the whole run, so a host stall of a few seconds moves no median.
// A traced run traces every other round (untraced rounds give the
// tracing overhead) and takes engine counter deltas around traced slices.
void run_rounds(const std::vector<Activity*>& acts, const std::vector<double>& seconds,
                int rounds, bool traced);

}  // namespace h4bench

#endif  // H4BENCH_WORKLOADS_H_
