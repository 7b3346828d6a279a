#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "service/design_service.h"
#include "service/protocol.h"
#include "workload/synth.h"

namespace stemcp::bench {

namespace {

using service::Request;
using service::RequestType;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Render through the protocol's own renderer, so every generated line is
/// one the front end parses back to the same request.
std::string render_line(Request r) {
  std::string line;
  std::string error;
  if (!service::ServiceFrontEnd::render(r, &line, &error)) {
    std::fprintf(stderr, "stemcp_bench: cannot render request: %s\n",
                 error.c_str());
    std::abort();  // a generator bug, not an input condition
  }
  return line;
}

Request request(RequestType t, const std::string& session,
                std::string text = {}) {
  Request r;
  r.type = t;
  r.session = session;
  r.text = std::move(text);
  return r;
}

/// Session names chosen so session k lands on shard k % kShards.
std::vector<std::string> balanced_sessions(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t candidate = 0; names.size() < n; ++candidate) {
    std::string name = std::string("s") + std::to_string(candidate);
    if (service::ShardedSessionManager::hash_of(name) % kShards ==
        names.size() % kShards) {
      names.push_back(std::move(name));
    }
  }
  return names;
}

// ---------------------------------------------------------------------------
// pipeline_*: the two-stage PIPE of workload::pipeline_design().

class PipelineModel : public TrafficModel {
 public:
  using TrafficModel::TrafficModel;

 protected:
  std::string render(Verb verb, const std::string& s, Rng& rng) override {
    static const char* kStages[] = {"PIPE/s0.delay(in->out)",
                                    "PIPE/s1.delay(in->out)"};
    static const char* kTargets[] = {"PIPE.delay(in->out)",
                                     "PIPE/s0.delay(in->out)",
                                     "PIPE/s1.delay(in->out)",
                                     "STAGE.delay(in->out)"};
    switch (verb) {
      case Verb::kAssign: {
        Request r = request(RequestType::kAssign, s);
        // One assign in fifty breaks PIPE's `spec <= 1` and is restored.
        const double v = rng.below(50) == 0 ? 1.5 : delay(rng);
        r.assignments.push_back({kStages[rng.below(2)], v});
        return render_line(std::move(r));
      }
      case Verb::kBatchAssign: {
        Request r = request(RequestType::kBatchAssign, s);
        r.assignments.push_back({kStages[0], delay(rng)});
        r.assignments.push_back({kStages[1], delay(rng)});
        return render_line(std::move(r));
      }
      case Verb::kEdit:
        return render_line(request(RequestType::kEdit, s,
                                "leaf-delay STAGE in out " + fmt(delay(rng))));
      case Verb::kQuery:
        return render_line(
            request(RequestType::kQuery, s, kTargets[rng.below(4)]));
      case Verb::kSave:
        return render_line(request(RequestType::kSave, s));
      case Verb::kReport:
        return render_line(request(RequestType::kReport, s, "PIPE"));
      case Verb::kSelect:
        break;
    }
    std::abort();  // not in this mix
  }

 private:
  static double delay(Rng& rng) { return 1e-9 + 99e-9 * rng.uniform(); }
};

// ---------------------------------------------------------------------------
// bighier_edit: a 5-level generated hierarchy.  Level-1 composites chain 8
// leaf instances in series; every higher composite chains 8 composites of
// the level below; each composite carries `delay in out` + `spec <= 1`.

struct Hierarchy {
  std::string text;
  std::vector<std::string> leaves;            ///< leaf class names
  std::vector<std::string> composites;        ///< composite class names
  std::vector<std::string> instance_delays;   ///< "C1_5/s3.delay(in->out)"
};

constexpr int kFanout = 8;

void append_composite(std::string& out, const std::string& name,
                      const std::vector<std::string>& children,
                      std::vector<std::string>& instance_delays) {
  out += "cell " + name + "\n  signal in input\n  signal out output\n"
         "  delay in out\n    spec <= 1\n";
  for (std::size_t j = 0; j < children.size(); ++j) {
    out += "  subcell s" + std::to_string(j) + " " + children[j] + " R0 " +
           std::to_string(10 * j) + " 0\n";
    instance_delays.push_back(name + "/s" + std::to_string(j) +
                              ".delay(in->out)");
  }
  out += "  net n0\n    io in\n    conn s0 in\n";
  for (std::size_t j = 1; j < children.size(); ++j) {
    out += "  net n" + std::to_string(j) + "\n    conn s" +
           std::to_string(j - 1) + " out\n    conn s" + std::to_string(j) +
           " in\n";
  }
  out += "  net n" + std::to_string(children.size()) + "\n    conn s" +
         std::to_string(children.size() - 1) + " out\n    io out\nend\n";
}

/// `levels` composite levels over 8^levels / 2 leaf classes, each leaf
/// instantiated twice at seeded positions.
Hierarchy make_hierarchy(Rng& rng, int levels) {
  Hierarchy h;
  std::size_t slots = 1;
  for (int i = 0; i < levels; ++i) slots *= kFanout;
  const std::size_t n_leaves = slots / 2;
  for (std::size_t i = 0; i < n_leaves; ++i) {
    h.leaves.push_back(std::string("L") + std::to_string(i));
    h.text += "cell " + h.leaves.back() +
              "\n  signal in input\n  signal out output\n"
              "  delay in out value " +
              fmt(1e-9 * (0.5 + rng.uniform())) + "\nend\n";
  }
  std::vector<std::size_t> perm(slots);
  for (std::size_t i = 0; i < slots; ++i) perm[i] = i;
  for (std::size_t i = slots - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.below(i + 1)]);
  }
  std::vector<std::string> below;
  for (std::size_t slot : perm) below.push_back(h.leaves[slot / 2]);
  for (int level = 1; level <= levels; ++level) {
    std::vector<std::string> here;
    for (std::size_t i = 0; i < below.size() / kFanout; ++i) {
      here.push_back(std::string("C") + std::to_string(level) + "_" +
                     std::to_string(i));
      const std::vector<std::string> children(
          below.begin() + static_cast<std::ptrdiff_t>(i * kFanout),
          below.begin() + static_cast<std::ptrdiff_t>((i + 1) * kFanout));
      append_composite(h.text, here.back(), children, h.instance_delays);
      h.composites.push_back(here.back());
    }
    below = std::move(here);
  }
  return h;
}

class HierarchyModel : public TrafficModel {
 public:
  HierarchyModel(std::vector<std::pair<Verb, int>> mix,
                 std::vector<std::string> sessions, double zipf,
                 Hierarchy h)
      : TrafficModel(std::move(mix), std::move(sessions), zipf),
        h_(std::move(h)) {}

 protected:
  std::string render(Verb verb, const std::string& s, Rng& rng) override {
    switch (verb) {
      case Verb::kAssign: {
        Request r = request(RequestType::kAssign, s);
        // One assign in a hundred breaks a composite's `spec <= 1`.
        const double v = rng.below(100) == 0 ? 2.0 : delay(rng);
        r.assignments.push_back({pick(h_.instance_delays, rng), v});
        return render_line(std::move(r));
      }
      case Verb::kBatchAssign: {
        // Four distinct paths: one wave may change each variable once.
        Request r = request(RequestType::kBatchAssign, s);
        while (r.assignments.size() < 4) {
          const std::string& path = pick(h_.instance_delays, rng);
          const bool dup = std::any_of(
              r.assignments.begin(), r.assignments.end(),
              [&](const service::Assignment& a) { return a.variable == path; });
          if (!dup) r.assignments.push_back({path, delay(rng)});
        }
        return render_line(std::move(r));
      }
      case Verb::kEdit:
        return render_line(request(RequestType::kEdit, s,
                                "leaf-delay " + pick(h_.leaves, rng) +
                                    " in out " + fmt(delay(rng))));
      case Verb::kQuery:
        return render_line(request(RequestType::kQuery, s,
                                pick(h_.composites, rng) + ".delay(in->out)"));
      default:
        break;
    }
    std::abort();  // not in this mix
  }

 private:
  static double delay(Rng& rng) { return 1e-9 * (0.5 + rng.uniform()); }
  static const std::string& pick(const std::vector<std::string>& v, Rng& rng) {
    return v[rng.below(v.size())];
  }

  Hierarchy h_;
};

// ---------------------------------------------------------------------------
// select_solve: generic slots with graded realizations (bigger area buys a
// shorter delay) chained in series under SYS's delay budget.

struct SelectionLibrary {
  std::string text;
  std::size_t slots = 0;
  std::size_t realizations = 0;
  std::vector<double> base_delay;  ///< per realization index
};

std::string realization(std::size_t g, std::size_t k) {
  return "G" + std::to_string(g) + "_R" + std::to_string(k);
}

SelectionLibrary make_selection(Rng& rng, std::size_t slots,
                                std::size_t reals, double budget) {
  SelectionLibrary lib;
  lib.slots = slots;
  lib.realizations = reals;
  for (std::size_t k = 0; k < reals; ++k) {
    lib.base_delay.push_back(40e-9 - 30e-9 * static_cast<double>(k) /
                                         static_cast<double>(reals - 1));
  }
  for (std::size_t g = 0; g < slots; ++g) {
    const std::string gen = "G" + std::to_string(g);
    lib.text += "cell " + gen +
                " generic\n  signal a input\n  signal out output\n"
                "  delay a out\nend\n";
    for (std::size_t k = 0; k < reals; ++k) {
      lib.text += "cell " + realization(g, k) + " super " + gen +
                  "\n  bbox 0 0 " + std::to_string(8 + 2 * k) +
                  " 10\n  signal a input\n  signal out output\n"
                  "  delay a out value " +
                  fmt(lib.base_delay[k] * (0.98 + 0.04 * rng.uniform())) +
                  "\nend\n";
    }
  }
  lib.text += "cell SYS\n  signal a input\n  signal out output\n"
              "  delay a out\n    spec <= " + fmt(budget) + "\n";
  for (std::size_t g = 0; g < slots; ++g) {
    lib.text += "  subcell u" + std::to_string(g) + " G" + std::to_string(g) +
                " R0 " + std::to_string(40 * g) + " 0\n";
  }
  lib.text += "  net n0\n    io a\n    conn u0 a\n";
  for (std::size_t g = 1; g < slots; ++g) {
    lib.text += "  net n" + std::to_string(g) + "\n    conn u" +
                std::to_string(g - 1) + " out\n    conn u" +
                std::to_string(g) + " a\n";
  }
  lib.text += "  net n" + std::to_string(slots) + "\n    conn u" +
              std::to_string(slots - 1) + " out\n    io out\nend\n";
  return lib;
}

class SelectionModel : public TrafficModel {
 public:
  SelectionModel(std::vector<std::pair<Verb, int>> mix,
                 std::vector<std::string> sessions, double zipf,
                 SelectionLibrary lib)
      : TrafficModel(std::move(mix), std::move(sessions), zipf),
        lib_(std::move(lib)) {}

 protected:
  std::string render(Verb verb, const std::string& s, Rng& rng) override {
    const std::size_t g = rng.below(lib_.slots);
    const std::size_t k = rng.below(lib_.realizations);
    switch (verb) {
      case Verb::kSelect:
        return render_line(request(RequestType::kSelect, s, "SYS limit 4"));
      case Verb::kEdit:
        // Redraw a realization's delay within 2 % of its grade: the search
        // cost is exponential in the slack, so wider draws would make it
        // depend on the seed rather than on the solver.
        return render_line(request(
            RequestType::kEdit, s,
            "leaf-delay " + realization(g, k) + " a out " +
                fmt(lib_.base_delay[k] * (0.98 + 0.04 * rng.uniform()))));
      case Verb::kQuery:
        return render_line(request(RequestType::kQuery, s,
                                realization(g, k) + ".delay(a->out)"));
      default:
        break;
    }
    std::abort();  // not in this mix
  }

 private:
  SelectionLibrary lib_;
};

}  // namespace

// ---------------------------------------------------------------------------

Rng::Rng(std::uint64_t seed) {
  // splitmix64 of the seed: nearby seeds give unrelated streams.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  s_ = z ^ (z >> 31);
  if (s_ == 0) s_ = 0x9E3779B97F4A7C15ull;
}

std::uint64_t Rng::next() {
  s_ ^= s_ >> 12;
  s_ ^= s_ << 25;
  s_ ^= s_ >> 27;
  return s_ * 0x2545F4914F6CDD1Dull;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

TrafficModel::TrafficModel(std::vector<std::pair<Verb, int>> mix,
                           std::vector<std::string> sessions,
                           double zipf_skew)
    : mix_(std::move(mix)), sessions_(std::move(sessions)) {
  for (const auto& [verb, weight] : mix_) mix_total_ += weight;
  double total = 0.0;
  for (std::size_t k = 0; k < sessions_.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_skew);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

Op TrafficModel::make(Verb verb, Rng& rng) {
  const auto session =
      std::upper_bound(cumulative_.begin(), cumulative_.end() - 1,
                       rng.uniform()) -
      cumulative_.begin();
  Op op;
  op.verb = verb;
  op.line = render(verb, sessions_[static_cast<std::size_t>(session)], rng);
  return op;
}

Op TrafficModel::next(Rng& rng) {
  int roll =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(mix_total_)));
  for (const auto& [verb, weight] : mix_) {
    if (roll < weight) return make(verb, rng);
    roll -= weight;
  }
  return make(mix_.back().first, rng);
}

std::vector<Op> TrafficModel::batch(Rng& rng, std::size_t n) {
  std::vector<Verb> verbs;
  verbs.reserve(n);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < mix_.size(); ++i) {
    const std::size_t count =
        i + 1 == mix_.size()
            ? n - assigned
            : n * static_cast<std::size_t>(mix_[i].second) /
                  static_cast<std::size_t>(mix_total_);
    verbs.insert(verbs.end(), count, mix_[i].first);
    assigned += count;
  }
  for (std::size_t i = verbs.size(); i > 1; --i) {
    std::swap(verbs[i - 1], verbs[rng.below(i)]);
  }
  std::vector<Op> ops;
  ops.reserve(n);
  for (const Verb v : verbs) ops.push_back(make(v, rng));
  return ops;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pipeline_durable", "pipeline_readmostly", "bighier_edit",
      "select_solve"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool small) {
  auto w = std::make_unique<Workload>();
  // The design draws from its own stream, so changing the traffic never
  // changes the design a seed names.
  Rng rng(seed * 0x100000001B3ull + 17);
  if (name == "pipeline_durable") {
    w->design = workload::pipeline_design();
    w->sessions = balanced_sessions(8);
    w->journal_policy = "every-record";
    w->rate_rps = small ? 2000.0 : 5000.0;
    w->model = std::make_unique<PipelineModel>(
        std::vector<std::pair<Verb, int>>{{Verb::kAssign, 50},
                                          {Verb::kBatchAssign, 20},
                                          {Verb::kQuery, 20},
                                          {Verb::kEdit, 10}},
        w->sessions, 1.0);
  } else if (name == "pipeline_readmostly") {
    w->design = workload::pipeline_design();
    w->sessions = balanced_sessions(32);
    w->journal_policy = "every-record";
    w->rate_rps = small ? 2000.0 : 8000.0;
    w->model = std::make_unique<PipelineModel>(
        std::vector<std::pair<Verb, int>>{{Verb::kQuery, 70},
                                          {Verb::kSave, 5},
                                          {Verb::kReport, 5},
                                          {Verb::kAssign, 15},
                                          {Verb::kBatchAssign, 5}},
        w->sessions, 0.6);
  } else if (name == "bighier_edit") {
    Hierarchy h = make_hierarchy(rng, small ? 2 : 4);
    w->design = h.text;
    w->sessions = balanced_sessions(2);
    w->journal_policy = "none";
    w->rate_rps = small ? 1000.0 : 150.0;
    w->model = std::make_unique<HierarchyModel>(
        std::vector<std::pair<Verb, int>>{{Verb::kAssign, 30},
                                          {Verb::kBatchAssign, 5},
                                          {Verb::kEdit, 10},
                                          {Verb::kQuery, 55}},
        w->sessions, 0.0, std::move(h));
  } else if (name == "select_solve") {
    SelectionLibrary lib = small ? make_selection(rng, 4, 6, 100e-9)
                                 : make_selection(rng, 8, 16, 265e-9);
    w->design = lib.text;
    w->sessions = balanced_sessions(2);
    w->journal_policy = "none";
    w->rate_rps = small ? 500.0 : 200.0;
    w->model = std::make_unique<SelectionModel>(
        std::vector<std::pair<Verb, int>>{{Verb::kEdit, 35},
                                          {Verb::kQuery, 10},
                                          {Verb::kSelect, 55}},
        w->sessions, 0.0, std::move(lib));
  } else {
    return nullptr;
  }
  return w;
}

std::vector<Op> open_loop_traffic(Workload& w, Rng& rng, double seconds) {
  const auto n = static_cast<std::size_t>(std::llround(w.rate_rps * seconds));
  std::vector<Op> ops = w.model->batch(rng, n);
  double t = 0.0;
  for (Op& op : ops) {
    t += -std::log(1.0 - rng.uniform()) / w.rate_rps;
    op.due_ns = static_cast<std::uint64_t>(t * 1e9);
  }
  return ops;
}

}  // namespace stemcp::bench
