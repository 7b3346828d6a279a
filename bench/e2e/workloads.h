// Seeded designs and request streams for stemcp_bench.
//
// A workload is a design every session loads plus a traffic mix.  All of it
// is a pure function of (workload name, seed, scale): the same arguments
// give byte-identical library text and request lines, which the benchmark
// checks by CRC.  The program under test only ever sees the generated
// protocol lines.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace stemcp::bench {

/// Latency class of a request.  Writes change the design (assign,
/// batch-assign, edit); reads do not (query, save, report, and select
/// without commit).
enum class Kind : std::uint8_t { kWrite, kRead };

enum class Verb : std::uint8_t {
  kAssign,
  kBatchAssign,
  kEdit,
  kQuery,
  kSave,
  kReport,
  kSelect,
};

inline Kind kind_of(Verb v) {
  return v == Verb::kAssign || v == Verb::kBatchAssign || v == Verb::kEdit
             ? Kind::kWrite
             : Kind::kRead;
}

struct Op {
  std::uint64_t due_ns = 0;  ///< arrival offset from the phase start
  Verb verb = Verb::kQuery;
  std::string line;          ///< one protocol request line
};

/// xorshift64* with splitmix seeding: portable, so a seed names the same
/// stream on every platform (std:: distributions are not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform();  ///< [0, 1)

 private:
  std::uint64_t s_;
};

/// A traffic mix over named sessions: picks the verb by weight and the
/// session by zipf popularity, and leaves the request text to the design.
class TrafficModel {
 public:
  TrafficModel(std::vector<std::pair<Verb, int>> mix,
               std::vector<std::string> sessions, double zipf_skew);
  virtual ~TrafficModel() = default;

  /// The next request, verb by weighted roll.
  Op next(Rng& rng);
  /// `n` requests whose verb counts match the mix weights exactly (then
  /// shuffled), so every latency class gets a fixed sample count.
  std::vector<Op> batch(Rng& rng, std::size_t n);

 protected:
  /// Render one protocol line of `verb` against `session`.
  virtual std::string render(Verb verb, const std::string& session,
                             Rng& rng) = 0;

 private:
  Op make(Verb verb, Rng& rng);

  std::vector<std::pair<Verb, int>> mix_;
  int mix_total_ = 0;
  std::vector<std::string> sessions_;
  std::vector<double> cumulative_;  ///< zipf popularity, normalized
};

struct Workload {
  std::string design;                 ///< library text every session loads
  std::vector<std::string> sessions;  ///< names, alternating across shards
  std::string journal_policy;         ///< "every-record" | "none"
  double rate_rps = 0.0;              ///< open-loop Poisson rate
  std::unique_ptr<TrafficModel> model;
};

constexpr std::size_t kShards = 2;

/// The four workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Build workload `name` for `seed`.  `small` scales the design and the
/// rate down for the smoke test.  Returns nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool small);

/// Open-loop traffic: `seconds` of Poisson arrivals at w.rate_rps (the
/// request count is fixed at rate × seconds; the offsets are random).
std::vector<Op> open_loop_traffic(Workload& w, Rng& rng, double seconds);

}  // namespace stemcp::bench
