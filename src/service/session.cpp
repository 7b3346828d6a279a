#include "service/session.h"

#include <string_view>

#include "stem/cell.h"

namespace stemcp::service {

namespace {

using env::CellClass;
using env::CellInstance;

constexpr std::size_t npos = std::string_view::npos;

/// The class-level variables of `cell`, in for_each_variable's order.
template <typename Fn>
void visit_class_variables(CellClass& cell, Fn&& fn) {
  fn(cell.bounding_box());
  for (const auto& sig : cell.signals()) {
    fn(sig->bit_width());
    fn(sig->data_type());
    fn(sig->electrical_type());
  }
  for (const auto& [pname, pvar] : cell.parameters()) fn(*pvar);
  for (env::ClassDelayVar* d : cell.delay_variables()) {
    if (&d->owner() == &cell) fn(*d);
  }
}

/// Every variable of `cell`, in for_each_variable's order: the class-level
/// ones, then each subcell's.
template <typename Fn>
void visit_cell_variables(CellClass& cell, Fn&& fn) {
  visit_class_variables(cell, fn);
  for (const auto& sub : cell.subcells()) {
    fn(sub->bounding_box());
    sub->for_each_variable(fn);
  }
}

/// The argument of `name` when it reads `<kind><argument>)`; every kind
/// ends in '('.
bool argument_of(std::string_view name, std::string_view kind,
                 std::string_view* arg) {
  if (!name.starts_with(kind) || !name.ends_with(')')) return false;
  *arg = name.substr(kind.size(), name.size() - kind.size() - 1);
  return true;
}

/// Resolves one identification path (docs/SERVICE.md "Variable paths").
/// Class and instance names may hold '.', '/' and "->", so every split of
/// the path into owners' names is looked up.  When two of them resolve, the
/// variable for_each_variable visits first wins.
class PathWalk {
 public:
  explicit PathWalk(const env::Library& lib) : lib_(lib) {}

  core::Variable* resolve(std::string_view path) {
    if (!path.ends_with(')')) {
      // The variable's name is one word, so it follows the last '.'.
      const std::size_t dot = path.rfind('.');
      if (dot != npos) word(path.substr(0, dot), path.substr(dot + 1));
      return best_;
    }
    // `<kind>(<argument>)`: the argument may hold dots.
    for (std::size_t dot = path.rfind('.'); dot != npos;
         dot = dot == 0 ? npos : path.rfind('.', dot - 1)) {
      call(path.substr(0, dot), path.substr(dot + 1));
    }
    return best_;
  }

 private:
  /// `<owner>.boundingBox`, or `<cls>.<signal>.<typing variable>`.
  void word(std::string_view owner, std::string_view name) {
    if (name == "boundingBox") {
      if (CellClass* c = lib_.find(owner)) offer(&c->bounding_box(), *c);
      instances(owner, [&](CellInstance& i, CellClass& c) {
        offer(&i.bounding_box(), c);
      });
      return;
    }
    for (std::size_t dot = owner.find('.'); dot != npos;
         dot = owner.find('.', dot + 1)) {
      CellClass* c = lib_.find(owner.substr(0, dot));
      if (c == nullptr) continue;
      env::IoSignal* sig = c->find_signal(owner.substr(dot + 1));
      // An inherited signal's variables print their owner's name.
      if (sig == nullptr || &sig->owner() != c) continue;
      if (name == "bitWidth") offer(&sig->bit_width(), *c);
      if (name == "dataType") offer(&sig->data_type(), *c);
      if (name == "electricalType") offer(&sig->electrical_type(), *c);
    }
  }

  /// `<owner>.param(<p>)`, `<owner>.delay(<from>-><to>)` or
  /// `<cls>/<inst>.bitWidth(<signal>)`.
  void call(std::string_view owner, std::string_view name) {
    std::string_view arg;
    if (argument_of(name, "param(", &arg)) {
      if (CellClass* c = lib_.find(owner)) {
        const auto it = c->parameters().find(arg);
        if (it != c->parameters().end()) offer(it->second.get(), *c);
      }
      instances(owner, [&](CellInstance& i, CellClass& c) {
        offer(i.find_parameter(arg), c);
      });
    } else if (argument_of(name, "bitWidth(", &arg)) {
      instances(owner, [&](CellInstance& i, CellClass& c) {
        offer(i.find_bit_width(arg), c);
      });
    } else if (argument_of(name, "delay(", &arg)) {
      for (std::size_t arrow = arg.find("->"); arrow != npos;
           arrow = arg.find("->", arrow + 1)) {
        const std::string_view from = arg.substr(0, arrow);
        const std::string_view to = arg.substr(arrow + 2);
        if (CellClass* c = lib_.find(owner)) {
          env::ClassDelayVar* d = c->find_delay(from, to);
          // An inherited delay's path names its owner.
          if (d != nullptr && &d->owner() == c) offer(d, *c);
        }
        instances(owner, [&](CellInstance& i, CellClass& c) {
          offer(i.find_delay(from, to), c);
        });
      }
    }
  }

  /// Calls fn(instance, parent) for each subcell `<cls>/<inst>` names.
  template <typename Fn>
  void instances(std::string_view owner, Fn&& fn) {
    for (std::size_t slash = owner.find('/'); slash != npos;
         slash = owner.find('/', slash + 1)) {
      CellClass* c = lib_.find(owner.substr(0, slash));
      if (c == nullptr) continue;
      const std::string_view inst = owner.substr(slash + 1);
      for (const auto& sub : c->subcells()) {
        if (sub->name() == inst) fn(*sub, *c);
      }
    }
  }

  void offer(core::Variable* v, CellClass& cell) {
    if (v == nullptr || v == best_) return;
    if (best_ == nullptr || visited_before_best(*v, cell)) {
      best_ = v;
      best_cell_ = &cell;
    }
  }

  /// Whether for_each_variable visits `v`, a variable of `cell`, before
  /// best_.  Only a path that two variables print gets here.
  bool visited_before_best(core::Variable& v, CellClass& cell) const {
    if (&cell != best_cell_) {
      for (const auto& c : lib_.cells()) {
        if (c.get() == &cell) return true;
        if (c.get() == best_cell_) return false;
      }
      return false;
    }
    const core::Variable* first = nullptr;
    visit_cell_variables(cell, [&](core::Variable& x) {
      if (first == nullptr && (&x == &v || &x == best_)) first = &x;
    });
    return first == &v;
  }

  const env::Library& lib_;
  core::Variable* best_ = nullptr;
  CellClass* best_cell_ = nullptr;
};

}  // namespace

DesignSession::DesignSession(std::string name, bool collect_metrics,
                             bool collect_trace)
    : name_(std::move(name)),
      lib_(name_),
      opt_metrics_(collect_metrics),
      opt_trace_(collect_trace) {
  if (collect_metrics) lib_.context().metrics().set_enabled(true);
  if (collect_trace) lib_.context().tracer().set_enabled(true);
}

DesignSession::~DesignSession() { detach_journal(); }

void DesignSession::detach_journal() {
  if (journal_ == nullptr) return;
  core::MetricsRegistry& m = lib_.context().metrics();
  if (m.enabled()) journal_->add_metrics_to(m);
  journal_.reset();
}

std::string DesignSession::open_options() const {
  std::string opts;
  if (opt_metrics_) opts = "metrics";
  if (opt_trace_) opts += opts.empty() ? "trace" : " trace";
  return opts;
}

void DesignSession::for_each_variable(
    const std::function<void(core::Variable&)>& fn) {
  for (const auto& cell : lib_.cells()) visit_cell_variables(*cell, fn);
}

void DesignSession::for_each_class_variable(
    env::CellClass& cell, const std::function<void(core::Variable&)>& fn) {
  visit_class_variables(cell, fn);
}

core::Variable* DesignSession::find_variable(const std::string& path) {
  return PathWalk(lib_).resolve(path);
}

}  // namespace stemcp::service
