#include "service/session.h"

#include "stem/cell.h"
#include "stem/net.h"

namespace stemcp::service {

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
  for (const auto& cell : lib_.cells()) {
    fn(cell->bounding_box());
    for (const auto& sig : cell->signals()) {
      fn(sig->bit_width());
      fn(sig->data_type());
      fn(sig->electrical_type());
    }
    for (const auto& [pname, pvar] : cell->parameters()) fn(*pvar);
    for (env::ClassDelayVar* d : cell->delay_variables()) {
      if (&d->owner() == cell.get()) fn(*d);
    }
    for (const auto& sub : cell->subcells()) {
      fn(sub->bounding_box());
      for (env::InstanceBitWidthVar* v : sub->bit_width_variables()) fn(*v);
      for (env::InstanceParamVar* v : sub->parameter_variables()) fn(*v);
      for (env::InstanceDelayVar* v : sub->delay_variables()) fn(*v);
    }
  }
}

core::Variable* DesignSession::find_variable(const std::string& path) {
  core::Variable* found = nullptr;
  for_each_variable([&](core::Variable& v) {
    if (found == nullptr && v.path() == path) found = &v;
  });
  return found;
}

}  // namespace stemcp::service
