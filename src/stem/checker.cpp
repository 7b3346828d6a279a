#include "stem/checker.h"

#include <set>
#include <sstream>

#include "stem/library.h"
#include "stem/net.h"

namespace stemcp::env {

namespace {

void collect_variables(CellClass& cell, std::set<core::Variable*>& vars) {
  vars.insert(&cell.bounding_box());
  for (IoSignal* sig : cell.all_signals()) {
    vars.insert(&sig->bit_width());
    vars.insert(&sig->data_type());
    vars.insert(&sig->electrical_type());
  }
  for (ClassDelayVar* d : cell.delay_variables()) vars.insert(d);
  for (const auto& net : cell.nets()) {
    vars.insert(&net->bit_width());
    vars.insert(&net->data_type());
    vars.insert(&net->electrical_type());
  }
  for (const auto& sub : cell.subcells()) {
    vars.insert(&sub->bounding_box());
    for (InstanceDelayVar* d : sub->delay_variables()) vars.insert(d);
    for (InstanceBitWidthVar* w : sub->bit_width_variables()) vars.insert(w);
    for (IoSignal* sig : sub->cls().all_signals()) {
      vars.insert(&sig->bit_width());
      vars.insert(&sig->data_type());
      vars.insert(&sig->electrical_type());
    }
  }
}

}  // namespace

std::string CheckReport::to_string() const {
  std::ostringstream os;
  os << constraints_checked << " constraints checked, " << violation_count()
     << " violated\n";
  for (const auto& f : findings) {
    if (!f.satisfied) os << "  VIOLATED: " << f.constraint << '\n';
  }
  return os.str();
}

CheckReport DesignChecker::check(CellClass& cell) {
  std::set<core::Variable*> vars;
  collect_variables(cell, vars);

  std::set<const core::Propagatable*> constraints;
  std::vector<core::Propagatable*> implicit;
  for (core::Variable* v : vars) {
    for (core::Propagatable* c : v->constraints()) constraints.insert(c);
    implicit.clear();
    v->append_implicit_constraints(implicit);
    constraints.insert(implicit.begin(), implicit.end());
  }

  CheckReport report;
  report.constraints_checked = constraints.size();
  for (const core::Propagatable* c : constraints) {
    const bool ok = c->is_satisfied();
    if (!ok) report.findings.push_back({c->describe(), false});
  }
  return report;
}

CheckReport DesignChecker::check(Library& lib) {
  std::set<const core::Propagatable*> seen;
  std::vector<core::Propagatable*> implicit;
  CheckReport report;
  for (const auto& cell : lib.cells()) {
    std::set<core::Variable*> vars;
    collect_variables(*cell, vars);
    for (core::Variable* v : vars) {
      auto consider = [&](core::Propagatable* c) {
        if (!seen.insert(c).second) return;
        ++report.constraints_checked;
        if (!c->is_satisfied()) {
          report.findings.push_back({c->describe(), false});
        }
      };
      for (core::Propagatable* c : v->constraints()) consider(c);
      implicit.clear();
      v->append_implicit_constraints(implicit);
      for (core::Propagatable* c : implicit) consider(c);
    }
  }
  return report;
}

}  // namespace stemcp::env
