#include "stem/editor.h"

#include <map>
#include <set>
#include <sstream>

namespace stemcp::env {

using core::DependencyTrace;
using core::Propagatable;
using core::Variable;

std::string ConstraintInspector::describe(const Variable& v) {
  return v.to_string();
}

core::PropagationContext::ViolationHandler
ConstraintInspector::debugging_handler(std::ostream& out) {
  return [&out](const core::ViolationInfo& info) {
    out << "=== constraint violation ===\n" << info.to_string() << '\n';
    if (info.variable != nullptr) {
      out << "constraints on " << info.variable->path() << ":\n";
      for (const Propagatable* c : constraints_of(*info.variable)) {
        out << "  " << c->describe() << '\n';
      }
      out << antecedent_report(*info.variable);
    }
    out << "(proceeding: visited variables will be restored)\n";
  };
}

std::string ConstraintInspector::describe(const Propagatable& c) {
  return c.describe();
}

std::vector<const Propagatable*> ConstraintInspector::constraints_of(
    const Variable& v) {
  std::vector<Propagatable*> all = v.constraints();
  v.append_implicit_constraints(all);
  return {all.begin(), all.end()};
}

std::string ConstraintInspector::antecedent_report(const Variable& v) {
  std::ostringstream os;
  os << "antecedents of " << describe(v) << ":\n";
  const DependencyTrace t = v.antecedents();
  for (const Variable* var : t.variables) {
    if (var != &v) os << "  var  " << describe(*var) << '\n';
  }
  for (const Propagatable* c : t.constraints) {
    os << "  cons " << c->describe() << '\n';
  }
  return os.str();
}

std::string ConstraintInspector::consequence_report(const Variable& v) {
  std::ostringstream os;
  os << "consequences of " << describe(v) << ":\n";
  const DependencyTrace t = v.consequences();
  for (const Variable* var : t.variables) {
    if (var != &v) os << "  var  " << describe(*var) << '\n';
  }
  return os.str();
}

std::string ConstraintInspector::to_dot(
    const std::vector<const Variable*>& roots) {
  // Breadth-first walk over the bipartite variable/constraint graph.
  std::set<const Variable*> vars;
  std::set<const Propagatable*> cons;
  std::vector<const Variable*> queue(roots.begin(), roots.end());
  while (!queue.empty()) {
    const Variable* v = queue.back();
    queue.pop_back();
    if (!vars.insert(v).second) continue;
    for (const Propagatable* p : constraints_of(*v)) cons.insert(p);
  }
  // Second pass: pull in every argument of the discovered constraints.
  // (Constraints know their arguments only through the Constraint subclass;
  // fall back to dynamic_cast.)
  bool grew = true;
  while (grew) {
    grew = false;
    for (const Propagatable* p : cons) {
      const auto* c = dynamic_cast<const core::Constraint*>(p);
      if (c == nullptr) continue;
      for (const Variable* arg : c->arguments()) {
        if (vars.insert(arg).second) {
          grew = true;
          for (const Propagatable* pc : constraints_of(*arg)) {
            cons.insert(pc);
          }
        }
      }
    }
  }

  std::ostringstream os;
  os << "digraph constraints {\n  rankdir=LR;\n";
  std::map<const void*, std::string> id;
  int n = 0;
  for (const Variable* v : vars) {
    id[v] = "v" + std::to_string(n++);
    os << "  " << id[v] << " [shape=ellipse, label=\"" << v->path() << "\\n"
       << v->value().to_string() << "\"];\n";
  }
  for (const Propagatable* p : cons) {
    id[p] = "c" + std::to_string(n++);
    os << "  " << id[p] << " [shape=box, label=\"" << p->describe()
       << "\"];\n";
  }
  for (const Propagatable* p : cons) {
    const auto* c = dynamic_cast<const core::Constraint*>(p);
    if (c == nullptr) continue;
    for (const Variable* arg : c->arguments()) {
      if (id.count(arg) != 0) {
        os << "  " << id[arg] << " -> " << id[p] << " [dir=both];\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace stemcp::env
