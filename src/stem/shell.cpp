#include "stem/shell.h"

#include <fstream>
#include <sstream>

namespace stemcp::env {

using core::Value;
using core::Variable;

void ConstraintShell::register_variable(Variable& v) {
  vars_[v.path()] = &v;
}

void ConstraintShell::register_variable(const std::string& alias,
                                        Variable& v) {
  vars_[alias] = &v;
}

Variable* ConstraintShell::find(const std::string& name) const {
  const auto it = vars_.find(name);
  return it == vars_.end() ? nullptr : it->second;
}

std::string ConstraintShell::usage() {
  return "commands: show|set|probe|constraints|antecedents|consequences|dot "
         "<var> [value], on, off, restore, warnings, vars, trace on|off, "
         "stats [--latency], export-trace <file>, export-metrics <file>, "
         "service <line>, record start <file>|stop|status, "
         "replay <trace> [closed-loop] [speed <x>], help\n";
}

std::string ConstraintShell::execute(const std::string& command_line) {
  std::istringstream in(command_line);
  std::string cmd;
  if (!(in >> cmd)) return usage();

  if (cmd == "help") return usage();
  if (cmd == "service" || cmd == "svc") {
    if (!service_handler_) return "no design service attached\n";
    std::string rest;
    std::getline(in, rest);
    const auto first = rest.find_first_not_of(" \t");
    return service_handler_(first == std::string::npos ? std::string()
                                                       : rest.substr(first));
  }
  if (cmd == "record" || cmd == "replay") {
    // Workload trace verbs take the whole line — the handler owns the
    // sub-grammar (see docs/WORKLOAD.md).
    if (!workload_handler_) return "no workload recorder attached\n";
    return workload_handler_(command_line);
  }
  if (cmd == "on") {
    ctx_->set_enabled(true);
    return "propagation enabled\n";
  }
  if (cmd == "off") {
    ctx_->set_enabled(false);
    return "propagation disabled\n";
  }
  if (cmd == "restore") {
    inspector_.restore_last_propagation();
    return "restored\n";
  }
  if (cmd == "warnings") {
    std::ostringstream out;
    for (const auto& w : inspector_.warnings()) out << w << '\n';
    if (inspector_.warnings().empty()) out << "(none)\n";
    return out.str();
  }
  if (cmd == "vars") {
    std::ostringstream out;
    for (const auto& [name, var] : vars_) {
      out << name << " = " << var->value().to_string() << '\n';
    }
    if (vars_.empty()) out << "(none registered)\n";
    return out.str();
  }
  if (cmd == "trace") {
    std::string mode;
    if (!(in >> mode) || (mode != "on" && mode != "off")) {
      return "error: usage: trace on|off\n";
    }
    const bool on = mode == "on";
    ctx_->tracer().set_enabled(on);
    ctx_->metrics().set_enabled(on);
    return std::string("tracing ") + (on ? "enabled" : "disabled") + "\n";
  }
  if (cmd == "stats") {
    std::string opt;
    if (in >> opt) {
      if (opt != "--latency") return "error: stats options are '--latency'\n";
      // Request-latency percentiles live in the design service's telemetry
      // lanes, not this shell's engine context.
      if (!service_handler_) return "no design service attached\n";
      return service_handler_("stats --latency");
    }
    const auto& s = ctx_->stats();
    std::ostringstream out;
    out << "sessions: " << s.sessions << '\n'
        << "assignments: " << s.assignments << '\n'
        << "activations: " << s.activations << '\n'
        << "scheduled runs: " << s.scheduled_runs << '\n'
        << "checks: " << s.checks << '\n'
        << "violations: " << s.violations << '\n'
        << "restores: " << s.restores << '\n'
        << "agenda high water: " << s.agenda_high_water << '\n';
    for (std::size_t i = 0; i < core::PropagationContext::Stats::
                                    kTrackedPriorities; ++i) {
      if (s.scheduled_by_priority[i] == 0 && s.executed_by_priority[i] == 0) {
        continue;
      }
      out << "priority " << i << ": scheduled "
          << s.scheduled_by_priority[i] << ", executed "
          << s.executed_by_priority[i] << '\n';
    }
    if (ctx_->violation_log_dropped() > 0) {
      out << "warnings dropped: " << ctx_->violation_log_dropped() << '\n';
    }
    if (ctx_->tracer().enabled()) {
      out << "trace events: " << ctx_->tracer().events_emitted() << '\n';
    }
    if (ctx_->metrics().enabled()) {
      out << "metrics: " << ctx_->metrics().to_json() << '\n';
    }
    return out.str();
  }
  if (cmd == "export-trace") {
    std::string path;
    if (!(in >> path)) return "error: 'export-trace' needs a file path\n";
    if (ctx_->tracer().ring() == nullptr) {
      return "error: tracing was never enabled (use 'trace on')\n";
    }
    if (!core::export_chrome_trace(ctx_->tracer(), path)) {
      return "error: could not write '" + path + "'\n";
    }
    return "trace written to " + path + "\n";
  }
  if (cmd == "export-metrics") {
    std::string path;
    if (!(in >> path)) return "error: 'export-metrics' needs a file path\n";
    // With a service attached its telemetry view is the richer one (request
    // latency percentiles); standalone shells export the engine registry.
    if (service_handler_) return service_handler_("export-metrics " + path);
    std::ofstream f(path, std::ios::out | std::ios::trunc);
    if (!f.good()) return "error: could not write '" + path + "'\n";
    core::MetricsRegistry all = core::global_metrics_snapshot();
    all.merge(ctx_->metrics());
    f << core::metrics_to_prometheus(all);
    return "metrics written to " + path + "\n";
  }

  const bool variable_command =
      cmd == "show" || cmd == "set" || cmd == "probe" ||
      cmd == "constraints" || cmd == "antecedents" ||
      cmd == "consequences" || cmd == "dot";
  if (!variable_command) return usage();

  std::string name;
  if (!(in >> name)) return "error: '" + cmd + "' needs a variable\n";
  Variable* var = find(name);
  if (var == nullptr) return "error: unknown variable '" + name + "'\n";

  if (cmd == "show") return ConstraintInspector::describe(*var) + "\n";
  if (cmd == "constraints") {
    std::ostringstream out;
    for (const auto* c : ConstraintInspector::constraints_of(*var)) {
      out << c->describe() << '\n';
    }
    return out.str();
  }
  if (cmd == "antecedents") {
    return ConstraintInspector::antecedent_report(*var);
  }
  if (cmd == "consequences") {
    return ConstraintInspector::consequence_report(*var);
  }
  if (cmd == "dot") return ConstraintInspector::to_dot({var});

  if (cmd == "set" || cmd == "probe") {
    double x = 0.0;
    if (!(in >> x)) return "error: '" + cmd + "' needs a numeric value\n";
    if (cmd == "probe") {
      const bool ok = var->can_be_set_to(Value(x));
      return name + (ok ? " can" : " canNOT") + " be set to " +
             Value(x).to_string() + "\n";
    }
    const core::Status s = var->set_user(Value(x));
    if (s.is_violation()) {
      std::string report = "VIOLATION — restored";
      if (ctx_->last_violation()) {
        report += ": " + ctx_->last_violation()->to_string();
      }
      return report + "\n";
    }
    return ConstraintInspector::describe(*var) + "\n";
  }

  return usage();
}

}  // namespace stemcp::env
