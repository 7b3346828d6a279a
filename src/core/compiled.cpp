#include "core/compiled.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/engine.h"

namespace stemcp::core {

std::optional<CompiledNetwork> CompiledNetwork::compile(
    PropagationContext& ctx, std::vector<FunctionalConstraint*> constraints) {
  // Kahn's algorithm over producer -> consumer edges, on flat index-based
  // adjacency (the node set is the input vector itself).  Iterating the
  // input vector — not a pointer-keyed map — makes the resulting order a
  // deterministic function of the caller's constraint order.
  const std::size_t n = constraints.size();
  std::unordered_map<const Variable*, std::size_t> producer;
  producer.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (constraints[i]->result_variable() != nullptr) {
      producer[constraints[i]->result_variable()] = i;
    }
  }
  std::vector<int> indegree(n, 0);
  std::vector<std::vector<std::size_t>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    FunctionalConstraint* c = constraints[i];
    for (const Variable* arg : c->arguments()) {
      if (arg == c->result_variable()) continue;
      const auto it = producer.find(arg);
      if (it != producer.end() && it->second != i) {
        out[it->second].push_back(i);
        ++indegree[i];
      }
    }
  }
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::vector<FunctionalConstraint*> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::size_t i = ready.back();
    ready.pop_back();
    order.push_back(constraints[i]);
    for (const std::size_t succ : out[i]) {
      if (--indegree[succ] == 0) ready.push_back(succ);
    }
  }
  if (order.size() != n) return std::nullopt;  // cyclic
  return CompiledNetwork(ctx, std::move(order));
}

CompiledNetwork::CompiledNetwork(PropagationContext& ctx,
                                 std::vector<FunctionalConstraint*> order)
    : ctx_(&ctx), order_(std::move(order)) {
  // Checks = every constraint attached to a written variable that is not
  // itself part of the compiled order, in first-encounter order.
  std::unordered_set<const Propagatable*> members(order_.begin(), order_.end());
  std::unordered_set<const Propagatable*> seen;
  for (FunctionalConstraint* c : order_) {
    Variable* r = c->result_variable();
    if (r == nullptr) continue;
    for (Propagatable* attached : r->constraints()) {
      if (members.count(attached) == 0 && seen.insert(attached).second) {
        checks_.push_back(attached);
      }
    }
  }
}

Status CompiledNetwork::evaluate() {
  for (FunctionalConstraint* c : order_) {
    Variable* r = c->result_variable();
    if (r == nullptr) continue;
    Value v = c->evaluate_function();
    if (v.is_nil()) continue;  // inputs incomplete
    r->store(std::move(v),
             Justification::propagated(*c, DependencyRecord::all()));
    ++ctx_->mutable_stats().assignments;
  }
  for (Propagatable* check : checks_) {
    ++ctx_->mutable_stats().checks;
    if (!check->is_satisfied()) {
      return ctx_->signal_violation(
          {check, nullptr, Value::nil(),
           "compiled network check failed: " + check->describe()});
    }
  }
  return Status::ok();
}

}  // namespace stemcp::core
