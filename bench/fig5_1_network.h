// The E5.1 network (thesis Fig 5.1/9.1), shared by bench_fig5_1_hierarchical
// and the assignment counts pinned in tests/stem/experiment_counts_test.cpp.
//
// A cell's internal network (a functional chain of length M) feeds one
// class-level characteristic used by N instances.  Hierarchically, a change
// at the head propagates the internal chain ONCE and then crosses the
// implicit links to the N instances: M + 2N + 1 assignments.  Flattened —
// as a system without class/instance abstraction would represent it — the
// internal chain is replicated per instance: N(M + 2) + 1.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/core.h"
#include "stem/hierarchy.h"

namespace stemcp::fig5_1 {

/// Instance-side dual that mirrors the class value (the generic behaviour
/// of property duals).
class MirrorInstanceVar : public env::InstanceVar {
 public:
  using env::InstanceVar::InstanceVar;

  core::Status immediate_inference_by_changing(
      core::Variable& changed) override {
    if (&changed != class_dual() || changed.value().is_nil()) {
      return core::Status::ok();
    }
    return set_from_constraint(
        changed.value(), *class_dual(),
        core::Justification::propagated(
            *class_dual(), core::DependencyRecord::single(*class_dual())));
  }
};

/// A chain of `length` +1 adders from `head` to `tail`; the intermediate
/// variables land in `vars`.
inline void build_chain(core::PropagationContext& ctx,
                        std::vector<std::unique_ptr<core::Variable>>& vars,
                        core::Variable& head, core::Variable& tail, int length,
                        const std::string& tag) {
  core::Variable* prev = &head;
  for (int i = 0; i < length; ++i) {
    core::Variable* next;
    if (i + 1 == length) {
      next = &tail;
    } else {
      vars.push_back(std::make_unique<core::Variable>(
          ctx, tag, "x" + std::to_string(i)));
      next = vars.back().get();
    }
    auto& add = ctx.make<core::UniAdditionConstraint>(1.0);
    add.set_result(*next);
    add.basic_add_argument(*prev);
    prev = next;
  }
}

/// Hierarchical: one internal chain, N implicit duals, N external consumers.
struct Hierarchical {
  core::PropagationContext ctx;
  core::Variable head{ctx, "CELL", "head"};
  env::ClassVar characteristic{ctx, "CELL", "delay"};
  std::vector<std::unique_ptr<core::Variable>> chain_vars;
  std::vector<std::unique_ptr<MirrorInstanceVar>> duals;
  std::vector<std::unique_ptr<core::Variable>> external;

  Hierarchical(int instances, int internal) {
    build_chain(ctx, chain_vars, head, characteristic, internal, "CELL");
    for (int i = 0; i < instances; ++i) {
      duals.push_back(std::make_unique<MirrorInstanceVar>(
          ctx, "top/i" + std::to_string(i), "delay", &characteristic));
      // Each instance feeds one external consumer (its context network).
      external.push_back(std::make_unique<core::Variable>(
          ctx, "top/i" + std::to_string(i), "pathDelay"));
      auto& add = ctx.make<core::UniAdditionConstraint>(5.0);
      add.set_result(*external.back());
      add.basic_add_argument(*duals.back());
    }
  }
};

/// Flat: the internal chain replicated once per instance (no abstraction).
struct Flat {
  core::PropagationContext ctx;
  core::Variable head{ctx, "FLAT", "head"};
  std::vector<std::unique_ptr<core::Variable>> storage;

  Flat(int instances, int internal) {
    auto& fan = ctx.make<core::EqualityConstraint>();
    fan.basic_add_argument(head);
    for (int i = 0; i < instances; ++i) {
      const std::string tag = "flat/i" + std::to_string(i);
      storage.push_back(std::make_unique<core::Variable>(ctx, tag, "head"));
      core::Variable& local_head = *storage.back();
      fan.basic_add_argument(local_head);
      storage.push_back(std::make_unique<core::Variable>(ctx, tag, "delay"));
      core::Variable& local_tail = *storage.back();
      std::vector<std::unique_ptr<core::Variable>> chain_vars;
      build_chain(ctx, chain_vars, local_head, local_tail, internal, tag);
      for (auto& v : chain_vars) storage.push_back(std::move(v));
      storage.push_back(
          std::make_unique<core::Variable>(ctx, tag, "pathDelay"));
      auto& add = ctx.make<core::UniAdditionConstraint>(5.0);
      add.set_result(*storage.back());
      add.basic_add_argument(local_tail);
    }
  }
};

}  // namespace stemcp::fig5_1
