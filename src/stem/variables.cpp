#include "stem/variables.h"

#include "stem/cell.h"
#include "stem/net.h"

namespace stemcp::env {

using core::Justification;
using core::Status;
using core::Value;
using core::Variable;

// ---- ClassBBoxVar -------------------------------------------------------------

ClassBBoxVar::ClassBBoxVar(core::PropagationContext& ctx, CellClass& owner,
                           const std::string& parent_name)
    : ClassVar(ctx, parent_name, "boundingBox"), owner_(&owner) {}

bool ClassBBoxVar::is_satisfied() const {
  if (!value().is_rect()) return true;
  for (InstanceVar* dual : instance_duals()) {
    auto* ib = static_cast<InstanceBBoxVar*>(dual);
    if (!ib->placement_fits()) return false;
  }
  return true;
}

// ---- InstanceBBoxVar -----------------------------------------------------------

InstanceBBoxVar::InstanceBBoxVar(core::PropagationContext& ctx,
                                 CellInstance& owner, ClassBBoxVar& dual,
                                 const std::string& parent_name)
    : InstanceVar(ctx, parent_name, "boundingBox", &dual), owner_(&owner) {}

Value InstanceBBoxVar::implied_value() const {
  // Thesis Fig 7.7: default to the transformed class box.
  const Value& cb = class_dual()->value();
  if (!cb.is_rect()) return Value::nil();  // class box erased
  return Value(owner_->transform().apply(cb.as_rect()));
}

bool InstanceBBoxVar::placement_fits() const {
  if (!value().is_rect()) return true;  // unplaced: nothing to violate
  const Value required = implied_value();
  if (!required.is_rect()) return true;
  return value().as_rect().extent_covers(required.as_rect());
}

bool InstanceBBoxVar::is_satisfied() const { return placement_fits(); }

Status InstanceBBoxVar::after_value_change(const Justification&) {
  // Thesis Fig 7.8: a subcell placement change invalidates the containing
  // cell's calculated bounding box (procedural update-constraint).
  CellClass* parent = owner_->parent_cell();
  if (parent == nullptr) return Status::ok();
  return parent->bounding_box().erase_for_update(*this);
}

// ---- ClassBitWidthVar ------------------------------------------------------------

bool ClassBitWidthVar::is_satisfied() const {
  if (!value().is_int()) return true;  // parameterized width
  for (InstanceVar* dual : instance_duals()) {
    const Value& iv = dual->value();
    if (iv.is_int() && iv != value()) return false;
  }
  return true;
}

// ---- InstanceBitWidthVar ----------------------------------------------------------

bool InstanceBitWidthVar::is_satisfied() const {
  const Variable* cb = class_dual();
  if (cb == nullptr || !cb->value().is_int() || !value().is_int()) return true;
  return value() == cb->value();
}

// ---- ClassParamVar ------------------------------------------------------------------

bool ClassParamVar::in_range(const Value& v) const {
  if (!range_.has_value() || !v.is_number()) return true;
  const double x = v.as_number();
  return x >= range_->first && x <= range_->second;
}

bool ClassParamVar::is_satisfied() const {
  for (InstanceVar* dual : instance_duals()) {
    if (!in_range(dual->value())) return false;
  }
  return true;
}

// ---- InstanceParamVar --------------------------------------------------------------

bool InstanceParamVar::is_satisfied() const {
  const auto* cp = static_cast<const ClassParamVar*>(class_dual());
  if (cp == nullptr) return true;
  return cp->in_range(value());
}

// ---- ClassDelayVar -----------------------------------------------------------------

ClassDelayVar::ClassDelayVar(core::PropagationContext& ctx, CellClass& owner,
                             std::string from, std::string to,
                             const std::string& parent_name)
    : ClassVar(ctx, parent_name, "delay(" + from + "->" + to + ")"),
      owner_(&owner),
      from_(std::move(from)),
      to_(std::move(to)) {}

// ---- InstanceDelayVar ---------------------------------------------------------------

InstanceDelayVar::InstanceDelayVar(core::PropagationContext& ctx,
                                   CellInstance& owner, ClassDelayVar& dual,
                                   const std::string& parent_name)
    : InstanceVar(ctx, parent_name,
                  "delay(" + dual.from() + "->" + dual.to() + ")", &dual),
      owner_(&owner) {}

ClassDelayVar& InstanceDelayVar::class_delay() const {
  return *static_cast<ClassDelayVar*>(class_dual());
}

double InstanceDelayVar::rc_adjustment() const {
  const ClassDelayVar& cd = class_delay();
  return rc_delay(cd.owner().find_signal(cd.to()), *owner_);
}

Value InstanceDelayVar::implied_value() const {
  const Value& cd = class_dual()->value();
  if (!cd.is_number()) return Value::nil();
  return Value(cd.as_number() + rc_adjustment());
}

}  // namespace stemcp::env
