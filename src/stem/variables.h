// Specialized dual variables of the design database (thesis ch. 5 & 7):
// bounding boxes, bit widths, parameters and delays — each a class-side /
// instance-side pair linked as implicit constraints.
#pragma once

#include <optional>
#include <string>

#include "stem/hierarchy.h"

namespace stemcp::env {

class CellClass;
class CellInstance;

// ---- Bounding boxes (thesis §7.2) -------------------------------------------

/// Class-side bounding box: the smallest rectangle containing the cell's
/// internal structure.  Lazily recalculated (`calculateBoundingBox`) and
/// checked against every instance placement.
class ClassBBoxVar : public ClassVar {
 public:
  ClassBBoxVar(core::PropagationContext& ctx, CellClass& owner,
               const std::string& parent_name);

  CellClass& owner() const { return *owner_; }
  bool is_satisfied() const override;

 private:
  CellClass* owner_;
};

/// Instance-side bounding box: the placement area of one cell instance.  A
/// class box change defaults non-user instance boxes to the transformed
/// class box (thesis Fig 7.7); any instance box change procedurally resets
/// the containing cell's class box (thesis Fig 7.8).
class InstanceBBoxVar : public InstanceVar {
 public:
  InstanceBBoxVar(core::PropagationContext& ctx, CellInstance& owner,
                  ClassBBoxVar& dual, const std::string& parent_name);

  CellInstance& owner() const { return *owner_; }

  /// The class box under this placement's transform.
  core::Value implied_value() const override;
  /// A #USER placement is kept; the final check verifies it still fits.
  bool keeps_own_value() const override {
    return has_value() && last_set_by().is_user();
  }
  bool is_satisfied() const override;
  /// True when this placement can contain the transformed class box.
  bool placement_fits() const;

 protected:
  core::Status after_value_change(const core::Justification& j) override;

 private:
  CellInstance* owner_;
};

// ---- Bit widths (thesis §7.1) -----------------------------------------------

/// Class-side signal bit width; nil for width-parameterized cells.
class ClassBitWidthVar : public ClassVar {
 public:
  using ClassVar::ClassVar;
  bool is_satisfied() const override;
};

/// Instance-side signal bit width; defaults from the class width and must
/// agree with it when both are known.
class InstanceBitWidthVar : public InstanceVar {
 public:
  using InstanceVar::InstanceVar;

  /// The class width, when it is an integer.
  core::Value implied_value() const override {
    const core::Value& cw = class_dual()->value();
    return cw.is_int() ? cw : core::Value::nil();
  }
  /// A #USER width is kept.
  bool keeps_own_value() const override {
    return has_value() && last_set_by().is_user();
  }
  bool is_satisfied() const override;
};

// ---- Parameters (thesis §5.1.1) ----------------------------------------------

/// Class-side parameter: characterizes the legal range (and holds the
/// default value, which propagates to unset instances).
class ClassParamVar : public ClassVar {
 public:
  using ClassVar::ClassVar;

  void set_range(double lo, double hi) { range_ = {lo, hi}; }
  bool has_range() const { return range_.has_value(); }
  double lo() const { return range_->first; }
  double hi() const { return range_->second; }
  bool in_range(const core::Value& v) const;

  bool is_satisfied() const override;

 private:
  std::optional<std::pair<double, double>> range_;
};

/// Instance-side parameter: the actual value for one use of the cell;
/// checked against the class range, defaulted from the class value.
class InstanceParamVar : public InstanceVar {
 public:
  using InstanceVar::InstanceVar;

  /// The class value: the default of unset instances (thesis §5.1.1).
  core::Value implied_value() const override { return class_dual()->value(); }
  /// Any value is kept: only an unset instance takes the default.
  bool keeps_own_value() const override { return has_value(); }
  bool is_satisfied() const override;
};

// ---- Delays (thesis §7.3) -----------------------------------------------------

/// Class-side delay between two io-signals: the nominal characteristic of
/// the cell's internal structure.
class ClassDelayVar : public ClassVar {
 public:
  ClassDelayVar(core::PropagationContext& ctx, CellClass& owner,
                std::string from, std::string to,
                const std::string& parent_name);

  CellClass& owner() const { return *owner_; }
  const std::string& from() const { return from_; }
  const std::string& to() const { return to_; }

 private:
  CellClass* owner_;
  std::string from_;
  std::string to_;
};

/// Instance-side delay: the class delay adjusted to the instance's context
/// — the output resistance driving its input net and the total load
/// capacitance on its output net (thesis §7.3).  Instance delays never
/// propagate back to the class delay, and never keep their own value.
class InstanceDelayVar : public InstanceVar {
 public:
  InstanceDelayVar(core::PropagationContext& ctx, CellInstance& owner,
                   ClassDelayVar& dual, const std::string& parent_name);

  CellInstance& owner() const { return *owner_; }
  ClassDelayVar& class_delay() const;

  /// The class delay plus the RC term, when the class delay is a number.
  core::Value implied_value() const override;

  /// RC adjustment added to the class delay for this instance's context.
  double rc_adjustment() const;

 private:
  CellInstance* owner_;
};

}  // namespace stemcp::env
