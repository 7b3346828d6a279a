// The design database: cell classes, cell instances and io-signals
// (thesis ch. 3 & 5).
//
// A cell class encapsulates everything about a cell — its interface
// (io-signals with typing variables, parameters with ranges), its internal
// structure (subcells and nets), its characteristics (bounding box, delays)
// — while cell instances record only per-placement data (transform,
// connections, context-adjusted duals).  The dual declaration of instance
// variables on class and instance is what makes hierarchical constraint
// propagation possible.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stem/compatible.h"
#include "stem/signal_type.h"
#include "stem/variables.h"
#include "stem/views.h"

namespace stemcp::env {

class CellClass;
class CellInstance;
class Library;
class Net;

enum class SignalDirection { kInput, kOutput, kInOut };
const char* to_string(SignalDirection d);

/// Cell boundary side on which an io-pin sits (used by the tile compilers'
/// pin-butting).
enum class Side { kLeft, kBottom, kRight, kTop };
const char* to_string(Side s);
Side opposite(Side s);

/// Orders (from, to) delay keys and finds one by a pair of string_views, so
/// a lookup copies no name.
struct DelayKeyLess {
  using is_transparent = void;
  using View = std::pair<std::string_view, std::string_view>;
  static View view(const std::pair<std::string, std::string>& k) {
    return {k.first, k.second};
  }
  static View view(const View& k) { return k; }
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return view(a) < view(b);
  }
};

struct IoPin {
  std::string signal;
  core::Point position;  ///< in class coordinates, on the boundary
  Side side = Side::kLeft;
};

/// Electrical device description for primitive (leaf) cells, consumed by the
/// netlist extractor / MiniSpice substrate.
struct DeviceInfo {
  enum class Kind {
    kNone,
    kNmos,
    kPmos,
    kResistor,
    kCapacitor,
    kVoltageSource,
  };
  Kind kind = Kind::kNone;
  double value = 0.0;  ///< ohms / farads / volts
  double ron = 1e3;    ///< MOS on-resistance (ohms)

  bool is_device() const { return kind != Kind::kNone; }
};

/// Class-level io-signal declaration: name, direction, typing variables
/// (bit width, data type, electrical type — thesis §7.1), electrical model
/// (load capacitance / output resistance — thesis §7.3) and io-pins.
class IoSignal {
 public:
  IoSignal(CellClass& owner, std::string name, SignalDirection dir);

  CellClass& owner() const { return *owner_; }
  const std::string& name() const { return name_; }
  SignalDirection direction() const { return direction_; }
  bool is_input() const { return direction_ == SignalDirection::kInput; }
  bool is_output() const { return direction_ == SignalDirection::kOutput; }

  ClassBitWidthVar& bit_width() { return *bit_width_; }
  const ClassBitWidthVar& bit_width() const { return *bit_width_; }
  SignalTypeVar& data_type() { return *data_type_; }
  SignalTypeVar& electrical_type() { return *electrical_type_; }
  const SignalTypeVar& data_type() const { return *data_type_; }
  const SignalTypeVar& electrical_type() const { return *electrical_type_; }

  double load_capacitance() const { return load_capacitance_; }
  void set_load_capacitance(double f) { load_capacitance_ = f; }
  double output_resistance() const { return output_resistance_; }
  void set_output_resistance(double ohms) { output_resistance_ = ohms; }

  void add_pin(core::Point position, Side side);
  const std::vector<IoPin>& pins() const { return pins_; }

  /// Internal net this io-signal connects to inside the owning cell.
  Net* internal_net() const { return internal_net_; }

 private:
  friend class Net;
  CellClass* owner_;
  std::string name_;
  SignalDirection direction_;
  std::unique_ptr<ClassBitWidthVar> bit_width_;
  std::unique_ptr<SignalTypeVar> data_type_;
  std::unique_ptr<SignalTypeVar> electrical_type_;
  double load_capacitance_ = 0.0;
  double output_resistance_ = 0.0;
  std::vector<IoPin> pins_;
  Net* internal_net_ = nullptr;
};

/// One placement of a cell class inside another cell (thesis §3.3.2).
class CellInstance {
 public:
  CellInstance(CellClass& cls, CellClass* parent_cell, std::string name,
               core::Transform transform);
  ~CellInstance();

  CellInstance(const CellInstance&) = delete;
  CellInstance& operator=(const CellInstance&) = delete;

  CellClass& cls() const { return *cls_; }
  CellClass* parent_cell() const { return parent_cell_; }
  const std::string& name() const { return name_; }
  std::string qualified_name() const;

  const core::Transform& transform() const { return transform_; }
  void set_transform(core::Transform t);

  InstanceBBoxVar& bounding_box() { return *bbox_; }
  const InstanceBBoxVar& bounding_box() const { return *bbox_; }

  /// Per-signal instance bit width (created on demand, dual to the class
  /// signal's width).
  InstanceBitWidthVar& bit_width(const std::string& signal);
  /// The bit width created so far for `signal`, or nullptr; creates nothing.
  InstanceBitWidthVar* find_bit_width(std::string_view signal) const;
  /// Every instance bit-width variable created so far (for audits).
  std::vector<InstanceBitWidthVar*> bit_width_variables() const;
  /// Per-parameter instance value (created on demand).
  InstanceParamVar& parameter(const std::string& name);
  /// The parameter created so far for `name`, or nullptr; creates nothing.
  InstanceParamVar* find_parameter(std::string_view name) const;
  /// Every instance parameter variable created so far (for audits).
  std::vector<InstanceParamVar*> parameter_variables() const;
  /// Instance delay dual for a declared class delay (created on demand).
  InstanceDelayVar& delay(const std::string& from, const std::string& to);
  /// The delay created so far for from->to, or nullptr; creates nothing.
  InstanceDelayVar* find_delay(std::string_view from,
                               std::string_view to) const;
  std::vector<InstanceDelayVar*> delay_variables() const;
  /// Visit every instance variable created so far, in place: the bit
  /// widths, the parameters and the delays, in the orders of the three
  /// lists above.
  template <typename Fn>
  void for_each_variable(Fn&& fn) const {
    for (const auto& [signal, var] : bit_widths_) fn(*var);
    for (const auto& [name, var] : params_) fn(*var);
    for (const auto& [key, var] : delays_) fn(*var);
  }

  /// Net connected to a signal of this instance; nullptr if unconnected.
  Net* net_for(const std::string& signal) const;

  /// Io-pin positions in parent-cell coordinates (class pins transformed by
  /// this placement).
  std::vector<IoPin> placed_pins() const;

  /// Placed pins stretched to the perimeter of the instance bounding box
  /// (thesis Fig 7.6): when a cell is placed in an area larger than its
  /// class box, STEM extends the signal ports to the placement boundary so
  /// neighbours can still butt against them.
  std::vector<IoPin> stretched_pins() const;

 private:
  friend class Net;
  void note_connection(const std::string& signal, Net* net);

  CellClass* cls_;
  CellClass* parent_cell_;
  std::string name_;
  core::Transform transform_;
  std::unique_ptr<InstanceBBoxVar> bbox_;
  std::map<std::string, std::unique_ptr<InstanceBitWidthVar>, std::less<>>
      bit_widths_;
  std::map<std::string, std::unique_ptr<InstanceParamVar>, std::less<>>
      params_;
  std::map<std::pair<std::string, std::string>,
           std::unique_ptr<InstanceDelayVar>, DelayKeyLess>
      delays_;
  std::map<std::string, Net*> connections_;
};

/// A cell class: the library version of a cell (thesis §3.3.2), organized
/// in an inheritance hierarchy (generic cells and their realizations,
/// thesis ch. 8).
class CellClass : public Model {
 public:
  CellClass(Library& lib, std::string name, CellClass* superclass);
  ~CellClass() override;

  CellClass(const CellClass&) = delete;
  CellClass& operator=(const CellClass&) = delete;

  Library& library() const { return library_; }
  core::PropagationContext& context() const;
  SignalTypeRegistry& types() const;
  const std::string& name() const { return name_; }

  // ---- inheritance hierarchy ------------------------------------------
  CellClass* superclass() const { return superclass_; }
  const std::vector<CellClass*>& subclasses() const { return subclasses_; }
  /// All transitive descendants (pre-order).
  std::vector<CellClass*> all_subclasses() const;
  bool is_descendant_of(const CellClass& other) const;
  bool is_generic() const { return generic_; }
  void set_generic(bool g) { generic_ = g; }

  // ---- interface ---------------------------------------------------------
  IoSignal& declare_signal(const std::string& name, SignalDirection dir);
  /// Declared here or inherited (nearest wins).
  IoSignal* find_signal(std::string_view name) const;
  IoSignal& signal(const std::string& name) const;
  const std::vector<std::unique_ptr<IoSignal>>& signals() const {
    return signals_;
  }
  /// Signals declared here or inherited from ancestors (nearest wins).
  std::vector<IoSignal*> all_signals() const;

  ClassParamVar& declare_parameter(const std::string& name, double lo,
                                   double hi, core::Value default_value);
  /// Declared here or inherited (nearest wins).
  ClassParamVar* find_parameter(std::string_view name) const;
  /// The parameters declared on this class itself.
  const std::map<std::string, std::unique_ptr<ClassParamVar>, std::less<>>&
  parameters() const {
    return params_;
  }

  // ---- internal structure --------------------------------------------------
  /// Throws std::invalid_argument, changing nothing, when `cls` is this
  /// class or contains it: instantiation stays acyclic.
  CellInstance& add_subcell(CellClass& cls, const std::string& name,
                            core::Transform t = {});
  void remove_subcell(CellInstance& inst);
  /// Swap a subcell's class (e.g. committing a module-selection choice for
  /// a generic instance): a new instance with the same name, transform and
  /// placement box takes over the old one's net connections signal by
  /// signal.  Returns the replacement.
  CellInstance& replace_subcell(CellInstance& inst, CellClass& realization);
  const std::vector<std::unique_ptr<CellInstance>>& subcells() const {
    return subcells_;
  }
  /// The first subcell named `name`.
  CellInstance* find_subcell(std::string_view name) const;
  /// Whether this class is `other` or is instantiated, at any depth, inside
  /// `other`.
  bool is_part_of(const CellClass& other) const;

  Net& add_net(const std::string& name);
  void remove_net(Net& net);
  Net* find_net(const std::string& name) const;
  const std::vector<std::unique_ptr<Net>>& nets() const { return nets_; }

  /// All live instances of this class anywhere in the library.
  const std::vector<CellInstance*>& instances() const { return instances_; }

  // ---- bounding box (thesis §7.2) -----------------------------------------
  ClassBBoxVar& bounding_box() { return *bbox_; }
  const ClassBBoxVar& bounding_box() const { return *bbox_; }
  /// Union of subcell placements — `calculateBoundingBox`.
  core::Rect calculate_bounding_box() const;

  // ---- primitive device info (MiniSpice substrate) --------------------------
  DeviceInfo& device() { return device_; }
  const DeviceInfo& device() const { return device_; }
  bool is_device() const { return device_.is_device(); }

  // ---- delays (thesis §7.3) --------------------------------------------------
  ClassDelayVar& declare_delay(const std::string& from, const std::string& to);
  /// Declared here or inherited (nearest wins).
  ClassDelayVar* find_delay(std::string_view from, std::string_view to) const;
  std::vector<ClassDelayVar*> delay_variables() const;
  /// Assign a leaf cell's characteristic delay (calculated / measured).
  core::Status set_leaf_delay(const std::string& from, const std::string& to,
                              double seconds);

  /// Build the UniMaximum-of-UniAddition delay networks relating this
  /// cell's class delays to its subcells' instance delays (thesis Fig 7.12).
  void build_delay_networks();
  /// Tear the networks down (internal structure changed); values derived
  /// from them are erased by dependency analysis.
  void invalidate_delay_networks();
  bool delay_networks_built() const { return delay_networks_built_; }
  /// Enumerate the delay paths (instance delay variables per path) between
  /// two io-signals; exposed for the checker/editor.
  std::vector<std::vector<InstanceDelayVar*>> delay_paths(
      const std::string& from, const std::string& to) const;

  /// The path currently achieving the worst-case delay, with its total.
  /// Empty path / nil total when no path is fully characterized yet.
  struct CriticalPath {
    std::vector<InstanceDelayVar*> path;
    core::Value total;
  };
  CriticalPath critical_path(const std::string& from,
                             const std::string& to) const;

  // ---- module selection (thesis ch. 8) ----------------------------------------
  /// Test property symbols, in order: "bBox", "signals", "delays".
  bool is_valid_realization_for(CellInstance& inst,
                                const std::vector<std::string>& priorities);
  bool valid_bbox_for(CellInstance& inst);
  bool valid_signals_for(CellInstance& inst);
  bool valid_delays_for(CellInstance& inst);
  /// Generate-and-test with tree pruning via generic cells (thesis
  /// Fig 8.3).
  std::vector<CellClass*> valid_realizations_for(
      CellInstance& inst, const std::vector<std::string>& priorities);
  std::vector<CellClass*> select_realizations_for(
      CellInstance& inst, const std::vector<std::string>& priorities);
  /// Ablation baseline: test every non-generic descendant, no pruning.
  std::vector<CellClass*> valid_realizations_unpruned(
      CellInstance& inst, const std::vector<std::string>& priorities);
  /// Candidate delay adjusted to an instance's context (thesis Fig 8.2
  /// delayFrom:to:outputNets:).
  core::Value adjusted_delay_for(const std::string& from,
                                 const std::string& to,
                                 const CellInstance& context);

  /// Structure edit hook: invalidates derived data (delay networks, class
  /// bounding box) and broadcasts #changed:structure.
  void structure_edited();

 protected:
  void on_changed(const std::string& key) override;

 private:
  friend class CellInstance;
  void register_instance(CellInstance& i);
  void unregister_instance(CellInstance& i);
  void enumerate_paths(const std::string& from_signal, Net* net,
                       const std::string& to_signal,
                       std::vector<InstanceDelayVar*>& prefix,
                       std::vector<const Net*>& nets_on_path,
                       std::vector<std::vector<InstanceDelayVar*>>& out) const;

  Library& library_;
  std::string name_;
  CellClass* superclass_;
  bool broadcasting_up_ = false;
  std::vector<CellClass*> subclasses_;
  bool generic_ = false;

  std::vector<std::unique_ptr<IoSignal>> signals_;
  std::map<std::string, std::unique_ptr<ClassParamVar>, std::less<>> params_;
  std::vector<std::unique_ptr<CellInstance>> subcells_;
  std::vector<std::unique_ptr<Net>> nets_;
  std::vector<CellInstance*> instances_;

  std::unique_ptr<ClassBBoxVar> bbox_;
  DeviceInfo device_;

  std::map<std::pair<std::string, std::string>, std::unique_ptr<ClassDelayVar>,
           DelayKeyLess>
      delays_;
  bool delay_networks_built_ = false;
  std::vector<std::unique_ptr<core::Variable>> delay_aux_vars_;
  std::vector<core::Constraint*> delay_constraints_;
};

}  // namespace stemcp::env
