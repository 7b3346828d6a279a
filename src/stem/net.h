// Nets: electrical connections inside a cell that *imply* signal typing
// constraints (thesis §7.1) — an equality-constraint over bit widths and
// compatible-constraints over data and electrical types, updated as signals
// join and leave the net.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "stem/compatible.h"
#include "stem/hierarchy.h"

namespace stemcp::env {

class CellClass;
class CellInstance;
class IoSignal;

struct NetConnection {
  CellInstance* instance = nullptr;  ///< nullptr = the parent cell's io
  std::string signal;
  /// The declaration the pin joined through, resolved once by the join and
  /// read until the pin is re-wired, even if a subclass shadows the name.
  IoSignal* declaration = nullptr;
};

class Net {
 public:
  Net(CellClass& parent, std::string name);
  ~Net();

  Net(const Net&) = delete;
  Net& operator=(const Net&) = delete;

  CellClass& parent() const { return *parent_; }
  const std::string& name() const { return name_; }
  std::string qualified_name() const;

  /// Connect a subcell instance signal to this net; instantiates the signal
  /// typing constraints.  A pin joins at most one net: one already on
  /// another net of the cell is refused (std::invalid_argument), and a
  /// second connect to this net changes nothing.
  core::Status connect(CellInstance& inst, const std::string& signal);
  /// Connect the parent cell's own io-signal to this net, under the same
  /// one-net rule.
  core::Status connect_io(const std::string& io_signal);
  void disconnect(CellInstance& inst, const std::string& signal) {
    leave(&inst, signal);
  }
  void disconnect_io(const std::string& io_signal) { leave(nullptr, io_signal); }

  const std::vector<NetConnection>& connections() const {
    return connections_;
  }
  bool connects(const CellInstance& inst, const std::string& signal) const {
    return find(&inst, signal) != connections_.end();
  }

  // Net-level typing variables.
  StemVariable& bit_width() { return *bit_width_; }
  SignalTypeVar& data_type() { return *data_type_; }
  SignalTypeVar& electrical_type() { return *electrical_type_; }
  const StemVariable& bit_width() const { return *bit_width_; }
  const SignalTypeVar& data_type() const { return *data_type_; }
  const SignalTypeVar& electrical_type() const { return *electrical_type_; }

  core::EqualityConstraint& width_constraint() { return *width_eq_; }
  CompatibleConstraint& data_constraint() { return *data_compat_; }
  CompatibleConstraint& electrical_constraint() { return *elec_compat_; }

  // ---- electrical context for the delay model (thesis §7.3) --------------
  /// Sum of input load capacitances hanging on this net, excluding the
  /// contribution of (`exclude_inst`, `exclude_signal`), plus the estimated
  /// wire capacitance.
  double total_load_capacitance(const CellInstance* exclude_inst = nullptr,
                                const std::string& exclude_signal = "") const;

  /// Wire capacitance estimate: half-perimeter of the bounding box of the
  /// connected (placed) pins, times the technology's capacitance per grid
  /// unit.  Couples the geometric and timing subsystems: spreading cells
  /// apart slows the nets between them.
  double wire_capacitance() const;
  double capacitance_per_unit() const { return cap_per_unit_; }
  void set_capacitance_per_unit(double farads_per_unit) {
    cap_per_unit_ = farads_per_unit;
  }
  /// Output resistance of whatever drives this net (a subcell output or the
  /// parent's input io); 0 when undriven.
  double driver_resistance() const;

 private:
  /// The one join: records the pin unless `current`, the net it is on now,
  /// forbids it, and adds its width and its declaration's type variables to
  /// the net's three constraints.  Returns the worst status.
  core::Status join(NetConnection pin, const Net* current);
  /// The one leave: drops the pin and removes what its join added.
  void leave(const CellInstance* inst, const std::string& signal);
  std::vector<NetConnection>::const_iterator find(
      const CellInstance* inst, const std::string& signal) const;

  CellClass* parent_;
  std::string name_;
  std::vector<NetConnection> connections_;
  std::unique_ptr<StemVariable> bit_width_;
  std::unique_ptr<SignalTypeVar> data_type_;
  std::unique_ptr<SignalTypeVar> electrical_type_;
  core::EqualityConstraint* width_eq_;
  CompatibleConstraint* data_compat_;
  CompatibleConstraint* elec_compat_;
  double cap_per_unit_ = 0.0;
};

/// RC delay model (thesis Fig 7.10): the delay `driver` pays into the
/// context of `context`, its output resistance times the load on the net its
/// pin drives (booked at the driver only, so chains count each hop once); 0
/// when `driver` is null or its pin is unconnected.
double rc_delay(const IoSignal* driver, const CellInstance& context);

}  // namespace stemcp::env
